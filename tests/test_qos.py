"""QoS policy parsing and classification."""

import random

import pytest
from conftest import EDGE_PROTOS, edge_sids, random_matcher

from flowgate.errors import ConfigError
from flowgate.packet import TCP, UDP, SessionId, parse_ip
from flowgate.qos import QosPolicy, classify, parse_qos


def sid(proto=UDP, src="10.0.0.5", sport=5000, dst="198.51.100.9", dport=5060):
    return SessionId(parse_ip(src), sport, parse_ip(dst), dport, proto)


def test_parse_and_classify_voip_like():
    qp = parse_qos("udp any any any 5060-5061 dscp 46\n")
    assert classify(qp, sid(dport=5060)) == 46
    assert classify(qp, sid(dport=5062)) == 0  # default best effort


def test_explicit_catch_all():
    qp = parse_qos("any any any any any dscp 0\n")
    assert classify(qp, sid()) == 0
    assert qp.rules[0].dscp == 0


@pytest.mark.parametrize(
    "text,err",
    [
        ("tcp any any any 80 dscp 64", "out of range"),
        ("tcp any any any 80 dscp 99", "out of range"),
        ("tcp any any any 80 dscp -1", "out of range"),
        ("tcp any any any 80 46", "dscp"),
        ("tcp any any any dscp 46", "dscp"),
    ],
)
def test_parse_errors(text, err):
    with pytest.raises(ConfigError, match=err):
        parse_qos(text)


def test_classify_is_pure():
    qp = parse_qos("udp any any any 53 dscp 34\n")
    s = sid(dport=53)
    assert classify(qp, s) == classify(qp, s) == 34


def _oracle(qp: QosPolicy, s: SessionId) -> int:
    for rule in qp.rules:
        m = rule.match
        if m.proto is not None and m.proto != s.proto:
            continue
        pairs = ((s.src_addr, m.src), (s.src_port, m.src_ports), (s.dst_addr, m.dst), (s.dst_port, m.dst_ports))
        if all(lo <= value <= hi for value, (lo, hi) in pairs):
            return rule.dscp
    return 0


def test_classify_matches_linear_scan_oracle():
    rng = random.Random(4242)
    for _ in range(60):
        lines = []
        for _ in range(rng.randrange(33)):
            proto = rng.choice(["any", "tcp", "udp"])
            ports = rng.choice(["any", str(rng.randrange(65536))])
            lines.append(f"{proto} any {ports} any any dscp {rng.randrange(64)}")
        qp = parse_qos("\n".join(lines))
        for _ in range(40):
            s = SessionId(
                rng.randrange(2**32),
                rng.randrange(65536),
                rng.randrange(2**32),
                rng.randrange(65536),
                rng.choice([TCP, UDP]),
            )
            assert classify(qp, s) == _oracle(qp, s)


@pytest.mark.parametrize("count", [0, 1, 8, 32, 200])
def test_classify_matches_oracle_at_rule_edges(count):
    """Probes on and just off every rule edge; 200 rules need masks wider than a word."""
    rng = random.Random(count)
    for _ in range(2 if count == 200 else 12):
        lines = [f"{random_matcher(rng, EDGE_PROTOS)} dscp {rng.randrange(64)}" for _ in range(count)]
        qp = parse_qos("\n".join(lines))
        for s in edge_sids([rule.match for rule in qp.rules], rng):
            assert classify(qp, s) == _oracle(qp, s)
