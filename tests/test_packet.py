"""Trace grammar, DSCP bit layout, and CIDR parsing."""

import itertools
import random

import pytest

from flowgate.errors import TraceError
from flowgate.packet import (
    ACK,
    FIN,
    FLAG_TEXT,
    RST,
    SYN,
    TCP,
    UDP,
    Cidr,
    Packet,
    SessionId,
    format_ip,
    load_trace,
    merge_dscp,
    parse_ip,
    parse_trace_record,
    render_trace_record,
)


def test_parse_basic_tcp_syn():
    p = parse_trace_record("0.000 tcp 10.0.0.5:1200 198.51.100.9:80 S 0 0")
    assert p.ts == 0.0
    assert p.sid == SessionId(parse_ip("10.0.0.5"), 1200, parse_ip("198.51.100.9"), 80, TCP)
    assert p.flags == SYN
    assert p.payload_len == 0 and p.tos == 0
    assert p.ttl == 64  # ttl column omitted -> default


def test_parse_udp_dash_flags():
    p = parse_trace_record("1.5 udp 10.0.0.5:53000 8.8.8.8:53 - 48 0")
    assert p.sid.proto == UDP
    assert p.flags == 0
    assert p.payload_len == 48


def test_parse_missing_ports_is_error():
    with pytest.raises(TraceError, match="src"):
        parse_trace_record("0.1 tcp 10.0.0.1 10.0.0.2 S 0 0")


@pytest.mark.parametrize(
    "line,column",
    [
        ("x tcp 10.0.0.1:1:0.0.0.0 10.0.0.2:2 S 0 0", "ts"),
        ("nan tcp 10.0.0.1:1 10.0.0.2:2 S 0 0", "ts"),
        ("inf tcp 10.0.0.1:1 10.0.0.2:2 S 0 0", "ts"),
        ("-1 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0", "ts"),
        ("0 xxx 10.0.0.1:1 10.0.0.2:2 - 0 0", "proto"),
        ("0 tcp 10.0.0.1:99999 10.0.0.2:2 S 0 0", "src"),
        ("0 tcp 10.0.0.1:1 10.0.0.999:2 S 0 0", "dst"),
        ("0 tcp 10.0.0.1:1 10.0.0.2:2 Z 0 0", "flags"),
        ("0 udp 10.0.0.1:1 10.0.0.2:2 S 0 0", "flags"),
        ("0 tcp 10.0.0.1:1 10.0.0.2:2 S -1 0", "payload_len"),
        ("0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 256", "tos"),
        ("0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0 0", "ttl"),
        ("0 icmp0 10.0.0.1:0 10.0.0.2:0 - 0 0", "proto"),
    ],
)
def test_parse_errors_name_the_column(line, column):
    with pytest.raises(TraceError, match=column):
        parse_trace_record(line)


def test_non_tcp_udp_requires_zero_ports():
    p = parse_trace_record("0 1 10.0.0.1:0 10.0.0.2:0 - 0 0")
    assert p.sid.proto == 1
    with pytest.raises(TraceError, match="ports"):
        parse_trace_record("0 1 10.0.0.1:5 10.0.0.2:0 - 0 0")


def test_flags_must_be_canonical_order():
    assert parse_trace_record("0 tcp 10.0.0.1:1 10.0.0.2:2 SAFR 0 0").flags == SYN | ACK | FIN | RST
    with pytest.raises(TraceError, match="flags"):
        parse_trace_record("0 tcp 10.0.0.1:1 10.0.0.2:2 AS 0 0")


def test_exactly_the_canonical_flag_spellings_parse():
    """Every 1-4 character string over SAFR-: 16 parse and round-trip, the rest are refused."""
    parsed = {}
    for length in range(1, 5):
        for chars in itertools.product("SAFR-", repeat=length):
            text = "".join(chars)
            line = f"0.0 tcp 10.0.0.1:1 10.0.0.2:2 {text} 0 0 64"
            try:
                packet = parse_trace_record(line)
            except TraceError as exc:
                assert "flags" in str(exc), text
                continue
            parsed[text] = packet.flags
            assert render_trace_record(packet) == line
    assert parsed == {text: value for value, text in enumerate(FLAG_TEXT)}
    assert parsed["-"] == 0 and parsed["SAFR"] == 15


def _random_packet(rng: random.Random) -> Packet:
    proto = rng.choice([TCP, UDP, 1, 47])
    if proto in (TCP, UDP):
        sport, dport = rng.randrange(65536), rng.randrange(65536)
    else:
        sport = dport = 0
    flags = 0
    if proto == TCP:
        for bit in (SYN, ACK, FIN, RST):
            flags |= bit if rng.random() < 0.3 else 0
    return Packet(
        ts=round(rng.uniform(0, 1000), 6),
        sid=SessionId(rng.randrange(2**32), sport, rng.randrange(2**32), dport, proto),
        tos=rng.randrange(256),
        ttl=rng.randrange(1, 256),
        flags=flags,
        payload_len=rng.randrange(65536),
    )


def test_parse_render_round_trip_randomized():
    rng = random.Random(1234)
    for _ in range(500):
        p = _random_packet(rng)
        assert parse_trace_record(render_trace_record(p)) == p


def test_render_examples():
    p = parse_trace_record("0.25 tcp 10.0.0.5:1200 198.51.100.9:80 SAFR 10 187 9")
    line = render_trace_record(p)
    assert " 187 " in line and "SAFR" in line
    assert parse_trace_record(line) == p


def test_merge_dscp_bit_layout():
    assert merge_dscp(3, 46) == 0b10111011  # 187: DSCP 46 over ECN 3
    assert merge_dscp(0x00, 0) == 0x00
    assert merge_dscp(0xFF, 0) == 0x03  # DSCP cleared, ECN kept


def test_merge_dscp_rejects_out_of_range():
    with pytest.raises(ValueError):
        merge_dscp(0, 64)


def test_merge_dscp_idempotent():
    rng = random.Random(99)
    for _ in range(100):
        tos = rng.randrange(256)
        dscp = rng.randrange(64)
        once = merge_dscp(tos, dscp)
        assert merge_dscp(once, dscp) == once


def test_cidr_parse_and_contains():
    c = Cidr.parse("10.1.2.3/16")  # host bits cleared
    assert str(c) == "10.1.0.0/16"
    assert c.contains(parse_ip("10.1.255.255"))
    assert not c.contains(parse_ip("10.2.0.0"))
    assert Cidr.parse("0.0.0.0/0").contains(parse_ip("255.255.255.255"))
    with pytest.raises(ValueError):
        Cidr.parse("10.0.0.0/33")
    with pytest.raises(ValueError):
        Cidr.parse("10.0.0.0")


def test_ip_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        addr = rng.randrange(2**32)
        assert parse_ip(format_ip(addr)) == addr


def test_load_trace_skips_comments_and_checks_monotonicity():
    packets = load_trace(
        "# header\n\n0.0 tcp 10.0.0.1:1 1.1.1.1:80 S 0 0\n0.5 tcp 10.0.0.1:1 1.1.1.1:80 A 0 0\n"
    )
    assert len(packets) == 2
    with pytest.raises(TraceError, match="line 3.*non-decreasing"):
        load_trace("1.0 udp 10.0.0.1:1 1.1.1.1:53 - 0 0\n# c\n0.5 udp 10.0.0.1:1 1.1.1.1:53 - 0 0")
