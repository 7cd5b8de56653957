"""Rule parsing and first-match evaluation against a brute-force oracle."""

import random

import pytest
from conftest import EDGE_PROTOS, edge_sids, random_matcher

from flowgate import matchers
from flowgate.errors import ConfigError
from flowgate.filters import RuleSet, evaluate, parse_rules
from flowgate.packet import TCP, UDP, SessionId, parse_ip


def sid(proto=TCP, src="10.0.0.5", sport=1200, dst="198.51.100.9", dport=80):
    return SessionId(parse_ip(src), sport, parse_ip(dst), dport, proto)


def test_parse_basic_rules():
    rs = parse_rules("drop tcp any any any 23\naccept any 10.0.0.0/8 any any any\n")
    assert len(rs.rules) == 2
    assert rs.rules[0].accept is False
    assert rs.rules[0].match.proto == TCP
    assert rs.rules[1].match.proto is None


@pytest.mark.parametrize(
    "text,err",
    [
        ("permit tcp any any any any", "^line 1: unknown action 'permit'$"),
        ("drop tcp any any any", "expected 6 fields"),
        ("drop xxx any any any any", "unknown protocol"),
        ("drop tcp 10.0.0.0/40 any any any", "prefix length"),
        ("drop tcp any 5-2 any any", "port spec"),
        ("drop tcp any x any any", "^line 1: bad port spec 'x'$"),
        ("drop tcp any 5-x any any", "^line 1: bad port spec '5-x'$"),
        ("# ok\naccept any any any any any\ndrop tcp any any any 70000", "line 3"),
    ],
)
def test_parse_errors_cite_lines(text, err):
    with pytest.raises(ConfigError, match=err):
        parse_rules(text)


def test_rule_lines_end_at_newline_only():
    """A form feed or \x1c inside the text neither splits a rule nor shifts line numbers."""
    rules = "accept any any any any any\f\ndrop\x1ctcp any any any 23\n"
    assert [rule.accept for rule in parse_rules(rules).rules] == [True, False]
    with pytest.raises(ConfigError, match="^line 3: expected 6 fields, got 5$"):
        parse_rules(rules + "accept tcp any any any\n")


def _assert_evaluates(rs: RuleSet, s: SessionId, want: tuple) -> None:
    """`evaluate` returns `want`, its verdict the bool itself: an int 0 or 1 would compare equal."""
    got = evaluate(rs, s)
    assert got == want
    assert got[0] is want[0]


def test_first_match_wins():
    rs = parse_rules("drop tcp any any any 23\naccept any any any any any\n")
    _assert_evaluates(rs, sid(dport=23), (False, 0, 1))
    _assert_evaluates(rs, sid(proto=UDP, sport=9, dport=23), (True, 1, 2))


def test_empty_ruleset_default_deny():
    _assert_evaluates(RuleSet(()), sid(), (False, None, 0))


def test_rule_order_sensitivity():
    overlap = sid(dport=23)
    a = parse_rules("drop tcp any any any 23\naccept tcp any any any 20-30\n")
    b = parse_rules("accept tcp any any any 20-30\ndrop tcp any any any 23\n")
    assert evaluate(a, overlap)[0] is False
    assert evaluate(b, overlap)[0] is True


def _oracle(rs: RuleSet, s: SessionId):
    """Independent first-match scan using raw mask arithmetic."""
    for i, rule in enumerate(rs.rules):
        m = rule.match
        if m.proto is not None and m.proto != s.proto:
            continue
        src_mask = (0xFFFFFFFF << (32 - m.src.prefix_len)) & 0xFFFFFFFF if m.src.prefix_len else 0
        if (s.src_addr & src_mask) != m.src.network:
            continue
        dst_mask = (0xFFFFFFFF << (32 - m.dst.prefix_len)) & 0xFFFFFFFF if m.dst.prefix_len else 0
        if (s.dst_addr & dst_mask) != m.dst.network:
            continue
        if not (m.src_ports.lo <= s.src_port <= m.src_ports.hi):
            continue
        if not (m.dst_ports.lo <= s.dst_port <= m.dst_ports.hi):
            continue
        return rule.accept, i, i + 1
    return False, None, len(rs.rules)


def _random_ruleset(rng: random.Random, count: int, **matcher_opts) -> RuleSet:
    lines = []
    for _ in range(count):
        action = rng.choice(["accept", "drop"])
        lines.append(f"{action} {random_matcher(rng, **matcher_opts)}")
    return parse_rules("\n".join(lines))


def _random_sid(rng: random.Random) -> SessionId:
    proto = rng.choice([TCP, UDP, 1])
    if proto == 1:
        return SessionId(rng.randrange(2**32), 0, rng.randrange(2**32), 0, proto)
    return SessionId(
        rng.randrange(2**32), rng.randrange(65536), rng.randrange(2**32), rng.randrange(65536), proto
    )


def test_evaluate_matches_brute_force_oracle():
    rng = random.Random(808)
    for _ in range(60):
        rs = _random_ruleset(rng, rng.randrange(65))
        for _ in range(50):
            s = _random_sid(rng)
            _assert_evaluates(rs, s, _oracle(rs, s))


@pytest.mark.parametrize("count", [0, 1, 8, 64, 200])
def test_evaluate_matches_oracle_at_rule_edges(count):
    """Probes on and just off every rule edge; 200 rules need masks wider than a word."""
    rng = random.Random(count)
    for _ in range(2 if count == 200 else 12):
        rs = _random_ruleset(rng, count, protos=EDGE_PROTOS)
        for s in edge_sids([rule.match for rule in rs.rules], rng):
            _assert_evaluates(rs, s, _oracle(rs, s))


@pytest.mark.parametrize("count", [1, 1000])
def test_first_match_makes_at_most_four_searches(count, monkeypatch):
    """One binary search per range field, whatever the rule count."""
    lines = [
        f"accept tcp 10.{i >> 8}.{i & 255}.0/24 {1024 + i} 172.16.{i >> 8}.{i & 255}/32 {2048 + i}"
        for i in range(count)
    ]
    rs = parse_rules("\n".join(lines))
    calls = []
    real = matchers.bisect_right
    monkeypatch.setattr(matchers, "bisect_right", lambda a, x: calls.append(1) or real(a, x))
    for i in range(0, count, max(1, count // 50)):
        calls.clear()
        probe = SessionId((10 << 24) | i << 8 | 7, 1024 + i, (172 << 24) | (16 << 16) | i, 2048 + i, TCP)
        _assert_evaluates(rs, probe, (True, i, i + 1))
        assert len(calls) == 4
        calls.clear()
        assert evaluate(rs, probe._replace(dst_port=1))[1] is None
        assert len(calls) <= 4
