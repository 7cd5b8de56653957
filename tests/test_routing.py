"""Routing table parsing and longest-prefix-match lookups."""

import random

import pytest
from conftest import edge_probes

from flowgate import routing
from flowgate.errors import ConfigError
from flowgate.packet import Cidr, content_lines, format_ip, parse_ip
from flowgate.routing import RouteEntry, RoutingTable, parse_routes

THREE_TIER = "0.0.0.0/0 203.0.113.1 wan\n10.0.0.0/8 10.0.0.254 lan\n10.1.0.0/16 10.1.0.254 dmz\n"


def test_parse_routes():
    rt = parse_routes("0.0.0.0/0 203.0.113.1 wan\n10.0.0.0/8 10.0.0.254 lan\n")
    assert len(rt) == 2


@pytest.mark.parametrize(
    "text,err",
    [
        ("10.0.0.0/8 10.0.0.254 lan\n10.0.0.0/8 10.9.9.9 lan2", "line 2: duplicate"),
        ("10.0.0.0/33 10.0.0.254 lan", "prefix length"),
        ("10.0.0.0/8 10.0.0.254", "expected"),
        ("banana/8 10.0.0.254 lan", "malformed"),
    ],
)
def test_parse_errors(text, err):
    with pytest.raises(ConfigError, match=err):
        parse_routes(text)


def test_longest_prefix_wins():
    rt = parse_routes(THREE_TIER)
    assert rt.lookup(parse_ip("10.1.5.5")).iface == "dmz"
    assert rt.lookup(parse_ip("10.2.0.1")).iface == "lan"
    assert rt.lookup(parse_ip("192.0.2.7")).iface == "wan"


def test_no_route_without_default():
    rt = parse_routes("10.0.0.0/8 10.0.0.254 lan\n")
    assert rt.lookup(parse_ip("8.8.8.8")) is None


def _oracle(entries, addr):
    """Scan every prefix, keep the longest one covering addr."""
    best = None
    for e in entries:
        plen = e.prefix.prefix_len
        mask = (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF if plen else 0
        if (addr & mask) == e.prefix.network:
            if best is None or plen > best.prefix.prefix_len:
                best = e
    return best


def test_lookup_matches_brute_force_oracle():
    rng = random.Random(1318)
    for _ in range(40):
        lines = []
        seen = set()
        for _ in range(rng.randrange(1, 257)):
            plen = rng.randrange(33)
            addr = rng.randrange(2**32)
            mask = (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF if plen else 0
            network = addr & mask
            if (network, plen) in seen:
                continue
            seen.add((network, plen))
            lines.append(f"{format_ip(network)}/{plen} {format_ip(rng.randrange(2**32))} if{plen}")
        rt = parse_routes("\n".join(lines))
        for _ in range(25):
            addr = rng.randrange(2**32)
            expected = _oracle(rt.entries, addr)
            assert rt.lookup(addr) == expected


def test_lookup_is_pure():
    rt = parse_routes(THREE_TIER)
    addr = parse_ip("10.1.2.3")
    assert rt.lookup(addr) is rt.lookup(addr)


# prefixes nested three deep that share an end address (10.255.255.255) and a
# start address (10.0.0.0), a /32 at each end of the address space, and /0
NESTED = """\
0.0.0.0/0 203.0.113.1 wan
10.0.0.0/8 10.0.0.254 lan
10.0.0.0/16 10.0.0.253 lan
10.255.0.0/16 10.0.0.252 dmz
10.255.255.0/24 10.0.0.251 dmz
10.255.255.255/32 10.0.0.250 dmz
0.0.0.0/32 10.0.0.249 lo
255.255.255.255/32 10.0.0.248 bcast
"""


def _nested_routes(rng: random.Random) -> str:
    """Chains of nested prefixes around addresses whose low bits are all ones or all zeros.

    Every prefix of length >= 32 - k around such an address shares its end
    (or start) address with the others, so pieces close and open together.
    """
    seen = set()
    lines = []
    if rng.random() < 0.5:
        lines.append("0.0.0.0/0 203.0.113.1 wan")
        seen.add((0, 0))
    for _ in range(rng.randrange(1, 12)):
        k = rng.randrange(33)
        base = rng.randrange(2**32)
        addr = base | ((1 << k) - 1) if rng.random() < 0.5 else base & ~((1 << k) - 1) & 0xFFFFFFFF
        for plen in rng.sample(range(1, 33), rng.randrange(1, 8)):
            network = addr & ((0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF)
            if (network, plen) not in seen:
                seen.add((network, plen))
                lines.append(f"{format_ip(network)}/{plen} {format_ip(rng.randrange(2**32))} if{plen}")
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(8))
def test_lookup_matches_oracle_at_prefix_edges(seed):
    rng = random.Random(seed)
    tables = [NESTED, "", *(_nested_routes(rng) for _ in range(25))]
    for text in tables:
        rt = parse_routes(text)
        probes = {0, 0xFFFFFFFF}
        for e in rt.entries:
            lo = e.prefix.network
            probes |= edge_probes(lo, lo | (0xFFFFFFFF >> e.prefix.prefix_len), 0xFFFFFFFF)
        for addr in probes:
            assert rt.lookup(addr) == _oracle(rt.entries, addr)


def test_nested_prefixes_sharing_an_end():
    rt = parse_routes(NESTED)
    assert rt.lookup(parse_ip("10.255.255.255")).prefix == Cidr.parse("10.255.255.255/32")
    assert rt.lookup(parse_ip("10.255.255.254")).prefix == Cidr.parse("10.255.255.0/24")
    assert rt.lookup(parse_ip("10.255.254.255")).prefix == Cidr.parse("10.255.0.0/16")
    assert rt.lookup(parse_ip("11.0.0.0")).prefix == Cidr.parse("0.0.0.0/0")
    assert rt.lookup(parse_ip("10.1.0.0")).prefix == Cidr.parse("10.0.0.0/8")
    assert rt.lookup(0).prefix == Cidr.parse("0.0.0.0/32")
    assert rt.lookup(0xFFFFFFFF).prefix == Cidr.parse("255.255.255.255/32")


def test_of_two_entries_with_one_prefix_the_later_answers():
    """The table trusts its entries; only parse_routes refuses a repeated prefix."""
    prefixes = [("10.0.0.0/8", "a"), ("10.0.0.0/16", "c"), ("10.0.0.0/8", "b")]
    rt = RoutingTable([RouteEntry(Cidr.parse(p), 1, iface) for p, iface in prefixes])
    addrs = ("10.0.0.1", "10.1.0.0", "10.255.255.255")
    assert [rt.lookup(parse_ip(a)).iface for a in addrs] == ["c", "b", "b"]
    assert rt.lookup(parse_ip("11.0.0.0")) is None


@pytest.mark.parametrize(
    "text,message",
    [
        # the same prefix written another way: a padded length, and host bits set
        ("10.0.0.0/8 10.0.0.254 lan\n10.0.0.0/08 10.0.0.253 lan", "line 2: duplicate prefix 10.0.0.0/8"),
        ("10.0.0.0/8 10.0.0.254 lan\n# c\n10.1.0.0/8 10.0.0.253 lan", "line 3: duplicate prefix 10.0.0.0/8"),
        ("010.0.0.0/8 1.1.1.1 a\n10.255.1.2/8 1.1.1.1 b", "line 2: duplicate prefix 10.0.0.0/8"),
        # the line that repeats a prefix, not one between
        ("10.0.0.0/8 10.0.0.254 lan\n10.0.0.0/16 10.0.0.253 lan\n10.0.0.0/8 10.9.9.9 lan2",
         "line 3: duplicate prefix 10.0.0.0/8"),
        # whichever comes first in the file: a repeat or a line that does not parse
        ("10.0.0.0/8 1.1.1.1 a\n10.0.0.0/8 1.1.1.1 a\nbanana/8 1.1.1.1 a",
         "line 2: duplicate prefix 10.0.0.0/8"),
        ("10.0.0.0/8 1.1.1.1 a\nbanana/8 1.1.1.1 a\n10.0.0.0/8 1.1.1.1 a",
         "line 2: malformed IPv4 address 'banana'"),
        ("10.0.0.0/8 1.1.1.1 a\n10.0.0.0/8 1.1.1.1\n10.0.0.0/8 1.1.1.1 a",
         "line 2: expected '<cidr> <next_hop> <iface>'"),
        # in file order, not address order: 20/8 repeats on line 3, before 10/8 on line 4
        ("20.0.0.0/8 1.1.1.1 a\n10.0.0.0/8 1.1.1.1 a\n20.0.0.0/8 1.1.1.1 a\n10.0.0.0/8 1.1.1.1 a",
         "line 3: duplicate prefix 20.0.0.0/8"),
        ("10.0.0.0/8 1.1.1.1 a\n10.0.0.0/8 1.1.1.256 a", "line 2: malformed IPv4 address '1.1.1.256'"),
    ],
)
def test_parse_routes_reports_the_first_error_in_the_file(text, message):
    with pytest.raises(ConfigError) as info:
        parse_routes(text)
    assert str(info.value) == message
    assert str(info.value) == _first_error_line_by_line(text)


def _first_error_line_by_line(text: str) -> str | None:
    """parse_routes' first error, read line by line: a bad line, or the first to repeat a prefix.

    It keeps the prefixes as `Cidr`s, where parse_routes keys them as ints.
    """
    seen = set()
    for lineno, line in content_lines(text):
        fields = line.split()
        if len(fields) != 3:
            return f"line {lineno}: expected '<cidr> <next_hop> <iface>'"
        try:
            prefix = Cidr.parse(fields[0])
            parse_ip(fields[1])
        except ValueError as exc:
            return f"line {lineno}: {exc}"
        if prefix in seen:
            return f"line {lineno}: duplicate prefix {prefix}"
        seen.add(prefix)
    return None


@pytest.mark.parametrize("seed", range(6))
def test_parse_routes_errors_match_reading_line_by_line(seed):
    """Files of a few prefixes spelt several ways, with now and then a bad line."""
    rng = random.Random(seed)
    spellings = ["10.0.0.0/8", "10.0.0.0/08", "10.1.2.3/8", "010.0.0.0/8", "10.0.0.0/16", "0.0.0.0/0",
                 "192.0.2.0/24", "192.0.2.128/25", "192.0.2.7/24", "0.0.0.0/00"]
    bad_lines = ["10.0.0.0/33 1.1.1.1 a", "10.0.0.0 1.1.1.1 a", "10.0.0.0/8 1.1.1.999 a", "10.0.0.0/8 a"]
    for _ in range(60):
        lines = [f"{rng.choice(spellings)} {rng.choice(('1.1.1.1', '01.1.1.1', '2.2.2.2'))} if"
                 for _ in range(rng.randrange(1, 6))]
        if rng.random() < 0.5:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(bad_lines))
        text = "\n".join(lines)
        expected = _first_error_line_by_line(text)
        if expected is None:
            assert len(parse_routes(text)) == len(lines)
            continue
        with pytest.raises(ConfigError) as info:
            parse_routes(text)
        assert str(info.value) == expected, text


def test_route_label_is_canonical_text_outside_equality():
    table = parse_routes("010.000.000.000/8 010.000.000.254 lan\n10.1.0.0/16 010.000.000.254 dmz\n")
    written = table.lookup(parse_ip("10.2.3.4"))
    assert table.lookup(parse_ip("10.1.2.3")).label == "10.0.0.254 dmz"
    built = RouteEntry(Cidr.parse("10.0.0.0/8"), parse_ip("10.0.0.254"), "lan")
    assert written is not built
    assert written.label == built.label == "10.0.0.254 lan"
    assert written == built and hash(written) == hash(built)
    assert repr(written) == repr(built) and "label" not in repr(built)
    with pytest.raises(TypeError):
        RouteEntry(built.prefix, built.next_hop, built.iface, "10.0.0.254 lan")


@pytest.mark.parametrize("count", [2, 4096])
def test_lookup_is_one_binary_search(count, monkeypatch):
    rng = random.Random(count)
    prefixes = {(0, 0)}
    while len(prefixes) < count:
        plen = rng.randrange(1, 33)
        prefixes.add((rng.randrange(2**32) & ((0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF), plen))
    rt = RoutingTable([RouteEntry(Cidr(n, p), 1, "if") for n, p in prefixes])
    calls = []
    real = routing.bisect_right
    monkeypatch.setattr(routing, "bisect_right", lambda a, x: calls.append(1) or real(a, x))
    for _ in range(200):
        calls.clear()
        assert rt.lookup(rng.randrange(2**32)) is not None
        assert len(calls) == 1
