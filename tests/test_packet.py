"""Trace grammar, DSCP bit layout, and CIDR parsing."""

import itertools
import random

import pytest

from flowgate import packet as packet_module
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
    for addr, text in ((0, "0.0.0.0"), (0xFFFFFFFF, "255.255.255.255"), (0x0A00FF01, "10.0.255.1")):
        assert format_ip(addr) == text


def test_load_trace_skips_comments_and_checks_monotonicity():
    packets = load_trace(
        "# header\n\n0.0 tcp 10.0.0.1:1 1.1.1.1:80 S 0 0\n0.5 tcp 10.0.0.1:1 1.1.1.1:80 A 0 0\n"
    )
    assert len(packets) == 2
    with pytest.raises(TraceError, match="line 3.*non-decreasing"):
        load_trace("1.0 udp 10.0.0.1:1 1.1.1.1:53 - 0 0\n# c\n0.5 udp 10.0.0.1:1 1.1.1.1:53 - 0 0")


@pytest.mark.parametrize(
    "line,message",
    [
        ("0 tcp 10.0.0.1:1 10.0.0.2:2 S ² 0", "payload_len: bad value '²'"),
        ("0 tcp 10.0.0.1:1 10.0.0.2:2 S ٣ 0", "payload_len: bad value '٣'"),
        ("0 tcp 10.0.0.1:8² 10.0.0.2:2 S 0 0", "src: bad port '8²'"),
        ("0 tcp 10.0.0.1:1 10.0.0.2:8² S 0 0", "dst: bad port '8²'"),
        ("0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 ²", "tos: bad value '²'"),
        ("0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0 ²", "ttl: bad value '²'"),
        ("0 ² 10.0.0.1:0 10.0.0.2:0 - 0 0", "proto: unknown protocol '²'"),
        ("0 tcp 10.0.0.²:1 10.0.0.2:2 S 0 0", "src: malformed IPv4 address '10.0.0.²'"),
    ],
)
def test_numbers_are_ascii_digits(line, message):
    """str.isdigit passes '²', which int() refuses, and '٣', which int() reads as 3."""
    with pytest.raises(TraceError) as info:
        parse_trace_record(line)
    assert str(info.value) == message
    with pytest.raises(TraceError) as info:
        load_trace(f"# header\n{line}\n")
    assert str(info.value) == f"line 2: {message}"


def _random_trace_lines(rng: random.Random, count: int) -> list[str]:
    """Rendered packets whose five-tuples come from a small pool, proto spelt both ways."""
    pool = [_random_packet(rng).sid for _ in range(6)]
    lines = []
    for ts in sorted(round(rng.uniform(0, 100), 6) for _ in range(count)):
        packet = _random_packet(rng)._replace(ts=ts, sid=rng.choice(pool))
        if packet.sid.proto != TCP:
            packet = packet._replace(flags=0)
        line = render_trace_record(packet)
        if rng.random() < 0.3:
            line = line.replace(" tcp ", " 6 ", 1).replace(" udp ", " 17 ", 1)
        lines.append(line)
    return lines


@pytest.mark.parametrize("seed", range(5))
def test_load_trace_equals_parsing_each_line(seed):
    lines = _random_trace_lines(random.Random(seed), 300)
    assert load_trace("\n".join(lines)) == [parse_trace_record(line) for line in lines]


GOOD_TCP = "0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0"
GOOD_UDP = "0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0"


@pytest.mark.parametrize(
    "good,bad,message",
    [
        (GOOD_TCP, "0 tcp 10.0.0.1:1 10.0.0.2:2 AS 0 0",
         "flags: not '-' or a subset of SAFR in that order: 'AS'"),
        (GOOD_UDP, "0 udp 10.0.0.1:1 10.0.0.2:2 S 0 0", "flags: TCP flags on protocol 17"),
        (GOOD_TCP, "0 tcp 10.0.0.1:1 10.0.0.2:2 A 65536 0", "payload_len: bad value '65536'"),
        (GOOD_TCP, "0 tcp 10.0.0.1:1 10.0.0.2:2 A 0 256", "tos: bad value '256'"),
        (GOOD_TCP, "0 tcp 10.0.0.1:1 10.0.0.2:2 A 0 0 0", "ttl: must be >= 1 on ingress"),
    ],
)
def test_a_seen_five_tuple_still_checks_the_other_columns(good, bad, message):
    """The bad line repeats the good line's first four columns: only what follows is wrong."""
    with pytest.raises(TraceError) as info:
        load_trace(f"{good}\n{good}\n{bad}\n")
    assert str(info.value) == f"line 3: {message}"


def test_a_five_tuple_that_failed_is_not_remembered():
    sids = {}
    bad = "0 tcp 10.0.0.999:1 10.0.0.2:2 S 0 0"
    for _ in range(2):
        with pytest.raises(TraceError, match="src: malformed IPv4 address '10.0.0.999'"):
            packet_module._parse_record(bad, sids)
    assert sids == {}


def test_one_flow_shares_one_session_id_within_a_call():
    text = (
        "0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0\n"
        "1 tcp 10.0.0.2:2 10.0.0.1:1 SA 0 0\n"
        "2 tcp 10.0.0.1:1 10.0.0.2:2 A 0 0\n"
        "3 tcp 10.0.0.2:2 10.0.0.1:1 A 0 0\n"
    )
    first, second = load_trace(text), load_trace(text)
    assert first[0].sid is first[2].sid and first[1].sid is first[3].sid
    assert first[0].sid is not first[1].sid
    assert first == second
    assert not {id(p.sid) for p in first} & {id(p.sid) for p in second}
