"""Trace grammar, DSCP bit layout, and CIDR parsing."""

import copy
import itertools
import math
import pickle
import random
from dataclasses import astuple

import pytest

from flowgate import packet as packet_module
from flowgate.errors import TraceError
from flowgate.harness import TraceSpec, generate_trace
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
    content_lines,
    format_ip,
    load_trace,
    merge_dscp,
    parse_ip,
    parse_trace_record,
    render_trace_record,
)
from flowgate.session_table import Timeouts


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


def _two_shift_contains(cidr: Cidr, addr: int) -> bool:
    """The two-branch formula `Cidr.contains` used before its one-expression form."""
    if cidr.prefix_len == 0:
        return True
    return (addr >> (32 - cidr.prefix_len)) == (cidr.network >> (32 - cidr.prefix_len))


@pytest.mark.parametrize("prefix_len", range(33))
def test_cidr_contains_matches_the_two_shift_formula(prefix_len):
    rng = random.Random(prefix_len)
    host_bits = 0xFFFFFFFF >> prefix_len
    for _ in range(20):
        cidr = Cidr.parse(f"{format_ip(rng.randrange(2**32))}/{prefix_len}")
        last = cidr.network | host_bits
        probes = [0, 0xFFFFFFFF, cidr.network, (cidr.network - 1) & 0xFFFFFFFF, last,
                  (last + 1) & 0xFFFFFFFF]
        probes += [rng.randrange(2**32) for _ in range(20)]
        probes += [cidr.network | rng.randrange(host_bits + 1) for _ in range(20)]
        for addr in probes:
            assert cidr.contains(addr) is _two_shift_contains(cidr, addr), (str(cidr), addr)
        assert cidr.contains(cidr.network) and cidr.contains(last)


def _old_spelling(sid: SessionId) -> str:
    """The five-tuple columns as `render_trace_record` built them before `SessionId.text`."""
    proto = {TCP: "tcp", UDP: "udp"}.get(sid.proto) or str(sid.proto)
    return f"{proto} {format_ip(sid.src_addr)}:{sid.src_port} {format_ip(sid.dst_addr)}:{sid.dst_port}"


@pytest.mark.parametrize("proto", [TCP, UDP, 1, 255])
def test_text_is_the_old_spelling_at_every_edge(proto):
    for src, dst in itertools.product((0, 2**32 - 1, 0x0A000005), repeat=2):
        for sport, dport in itertools.product((0, 65535), repeat=2):
            sid = SessionId(src, sport, dst, dport, proto)
            assert sid.text == _old_spelling(sid)


def _count_format_ip(monkeypatch) -> list[int]:
    calls = []
    monkeypatch.setattr(packet_module, "format_ip", lambda addr: calls.append(addr) or format_ip(addr))
    return calls


def test_packets_sharing_a_session_id_format_its_addresses_once(monkeypatch):
    sid = SessionId(0x0A000005, 1200, 0xC6336409, 80, TCP)
    calls = _count_format_ip(monkeypatch)
    first = render_trace_record(Packet(0.5, sid, 0, 64, SYN, 0))
    second = render_trace_record(Packet(1.5, sid, 0, 64, ACK, 10))
    assert calls == [sid.src_addr, sid.dst_addr]
    assert first == "0.5 tcp 10.0.0.5:1200 198.51.100.9:80 S 0 0 64"
    assert second == "1.5 tcp 10.0.0.5:1200 198.51.100.9:80 A 10 0 64"


def test_equal_session_ids_built_apart_each_format_their_own_text(monkeypatch):
    a, b = SessionId(1, 2, 3, 4, UDP), SessionId(1, 2, 3, 4, UDP)
    calls = _count_format_ip(monkeypatch)
    assert a.text == b.text == "udp 0.0.0.1:2 0.0.0.3:4"
    assert calls == [1, 3, 1, 3]


@pytest.mark.parametrize("read_text", [False, True], ids=["cold", "text-read"])
def test_a_session_id_is_still_its_plain_five_tuple(read_text):
    values = (0x0A000005, 1200, 0xC6336409, 80, TCP)
    sid = SessionId(*values)
    if read_text:
        assert sid.text
    assert sid == values and hash(sid) == hash(values) and {values: 1}[sid] == 1
    assert tuple.__new__(SessionId, values) == sid and SessionId._fields == (
        "src_addr", "src_port", "dst_addr", "dst_port", "proto"
    )
    for clone in (copy.deepcopy(sid), pickle.loads(pickle.dumps(sid))):
        assert type(clone) is SessionId and clone == sid and hash(clone) == hash(values)
        assert clone.text == sid.text == "tcp 10.0.0.5:1200 198.51.100.9:80"


def test_ip_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        addr = rng.randrange(2**32)
        assert parse_ip(format_ip(addr)) == addr
    for addr, text in ((0, "0.0.0.0"), (0xFFFFFFFF, "255.255.255.255"), (0x0A00FF01, "10.0.255.1")):
        assert format_ip(addr) == text


def _per_octet_parse_ip(text: str) -> int:
    """The strict per-octet reading `parse_ip` had before its canonical-octet table."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not (part.isascii() and part.isdigit()):
            raise ValueError(f"malformed IPv4 address {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"malformed IPv4 address {text!r}")
        value = (value << 8) | octet
    return value


def _per_octet_cidr(text: str) -> tuple[int, int]:
    """`Cidr.parse` as it read the prefix length before its tables, as (network, length)."""
    addr_part, sep, len_part = text.partition("/")
    if not sep or not (len_part.isascii() and len_part.isdigit()):
        raise ValueError(f"malformed CIDR {text!r}")
    prefix_len = int(len_part)
    if prefix_len > 32:
        raise ValueError(f"prefix length out of range in {text!r}")
    mask = 0xFFFFFFFF << (32 - prefix_len) & 0xFFFFFFFF if prefix_len else 0
    return _per_octet_parse_ip(addr_part) & mask, prefix_len


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return "error", str(exc)


ODD_ADDRESSES = [
    "010.0.0.1", "10.0.0.²", "١.2.3.4", "256.0.0.1", "1..2.3", "1.2.3", "1.2.3.4.5", "+1.2.3.4",
    " 1.2.3.4", "1_0.0.0.1", "00.0.0.0", "0.0.0.000", "1.2.3.4 ", "1.2.3.-4", "", "...", "0x1.0.0.0",
    "255.255.255.255", "0.0.0.0", "1.2.3.4\n", "1.2.3.255\u0660",
]


def test_parse_ip_matches_the_per_octet_reading():
    rng = random.Random(2026)
    canonical = [format_ip(rng.randrange(2**32)) for _ in range(2000)]
    octets = [".".join(str(rng.randrange(256)) for _ in range(4)) for _ in range(500)]
    for text in canonical + octets + ODD_ADDRESSES:
        assert _outcome(parse_ip, text) == _outcome(_per_octet_parse_ip, text), text
    assert _outcome(parse_ip, "010.0.0.1") == 0x0A000001
    assert _outcome(parse_ip, "256.0.0.1")[0] == "error"


def _cidr_fields(text: str) -> tuple[int, int]:
    cidr = Cidr.parse(text)
    return cidr.network, cidr.prefix_len


ODD_PREFIXES = ["10.0.0.0/08", "10.0.0.0/033", "10.0.0.0/33", "10.0.0.0/", "10.0.0.0", "/8",
                "10.0.0.0/8/8", "10.0.0.0/ 8", "10.0.0.0/+8", "10.0.0.0/²", "010.0.0.0/8",
                "10.0.0.256/8", "10.0.0.256/33", "10.1.0.0/8", "0.0.0.0/00", "1.2.3.4/032"]


@pytest.mark.parametrize("prefix_len", range(33))
def test_cidr_parse_matches_the_strict_reading(prefix_len):
    rng = random.Random(prefix_len)
    texts = [f"{format_ip(rng.randrange(2**32))}/{prefix_len}" for _ in range(50)]
    texts += [f"0.0.0.0/{prefix_len}", f"255.255.255.255/{prefix_len}", f"1.2.3.4/0{prefix_len}"]
    for text in texts + ODD_PREFIXES:
        assert _outcome(_cidr_fields, text) == _outcome(_per_octet_cidr, text), text


def test_load_trace_skips_comments_and_checks_monotonicity():
    packets = load_trace(
        "# header\n\n0.0 tcp 10.0.0.1:1 1.1.1.1:80 S 0 0\n0.5 tcp 10.0.0.1:1 1.1.1.1:80 A 0 0\n"
    )
    assert len(packets) == 2
    with pytest.raises(TraceError, match="line 3.*non-decreasing"):
        load_trace("1.0 udp 10.0.0.1:1 1.1.1.1:53 - 0 0\n# c\n0.5 udp 10.0.0.1:1 1.1.1.1:53 - 0 0")


NON_ASCII_DIGITS = [
    ("0 tcp 10.0.0.1:1 10.0.0.2:2 S ² 0", "payload_len: bad value '²'"),
    ("0 tcp 10.0.0.1:1 10.0.0.2:2 S ٣ 0", "payload_len: bad value '٣'"),
    ("0 tcp 10.0.0.1:8² 10.0.0.2:2 S 0 0", "src: bad port '8²'"),
    ("0 tcp 10.0.0.1:1 10.0.0.2:8² S 0 0", "dst: bad port '8²'"),
    ("0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 ²", "tos: bad value '²'"),
    ("0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0 ²", "ttl: bad value '²'"),
    ("0 ² 10.0.0.1:0 10.0.0.2:0 - 0 0", "proto: unknown protocol '²'"),
    ("0 tcp 10.0.0.²:1 10.0.0.2:2 S 0 0", "src: malformed IPv4 address '10.0.0.²'"),
    ("٣.٥ tcp 10.0.0.1:1 10.0.0.2:2 S 0 0", "ts: not a number: '٣.٥'"),  # float() reads 3.5
]


@pytest.mark.parametrize("line,message", NON_ASCII_DIGITS)
def test_numbers_are_ascii_digits(line, message):
    """str.isdigit passes '²', which int() refuses, and '٣', which int() reads as 3."""
    with pytest.raises(TraceError) as info:
        parse_trace_record(line)
    assert str(info.value) == message
    with pytest.raises(TraceError) as info:
        load_trace(f"# header\n{line}\n")
    assert str(info.value) == f"line 2: {message}"


LINE_BREAKS_BUT_NOT_NEWLINES = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", LINE_BREAKS_BUT_NOT_NEWLINES)
def test_only_newline_ends_a_line(sep):
    """Other characters str.splitlines breaks at are whitespace, not line ends."""
    good = "0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0"
    with pytest.raises(TraceError) as info:
        load_trace(f"{good}{sep}\n0 udp 10.0.0.1:1 10.0.0.2:2 - 0 x\n")
    assert str(info.value) == "line 2: tos: bad value 'x'"
    assert load_trace(good.replace(" ", sep, 1)) == load_trace(good)


def test_crlf_text_still_parses():
    lines = ["0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0", "1 udp 10.0.0.2:2 10.0.0.1:1 - 0 0"]
    assert load_trace("\r\n".join(lines) + "\r\n") == load_trace("\n".join(lines))


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


SEEN_FIVE_TUPLE = [
    (GOOD_TCP, "0 tcp 10.0.0.1:1 10.0.0.2:2 AS 0 0",
     "flags: not '-' or a subset of SAFR in that order: 'AS'"),
    (GOOD_UDP, "0 udp 10.0.0.1:1 10.0.0.2:2 S 0 0", "flags: TCP flags on protocol 17"),
    (GOOD_TCP, "0 tcp 10.0.0.1:1 10.0.0.2:2 A 65536 0", "payload_len: bad value '65536'"),
    (GOOD_TCP, "0 tcp 10.0.0.1:1 10.0.0.2:2 A 0 256", "tos: bad value '256'"),
    (GOOD_TCP, "0 tcp 10.0.0.1:1 10.0.0.2:2 A 0 0 0", "ttl: must be >= 1 on ingress"),
]


@pytest.mark.parametrize("good,bad,message", SEEN_FIVE_TUPLE)
def test_a_seen_five_tuple_still_checks_the_other_columns(good, bad, message):
    """The bad line repeats the good line's first four columns: only what follows is wrong."""
    with pytest.raises(TraceError) as info:
        load_trace(f"{good}\n{good}\n{bad}\n")
    assert str(info.value) == f"line 3: {message}"


# one line failing in each column, in the order the columns are checked
BAD_IN_EACH_COLUMN = [
    ("0 tcp 10.0.0.1:1 10.0.0.2:2 S 0", "expected 7 or 8 columns, got 6"),
    ("x tcp 10.0.0.1:1 10.0.0.2:2 S 0 0", "ts: not a number: 'x'"),
    ("-1 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0", "ts: bad timestamp '-1'"),
    ("inf tcp 10.0.0.1:1 10.0.0.2:2 S 0 0", "ts: bad timestamp 'inf'"),
    ("nan tcp 10.0.0.1:1 10.0.0.2:2 S 0 0", "ts: bad timestamp 'nan'"),
    ("8796093022208 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0", "ts: bad timestamp '8796093022208'"),
    ("0 icmp 10.0.0.1:0 10.0.0.2:0 - 0 0", "proto: unknown protocol 'icmp'"),
    ("0 tcp 10.0.0.999:1 10.0.0.2:2 S 0 0", "src: malformed IPv4 address '10.0.0.999'"),
    ("0 tcp 10.0.0.1 10.0.0.2:2 S 0 0", "src: expected ip:port, got '10.0.0.1'"),
    ("0 tcp 10.0.0.1:1 10.0.0.2:65536 S 0 0", "dst: port 65536 out of range"),
    ("0 1 10.0.0.1:5 10.0.0.2:0 - 0 0", "src/dst: ports must be 0 for protocol 1"),
    *((bad, message) for _, bad, message in SEEN_FIVE_TUPLE),
    ("0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0 256", "ttl: bad value '256'"),
]
EVERY_BAD_LINE = BAD_IN_EACH_COLUMN + NON_ASCII_DIGITS


def _memo_contents(memo) -> tuple[dict, ...]:
    return memo.tails, memo.ends, memo.cols


def test_a_five_tuple_that_failed_is_not_remembered():
    """A line that fails in any column leaves every one of the parser's memos empty."""
    for bad, message in BAD_IN_EACH_COLUMN:
        memo = packet_module._TraceMemo()
        for _ in range(2):
            with pytest.raises(TraceError) as info:
                packet_module._parse_record(bad, bad.split(None, 1), memo)
            assert str(info.value) == message
        assert _memo_contents(memo) == ({}, {}, {}), bad


def _good_twins(bad: str) -> list[str]:
    """Good lines repeating the bad line's tail (all after its ts) or its five-tuple."""
    columns = bad.split()
    candidates = ["0 " + bad.split(None, 1)[-1]]
    candidates += [f"0 {' '.join(columns[1:4])} {rest}" for rest in ("- 0 0", "S 0 0")]
    twins = []
    for line in candidates:
        try:
            parse_trace_record(line)
        except TraceError:
            continue
        twins.append(line)
    return twins


@pytest.mark.parametrize("bad,message", EVERY_BAD_LINE)
def test_an_earlier_good_twin_leaves_the_error_as_it_was(bad, message):
    """What an earlier good line left in the memos changes no later line's error."""
    twins = _good_twins(bad)
    # only a line whose five-tuple is bad has no good line repeating any of it
    assert twins or message.split(":")[0] in ("proto", "src", "dst", "src/dst")
    for twin in twins:
        with pytest.raises(TraceError) as info:
            load_trace(f"# header\n{twin}\n{twin}\n{bad}\n")
        assert str(info.value) == f"line 4: {message}"


def _recorded_memos(monkeypatch) -> list:
    """Every memo `load_trace` makes from now on, in the order it makes them."""
    made = []

    class Recorded(packet_module._TraceMemo):
        __slots__ = ()

        def __init__(self, *args) -> None:
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(packet_module, "_TraceMemo", Recorded)
    return made


def test_a_seen_tail_with_a_new_timestamp_is_a_new_packet(monkeypatch):
    tail = "udp 10.0.0.1:1 10.0.0.2:2 - 64 3"
    made = _recorded_memos(monkeypatch)
    first, second, third = load_trace(f"0 {tail}\n1.5 {tail}\n1.5\t{tail}\n")
    (memo,) = made
    assert first == parse_trace_record(f"0 {tail}")
    assert second == first._replace(ts=1.5) and second is not first
    assert second.sid is first.sid
    assert third == second
    remembered = (
        {tail: (first.sid, 3, 64, 0, 64)},
        {"10.0.0.1:1": (0x0A000001, 1), "10.0.0.2:2": (0x0A000002, 2)},
        {"- 64 3": (3, 64, 0, 64)},
    )
    assert _memo_contents(memo) == remembered
    # a line that fails after its five-tuple and endpoints parsed adds nothing
    made.clear()
    with pytest.raises(TraceError) as info:
        load_trace(f"0 {tail}\n1 tcp 10.0.0.2:2 10.0.0.3:3 S 64 3 0\n")
    assert str(info.value) == "line 2: ttl: must be >= 1 on ingress"
    assert _memo_contents(made[0]) == remembered
    with pytest.raises(TraceError) as info:
        load_trace(f"2 {tail}\n1 {tail}\n")
    assert str(info.value) == "line 2: ts: timestamps must be non-decreasing"
    with pytest.raises(TraceError) as info:
        load_trace(f"2 {tail}\n2e {tail}\n")
    assert str(info.value) == "line 2: ts: not a number: '2e'"


# a line that reuses what earlier good lines left in the memos, but is bad
# elsewhere: (earlier lines, bad line, the bad line's error on its own)
MEMO_HIT_ERRORS = [
    # the text after dst is remembered from a TCP line: flags are still checked against proto
    (["0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0"], "1 udp 10.0.0.1:1 10.0.0.2:2 S 0 0",
     "flags: TCP flags on protocol 17"),
    # ... and with the five-tuple remembered too
    (["0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0", "0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0"],
     "1 udp 10.0.0.1:1 10.0.0.2:2 S 0 0", "flags: TCP flags on protocol 17"),
    (["0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0"], "1 47 10.0.0.1:1 10.0.0.2:2 - 0 0",
     "src/dst: ports must be 0 for protocol 47"),
    # a ttl of 0 after the five-tuple, and after both endpoints, were remembered
    (["0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0 1"], "1 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0 0",
     "ttl: must be >= 1 on ingress"),
    (["0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0"], "1 tcp 10.0.0.2:2 10.0.0.1:1 SA 0 0 0",
     "ttl: must be >= 1 on ingress"),
    # a remembered endpoint beside a bad one
    (["0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0"], "1 tcp 10.0.0.2:2 10.0.0.256:1 SA 0 0",
     "dst: malformed IPv4 address '10.0.0.256'"),
    (["0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0"], "1 tcp 10.0.0.01:1 10.0.0.2:2 S 0 0 0",
     "ttl: must be >= 1 on ingress"),
    # a remembered tail with a timestamp that is bad, or smaller than the last
    (["0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0"], "nan udp 10.0.0.1:1 10.0.0.2:2 - 0 0",
     "ts: bad timestamp 'nan'"),
    (["0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0"], "-1 udp 10.0.0.1:1 10.0.0.2:2 - 0 0",
     "ts: bad timestamp '-1'"),
    (["0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0"], "inf udp 10.0.0.1:1 10.0.0.2:2 - 0 0",
     "ts: bad timestamp 'inf'"),
    (["0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0"], "8796093022208 udp 10.0.0.1:1 10.0.0.2:2 - 0 0",
     "ts: bad timestamp '8796093022208'"),  # 2**43: now + a timeout could round to now
    (["0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0"], "0x1 udp 10.0.0.1:1 10.0.0.2:2 - 0 0",
     "ts: not a number: '0x1'"),
    (["0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0"], "1_0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0",
     "ts: not a number: '1_0'"),  # float() reads 10.0
    # ... also after a '#' line that holds '_', as `gen`'s header does
    (["# packets_per_session=2", "0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0"],
     "1_0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0", "ts: not a number: '1_0'"),
    (["0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0", "5 udp 10.0.0.1:1 10.0.0.2:2 - 0 0"],
     "4 udp 10.0.0.1:1 10.0.0.2:2 - 0 0", None),
    # the text after dst is remembered, but this line has a column too few or too many
    (["0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0"], "1 10.0.0.1:1 10.0.0.2:2 S 0 0",
     "expected 7 or 8 columns, got 6"),
    (["0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0 64"], "1 tcp tcp 10.0.0.1:1 10.0.0.2:2 S 0 0 64",
     "expected 7 or 8 columns, got 9"),
]


@pytest.mark.parametrize("earlier,bad,message", MEMO_HIT_ERRORS)
def test_an_error_on_a_memo_hit_is_the_cold_error(earlier, bad, message):
    if message is None:  # the line itself is good, its place in the file is not
        parse_trace_record(bad)
        message = "ts: timestamps must be non-decreasing"
    else:
        with pytest.raises(TraceError) as info:
            parse_trace_record(bad)
        assert str(info.value) == message
    with pytest.raises(TraceError) as info:
        load_trace("\n".join([*earlier, bad]))
    assert str(info.value) == f"line {len(earlier) + 1}: {message}"


@pytest.mark.parametrize(
    "text,plain",
    [
        ("0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0\n", True),
        ("# spec: packets_per_session=2\n\n  # a_b c_d\n0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0", True),
        # `gen`'s header holds '_', yet no ts token of its traces is checked one by one
        (generate_trace(TraceSpec(sessions=3, packets_per_session=4, peers=(0xC6336409,))), True),
        ("# a_b\n1_0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0\n", False),
        ("0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0\n_ # not a comment\n", False),
        ("# café\n0 udp 10.0.0.1:1 10.0.0.2:2 - 0 0\n", False),  # non-ASCII text is never plain
    ],
    ids=["no-underscore", "underscores-in-comments", "gen-trace", "underscore-in-ts",
         "underscore-first", "non-ascii-comment"],
)
def test_a_text_is_plain_when_only_comments_hold_an_underscore(text, plain):
    assert packet_module._plain(text) is plain


def test_a_negative_zero_timestamp_on_a_remembered_tail_is_a_packet():
    tail = "udp 10.0.0.1:1 10.0.0.2:2 - 0 0"
    packets = load_trace(f"0 {tail}\n-0 {tail}\n-0.0 {tail}\n")
    assert packets == [parse_trace_record(f"{ts} {tail}") for ts in ("0", "-0", "-0.0")]


def test_the_last_timestamp_below_2_43_is_a_packet_and_round_trips():
    tail = "udp 10.0.0.1:1 10.0.0.2:2 - 0 0"
    last = "8796093022207.999"
    packets = load_trace(f"0 {tail}\n{last} {tail}\n")  # the second line hits the memo
    assert packets[1] == parse_trace_record(f"{last} {tail}")
    assert packets[1].ts == 2**43 - 2**-10
    line = render_trace_record(packets[1])
    assert line.split()[0] == last and load_trace(line) == packets[1:]


def test_every_default_timeout_moves_the_last_timestamp_below_2_43():
    # floats there are 2**-10 apart, so only a timeout below MIN_TIMEOUT could round back
    last = math.nextafter(packet_module.TS_LIMIT, 0)
    assert last == 2**43 - 2**-10
    for t in astuple(Timeouts()):
        assert last + t > last


# a bad token for each column after ts, none of which any text format accepts there
BAD_TOKENS = {
    1: ["icmp", "256", "tcp6", "٦"],
    2: ["10.0.0.1", "10.0.0.256:1", "10.0.0.1:65536", "1.2.3:4", "10.0.0.1:-1"],
    3: ["10.0.0.2", "010.0.0.2:x", "::1", "10.0.0.2:1²"],
    4: ["AS", "s", "SS", ""],
    5: ["65536", "-1", "٣", "1.0"],
    6: ["256", "x", "+1"],
    7: ["0", "256", "²"],
}


@pytest.mark.parametrize("seed", range(6))
def test_an_error_after_warm_memos_is_the_cold_error(seed):
    """Good lines of a few flows and their replies, then one bad line built from their columns."""
    rng = random.Random(seed)
    lines = _repeating_tail_lines(rng, 60, _flows_and_replies(rng, 3))
    for _ in range(40):
        columns = rng.choice(lines).split()
        column = rng.randrange(1, len(columns) + (len(columns) == 7))
        if column == len(columns):
            columns.append("64")  # a ttl column to spoil
        columns[column] = rng.choice(BAD_TOKENS[column])
        columns[0] = "100"
        bad = " ".join(c for c in columns if c)
        with pytest.raises(TraceError) as info:
            parse_trace_record(bad)
        cold = str(info.value)
        with pytest.raises(TraceError) as info:
            load_trace("\n".join([*lines, bad]))
        assert str(info.value) == f"line {len(lines) + 1}: {cold}"


SEPARATORS = (" ", "\t", "   ", " \t ")


def _repeating_tail_lines(rng: random.Random, count: int, pool: list[SessionId]) -> list[str]:
    """Lines of the flows in `pool` with a few values per column and a few separators, so tails repeat."""
    lines = []
    for ts in sorted(round(rng.uniform(0, 100), 3) for _ in range(count)):
        sid = rng.choice(pool)
        flags = rng.choice((SYN, ACK, SYN | ACK)) if sid.proto == TCP else 0
        packet = Packet(ts, sid, rng.choice((0, 185)), rng.choice((1, 64)), flags, 64)
        columns = render_trace_record(packet).split(" ")
        if packet.ttl == 64 and rng.random() < 0.5:
            columns.pop()  # the default ttl, left out
        lines.append(rng.choice(SEPARATORS).join(columns))
    return lines


def _flows_and_replies(rng: random.Random, flows: int) -> list[SessionId]:
    """So lines share endpoints, and columns after dst, without sharing a five-tuple."""
    pool = [_random_packet(rng).sid for _ in range(flows)]
    return pool + [SessionId(s.dst_addr, s.dst_port, s.src_addr, s.src_port, s.proto) for s in pool]


@pytest.mark.parametrize("seed", range(5))
def test_load_trace_equals_parsing_each_line_when_tails_repeat(seed):
    rng = random.Random(seed)
    lines = _repeating_tail_lines(rng, 400, [_random_packet(rng).sid for _ in range(4)])
    tails = {line.split(None, 1)[1] for line in lines}
    assert len(tails) < len(lines) / 2  # most lines repeat an earlier tail
    assert load_trace("\n".join(lines)) == [parse_trace_record(line) for line in lines]


@pytest.mark.parametrize("seed", range(5))
def test_load_trace_equals_parsing_each_content_line(seed):
    """Tabs, runs of spaces, CRLF, comments and blank lines: each line as parse_trace_record reads it."""
    rng = random.Random(seed)
    lines = []
    for line in _repeating_tail_lines(rng, 400, _flows_and_replies(rng, 3)):
        lines.append(rng.choice(("", "  ", "\t")) + line + rng.choice(("", " ", "\r", "\t\r")))
        if rng.random() < 0.1:
            lines.append(rng.choice(("", "# note", "  # indented note", "\r", " \t ")))
    text = "\n".join(lines)
    expected = [parse_trace_record(line) for _, line in content_lines(text)]
    assert len(expected) == 400
    assert load_trace(text) == expected
    assert load_trace(text.replace("\r", "")) == expected


def test_the_memos_do_not_outlive_a_call():
    """Two calls give equal packets that share no SessionId object."""
    text = (
        "0 tcp 10.0.0.1:1 10.0.0.2:2 S 0 0\n"
        "1 tcp 10.0.0.2:2 10.0.0.1:1 SA 0 0\n"
        "2 tcp 10.0.0.1:1 10.0.0.2:2 A 0 0\n"
        "3 tcp 10.0.0.2:2 10.0.0.1:1 A 0 0\n"
    )
    first, second = load_trace(text), load_trace(text)
    assert first == second
    assert not {id(p.sid) for p in first} & {id(p.sid) for p in second}
