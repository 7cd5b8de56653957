"""Packet model: IPv4 addresses, five-tuples, TCP flags, and the text trace format.

All types here are immutable values; every transformation returns a new object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

from flowgate.errors import TraceError

TCP = 6
UDP = 17

# TCP flags are an int of these bits
SYN, ACK, FIN, RST = 1, 2, 4, 8
# each flag value's one spelling: the letters of its bits in SAFR order, '-' for none
FLAG_TEXT = tuple(
    "".join(c for bit, c in zip((SYN, ACK, FIN, RST), "SAFR") if v & bit) or "-" for v in range(16)
)
FLAG_BITS = {text: value for value, text in enumerate(FLAG_TEXT)}
PROTO_TEXT = {TCP: "tcp", UDP: "udp"}
PROTO_NUMBER = {text: proto for proto, text in PROTO_TEXT.items()}
OCTET_TEXT = tuple(str(octet) for octet in range(256))
OCTET_VALUE = {text: octet for octet, text in enumerate(OCTET_TEXT)}
# each prefix length's canonical spelling, and its netmask
PREFIX_LEN = {str(n): n for n in range(33)}
NETMASK = tuple(0xFFFFFFFF << (32 - n) & 0xFFFFFFFF for n in range(33))
# below 2**52 floats are at most 0.5 apart, so now + t > now for every timeout t > 0.25 s,
# every default among them; a sum rounded back to now opens a flow that is dead as it opens
TS_LIMIT = 2.0**52


def is_decimal(text: str) -> bool:
    """ASCII digits only: str.isdigit alone also passes '²', which int() refuses."""
    return text.isascii() and text.isdigit()


def parse_ip(text: str) -> int:
    """Dotted quad -> host-order int. Raises ValueError on malformed input."""
    octet = OCTET_VALUE
    try:
        a, b, c, d = text.split(".")
        return octet[a] << 24 | octet[b] << 16 | octet[c] << 8 | octet[d]
    except (ValueError, KeyError):
        # not four canonical octets: the strict reading gives the value or the error
        return _parse_ip_strict(text)


def _parse_ip_strict(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not is_decimal(part):
            raise ValueError(f"malformed IPv4 address {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"malformed IPv4 address {text!r}")
        value = (value << 8) | octet
    return value


def parse_protocol(token: str) -> int:
    """tcp, udp or a decimal protocol number."""
    if token in PROTO_NUMBER:
        return PROTO_NUMBER[token]
    if is_decimal(token) and int(token) <= 255:
        return int(token)
    raise ValueError(f"unknown protocol {token!r}")


def format_ip(addr: int) -> str:
    o = OCTET_TEXT
    return f"{o[addr >> 24 & 0xFF]}.{o[addr >> 16 & 0xFF]}.{o[addr >> 8 & 0xFF]}.{o[addr & 0xFF]}"


@dataclass(frozen=True, slots=True)
class Cidr:
    """An IPv4 prefix. The network address is stored with host bits cleared."""

    network: int
    prefix_len: int

    @classmethod
    def parse(cls, text: str) -> "Cidr":
        addr_part, sep, len_part = text.partition("/")
        prefix_len = PREFIX_LEN.get(len_part)
        if prefix_len is None:
            # not a canonical length: the strict reading gives the length or the error
            if not sep or not is_decimal(len_part):
                raise ValueError(f"malformed CIDR {text!r}")
            prefix_len = int(len_part)
            if prefix_len > 32:
                raise ValueError(f"prefix length out of range in {text!r}")
        return cls(parse_ip(addr_part) & NETMASK[prefix_len], prefix_len)

    def contains(self, addr: int) -> bool:
        # no bit above the host bits differs; a /0 has none, so any 32-bit address passes
        return (addr ^ self.network) >> (32 - self.prefix_len) == 0

    def __str__(self) -> str:
        return f"{format_ip(self.network)}/{self.prefix_len}"


class _FiveTuple(NamedTuple):
    src_addr: int
    src_port: int
    dst_addr: int
    dst_port: int
    proto: int


class SessionId(_FiveTuple):
    """The five-tuple selecting one flow, as carried in a packet header.

    It is a tuple, so it is its own dict key: a plain tuple of the same five
    values hashes and compares equal to it. The fields live on `_FiveTuple`,
    as a NamedTuple's empty `__slots__` leaves no room for `text`'s cache.
    """

    @cached_property
    def text(self) -> str:
        """The trace's `proto src_ip:src_port dst_ip:dst_port`, formatted on first read, then kept."""
        src, dst = format_ip(self.src_addr), format_ip(self.dst_addr)
        proto = PROTO_TEXT.get(self.proto) or self.proto
        return f"{proto} {src}:{self.src_port} {dst}:{self.dst_port}"


class Packet(NamedTuple):
    """One IP datagram's header fields plus its logical arrival time."""

    ts: float
    sid: SessionId
    tos: int
    ttl: int
    flags: int  # SYN | ACK | FIN | RST bits
    payload_len: int


# a packet's side of its flow: where its half of a state's move row starts
OUTBOUND, INBOUND = 0, 16


def merge_dscp(tos: int, dscp: int) -> int:
    """Write dscp, a 0..63 value as `parse_qos` admits, into the upper 6 ToS bits, keeping ECN."""
    return (dscp << 2) | (tos & 0x03)


def _parse_endpoint(token: str, column: str) -> tuple[int, int]:
    addr_part, sep, port_part = token.rpartition(":")
    if not sep:
        raise TraceError(f"{column}: expected ip:port, got {token!r}")
    try:
        addr = parse_ip(addr_part)
    except ValueError as exc:
        raise TraceError(f"{column}: {exc}") from exc
    if not is_decimal(port_part):
        raise TraceError(f"{column}: bad port {port_part!r}")
    port = int(port_part)
    if port > 65535:
        raise TraceError(f"{column}: port {port} out of range")
    return addr, port


def _parse_number(token: str, limit: int, column: str) -> int:
    if is_decimal(token):
        value = int(token)
        if value <= limit:
            return value
    raise TraceError(f"{column}: bad value {token!r}")


class _TraceMemo:
    """What the good lines of one `load_trace` call parsed to, keyed by their text.

    tails: the text after a line's timestamp -> (sid, tos, ttl, flags, payload_len)
    ends:  an ip:port token -> (addr, port)
    cols:  the text after dst -> (tos, ttl, flags, payload_len)
    plain: the call's text is `_plain`, so no ts token needs its check

    A line adds to them only once it has parsed whole.
    """

    __slots__ = ("tails", "ends", "cols", "plain")

    def __init__(self, plain: bool = False) -> None:
        self.plain = plain
        self.tails: dict[str, tuple] = {}
        self.ends: dict[str, tuple[int, int]] = {}
        self.cols: dict[str, tuple[int, int, int, int]] = {}


def _parse_record(line: str, head: list[str], memo: _TraceMemo) -> Packet:
    """parse_trace_record, reusing what earlier good lines of one `load_trace` call parsed to.

    `head` is `line.split(None, 1)`. The columns are checked in the same
    order, and fail with the same message, whatever `memo` holds.
    """
    # proto, src, dst and the text after dst, if the line has that many columns
    parts = head[1].split(None, 3) if len(head) == 2 else head
    cols = memo.cols.get(parts[3]) if len(parts) == 4 else None
    if cols is None:
        fields = line.split()
        if len(fields) not in (7, 8):
            raise TraceError(f"expected 7 or 8 columns, got {len(fields)}")
    # else the text after dst holds the 3 or 4 columns of a good line, so this one has 7 or 8

    try:
        if not (memo.plain or head[0].isascii() and "_" not in head[0]):  # float() reads '1_0', '٣'
            raise ValueError(head[0])
        ts = float(head[0])
    except ValueError as exc:
        raise TraceError(f"ts: not a number: {head[0]!r}") from exc
    if not 0 <= ts < TS_LIMIT:  # also false for nan
        raise TraceError(f"ts: bad timestamp {head[0]!r}")

    proto_token, src_token, dst_token, rest = parts
    try:
        proto = parse_protocol(proto_token)
    except ValueError as exc:
        raise TraceError(f"proto: {exc}") from exc
    src = memo.ends.get(src_token) or _parse_endpoint(src_token, "src")
    dst = memo.ends.get(dst_token) or _parse_endpoint(dst_token, "dst")
    if proto not in (TCP, UDP) and (src[1] or dst[1]):
        raise TraceError(f"src/dst: ports must be 0 for protocol {proto}")

    if cols is None:
        flags = FLAG_BITS.get(fields[4])
        if flags is None:
            # one spelling per value keeps render/parse one-to-one
            raise TraceError(f"flags: not '-' or a subset of SAFR in that order: {fields[4]!r}")
    else:
        flags = cols[2]
    if flags and proto != TCP:
        raise TraceError(f"flags: TCP flags on protocol {proto}")
    if cols is None:
        payload_len = _parse_number(fields[5], 65535, "payload_len")
        tos = _parse_number(fields[6], 255, "tos")
        if len(fields) == 8:
            ttl = _parse_number(fields[7], 255, "ttl")
            if ttl == 0:
                raise TraceError("ttl: must be >= 1 on ingress")
        else:
            ttl = 64
        cols = (tos, ttl, flags, payload_len)

    memo.ends[src_token], memo.ends[dst_token] = src, dst
    memo.cols[rest] = cols
    values = memo.tails[head[1]] = (tuple.__new__(SessionId, src + dst + (proto,)),) + cols
    # the fields in order, without the Python-level __new__ a NamedTuple call runs
    return tuple.__new__(Packet, (ts,) + values)


def parse_trace_record(line: str) -> Packet:
    """Parse one trace line.

    Grammar (whitespace separated):
        ts proto src_ip:src_port dst_ip:dst_port flags payload_len tos [ttl]
    proto is tcp, udp, or a decimal protocol number; flags is '-' or a subset
    of "SAFR" in that order; ttl is optional and defaults to 64. ts is ASCII
    text that float() reads, with no '_', at least 0 and below 2**52 (TS_LIMIT);
    other numbers are ASCII decimal digits.

    Nothing in the package calls it; it stays as the record format's one
    public reading: a line parsed cold, with no memo, which the tests hold
    `load_trace`'s memo hits and their error messages to.
    """
    return _parse_record(line, line.split(None, 1), _TraceMemo())


def render_trace_record(packet: Packet) -> str:
    """Inverse of parse_trace_record: parse(render(p)) == p."""
    ts, sid, tos, ttl, flags, payload_len = packet
    return f"{ts} {sid.text} {FLAG_TEXT[flags]} {payload_len} {tos} {ttl}"


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line that is neither blank nor a '#' comment.

    Every text format flowgate reads (traces, rules, QoS, routes, NAT) skips
    the same lines and numbers them the same way. Lines end at "\n" only:
    `str.splitlines` would also break at form feed, \x1c-\x1e, \x85 and
    U+2028/9, which a file's own line count does not. Files are read with
    universal newlines, and strip() removes a trailing "\r".
    """
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def _plain(text: str) -> bool:
    """True if `text` is ASCII and each '_' in it is on a '#' line, as in a `gen` trace."""
    at = text.find("_")
    while at >= 0 and text[text.rfind("\n", 0, at) + 1:at].lstrip().startswith("#"):
        at = text.find("_", text.find("\n", at) + 1 or len(text))  # the first '_' past this line
    return at < 0 and text.isascii()


def load_trace(text: str) -> list[Packet]:
    """Parse a whole trace. '#' lines and blank lines are skipped.

    Timestamps must be non-decreasing across the file. Within one call a
    line that repeats an earlier one but for its timestamp parses only that
    column, and shares that line's SessionId; other lines reuse the parse
    of each endpoint and of the text after dst seen before.
    """
    packets: list[Packet] = []
    append = packets.append
    last_ts = 0.0
    memo = _TraceMemo(_plain(text))  # for this call only
    tails, plain = memo.tails, memo.plain
    new, limit = tuple.__new__, TS_LIMIT
    # the lines `content_lines` yields, read here without a generator's resume per line
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        head = line.split(None, 1)
        # every remembered tail has six or seven columns, so a line of one column misses
        values = tails.get(head[-1])
        if values is not None:
            try:
                ts = float(head[0]) if plain or head[0].isascii() and "_" not in head[0] else limit
            except ValueError:
                ts = math.nan  # fails the test below; _parse_record reports it
            # false for nan, a ts at or past the limit, a negative ts (last_ts >= 0) and a decrease
            if last_ts <= ts < limit:
                append(new(Packet, (ts,) + values))
                last_ts = ts
                continue
        try:
            packet = _parse_record(line, head, memo)
        except TraceError as exc:
            raise TraceError(f"line {lineno}: {exc}") from exc
        if packet.ts < last_ts:
            raise TraceError(f"line {lineno}: ts: timestamps must be non-decreasing")
        last_ts = packet.ts
        append(packet)
    return packets
