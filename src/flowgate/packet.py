"""Packet model: IPv4 addresses, five-tuples, TCP flags, and the text trace format.

All types here are immutable values; every transformation returns a new object.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
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


def is_decimal(text: str) -> bool:
    """ASCII digits only: str.isdigit alone also passes '²', which int() refuses."""
    return text.isascii() and text.isdigit()


def parse_ip(text: str) -> int:
    """Dotted quad -> host-order int. Raises ValueError on malformed input."""
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
        if not sep or not is_decimal(len_part):
            raise ValueError(f"malformed CIDR {text!r}")
        prefix_len = int(len_part)
        if prefix_len > 32:
            raise ValueError(f"prefix length out of range in {text!r}")
        addr = parse_ip(addr_part)
        mask = 0xFFFFFFFF << (32 - prefix_len) & 0xFFFFFFFF if prefix_len else 0
        return cls(addr & mask, prefix_len)

    def contains(self, addr: int) -> bool:
        # no bit above the host bits differs; a /0 has none, so any 32-bit address passes
        return (addr ^ self.network) >> (32 - self.prefix_len) == 0

    def __str__(self) -> str:
        return f"{format_ip(self.network)}/{self.prefix_len}"


class SessionId(NamedTuple):
    """The five-tuple selecting one flow, as carried in a packet header.

    It is a tuple, so it is its own dict key: a plain tuple of the same five
    values hashes and compares equal to it.
    """

    src_addr: int
    src_port: int
    dst_addr: int
    dst_port: int
    proto: int


class Packet(NamedTuple):
    """One IP datagram's header fields plus its logical arrival time."""

    ts: float
    sid: SessionId
    tos: int
    ttl: int
    flags: int  # SYN | ACK | FIN | RST bits
    payload_len: int


class Direction(enum.Enum):
    OUTBOUND = "out"
    INBOUND = "in"


def merge_dscp(tos: int, dscp: int) -> int:
    """Write dscp into the upper 6 ToS bits, preserving the 2 ECN bits."""
    if not 0 <= dscp <= 63:
        raise ValueError(f"dscp {dscp} out of range 0..63")
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


def _parse_record(line: str, sids: dict, tails: dict) -> Packet:
    """parse_trace_record, reusing what earlier lines of one `load_trace` call parsed to.

    `tails` maps the text after a good line's timestamp column to its
    (sid, tos, ttl, flags, payload_len), so a line that repeats one parses
    only its timestamp; `sids` maps proto/src/dst tokens to their SessionId.
    Only a line that parses whole is remembered, and the columns are checked
    in the same order either way.
    """
    head = line.split(None, 1)
    # every key has six or seven columns, so a line of one column (or none) misses
    values = tails.get(head[-1]) if head else None
    if values is None:
        fields = line.split()
        if len(fields) not in (7, 8):
            raise TraceError(f"expected 7 or 8 columns, got {len(fields)}")

    try:
        ts = float(head[0])
    except ValueError as exc:
        raise TraceError(f"ts: not a number: {head[0]!r}") from exc
    if not math.isfinite(ts) or ts < 0:
        raise TraceError(f"ts: bad timestamp {head[0]!r}")

    if values is None:
        key = (fields[1], fields[2], fields[3])
        sid = sids.get(key)
        if sid is None:
            try:
                proto = parse_protocol(fields[1])
            except ValueError as exc:
                raise TraceError(f"proto: {exc}") from exc
            src_addr, src_port = _parse_endpoint(fields[2], "src")
            dst_addr, dst_port = _parse_endpoint(fields[3], "dst")
            if proto not in (TCP, UDP) and (src_port or dst_port):
                raise TraceError(f"src/dst: ports must be 0 for protocol {proto}")
            sid = SessionId(src_addr, src_port, dst_addr, dst_port, proto)

        flags = FLAG_BITS.get(fields[4])
        if flags is None:
            # one spelling per value keeps render/parse one-to-one
            raise TraceError(f"flags: not '-' or a subset of SAFR in that order: {fields[4]!r}")
        if flags and sid.proto != TCP:
            raise TraceError(f"flags: TCP flags on protocol {sid.proto}")

        payload_len = _parse_number(fields[5], 65535, "payload_len")
        tos = _parse_number(fields[6], 255, "tos")
        if len(fields) == 8:
            ttl = _parse_number(fields[7], 255, "ttl")
            if ttl == 0:
                raise TraceError("ttl: must be >= 1 on ingress")
        else:
            ttl = 64
        sids[key] = sid
        values = tails[head[1]] = (sid, tos, ttl, flags, payload_len)
    # the fields in order, without the Python-level __new__ a NamedTuple call runs
    return tuple.__new__(Packet, (ts,) + values)


def parse_trace_record(line: str) -> Packet:
    """Parse one trace line.

    Grammar (whitespace separated):
        ts proto src_ip:src_port dst_ip:dst_port flags payload_len tos [ttl]
    proto is tcp, udp, or a decimal protocol number; flags is '-' or a subset
    of "SAFR" in that order; ttl is optional and defaults to 64. Numbers are
    ASCII decimal digits.
    """
    return _parse_record(line, {}, {})


def render_trace_record(packet: Packet) -> str:
    """Inverse of parse_trace_record: parse(render(p)) == p."""
    sid = packet.sid
    proto = PROTO_TEXT.get(sid.proto) or str(sid.proto)
    return (
        f"{packet.ts} {proto}"
        f" {format_ip(sid.src_addr)}:{sid.src_port}"
        f" {format_ip(sid.dst_addr)}:{sid.dst_port}"
        f" {FLAG_TEXT[packet.flags]} {packet.payload_len} {packet.tos} {packet.ttl}"
    )


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


def load_trace(text: str) -> list[Packet]:
    """Parse a whole trace. '#' lines and blank lines are skipped.

    Timestamps must be non-decreasing across the file. The packets of one
    flow share one SessionId, parsed once per call, and a line that differs
    from an earlier one only in its timestamp parses only that column.
    """
    packets: list[Packet] = []
    last_ts = 0.0
    sids, tails = {}, {}  # what `_parse_record` remembers, for this call only
    for lineno, line in content_lines(text):
        try:
            packet = _parse_record(line, sids, tails)
        except TraceError as exc:
            raise TraceError(f"line {lineno}: {exc}") from exc
        if packet.ts < last_ts:
            raise TraceError(f"line {lineno}: ts: timestamps must be non-decreasing")
        last_ts = packet.ts
        packets.append(packet)
    return packets
