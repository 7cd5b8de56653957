"""Five-tuple matchers shared by the filter and QoS policy grammars."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from flowgate.errors import ConfigError
from flowgate.packet import Cidr, SessionId, is_decimal, parse_protocol

ANY_CIDR = Cidr(0, 0)


@dataclass(frozen=True, slots=True)
class PortMatch:
    lo: int = 0
    hi: int = 65535


ANY_PORTS = PortMatch()


def parse_ports(token: str) -> PortMatch:
    """'any', a single port, or an inclusive 'N-M' range."""
    if token == "any":
        return ANY_PORTS
    lo_part, sep, hi_part = token.partition("-")
    if not is_decimal(lo_part) or (sep and not is_decimal(hi_part)):
        raise ValueError(f"bad port spec {token!r}")
    lo = int(lo_part)
    hi = int(hi_part) if sep else lo
    if lo > hi or hi > 65535:
        raise ValueError(f"bad port spec {token!r}")
    return PortMatch(lo, hi)


def parse_proto(token: str) -> int | None:
    """'any' -> None (wildcard), else tcp/udp/decimal protocol number."""
    return None if token == "any" else parse_protocol(token)


def parse_cidr(token: str) -> Cidr:
    if token == "any":
        return ANY_CIDR
    return Cidr.parse(token)


@dataclass(frozen=True, slots=True)
class TupleMatcher:
    proto: int | None
    src: Cidr
    src_ports: PortMatch
    dst: Cidr
    dst_ports: PortMatch


def parse_matcher(fields: list[str], lineno: int) -> TupleMatcher:
    """Parse the 5 matcher tokens: proto src_cidr src_ports dst_cidr dst_ports."""
    try:
        return TupleMatcher(
            proto=parse_proto(fields[0]),
            src=parse_cidr(fields[1]),
            src_ports=parse_ports(fields[2]),
            dst=parse_cidr(fields[3]),
            dst_ports=parse_ports(fields[4]),
        )
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from exc


def _cidr_range(cidr: Cidr) -> tuple[int, int]:
    return cidr.network, cidr.network | (0xFFFFFFFF >> cidr.prefix_len)


def _pieces(ranges: list[tuple[int, int]], top: int) -> tuple[list[int], list[int]]:
    """Cut [0, top] at every range's `lo` and `hi + 1`.

    Returns the sorted cut edges and, per piece, the mask of the ranges
    covering it (range i is bit i). One XOR sweep: bit i turns on at its
    `lo` and off at its `hi + 1`.
    """
    toggles = {0: 0}
    for i, (lo, hi) in enumerate(ranges):
        toggles[lo] = toggles.get(lo, 0) ^ (1 << i)
        if hi < top:
            toggles[hi + 1] = toggles.get(hi + 1, 0) ^ (1 << i)
    edges = sorted(toggles)
    masks = []
    mask = 0
    for edge in edges:
        mask ^= toggles[edge]
        masks.append(mask)
    return edges, masks


class FirstMatch:
    """First-match index over ordered matchers: one bit vector per field.

    Lakshman & Stiliadis's range matching (SIGCOMM 1998): matcher i is
    bit i, each field's value space is cut into pieces at the matchers'
    edges, and a piece carries the mask of the matchers covering it. A
    lookup ANDs the protocol's mask with one binary-searched piece mask per
    field, O(fields x log n) for n matchers, and the lowest set bit is the
    first match. Fields no matcher constrains are left out.
    """

    __slots__ = ("_by_proto", "_any_proto", "_fields")

    def __init__(self, matchers: list[TupleMatcher]):
        everyone = (1 << len(matchers)) - 1
        wildcard = 0
        by_proto: dict[int, int] = {}
        for i, m in enumerate(matchers):
            if m.proto is None:
                wildcard |= 1 << i
            else:
                by_proto[m.proto] = by_proto.get(m.proto, 0) | 1 << i
        self._by_proto = {proto: mask | wildcard for proto, mask in by_proto.items()}
        self._any_proto = wildcard
        # (SessionId field index, piece edges, piece masks)
        fields = []
        for index, ranges, top in (
            (0, [_cidr_range(m.src) for m in matchers], 0xFFFFFFFF),
            (1, [(m.src_ports.lo, m.src_ports.hi) for m in matchers], 65535),
            (2, [_cidr_range(m.dst) for m in matchers], 0xFFFFFFFF),
            (3, [(m.dst_ports.lo, m.dst_ports.hi) for m in matchers], 65535),
        ):
            edges, masks = _pieces(ranges, top)
            if masks != [everyone]:
                fields.append((index, edges, masks))
        self._fields = tuple(fields)

    def first(self, sid: SessionId) -> int | None:
        """Index of the first matcher covering `sid`, or None."""
        mask = self._by_proto.get(sid[4], self._any_proto)
        for index, edges, masks in self._fields:
            if not mask:
                return None
            mask &= masks[bisect_right(edges, sid[index]) - 1]
        return (mask & -mask).bit_length() - 1 if mask else None
