"""Five-tuple matchers shared by the filter and QoS policy grammars."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

from flowgate.errors import ConfigError
from flowgate.packet import Cidr, SessionId, is_decimal, parse_protocol


def parse_ports(token: str) -> tuple[int, int]:
    """'any', a single port, or an inclusive 'N-M' range, as (lo, hi)."""
    if token == "any":
        return 0, 65535
    lo_part, sep, hi_part = token.partition("-")
    if not is_decimal(lo_part) or (sep and not is_decimal(hi_part)):
        raise ValueError(f"bad port spec {token!r}")
    lo = int(lo_part)
    hi = int(hi_part) if sep else lo
    if lo > hi or hi > 65535:
        raise ValueError(f"bad port spec {token!r}")
    return lo, hi


def parse_proto(token: str) -> int | None:
    """'any' -> None (wildcard), else tcp/udp/decimal protocol number."""
    return None if token == "any" else parse_protocol(token)


def parse_cidr(token: str) -> tuple[int, int]:
    """'any' or a prefix, as the inclusive (lo, hi) address range it covers."""
    if token == "any":
        return 0, 0xFFFFFFFF
    cidr = Cidr.parse(token)
    return cidr.network, cidr.network | (0xFFFFFFFF >> cidr.prefix_len)


class TupleMatcher(NamedTuple):
    """A protocol (None for any) and four inclusive (lo, hi) ranges, in a `SessionId`'s field order."""

    proto: int | None
    src: tuple[int, int]
    src_ports: tuple[int, int]
    dst: tuple[int, int]
    dst_ports: tuple[int, int]


def parse_matcher(fields: list[str], lineno: int) -> TupleMatcher:
    """Parse the 5 matcher tokens: proto src_cidr src_ports dst_cidr dst_ports."""
    try:
        return TupleMatcher(
            parse_proto(fields[0]),
            parse_cidr(fields[1]),
            parse_ports(fields[2]),
            parse_cidr(fields[3]),
            parse_ports(fields[4]),
        )
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from exc


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


@dataclass(frozen=True)
class Policy:
    """Ordered rules, each with a `match`, and their first-match index: one bit vector per field.

    Lakshman & Stiliadis's range matching (SIGCOMM 1998): rule i is bit i, each
    field's value space is cut into pieces at the matchers' edges, and a piece
    carries the mask of the rules covering it. A lookup ANDs the protocol's mask
    with one binary-searched piece mask per field, O(fields x log n) for n rules,
    and the lowest set bit is the first match. Fields no matcher constrains are
    left out. The index, built once from `rules`, neither compares nor prints.
    """

    rules: tuple
    _by_proto: dict = field(init=False, repr=False, compare=False)
    _any_proto: int = field(init=False, repr=False, compare=False)
    _fields: tuple = field(init=False, repr=False, compare=False)  # (sid index, edges, masks)

    def __post_init__(self) -> None:
        matchers = [rule.match for rule in self.rules]
        everyone = (1 << len(matchers)) - 1
        wildcard = 0
        by_proto: dict[int, int] = {}
        for i, m in enumerate(matchers):
            if m.proto is None:
                wildcard |= 1 << i
            else:
                by_proto[m.proto] = by_proto.get(m.proto, 0) | 1 << i
        fields = []
        for index, top in enumerate((0xFFFFFFFF, 65535, 0xFFFFFFFF, 65535)):
            edges, masks = _pieces([m[index + 1] for m in matchers], top)
            if masks != [everyone]:
                fields.append((index, edges, masks))
        object.__setattr__(self, "_by_proto", {p: mask | wildcard for p, mask in by_proto.items()})
        object.__setattr__(self, "_any_proto", wildcard)
        object.__setattr__(self, "_fields", tuple(fields))

    def first(self, sid: SessionId) -> int | None:
        """Index of the first rule whose matcher covers `sid`, or None."""
        mask = self._by_proto.get(sid[4], self._any_proto)
        for index, edges, masks in self._fields:
            if not mask:
                return None
            mask &= masks[bisect_right(edges, sid[index]) - 1]
        return (mask & -mask).bit_length() - 1 if mask else None
