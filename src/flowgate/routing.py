"""Static routing table with longest-prefix-match lookup."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from flowgate.errors import ConfigError
from flowgate.packet import Cidr, content_lines, format_ip, parse_ip


@dataclass(frozen=True, slots=True)
class RouteEntry:
    """One route; `label` is its "<next hop> <iface>" text, formatted once for every forward."""

    prefix: Cidr
    next_hop: int
    iface: str
    label: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", f"{format_ip(self.next_hop)} {self.iface}")


class RoutingTable:
    """Immutable after construction; lookup returns the longest covering prefix.

    Prefixes are address ranges that either nest or are disjoint (Lampson,
    Srinivasan & Varghese, INFOCOM 1998), so their edges cut the address
    space into pieces that each have one answer: the innermost prefix
    covering it. A lookup is one binary search over the piece edges.
    """

    def __init__(self, entries: list[RouteEntry]):
        self.entries = tuple(entries)
        self._edges = [0]  # sorted piece starts; piece i answers self._hits[i]
        self._hits: list[RouteEntry | None] = [None]
        # one sweep in address order; a covering prefix sorts before what it covers
        ordered = sorted(entries, key=lambda e: (e.prefix.network, e.prefix.prefix_len))
        covering: list[tuple[int, RouteEntry]] = []  # (last address, entry), innermost last
        for entry in ordered:
            lo = entry.prefix.network
            while covering and covering[-1][0] < lo:
                self._cut(covering.pop()[0] + 1, covering[-1][1] if covering else None)
            if covering and covering[-1][1].prefix == entry.prefix:
                raise ValueError(f"duplicate prefix {entry.prefix}")
            covering.append((lo | (0xFFFFFFFF >> entry.prefix.prefix_len), entry))
            self._cut(lo, entry)
        while covering:
            end = covering.pop()[0]
            if end < 0xFFFFFFFF:
                self._cut(end + 1, covering[-1][1] if covering else None)

    def _cut(self, start: int, hit: RouteEntry | None) -> None:
        """Start a piece answered by `hit`; one starting at the same address is replaced."""
        if self._edges[-1] == start:
            self._hits[-1] = hit
        else:
            self._edges.append(start)
            self._hits.append(hit)

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, dst: int) -> RouteEntry | None:
        return self._hits[bisect_right(self._edges, dst) - 1]


def parse_routes(text: str) -> RoutingTable:
    """One route per line: `<cidr> <next_hop_ip> <iface>`. Duplicate prefixes rejected."""
    entries: list[RouteEntry] = []
    seen: set[Cidr] = set()
    for lineno, line in content_lines(text):
        fields = line.split()
        if len(fields) != 3:
            raise ConfigError(f"line {lineno}: expected '<cidr> <next_hop> <iface>'")
        try:
            prefix = Cidr.parse(fields[0])
            next_hop = parse_ip(fields[1])
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
        if prefix in seen:
            raise ConfigError(f"line {lineno}: duplicate prefix {prefix}")
        seen.add(prefix)
        entries.append(RouteEntry(prefix, next_hop, fields[2]))
    return RoutingTable(entries)
