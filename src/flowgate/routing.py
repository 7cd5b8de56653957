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

    Prefixes must be distinct, as `parse_routes` makes them; with a repeat, the later entry answers.
    Prefixes are address ranges that either nest or are disjoint (Lampson,
    Srinivasan & Varghese, INFOCOM 1998), so their edges cut the address
    space into pieces that each have one answer: the innermost prefix
    covering it. A lookup is one binary search over the piece edges.
    """

    def __init__(self, entries: list[RouteEntry]):
        self.entries = tuple(entries)
        # each prefix as one int, ordered by network and then length, so a covering prefix sorts first
        keys = [e.prefix.network << 6 | e.prefix.prefix_len for e in self.entries]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        # piece start -> the innermost prefix covering it; starts only grow, and a
        # later piece at the same start replaces the earlier one
        pieces: dict[int, RouteEntry | None] = {0: None}
        covering: list[tuple[int, RouteEntry]] = []  # (last address, entry), innermost last
        for i in order:
            key = keys[i]
            lo = key >> 6
            while covering and covering[-1][0] < lo:
                end = covering.pop()[0]
                pieces[end + 1] = covering[-1][1] if covering else None
            entry = self.entries[i]
            covering.append((lo | (0xFFFFFFFF >> (key & 63)), entry))
            pieces[lo] = entry
        while covering:
            end = covering.pop()[0]
            if end < 0xFFFFFFFF:
                pieces[end + 1] = covering[-1][1] if covering else None
        self._edges = list(pieces)  # sorted piece starts; piece i answers self._hits[i]
        self._hits = list(pieces.values())

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, dst: int) -> RouteEntry | None:
        return self._hits[bisect_right(self._edges, dst) - 1]


def parse_routes(text: str) -> RoutingTable:
    """One route per line: `<cidr> <next_hop_ip> <iface>`. Duplicate prefixes rejected."""
    entries: list[RouteEntry] = []
    hops: dict[str, int] = {}  # next-hop token -> its address, this call only
    seen: set[int] = set()  # each prefix read so far, as the table keys it
    for lineno, line in content_lines(text):
        fields = line.split()
        try:
            if len(fields) != 3:
                raise ValueError("expected '<cidr> <next_hop> <iface>'")
            prefix = Cidr.parse(fields[0])
            hop = hops.get(fields[1])
            if hop is None:
                hop = hops[fields[1]] = parse_ip(fields[1])
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
        key = prefix.network << 6 | prefix.prefix_len
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate prefix {prefix}")
        seen.add(key)
        entries.append(RouteEntry(prefix, hop, fields[2]))
    return RoutingTable(entries)
