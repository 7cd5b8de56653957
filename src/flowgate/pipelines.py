"""The two per-packet processing flows under comparison.

BaselinePipeline consults a NAT table, a bare connection-state table, the
QoS policy, and the routing table separately for every packet. Integrated-
Pipeline answers everything from one session-table lookup once a flow is
established. The two must produce observably identical verdict streams for
any trace; only the lookup accounting differs.

Both share one drop-reason precedence on the slow (first-packet) path:
RuleDenied > StateViolation > NatExhausted > TableFull > NoRoute > TtlExpired.
Capacity is checked before the NAT pool, so a refused flow never pays for
a port probe it would throw away: on a full table the pool is probed only
when the table holding its ports has at least `pool_size` entries, since
fewer cannot exhaust it. When the pool is exhausted the drop still says
NatExhausted, and the flow still counts its one NAT consultation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from flowgate.filters import Action, RuleSet, evaluate
from flowgate.nat import (
    NatConfig,
    NatPoolExhausted,
    NatTable,
    find_free_port,
    inbound_sid,
    outbound_sid,
)
from flowgate.packet import SYN, TCP, Cidr, Direction, Packet, SessionId, merge_dscp
from flowgate.qos import QosPolicy, classify
from flowgate.routing import RoutingTable
from flowgate.session_table import (
    ExpiringTable,
    SessionEntry,
    SessionState,
    SessionTable,
    TableFullError,
    Timeouts,
    advance,
    entry_timeout,
    initial_state,
)


class DropReason(enum.Enum):
    RULE_DENIED = "rule_denied"
    STATE_VIOLATION = "state_violation"
    NO_ROUTE = "no_route"
    NAT_EXHAUSTED = "nat_exhausted"
    TABLE_FULL = "table_full"
    TTL_EXPIRED = "ttl_expired"
    INBOUND_NO_SESSION = "inbound_no_session"


class LookupAccounting(NamedTuple):
    """Table consultations made for one packet.

    `rules_scanned` is the first-match depth: the rules a linear scan would
    examine to reach the verdict. `evaluate` answers from an index, so this
    is not the work it does; it is kept for the paper's accounting.
    """

    nat_lookups: int = 0
    session_lookups: int = 0
    rule_evals: int = 0
    rules_scanned: int = 0
    qos_classifications: int = 0
    route_lookups: int = 0

    def total_consultations(self) -> int:
        """All table/policy consultations; scan depth is not a consultation."""
        return (
            self.nat_lookups
            + self.session_lookups
            + self.rule_evals
            + self.qos_classifications
            + self.route_lookups
        )


# NamedTuples, the cheapest immutable values that compare and hash by field; outcomes
# of different kinds differ in length, so they never compare equal.
class Forwarded(NamedTuple):
    next_hop: int
    iface: str
    packet: Packet


class Dropped(NamedTuple):
    reason: DropReason


class Verdict(NamedTuple):
    outcome: Forwarded | Dropped
    lookups: LookupAccounting


@dataclass(slots=True)
class StateEntry:
    """Bare connection-tracking record: LAN-side five-tuple, state, expiry only."""

    outbound_key: SessionId
    proto: int
    state: SessionState
    expiry: float


class StateTable(ExpiringTable):
    """Single-index state table keyed on the LAN-side five-tuple: a bare conntrack."""


@dataclass
class RouterConfig:
    """Everything a pipeline instance needs, parsed and immutable."""

    lan_prefix: Cidr
    rules: RuleSet
    qos: QosPolicy
    routes: RoutingTable
    nat: NatConfig
    timeouts: Timeouts = field(default_factory=Timeouts)
    capacity: int = 65536


# hit-path accounting never varies; shared instances keep the hot paths lean
_ONE_SESSION_LOOKUP = LookupAccounting(session_lookups=1)
_ONE_NAT_LOOKUP = LookupAccounting(nat_lookups=1)
_NAT_AND_SESSION_LOOKUPS = LookupAccounting(nat_lookups=1, session_lookups=1)
_BASELINE_HIT_ACCT = LookupAccounting(
    nat_lookups=1, session_lookups=1, qos_classifications=1, route_lookups=1
)
_BASELINE_LOCAL_HIT_ACCT = LookupAccounting(
    session_lookups=1, qos_classifications=1, route_lookups=1
)


def _forward(
    packet: Packet,
    sid: SessionId,
    dscp: int,
    next_hop: int | None,
    iface: str | None,
    acct: LookupAccounting,
) -> Verdict:
    """The egress step both pipelines share: NoRoute, then TTL, then the rewritten packet."""
    if next_hop is None:
        return Verdict(Dropped(DropReason.NO_ROUTE), acct)
    ttl = packet.ttl - 1
    if ttl == 0:
        return Verdict(Dropped(DropReason.TTL_EXPIRED), acct)
    emitted = Packet(
        packet.ts, sid, merge_dscp(packet.tos, dscp), ttl, packet.flags, packet.payload_len
    )
    return Verdict(Forwarded(next_hop, iface, emitted), acct)


class BaselinePipeline:
    """Conventional flow: NAT, then state table, then QoS and routing per packet.

    The state table stores nothing but state+expiry, so classification and
    route lookup must be repeated for every single packet of a flow.
    """

    name = "baseline"

    def __init__(self, config: RouterConfig):
        self.config = config
        self.nat_table = NatTable(config.timeouts)
        self.state_table = StateTable(config.capacity, config.timeouts)
        self.session_hits = 0
        self.session_misses = 0

    def process(self, packet: Packet, now: float | None = None) -> Verdict:
        """Run one packet through the multi-table flow.

        Per packet, in order: NAT table lookup (inbound miss drops right
        here); state-table lookup; on miss, rule validation, NAT allocation
        and state insert; then QoS classification and a route lookup on the
        post-NAT destination, every packet; TTL is decremented last.
        """
        if now is None:
            now = packet.ts
        cfg = self.config
        sid = packet.sid

        if cfg.lan_prefix.contains(sid.src_addr):
            # --- outbound ---
            lan_to_lan = cfg.lan_prefix.contains(sid.dst_addr)
            mapping = None if lan_to_lan else self.nat_table.lookup_forward(sid, now)
            entry = self.state_table.lookup(sid, now)
            if entry is None:
                return self._first_packet(packet, sid, now, lan_to_lan)
            self.session_hits += 1
            if not lan_to_lan and mapping is None:
                raise RuntimeError("live state entry without a live NAT mapping")
            if not advance(entry, packet.flags, Direction.OUTBOUND, now, cfg.timeouts):
                return Verdict(
                    Dropped(DropReason.STATE_VIOLATION),
                    _ONE_SESSION_LOOKUP if lan_to_lan else _NAT_AND_SESSION_LOOKUPS,
                )
            if mapping is not None:
                mapping.expiry = entry.expiry
            return self._outbound_egress(
                packet, sid, mapping, _BASELINE_LOCAL_HIT_ACCT if lan_to_lan else _BASELINE_HIT_ACCT
            )

        # --- inbound ---
        mapping = self.nat_table.lookup_reverse(sid, now)
        if mapping is None:
            return Verdict(Dropped(DropReason.INBOUND_NO_SESSION), _ONE_NAT_LOOKUP)
        in_sid = inbound_sid(sid, mapping)
        session_sid = in_sid.reversed()
        entry = self.state_table.lookup(session_sid, now)
        if entry is None:
            # unreachable while mapping expiry mirrors the state entry's
            self.session_misses += 1
            return Verdict(Dropped(DropReason.INBOUND_NO_SESSION), _NAT_AND_SESSION_LOOKUPS)
        self.session_hits += 1
        if not advance(entry, packet.flags, Direction.INBOUND, now, cfg.timeouts):
            return Verdict(Dropped(DropReason.STATE_VIOLATION), _NAT_AND_SESSION_LOOKUPS)
        mapping.expiry = entry.expiry
        dscp = classify(cfg.qos, session_sid)
        route = cfg.routes.lookup(in_sid.dst_addr)
        hop = (None, None) if route is None else (route.next_hop, route.iface)
        return _forward(packet, in_sid, dscp, *hop, _BASELINE_HIT_ACCT)

    def _first_packet(
        self, packet: Packet, sid: SessionId, now: float, lan_to_lan: bool
    ) -> Verdict:
        """The outbound miss: validate, check capacity, allocate, then create state."""
        cfg = self.config
        self.session_misses += 1
        nat_l = 0 if lan_to_lan else 1  # the forward lookup made in `process`
        qos_c = route_l = 0
        action, _, rules_s = evaluate(cfg.rules, sid)

        def acct() -> LookupAccounting:
            return LookupAccounting(nat_l, 1, 1, rules_s, qos_c, route_l)

        if action is Action.DROP:
            return Verdict(Dropped(DropReason.RULE_DENIED), acct())
        if sid.proto == TCP and packet.flags != SYN:
            return Verdict(Dropped(DropReason.STATE_VIOLATION), acct())
        state = initial_state(sid.proto)
        expiry = now + entry_timeout(sid.proto, state, cfg.timeouts)
        try:
            self.state_table.ensure_capacity(now)
        except TableFullError:
            full = True
        else:
            full = False
        mapping = None
        # a pool of N ports cannot be exhausted by fewer than N mappings
        if not lan_to_lan and (not full or len(self.nat_table) >= cfg.nat.pool_size):
            try:
                mapping = self.nat_table.allocate(
                    cfg.nat, sid.src_addr, sid.src_port,
                    sid.dst_addr, sid.dst_port, sid.proto, now, expiry,
                )
            except NatPoolExhausted:
                return Verdict(Dropped(DropReason.NAT_EXHAUSTED), acct())
        if full:
            if mapping is not None:
                self.nat_table.remove(mapping)  # it only answered the pool question
            return Verdict(Dropped(DropReason.TABLE_FULL), acct())
        self.state_table.insert(StateEntry(sid, sid.proto, state, expiry))
        qos_c = route_l = 1
        return self._outbound_egress(packet, sid, mapping, acct())

    def _outbound_egress(
        self, packet: Packet, sid: SessionId, mapping, acct: LookupAccounting
    ) -> Verdict:
        """QoS and routing on the post-NAT five-tuple, repeated for every outbound packet."""
        cfg = self.config
        dscp = classify(cfg.qos, sid)
        out_sid = sid if mapping is None else outbound_sid(sid, mapping)
        route = cfg.routes.lookup(out_sid.dst_addr)
        hop = (None, None) if route is None else (route.next_hop, route.iface)
        return _forward(packet, out_sid, dscp, *hop, acct)


class IntegratedPipeline:
    """Single-lookup flow: the session entry answers NAT, state, DSCP, and next hop.

    A flow's first packet pays the full slow path (rules, NAT allocation,
    classification, and a route lookup for each direction) to populate the
    entry; every later packet in either direction needs exactly one table
    lookup, keyed by the packet's own five-tuple.
    """

    name = "integrated"

    def __init__(self, config: RouterConfig):
        self.config = config
        self.table = SessionTable(config.capacity, config.timeouts)
        self.session_hits = 0
        self.session_misses = 0

    def process(self, packet: Packet, now: float | None = None) -> Verdict:
        if now is None:
            now = packet.ts
        sid = packet.sid
        if self.config.lan_prefix.contains(sid.src_addr):
            entry = self.table.lookup_outbound(sid, now)
            if entry is None:
                return self._first_packet(packet, sid, now)
            self.session_hits += 1
            if not advance(entry, packet.flags, Direction.OUTBOUND, now, self.config.timeouts):
                return Verdict(Dropped(DropReason.STATE_VIOLATION), _ONE_SESSION_LOOKUP)
            return _forward(
                packet, outbound_sid(sid, entry), entry.dscp,
                entry.ext_next_hop, entry.ext_iface, _ONE_SESSION_LOOKUP,
            )
        entry = self.table.lookup_inbound(sid, now)
        if entry is None:
            # inbound-initiated flows are not accepted; the miss is terminal
            self.session_misses += 1
            return Verdict(Dropped(DropReason.INBOUND_NO_SESSION), _ONE_SESSION_LOOKUP)
        self.session_hits += 1
        if not advance(entry, packet.flags, Direction.INBOUND, now, self.config.timeouts):
            return Verdict(Dropped(DropReason.STATE_VIOLATION), _ONE_SESSION_LOOKUP)
        return _forward(
            packet, inbound_sid(sid, entry), entry.dscp,
            entry.lan_next_hop, entry.lan_iface, _ONE_SESSION_LOOKUP,
        )

    def _first_packet(self, packet: Packet, sid: SessionId, now: float) -> Verdict:
        """The slow path: validate, check capacity, allocate, classify and route, then insert."""
        cfg = self.config
        self.session_misses += 1
        nat_l = qos_c = route_l = 0
        action, _, rules_s = evaluate(cfg.rules, sid)

        def acct() -> LookupAccounting:
            return LookupAccounting(nat_l, 1, 1, rules_s, qos_c, route_l)

        if action is Action.DROP:
            return Verdict(Dropped(DropReason.RULE_DENIED), acct())
        if sid.proto == TCP and packet.flags != SYN:
            return Verdict(Dropped(DropReason.STATE_VIOLATION), acct())
        try:
            self.table.ensure_capacity(now)
        except TableFullError:
            full = True
        else:
            full = False

        if cfg.lan_prefix.contains(sid.dst_addr):  # LAN to LAN: no translation
            gwy_addr, gwy_port = sid.src_addr, sid.src_port
        else:
            nat_l += 1  # one allocation probe against the session table
            gwy_addr = cfg.nat.public_addr
            # a pool of N ports cannot be exhausted by fewer than N entries
            if not full or len(self.table) >= cfg.nat.pool_size:
                _, _, ext_addr, ext_port, proto = sid  # locals: each probe reads them
                try:
                    gwy_port = find_free_port(
                        cfg.nat, ext_addr, ext_port, proto,
                        lambda p: self.table.port_in_use(
                            gwy_addr, p, ext_addr, ext_port, proto, now),
                    )
                except NatPoolExhausted:
                    return Verdict(Dropped(DropReason.NAT_EXHAUSTED), acct())
        if full:
            return Verdict(Dropped(DropReason.TABLE_FULL), acct())

        qos_c += 1
        dscp = classify(cfg.qos, sid)
        route_l += 2  # both next hops are resolved and cached at creation
        ext_route = cfg.routes.lookup(sid.dst_addr)
        lan_route = cfg.routes.lookup(sid.src_addr)
        state = initial_state(sid.proto)
        entry = SessionEntry(
            lan_addr=sid.src_addr,
            lan_port=sid.src_port,
            gwy_addr=gwy_addr,
            gwy_port=gwy_port,
            ext_addr=sid.dst_addr,
            ext_port=sid.dst_port,
            proto=sid.proto,
            state=state,
            expiry=now + entry_timeout(sid.proto, state, cfg.timeouts),
            dscp=dscp,
            ext_next_hop=ext_route.next_hop if ext_route else None,
            lan_next_hop=lan_route.next_hop if lan_route else None,
            ext_iface=ext_route.iface if ext_route else None,
            lan_iface=lan_route.iface if lan_route else None,
        )
        self.table.insert(entry)
        return _forward(
            packet, outbound_sid(sid, entry), dscp, entry.ext_next_hop, entry.ext_iface, acct()
        )
