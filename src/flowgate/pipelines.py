"""The two per-packet processing flows under comparison.

BaselinePipeline consults a NAT table, a bare connection-state table, the
QoS policy, and the routing table separately for every packet. Integrated-
Pipeline answers everything from one session-table lookup once a flow is
established. The two must produce observably identical verdict streams for
any trace; only the lookup accounting differs.

Both admit a first packet through one `_first_packet`, in one drop precedence:
RULE_DENIED > STATE_VIOLATION > NAT_EXHAUSTED > TABLE_FULL > NO_ROUTE > TTL_EXPIRED.
A flow opens only when its first packet leaves, as Linux confirms a conntrack
entry (`nf_conntrack_confirm`): a first packet dropped at egress inserts nothing.
Capacity is checked before the NAT pool, so a refused flow never pays for
a port probe it would throw away: on a full table the pool is probed only
when the table holding its ports has at least as many entries as the pool
has ports (one, for a protocol without ports), since fewer cannot exhaust
it. When the pool is exhausted the drop still says NAT_EXHAUSTED, and the
flow still counts its one NAT consultation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from flowgate.filters import RuleSet, evaluate
from flowgate.nat import NatConfig, NatMapping, NatPoolExhausted, NatTable, find_free_port
from flowgate.packet import INBOUND, OUTBOUND, Cidr, Packet, SessionId, merge_dscp
from flowgate.qos import QosPolicy, classify
from flowgate.routing import RouteEntry, RoutingTable
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


# a drop's outcome is its reason: a str, which equals no Forwarded
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


# NamedTuples, the cheapest immutable values that compare and hash by field
class Forwarded(NamedTuple):
    """What `Forward.outcome` rebuilds: the route, then the emitted packet's fields in order."""

    route: RouteEntry  # the next hop and iface, as the routing table holds them
    ts: float
    sid: SessionId
    tos: int
    ttl: int
    flags: int
    payload_len: int


class Verdict(NamedTuple):
    """A drop: its reason, then the packet's lookups."""

    outcome: str
    lookups: LookupAccounting


class Forward(NamedTuple):
    """A forward's verdict: `Forwarded`'s fields, then the packet's lookups, in one tuple."""

    route: RouteEntry
    ts: float
    sid: SessionId
    tos: int
    ttl: int
    flags: int
    payload_len: int
    lookups: LookupAccounting

    @property
    def outcome(self) -> Forwarded:
        """What the forward emits, as observers compare it; per-packet code never reads it."""
        return _new(Forwarded, self[:7])


@dataclass(slots=True)
class StateEntry:
    """Bare connection-tracking record: LAN-side five-tuple, state, expiry only."""

    outbound_key: SessionId
    proto: int
    state: SessionState
    expiry: float


class StateTable(ExpiringTable):
    """Single-index state table keyed on the LAN-side five-tuple: a bare conntrack."""


@dataclass(frozen=True)
class RouterConfig:
    """Everything a pipeline instance needs, parsed and immutable."""

    lan_prefix: Cidr
    rules: RuleSet
    qos: QosPolicy
    routes: RoutingTable
    nat: NatConfig
    timeouts: Timeouts = Timeouts()
    capacity: int = 65536


# hit-path accounting never varies; shared instances keep the hot paths lean
_ONE_SESSION_LOOKUP = LookupAccounting(session_lookups=1)
_TWO_SESSION_LOOKUPS = LookupAccounting(session_lookups=2)  # a LAN peer's reply
_ONE_NAT_LOOKUP = LookupAccounting(nat_lookups=1)
_NAT_AND_SESSION_LOOKUPS = LookupAccounting(nat_lookups=1, session_lookups=1)
_BASELINE_HIT_ACCT = LookupAccounting(
    nat_lookups=1, session_lookups=1, qos_classifications=1, route_lookups=1
)
_BASELINE_LOCAL_HIT_ACCT = LookupAccounting(
    session_lookups=1, qos_classifications=1, route_lookups=1
)
_BASELINE_LAN_REPLY_ACCT = LookupAccounting(
    session_lookups=2, qos_classifications=1, route_lookups=1
)

_new = tuple.__new__  # a NamedTuple call without its Python-level __new__: fields in order


def _slow_drop(outcome: str, nat_l: int, sess_l: int, rules_s: int) -> Verdict:
    """A first packet's drop: its NAT and session lookups, one rule evaluation, no QoS or route."""
    return _new(Verdict, (outcome, _new(LookupAccounting, (nat_l, sess_l, 1, rules_s, 0, 0))))


def _forward(
    packet: Packet, sid: SessionId, dscp: int, route: RouteEntry | None, acct: LookupAccounting
) -> Verdict | Forward:
    """The egress step both pipelines share: NoRoute, then TTL, then the rewritten packet."""
    if route is None:
        return _new(Verdict, (NO_ROUTE, acct))
    ts, _, tos, ttl, flags, payload_len = packet
    ttl -= 1
    if ttl == 0:
        return _new(Verdict, (TTL_EXPIRED, acct))
    return _new(Forward, (route, ts, sid, merge_dscp(tos, dscp), ttl, flags, payload_len, acct))


class _Pipeline:
    """What both pipelines hold, and the one gate that admits a flow's first packet."""

    def __init__(self, config: RouterConfig, flow_table, port_table) -> None:
        self.config = config
        # the LAN test Cidr.contains makes, without its call: (addr ^ net) >> shift == 0
        self._lan_net, self._lan_shift = config.lan_prefix.network, 32 - config.lan_prefix.prefix_len
        # the table whose capacity bounds the flows, and the one that holds their public ports
        self._flow_table, self._port_table = flow_table, port_table
        self.session_hits = self.session_misses = 0

    def _first_packet(
        self, packet: Packet, sid: SessionId, now: float, lan_to_lan: bool
    ) -> Verdict | Forward:
        """The miss: rules, opening state, capacity, then the pool; `_open` builds what passes."""
        cfg = self.config
        self.session_misses += 1
        sess_l = 2 if lan_to_lan else 1  # a LAN-to-LAN miss also looked for a reply
        nat_l = 0 if lan_to_lan else self._miss_nat_lookups
        accepted, _, rules_s = evaluate(cfg.rules, sid)
        if not accepted:
            return _slow_drop(RULE_DENIED, nat_l, sess_l, rules_s)
        _, _, ext_addr, ext_port, proto = sid  # locals: each port probe reads these three
        state = initial_state(proto, packet.flags)
        if state is None:
            return _slow_drop(STATE_VIOLATION, nat_l, sess_l, rules_s)
        try:
            self._flow_table.ensure_capacity(now)
        except TableFullError:
            full = True
        else:
            full = False
        gwy = None  # the flow's public (addr, port); LAN to LAN is not translated
        if not lan_to_lan:
            nat_l = 1  # the flow's one NAT consultation
            ports, gwy_addr = self._port_table, cfg.nat.public_addr
            # a pool of N ports cannot be exhausted by fewer than N entries
            if not full or len(ports) >= len(cfg.nat.ports(proto)):
                try:
                    gwy = gwy_addr, find_free_port(
                        cfg.nat, ext_addr, ext_port, proto,
                        lambda p: ports.port_in_use(gwy_addr, p, ext_addr, ext_port, proto, now),
                    )
                except NatPoolExhausted:
                    return _slow_drop(NAT_EXHAUSTED, nat_l, sess_l, rules_s)
        if full:
            return _slow_drop(TABLE_FULL, nat_l, sess_l, rules_s)
        expiry = now + entry_timeout(state, cfg.timeouts)
        acct = _new(LookupAccounting, (nat_l, sess_l, 1, rules_s, 1, self._open_route_lookups))
        return self._open(packet, sid, state, expiry, gwy, acct)


class BaselinePipeline(_Pipeline):
    """Conventional flow: NAT, then state table, then QoS and routing per packet.

    The state table stores nothing but state+expiry, so classification and
    route lookup must be repeated for every single packet of a flow.
    """

    name = "baseline"
    _miss_nat_lookups = 1  # the forward lookup `process` made before a translated flow's miss
    _open_route_lookups = 1  # the post-NAT destination's, as for every outbound packet

    def __init__(self, config: RouterConfig):
        self.nat_table = NatTable()
        self.state_table = StateTable(config.capacity, config.timeouts)
        super().__init__(config, self.state_table, self.nat_table)

    def process(self, packet: Packet, now: float | None = None) -> Verdict | Forward:
        """Run one packet through the multi-table flow.

        Per packet, in order: NAT table lookup (inbound miss drops right
        here); state-table lookup; on a LAN-to-LAN miss, a state-table lookup
        of the reversed five-tuple, as the packet may be a LAN peer's reply;
        on a miss, rule validation, NAT allocation and state insert; then QoS
        classification and a route lookup on the post-NAT destination, every
        packet; TTL is decremented last.
        """
        if now is None:
            now = packet.ts
        cfg = self.config
        sid = packet.sid
        net, shift = self._lan_net, self._lan_shift
        if (sid.src_addr ^ net) >> shift == 0:
            lan_to_lan = (sid.dst_addr ^ net) >> shift == 0
            mapping = None if lan_to_lan else self.nat_table.lookup_forward(sid, now)
            entry = self.state_table.lookup(sid, now)
            if entry is not None:
                self.session_hits += 1
                if not lan_to_lan and mapping is None:
                    raise RuntimeError("live state entry without a live NAT mapping")
                if not advance(entry, packet.flags, OUTBOUND, now, cfg.timeouts):
                    return _new(Verdict, (
                        STATE_VIOLATION,
                        _ONE_SESSION_LOOKUP if lan_to_lan else _NAT_AND_SESSION_LOOKUPS,
                    ))
                if mapping is not None:
                    mapping.expiry = entry.expiry
                return self._outbound_egress(
                    packet, sid, mapping,
                    _BASELINE_LOCAL_HIT_ACCT if lan_to_lan else _BASELINE_HIT_ACCT,
                )
            if lan_to_lan:
                # a LAN peer's reply is found by its reversed five-tuple, and is not translated
                src, src_port, dst, dst_port, proto = sid
                entry = self.state_table.lookup((dst, dst_port, src, src_port, proto), now)
            if entry is None:
                return self._first_packet(packet, sid, now, lan_to_lan)
            lookups, acct = _TWO_SESSION_LOOKUPS, _BASELINE_LAN_REPLY_ACCT
        else:
            mapping = self.nat_table.lookup_reverse(sid, now)
            if mapping is None:
                return _new(Verdict, (INBOUND_NO_SESSION, _ONE_NAT_LOOKUP))
            entry = self.state_table.lookup(mapping.outbound_key, now)
            if entry is None:
                raise RuntimeError("live NAT mapping without a live state entry")
            lookups, acct = _NAT_AND_SESSION_LOOKUPS, _BASELINE_HIT_ACCT
        self.session_hits += 1
        if not advance(entry, packet.flags, INBOUND, now, cfg.timeouts):
            return _new(Verdict, (STATE_VIOLATION, lookups))
        if mapping is not None:
            mapping.expiry = entry.expiry
            sid = mapping.in_sid
        flow = entry.outbound_key  # the originator's five-tuple, which QoS and routes key on
        return _forward(
            packet, sid, classify(cfg.qos, flow), cfg.routes.lookup(flow.src_addr), acct
        )

    def _open(self, packet, sid, state, expiry, gwy, acct) -> Verdict | Forward:
        """Insert a flow's state entry and, unless LAN to LAN, its mapping if its packet leaves."""
        lan, lan_port, ext, ext_port, proto = sid
        mapping = None if gwy is None else NatMapping(
            lan, lan_port, *gwy, ext, ext_port, proto, expiry
        )
        verdict = self._outbound_egress(packet, sid, mapping, acct)
        if type(verdict) is Forward:
            if mapping is not None:
                self.nat_table.insert(mapping)
            self.state_table.insert(StateEntry(sid, proto, state, expiry))
        return verdict

    def _outbound_egress(
        self, packet: Packet, sid: SessionId, mapping, acct: LookupAccounting
    ) -> Verdict | Forward:
        """QoS and routing on the post-NAT five-tuple, repeated for every outbound packet."""
        cfg = self.config
        dscp = classify(cfg.qos, sid)
        out_sid = sid if mapping is None else mapping.out_sid
        return _forward(packet, out_sid, dscp, cfg.routes.lookup(out_sid.dst_addr), acct)


class IntegratedPipeline(_Pipeline):
    """Single-lookup flow: the session entry answers NAT, state, DSCP, and next hop.

    A flow's first packet pays the full slow path (rules, NAT allocation,
    classification, and a route lookup for each direction) to populate the
    entry; every later packet in either direction needs exactly one table
    lookup, keyed by the packet's own five-tuple. A LAN peer's reply needs
    two: it misses as a flow's first direction, then is found as its reply.
    """

    name = "integrated"
    _miss_nat_lookups = 0  # the miss made one session lookup; the port probe is the NAT one
    _open_route_lookups = 2  # both directions', kept in the entry

    def __init__(self, config: RouterConfig):
        self.table = SessionTable(config.capacity, config.timeouts)
        super().__init__(config, self.table, self.table)

    def process(self, packet: Packet, now: float | None = None) -> Verdict | Forward:
        if now is None:
            now = packet.ts
        sid = packet.sid
        net, shift = self._lan_net, self._lan_shift
        if (sid.src_addr ^ net) >> shift == 0:
            entry = self.table.lookup_outbound(sid, now)
            if entry is not None:
                self.session_hits += 1
                if not advance(entry, packet.flags, OUTBOUND, now, self.config.timeouts):
                    return _new(Verdict, (STATE_VIOLATION, _ONE_SESSION_LOOKUP))
                return _forward(
                    packet, entry.out_sid, entry.dscp, entry.ext_route, _ONE_SESSION_LOOKUP
                )
            lan_to_lan = (sid.dst_addr ^ net) >> shift == 0
            # a LAN peer's reply arrives on its flow's inbound key, as a reply from outside does
            entry = self.table.lookup_inbound(sid, now) if lan_to_lan else None
            if entry is None:
                return self._first_packet(packet, sid, now, lan_to_lan)
            acct = _TWO_SESSION_LOOKUPS
        else:
            entry = self.table.lookup_inbound(sid, now)
            if entry is None:
                # inbound-initiated flows are not accepted; the miss is terminal
                self.session_misses += 1
                return _new(Verdict, (INBOUND_NO_SESSION, _ONE_SESSION_LOOKUP))
            acct = _ONE_SESSION_LOOKUP
        self.session_hits += 1
        if not advance(entry, packet.flags, INBOUND, now, self.config.timeouts):
            return _new(Verdict, (STATE_VIOLATION, acct))
        return _forward(packet, entry.in_sid, entry.dscp, entry.lan_route, acct)

    def _open(self, packet, sid, state, expiry, gwy, acct) -> Verdict | Forward:
        """Classify a flow, look up both directions' routes, and insert its entry if it leaves."""
        cfg = self.config
        lan, lan_port, ext_addr, ext_port, proto = sid
        gwy_addr, gwy_port = gwy or (lan, lan_port)  # LAN to LAN: the flow keeps its own endpoint
        dscp = classify(cfg.qos, sid)
        ext_route = cfg.routes.lookup(ext_addr)
        entry = SessionEntry(
            lan, lan_port, gwy_addr, gwy_port, ext_addr, ext_port, proto,
            state, expiry, dscp, ext_route, cfg.routes.lookup(lan),
        )
        verdict = _forward(packet, entry.out_sid, dscp, ext_route, acct)
        if type(verdict) is Forward:
            self.table.insert(entry)
        return verdict
