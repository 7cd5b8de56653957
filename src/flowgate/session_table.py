"""The expiring flow table all three tables share, and the unified session table.

`ExpiringTable` is one lazily expired exact-match index; `DualIndexTable`
adds a second index over the same entries so one lookup serves either
direction. The baseline's state table and NAT table and the integrated
pipeline's session table are thin subclasses. One SessionEntry carries
everything per-packet processing needs: the NAT identity (the flow's two
lookup keys and two rewritten five-tuples), connection state
and expiry, the flow's DSCP, and the route each direction looked up.
"""

from __future__ import annotations

import enum
import math
from dataclasses import InitVar, dataclass, field, fields
from heapq import heapify, heappop, heappush

from flowgate.packet import ACK, FIN, INBOUND, MIN_TIMEOUT, OUTBOUND, RST, SYN, TCP, SessionId
from flowgate.routing import RouteEntry


class SessionState(enum.Enum):
    SYN_SENT = "syn_sent"
    SYN_RECEIVED = "syn_received"
    ESTABLISHED = "established"
    FIN_WAIT = "fin_wait"
    CLOSED = "closed"
    OPEN = "open"  # the only state non-TCP sessions use


# the members per-packet code reads, bound once: on CPython 3.11 every attribute read on
# an Enum class runs EnumType.__getattr__'s hook, several times a module global's cost
SYN_SENT, ESTABLISHED = SessionState.SYN_SENT, SessionState.ESTABLISHED
CLOSED, OPEN = SessionState.CLOSED, SessionState.OPEN


@dataclass(frozen=True, slots=True)
class Timeouts:
    """Idle timeouts in seconds, keyed by protocol/state class."""

    tcp_established: float = 300.0
    tcp_transient: float = 30.0  # handshake and teardown states
    non_tcp: float = 60.0
    closed_grace: float = 5.0  # keeps closed entries around to block key reuse

    def __post_init__(self) -> None:
        # below MIN_TIMEOUT, now + t can round back to now and open a flow dead (see TS_LIMIT);
        # nan unorders the expiry heap; inf never expires
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, (int, float)) and MIN_TIMEOUT <= value < math.inf):
                raise ValueError(f"timeouts: {f.name} must be a finite number >= {MIN_TIMEOUT}, got {value!r}")


def entry_timeout(state: SessionState, timeouts: Timeouts) -> float:
    return getattr(timeouts, state.timeout_field)


# TCP transition function, a pure function of (state, flags, direction).
# Precedence: Closed is terminal (everything violates); RST always closes;
# SYN+FIN together is bogus; FIN moves toward teardown (FinWait, then Closed
# on the second FIN from either side); SYN is only valid as the handshake
# reply (inbound SYN+ACK) or as a retransmission of it / of the initial SYN;
# flagless or ACK-only segments are data, legal once Established or draining
# in FinWait, plus the outbound ACK that completes the handshake. Everything
# else is a violation (None).
def next_tcp_state(state: SessionState, flags: int, direction: int) -> SessionState | None:
    if state is SessionState.CLOSED:
        return None
    if flags & RST:
        return SessionState.CLOSED
    if flags & SYN and flags & FIN:
        return None
    if flags & FIN:
        if state is SessionState.FIN_WAIT:
            return SessionState.CLOSED
        return SessionState.FIN_WAIT
    if flags & SYN:
        if state is SessionState.SYN_SENT:
            if direction == INBOUND and flags & ACK:
                return SessionState.SYN_RECEIVED
            if direction == OUTBOUND and not flags & ACK:
                return SessionState.SYN_SENT  # retransmitted initial SYN
            return None
        if state is SessionState.SYN_RECEIVED and direction == INBOUND and flags & ACK:
            return SessionState.SYN_RECEIVED  # retransmitted SYN+ACK
        return None
    # no SYN/FIN/RST: plain data or ACK
    if state is SessionState.ESTABLISHED:
        return SessionState.ESTABLISHED
    if state is SessionState.FIN_WAIT:
        return SessionState.FIN_WAIT
    if state is SessionState.SYN_RECEIVED and direction == OUTBOUND and flags & ACK:
        return SessionState.ESTABLISHED  # handshake-completing ACK
    return None


def initial_state(proto: int, flags: int) -> SessionState | None:
    """The state a flow's first packet opens it in, or None: TCP opens only with a bare SYN."""
    if proto != TCP:
        return OPEN
    return SYN_SENT if flags == SYN else None


# Member attributes set at import, as hashing an Enum member runs Python: the Timeouts field
# an entry in the state expires by, and next_tcp_state compiled into a move row that holds,
# at flags + direction, None or (new state, its Timeouts field).
_TIMEOUT_FIELDS = {OPEN: "non_tcp", ESTABLISHED: "tcp_established", CLOSED: "closed_grace"}
for _state in SessionState:
    _state.timeout_field = _TIMEOUT_FIELDS.get(_state, "tcp_transient")
for _state in SessionState:
    _moves = {f + d: next_tcp_state(_state, f, d) for d in (OUTBOUND, INBOUND) for f in range(16)}
    _state.tcp_moves = tuple(m and (m, m.timeout_field) for _, m in sorted(_moves.items()))


def advance(entry, flags: int, direction: int, now: float, timeouts: Timeouts) -> bool:
    """Apply one packet to an entry's state machine.

    Returns False on a state violation, leaving the entry untouched. On an
    accepted packet the state is updated and expiry refreshed; a non-TCP
    session is Open from its first packet and stays so. Works on any entry
    object with proto/state/expiry attributes.
    """
    if entry.proto != TCP:
        entry.expiry = now + timeouts.non_tcp
        return True
    move = entry.state.tcp_moves[flags + direction]
    if move is None:
        return False
    entry.state, timeout = move
    entry.expiry = now + getattr(timeouts, timeout)
    return True


@dataclass(slots=True)
class FlowIdentity:
    """A flow's five-tuples, built from its lan/gwy/ext endpoints and kept instead of them.

    Like conntrack's original and reply tuples, they are built once per entry,
    so no packet builds one: a LAN packet's `outbound_key`, a reply's
    `inbound_key` as it arrives, `out_sid` (src is the public identity) and
    `in_sid` (dst is back on the LAN endpoint) as they leave.
    """

    lan_addr: InitVar[int]
    lan_port: InitVar[int]
    gwy_addr: InitVar[int]
    gwy_port: InitVar[int]
    ext_addr: InitVar[int]
    ext_port: InitVar[int]
    proto: int
    outbound_key: SessionId = field(init=False)
    inbound_key: SessionId = field(init=False)
    out_sid: SessionId = field(init=False)
    in_sid: SessionId = field(init=False)

    def __post_init__(self, lan, lan_port, gwy, gwy_port, ext, ext_port) -> None:
        proto = self.proto
        new = tuple.__new__  # what SessionId(...) runs, without its Python-level __new__
        self.outbound_key = new(SessionId, (lan, lan_port, ext, ext_port, proto))
        self.inbound_key = new(SessionId, (ext, ext_port, gwy, gwy_port, proto))
        self.out_sid = new(SessionId, (gwy, gwy_port, ext, ext_port, proto))
        self.in_sid = new(SessionId, (ext, ext_port, lan, lan_port, proto))


@dataclass(slots=True)
class SessionEntry(FlowIdentity):
    """One flow's complete processing record.

    The gwy endpoint it is built with is the flow's public (NATed) identity;
    for LAN-to-LAN flows it is the lan one, so rewriting to it changes
    nothing. Each direction's route is looked up once at creation and kept
    whole, so a forwarding verdict needs no route lookup; None means the
    routing table had no covering prefix, which surfaces as a NoRoute drop
    when that direction is used.
    """

    state: SessionState
    expiry: float
    dscp: int = 0
    ext_route: RouteEntry | None = None
    lan_route: RouteEntry | None = None


class DuplicateKeyError(RuntimeError):
    """Inserting an entry whose key is already live; a pipeline logic error."""


class TableFullError(RuntimeError):
    """The table is at capacity even after sweeping expired entries."""


class ExpiringTable:
    """Exact-match store of entries keyed by `entry.outbound_key`, lazily expired.

    An entry whose expiry <= now is dead: lookups treat it as a miss and
    purge it on the spot. Single-writer; callers supply logical time, and
    `now` must never decrease across calls (`load_trace` rejects traces
    whose timestamps go backwards).

    `sweep_expired` finds the dead through an expiry index (Varghese &
    Lauck's timer idea as a lazy-deletion heap): a min-heap of
    (lower bound on expiry, key) items, built at the first sweep so tables
    that never sweep pay nothing for it. Every expiry is written at some
    time t as t + a timeout, and t never decreases, so only a TCP expiry can
    fall: `advance` may move it to t + a shorter TCP timeout, never below
    now + the shortest one. The build and each re-key of a live entry
    therefore key a TCP entry by min(expiry, now + that horizon) and any
    other entry by its expiry. Once built, a sweep costs
    O((popped + 1) log n), not O(n).
    """

    def __init__(self, capacity: float = 65536, timeouts: Timeouts = Timeouts()):
        self.capacity = capacity
        self._out: dict[tuple, object] = {}
        self.lookups = 0
        # the shortest time a TCP expiry write looks ahead
        self._tcp_horizon = min(
            timeouts.tcp_established, timeouts.tcp_transient, timeouts.closed_grace
        )
        self._heap: list[tuple[float, tuple]] | None = None  # None until the first sweep

    def __len__(self) -> int:
        return len(self._out)

    def lookup(self, key: tuple, now: float):
        self.lookups += 1
        entry = self._out.get(key)
        # a miss or a live hit is answered without a call: every packet makes a lookup
        if entry is None or entry.expiry > now:
            return entry
        return self.remove(entry)  # dead: it leaves the table and reads as a miss

    def insert(self, entry) -> None:
        key = entry.outbound_key
        if key in self._out:
            raise DuplicateKeyError(f"key already present: {key}")
        if len(self._out) >= self.capacity:
            raise TableFullError(f"table at capacity {self.capacity}")
        self._out[key] = entry
        heap = self._heap
        if heap is not None:
            if len(heap) > 2 * len(self._out) + 64:
                self._heap = None  # mostly stale items; the next sweep rebuilds it
            else:
                heappush(heap, (-math.inf, key))

    def remove(self, entry) -> None:
        del self._out[entry.outbound_key]

    def ensure_capacity(self, now: float) -> None:
        """Make room for one insert at a full table by removing one expired entry."""
        if len(self._out) < self.capacity:
            return
        if not self.sweep_expired(now):
            raise TableFullError(f"table at capacity {self.capacity}")

    def sweep_expired(self, now: float) -> int:
        """Remove one entry with expiry <= now, if there is one; returns how many (0 or 1)."""
        entries = self._out
        tcp_cap = now + self._tcp_horizon
        heap = self._heap
        if heap is None:  # keyed as a re-key would key it, so a live entry is not popped now
            heap = self._heap = [
                (min(e.expiry, tcp_cap) if e.proto == TCP else e.expiry, key)
                for key, e in entries.items()
            ]
            heapify(heap)
        # re-keyed items go back after the loop: at large timestamps now + horizon rounds to
        # now, and an item keyed now and pushed back inside it would be popped again, forever
        requeue = []
        removed = 0
        while heap and heap[0][0] <= now:
            key = heappop(heap)[1]
            entry = entries.get(key)
            if entry is None:
                continue  # removed since it was queued
            if entry.expiry <= now:
                self.remove(entry)
                removed = 1
                break
            requeue.append((min(entry.expiry, tcp_cap) if entry.proto == TCP else entry.expiry, key))
        for item in requeue:
            heappush(heap, item)
        return removed


class DualIndexTable(ExpiringTable):
    """An ExpiringTable with a second index on `entry.inbound_key`.

    The inbound key is a reply's five-tuple as it arrives on the wire,
    (ext, ext_port, gwy, gwy_port, proto), so an inbound packet's own sid
    finds its flow.
    """

    def __init__(self, capacity: float = 65536, timeouts: Timeouts = Timeouts()):
        super().__init__(capacity, timeouts)
        self._in: dict[tuple, object] = {}

    def lookup_inbound(self, key: tuple, now: float):
        self.lookups += 1
        entry = self._in.get(key)
        if entry is None or entry.expiry > now:
            return entry
        return self.remove(entry)

    def insert(self, entry) -> None:
        if entry.inbound_key in self._in:
            raise DuplicateKeyError(f"key already present: {entry.inbound_key}")
        ExpiringTable.insert(self, entry)  # not super(), which builds a proxy for every new flow
        self._in[entry.inbound_key] = entry

    def remove(self, entry) -> None:
        del self._out[entry.outbound_key]
        del self._in[entry.inbound_key]

    def port_in_use(
        self, gwy_addr: int, gwy_port: int, ext_addr: int, ext_port: int, proto: int, now: float
    ) -> bool:
        """Whether a public port is held by a live entry for this peer tuple."""
        entry = self._in.get((ext_addr, ext_port, gwy_addr, gwy_port, proto))
        # a live occupant is answered without a call: NAT allocation probes port by port
        return entry is not None and (entry.expiry > now or self.remove(entry) is not None)


class SessionTable(DualIndexTable):
    """The unified table: SessionEntry by either direction's five-tuple, capacity-bounded."""

    lookup_outbound = ExpiringTable.lookup
