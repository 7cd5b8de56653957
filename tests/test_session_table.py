"""Session table and the expiring table it shares: dual index, expiry, capacity."""

import itertools
import math
import random

import pytest

from flowgate import session_table
from flowgate.nat import NatConfig, NatMapping, NatTable
from flowgate.packet import (
    ACK, FIN, INBOUND, OUTBOUND, RST, SYN, TCP, UDP, SessionId, parse_trace_record
)
from flowgate.pipelines import StateEntry, StateTable
from flowgate.session_table import (
    DualIndexTable,
    DuplicateKeyError,
    SessionEntry,
    SessionState,
    SessionTable,
    TableFullError,
    Timeouts,
    advance,
    entry_timeout,
    initial_state,
)


def make_entry(i: int = 0, expiry: float = 100.0, proto: int = TCP) -> SessionEntry:
    return SessionEntry(
        lan_addr=0x0A000005 + i,
        lan_port=1200,
        gwy_addr=0xC0000201,
        gwy_port=40000 + i,
        ext_addr=0xC6336409,
        ext_port=80,
        proto=proto,
        state=SessionState.SYN_SENT if proto == TCP else SessionState.OPEN,
        expiry=expiry,
        dscp=0,
    )


def make_state_entry(i: int = 0, expiry: float = 100.0, proto: int = TCP) -> StateEntry:
    sid = SessionId(0x0A000005 + i, 1200, 0xC6336409, 80, proto)
    return StateEntry(sid, proto, initial_state(proto, SYN), expiry)


def make_mapping(i: int = 0, expiry: float = 100.0) -> NatMapping:
    return NatMapping(0x0A000005 + i, 1200, 0xC0000201, 40000 + i, 0xC6336409, 80, TCP, expiry)


# every table built on the shared expiring table: class, outbound lookup, entry maker
TABLES = {
    "StateTable": (StateTable, "lookup", make_state_entry),
    "SessionTable": (SessionTable, "lookup_outbound", make_entry),
    "NatTable": (NatTable, "lookup_forward", make_mapping),
}
BOUNDED = (TABLES["StateTable"], TABLES["SessionTable"])  # the NAT table has no capacity


def test_insert_then_both_lookups_hit():
    t = SessionTable()
    e = make_entry()
    t.insert(e)
    assert t.lookup_outbound(e.outbound_key, now=0.0) is e
    assert t.lookup_inbound(e.inbound_key, now=0.0) is e
    assert t.lookups == 2


@pytest.mark.parametrize(
    "cls,rest",
    [(SessionEntry, dict(state=SessionState.OPEN, expiry=9.0)), (NatMapping, dict(expiry=9.0))],
)
def test_an_entry_built_either_way_keeps_only_its_five_tuples(cls, rest):
    """The pipelines and NatTable.allocate build entries positionally, perfbench by keyword."""
    lan, gwy, ext = (0x0A000005, 1200), (0xC0000201, 40000), (0xC6336409, 80)
    endpoints = dict(
        lan_addr=lan[0], lan_port=lan[1], gwy_addr=gwy[0], gwy_port=gwy[1],
        ext_addr=ext[0], ext_port=ext[1],
    )
    by_position = cls(*endpoints.values(), UDP, *rest.values())
    by_keyword = cls(**endpoints, proto=UDP, **rest)
    assert by_position == by_keyword
    e = by_keyword
    assert (e.outbound_key, e.inbound_key) == ((*lan, *ext, UDP), (*ext, *gwy, UDP))
    assert (e.out_sid, e.in_sid) == ((*gwy, *ext, UDP), (*ext, *lan, UDP))
    assert not [name for name in endpoints if hasattr(e, name)]


def test_reply_sid_is_its_own_inbound_key():
    out = parse_trace_record("0 tcp 10.0.0.5:1200 198.51.100.9:80 S 0 0")
    reply = parse_trace_record("1 tcp 198.51.100.9:80 192.0.2.1:40000 SA 0 0")
    sessions = SessionTable()
    e = make_entry()
    sessions.insert(e)
    assert sessions.lookup_outbound(out.sid, now=1.0) is e
    assert sessions.lookup_inbound(reply.sid, now=1.0) is e
    nat = NatTable()
    m = nat.allocate(NatConfig(0xC0000201, 40000, 40009), *out.sid, now=0.0, expiry=60.0)
    assert nat.lookup_forward(out.sid, now=1.0) is m
    assert nat.lookup_reverse(reply.sid, now=1.0) is m


def test_lookup_miss_on_empty_table():
    t = SessionTable()
    assert t.lookup_outbound((1, 2, 3, 4, TCP), now=0.0) is None
    assert t.lookups == 1


@pytest.mark.parametrize("kind", list(TABLES))
def test_expired_entry_is_miss_and_purged(kind):
    cls, lookup, make = TABLES[kind]
    t = cls()
    e = make(expiry=10.0)
    t.insert(e)
    assert getattr(t, lookup)(e.outbound_key, now=10.0) is None  # expiry <= now is dead
    assert len(t) == 0
    if isinstance(t, DualIndexTable):
        assert t.lookup_inbound(e.inbound_key, now=10.0) is None


@pytest.mark.parametrize("kind", ["SessionTable", "NatTable"])
def test_a_dead_entry_found_inbound_is_a_miss_and_leaves_both_indexes(kind):
    """An inbound lookup that meets the dead entry first removes it from both dicts."""
    cls, lookup, make = TABLES[kind]
    t = cls()
    e = make(expiry=10.0)
    t.insert(e)
    assert t.lookup_inbound(e.inbound_key, now=10.0) is None
    assert (len(t), len(t._in)) == (0, 0)
    assert getattr(t, lookup)(e.outbound_key, now=10.0) is None
    t.insert(make(expiry=20.0))  # both keys are free again
    assert len(t) == 1


@pytest.mark.parametrize("kind", list(TABLES))
def test_duplicate_insert_rejected(kind):
    cls, _, make = TABLES[kind]
    t = cls()
    t.insert(make())
    with pytest.raises(DuplicateKeyError):
        t.insert(make())


def test_insert_at_capacity_rejected():
    for cls, _, make in BOUNDED:
        t = cls(capacity=2)
        t.insert(make(0))
        t.insert(make(1))
        with pytest.raises(TableFullError):
            t.insert(make(2))


def test_ensure_capacity_sweeps_under_pressure():
    for cls, _, make in BOUNDED:
        t = cls(capacity=2)
        t.insert(make(0, expiry=5.0))
        t.insert(make(1, expiry=100.0))
        t.ensure_capacity(now=50.0)  # entry 0 expired: swept, room appears
        t.insert(make(2, expiry=100.0))
        with pytest.raises(TableFullError):
            t.ensure_capacity(now=50.0)


def test_shared_peer_distinct_gwy_ports_resolve_distinctly():
    t = SessionTable()
    a, b = make_entry(0), make_entry(1)
    t.insert(a)
    t.insert(b)
    assert t.lookup_inbound(a.inbound_key, 0.0) is a
    assert t.lookup_inbound(b.inbound_key, 0.0) is b


def sweep_all(table, now: float) -> int:
    """Remove every entry with expiry <= now, one sweep at a time; returns how many."""
    removed = 0
    while table.sweep_expired(now):
        removed += 1
    return removed


@pytest.mark.parametrize("kind", list(TABLES))
def test_sweep_expired_counts_and_is_idempotent(kind):
    cls, _, make = TABLES[kind]
    t = cls()
    t.insert(make(0, expiry=10.0))
    t.insert(make(1, expiry=20.0))
    t.insert(make(2, expiry=99.0))
    t.insert(make(3, expiry=15.0))
    assert [t.sweep_expired(now=20.0) for _ in range(3)] == [1, 1, 1]  # one per call
    assert len(t) == 1
    assert t.sweep_expired(now=20.0) == 0
    assert cls().sweep_expired(0.0) == 0


SHORT = Timeouts(tcp_established=8.0, tcp_transient=3.0, non_tcp=5.0, closed_grace=1.0)
# SYN, SYN+ACK, ACK, FIN+ACK and RST: enough to walk a flow from the handshake to
# Established and back down through FinWait and Closed, each step resetting expiry
ORACLE_FLAGS = [SYN, SYN | ACK, ACK, FIN | ACK, RST]


@pytest.mark.parametrize("kind", ["StateTable", "SessionTable"])
@pytest.mark.parametrize("seed", range(5))
def test_sweep_matches_a_full_scan(kind, seed):
    """The expiry index finds exactly the dead, even after `advance` shortens an expiry.

    Time never decreases, keys are few so flows end and come back, and
    every sweep is checked against a scan of the whole table.
    """
    cls, _, make = TABLES[kind]
    rng = random.Random(seed)
    t = cls(capacity=16, timeouts=SHORT)
    now = 0.0
    sweeps = 0
    for _ in range(3000):
        now += rng.choice((0.0, 0.0, 0.1, 0.5, 2.0))
        op = rng.random()
        i = rng.randrange(24)
        proto = UDP if i % 3 == 0 else TCP
        key = make(i, proto=proto).outbound_key
        if op < 0.35:
            if t.lookup(key, now) is None:
                expiry = now + entry_timeout(initial_state(proto, SYN), SHORT)
                entry = make(i, expiry=expiry, proto=proto)
                try:
                    t.ensure_capacity(now)
                except TableFullError:
                    continue
                t.insert(entry)
        elif op < 0.8:
            entry = t.lookup(key, now)
            if entry is not None:
                direction = rng.choice((OUTBOUND, INBOUND))
                advance(entry, rng.choice(ORACLE_FLAGS), direction, now, SHORT)
        else:
            dead = sum(e.expiry <= now for e in t._out.values())
            assert sweep_all(t, now) == dead
            assert all(e.expiry > now for e in t._out.values())
            sweeps += 1
        assert t._heap is None or len(t._heap) <= 2 * len(t) + 65
    assert sweeps > 100


@pytest.mark.parametrize("kind", ["StateTable", "SessionTable"])
def test_refusal_at_the_same_instant_pops_nothing(kind, monkeypatch):
    """A full table of live entries refuses flows without popping its index, from the first."""
    cls, _, make = TABLES[kind]
    t = cls(capacity=64)
    for i in range(64):
        t.insert(make(i, expiry=100.0))
    pops = []
    real_pop = session_table.heappop
    monkeypatch.setattr(session_table, "heappop", lambda heap: pops.append(1) or real_pop(heap))
    for _ in range(2):  # the first refusal builds the index, the second reuses it
        with pytest.raises(TableFullError):
            t.ensure_capacity(now=1.0)
    assert pops == []


@pytest.mark.parametrize("kind", ["StateTable", "SessionTable"])
def test_admission_after_mass_expiry_removes_one_entry(kind, monkeypatch):
    """A new flow at a full table of dead entries pays for one removal, not for all of them."""
    cls, _, make = TABLES[kind]
    t = cls(capacity=1024)
    for i in range(1024):
        t.insert(make(i, expiry=Timeouts().non_tcp, proto=UDP))  # written at t = 0
    with pytest.raises(TableFullError):
        t.ensure_capacity(now=1.0)  # builds the index
    pops = []
    real_pop = session_table.heappop
    monkeypatch.setattr(session_table, "heappop", lambda heap: pops.append(1) or real_pop(heap))
    t.ensure_capacity(now=61.0)  # every entry is dead
    assert len(t) == 1023
    assert pops == [1]


@pytest.mark.parametrize("kind", ["StateTable", "SessionTable"])
def test_live_udp_entries_are_not_popped_before_their_timeout(kind, monkeypatch):
    """A non-TCP expiry is only written as t + non_tcp, so a sweep re-keys it there."""
    cls, _, make = TABLES[kind]
    t = cls()
    for i in range(32):
        t.insert(make(i, expiry=Timeouts().non_tcp, proto=UDP))  # written at t = 0
    assert t.sweep_expired(now=1.0) == 0
    pops = []
    real_pop = session_table.heappop
    monkeypatch.setattr(session_table, "heappop", lambda heap: pops.append(1) or real_pop(heap))
    assert t.sweep_expired(now=7.0) == 0
    assert pops == []


@pytest.mark.parametrize("kind", ["StateTable", "SessionTable"])
def test_a_mostly_stale_heap_is_dropped_and_rebuilt_by_the_next_sweep(kind):
    """Flows that end by lookup leave their heap items behind; past 2n + 64 the heap goes."""
    cls, lookup, make = TABLES[kind]
    t = cls(capacity=4)
    for i in range(4):
        t.insert(make(i, expiry=i + 1.0))
    with pytest.raises(TableFullError):
        t.ensure_capacity(now=0.5)  # builds the heap
    for i in itertools.count(4):  # the oldest dies at a lookup, and a new flow takes its place
        assert getattr(t, lookup)(make(i - 4).outbound_key, now=i - 3.0) is None
        t.insert(make(i, expiry=i + 1.0))
        if t._heap is None:
            break
        assert len(t._heap) <= 2 * len(t) + 65
    assert i - 3 == 70  # the 70th insert found 4 + 69 items, over 2 * 4 + 64
    now = i - 0.5
    dead = sum(e.expiry <= now for e in t._out.values())
    assert dead == 2
    assert sweep_all(t, now) == dead
    assert t._heap is not None and len(t._heap) <= 2 * len(t) + 64
    assert len(t) == 2 and all(e.expiry > now for e in t._out.values())


def test_an_expiry_falls_only_on_tcp_and_never_below_the_tcp_horizon():
    """The rule the expiry index keys by, over every input `advance` can be given.

    An expiry is written at some time t <= now as t + a timeout. Whatever
    packet comes next, a non-TCP expiry does not fall, and a TCP one is
    either left as it was or written at least now + the shortest TCP timeout
    ahead, so an index key of min(expiry, now + that horizon) stays a lower bound.
    """
    rng = random.Random(0xE1F)
    sub_second = [  # as the seeded pipeline traces draw them
        Timeouts(
            tcp_established=rng.uniform(0.05, 0.5),
            tcp_transient=rng.uniform(0.02, 0.2),
            non_tcp=rng.uniform(0.02, 0.2),
            closed_grace=rng.uniform(0.01, 0.1),
        )
        for _ in range(8)
    ]
    inputs = itertools.product((TCP, UDP, 1), SessionState, range(16), (OUTBOUND, INBOUND))
    for (proto, state, flags, direction), timeouts in itertools.product(
        inputs, [Timeouts(), SHORT, *sub_second]
    ):
        horizon = min(timeouts.tcp_established, timeouts.tcp_transient, timeouts.closed_grace)
        for written, now in ((0.0, 0.0), (0.0, 0.01), (1.0, 1.5), (3.0, 1000.0)):
            e = make_entry(proto=proto)
            e.state = state if proto == TCP else SessionState.OPEN
            e.expiry = old = written + entry_timeout(e.state, timeouts)
            if not advance(e, flags, direction, now, timeouts):
                assert proto == TCP and e.expiry == old
            elif proto == TCP:
                assert e.expiry >= now + horizon
            else:
                assert e.expiry >= old and e.state is SessionState.OPEN


@pytest.mark.parametrize("value", [0, -1, math.nan, math.inf], ids=["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("name", ["tcp_established", "tcp_transient", "non_tcp", "closed_grace"])
def test_timeouts_refuse_a_value_that_is_not_finite_and_above_0(name, value):
    with pytest.raises(ValueError, match=f"timeouts: {name} must be a finite number above 0"):
        Timeouts(**{name: value})


def test_port_in_use_reflects_liveness():
    t = SessionTable()
    e = make_entry(expiry=10.0)
    t.insert(e)
    assert t.port_in_use(*e.out_sid, now=0.0)
    assert not t.port_in_use(*e.out_sid, now=10.0)
    assert len(t) == 0  # the dead occupant was purged by the probe


def test_dual_index_consistency_random_ops():
    rng = random.Random(42)
    t = SessionTable(capacity=64)
    live = {}
    now = 0.0
    for step in range(2000):
        now += rng.random()
        op = rng.random()
        if op < 0.45:
            e = make_entry(rng.randrange(48), expiry=now + rng.uniform(0.1, 30))
            if e.outbound_key not in t._out and e.inbound_key not in t._in:
                t.insert(e)
                live[e.outbound_key] = e
        elif op < 0.8:
            e = make_entry(rng.randrange(48))
            t.lookup_outbound(e.outbound_key, now)
            t.lookup_inbound(e.inbound_key, now)
        else:
            sweep_all(t, now)
        out_entries = set(map(id, t._out.values()))
        in_entries = set(map(id, t._in.values()))
        assert out_entries == in_entries
        assert len(t._out) == len(t._in)


def test_lookup_never_returns_expired():
    rng = random.Random(7)
    t = SessionTable()
    for i in range(32):
        t.insert(make_entry(i, expiry=rng.uniform(0, 100)))
    for _ in range(500):
        now = rng.uniform(0, 120)
        e = make_entry(rng.randrange(32))
        found = t.lookup_outbound(e.outbound_key, now)
        if found is not None:
            assert found.expiry > now


def test_advance_refreshes_expiry_and_state():
    timeouts = Timeouts()
    e = make_entry(expiry=30.0)
    ok = advance(e, SYN | ACK, INBOUND, now=1.0, timeouts=timeouts)
    assert ok and e.state is SessionState.SYN_RECEIVED
    assert e.expiry == 1.0 + timeouts.tcp_transient
    ok = advance(e, ACK, OUTBOUND, now=2.0, timeouts=timeouts)
    assert ok and e.state is SessionState.ESTABLISHED
    assert e.expiry == 2.0 + timeouts.tcp_established


def test_advance_follows_next_tcp_state_on_every_input():
    """advance reads a table compiled from next_tcp_state: all 6 x 16 x 2 inputs agree."""
    inputs = [
        (state, flags, direction)
        for state in SessionState
        for flags in range(16)
        for direction in (OUTBOUND, INBOUND)
    ]
    assert len(inputs) == 192
    for state, flags, direction in inputs:
        e = make_entry(expiry=30.0)
        e.state = state
        expected = session_table.next_tcp_state(state, flags, direction)
        assert advance(e, flags, direction, now=10.0, timeouts=SHORT) is (expected is not None)
        if expected is None:
            assert e.state is state and e.expiry == 30.0
        else:
            assert e.state is expected
            assert e.expiry == 10.0 + entry_timeout(expected, SHORT)


def test_advance_violation_leaves_entry_unchanged():
    e = make_entry(expiry=30.0)
    ok = advance(e, ACK, OUTBOUND, now=1.0, timeouts=Timeouts())
    assert not ok
    assert e.state is SessionState.SYN_SENT and e.expiry == 30.0


def test_rst_moves_to_closed_with_grace():
    timeouts = Timeouts(closed_grace=5.0)
    e = make_entry(expiry=300.0)
    e.state = SessionState.ESTABLISHED
    assert advance(e, RST, OUTBOUND, now=10.0, timeouts=timeouts)
    assert e.state is SessionState.CLOSED
    assert e.expiry == 15.0


def test_non_tcp_stays_open():
    e = make_entry(proto=UDP)
    assert advance(e, 0, INBOUND, now=1.0, timeouts=Timeouts())
    assert e.state is SessionState.OPEN and e.expiry == 61.0
    assert entry_timeout(SessionState.OPEN, Timeouts()) == 60.0


def test_only_a_bare_syn_opens_a_tcp_flow():
    for flags in range(16):
        assert initial_state(TCP, flags) is (SessionState.SYN_SENT if flags == SYN else None)
        assert initial_state(UDP, flags) is SessionState.OPEN
        assert initial_state(1, flags) is SessionState.OPEN
