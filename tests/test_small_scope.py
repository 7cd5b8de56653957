"""Exhaustive equivalence over small scopes: every packet sequence, up to its canonical state.

A breadth-first search runs over the joint state of a fresh BaselinePipeline
and a fresh IntegratedPipeline. An edge is one packet from a small alphabet:
the scope's five-tuples (two LAN hosts to one peer, the two LAN-to-LAN
directions, and the peer's replies to each public port the protocol may
take) x TCP flags x a time gap of 0 or 1.5 s. A state is rebuilt by
replaying its shortest path from fresh pipelines, and is known by its
canonical form (as explicit-state model checkers store states; Holzmann,
"The model checker SPIN", IEEE TSE 1997): each table's entries by their
keys, which hold the rewrite, with a live entry's state and its expiry
taken relative to now, and a dead one only marked dead. On every edge the
two pipelines' outcomes must be equal, and ROADMAP D's two invariants must
hold: one live entry per public tuple, and no reply forwarded to a flow
that is not live. Most bugs show in small instances (the small-scope
hypothesis; Jackson, *Software Abstractions*, 2006), so every small
instance is checked.

Why a dead entry may be reduced to its keys. A dead entry (expiry <= now)
is never a hit: `lookup`, `lookup_inbound` and `port_in_use` purge it and
answer as if it were absent. So it changes later verdicts only through
len(table), which two checks read: the capacity check and the pool
short-cut. At a full table `ensure_capacity` removes one dead entry if there
is one, as the expiry heap holds every entry under a lower bound of its
expiry, so the check refuses only when every entry is live; the short-cut
skips only a probe that cannot fail, as fewer entries than ports cannot
exhaust the pool. Heap order only picks which dead entry goes first. The
canonical form therefore drops the heap and a dead entry's state and
expiry. `test_paths_to_one_canonical_state_continue_alike` checks the
argument: for sampled pairs of paths that reach one canonical state, random
continuations give equal verdicts.

Below 2**52 every time here is a multiple of 0.5, which a float holds
exactly, so every sum is exact and relative expiries say all. From 2**53
the gap between floats is 2: `now + 1` rounds to now when the last bit of
now's significand is 0 (a tie goes to the even neighbour). So at 2**52 and
above the canonical form also holds the float spacing at now and that bit,
which decide how every later sum rounds. The last scope starts at
2**53 - 1: its first 1.5 s gap crosses 2**53, and an entry established
below it is still live at an even time above it, where the expiry heap
keys it at now + 1 = now. That is the case the requeue buffer in
`sweep_expired` guards, and the scope must reach it. (At 2**52 itself the
spacing is 1 and nothing rounds; from 2**53 itself no entry is live at an
even time, as every timeout written at an odd time ends at the next one.)
"""

from __future__ import annotations

import functools
import math
import random
from collections import deque
from pathlib import Path
from typing import NamedTuple

import pytest
from test_pipelines import _assert_one_live_entry_per_public_tuple

from flowgate.filters import parse_rules
from flowgate.nat import NatConfig, parse_nat_config
from flowgate.packet import ACK, FIN, RST, SYN, TCP, UDP, Cidr, Packet, SessionId, parse_ip
from flowgate.pipelines import (
    INBOUND_NO_SESSION,
    NAT_EXHAUSTED,
    TABLE_FULL,
    BaselinePipeline,
    Forward,
    Forwarded,
    IntegratedPipeline,
    RouterConfig,
)
from flowgate.qos import parse_qos
from flowgate.routing import parse_routes
from flowgate.session_table import Timeouts

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
LAN = Cidr.parse("10.0.0.0/8")
H1, H2, PEER = parse_ip("10.0.0.1"), parse_ip("10.0.0.2"), parse_ip("198.51.100.9")
GAPS = (0.0, 1.5)
TCP_FLAGS = (SYN, SYN | ACK, ACK, FIN | ACK, RST)
DEAD = "dead"


class Scope(NamedTuple):
    proto: int
    peer_port: int  # 0 for a protocol without ports
    flags: tuple[int, ...]
    capacity: int
    ports: int  # the NAT pool's size
    base: float  # the time before the first packet
    states: int  # what the search reaches, pinned: a change here is a change of behaviour
    edges: int


SCOPES = {
    "udp-capacity-2": Scope(UDP, 53, (0,), 2, 2, 0.0, 238, 2856),
    "icmp-capacity-2": Scope(1, 0, (0,), 2, 2, 0.0, 54, 540),
    "tcp-capacity-1-one-port": Scope(TCP, 22, TCP_FLAGS, 1, 1, 0.0, 61, 3050),
    "tcp-capacity-1-one-port-from-2**53-1": Scope(TCP, 22, TCP_FLAGS, 1, 1, 2.0**53 - 1, 95, 4750),
}


def _config(scope: Scope) -> RouterConfig:
    """The shipped rules, routes and QoS and public address; a small pool, table and timeouts."""
    public = parse_nat_config((CONFIGS / "nat.txt").read_text()).public_addr
    return RouterConfig(
        lan_prefix=LAN,
        rules=parse_rules((CONFIGS / "rules.txt").read_text()),
        qos=parse_qos((CONFIGS / "qos.txt").read_text()),
        routes=parse_routes((CONFIGS / "routes.txt").read_text()),
        nat=NatConfig(public, 40000, 40000 + scope.ports - 1),
        timeouts=Timeouts(3, 1, 2, 1),
        capacity=scope.capacity,
    )


def _letters(scope: Scope, config: RouterConfig) -> list[tuple[SessionId, int, float]]:
    proto, peer = scope.proto, scope.peer_port
    one, two = (1000, 2000) if peer else (0, 0)
    sids = [
        (H1, one, PEER, peer, proto),
        (H2, one, PEER, peer, proto),
        (H1, one, H2, two, proto),
        (H2, two, H1, one, proto),
        *((PEER, peer, config.nat.public_addr, port, proto) for port in config.nat.ports(proto)),
    ]
    return [(SessionId(*sid), flags, gap) for sid in sids for flags in scope.flags for gap in GAPS]


def _packet(letter, now: float) -> Packet:
    sid, flags, gap = letter
    return Packet(now + gap, sid, 0, 64, flags, 0)


def _replay(config: RouterConfig, base: float, path) -> tuple[tuple, float, list]:
    """Fresh pipelines after `path`, the time of its last packet, and each packet's verdicts."""
    pipes = BaselinePipeline(config), IntegratedPipeline(config)
    now, verdicts = base, []
    for letter in path:
        packet = _packet(letter, now)
        now = packet.ts
        verdicts.append(tuple(pipe.process(packet) for pipe in pipes))
    return pipes, now, verdicts


def _held(table, now: float, *fields: str) -> frozenset:
    """Each entry by its keys; a live one also by `fields` and its expiry relative to now."""
    return frozenset(
        (entry.outbound_key, getattr(entry, "inbound_key", None))
        + ((entry.expiry - now, *(getattr(entry, f) for f in fields)) if entry.expiry > now else (DEAD,))
        for entry in table._out.values()
    )


def _canonical(pipes, now: float) -> tuple:
    baseline, integrated = pipes
    spacing = math.ulp(now)
    # how now + t rounds: exact below 2**52; above, by the spacing and now's last significand bit
    clock = None if spacing <= 0.5 else (spacing, now % (2 * spacing))
    return (
        clock,
        _held(baseline.state_table, now, "state"),
        _held(baseline.nat_table, now),
        _held(integrated.table, now, "state"),
    )


def _replies(pipe, now: float) -> dict[SessionId, SessionId]:
    """A reply's five-tuple as it arrives -> the LAN five-tuple of the live flow it answers."""
    if isinstance(pipe, IntegratedPipeline):
        return {e.inbound_key: e.outbound_key for e in pipe.table._out.values() if e.expiry > now}
    replies = {}
    for key, entry in pipe.state_table._out.items():
        if entry.expiry > now:
            mapping = pipe.nat_table._out.get(key)
            src, src_port, dst, dst_port, proto = key
            reply = mapping.inbound_key if mapping else (dst, dst_port, src, src_port, proto)
            replies[reply] = key
    return replies


def _check_edge(pipes, packet: Packet, where) -> tuple:
    """Process one packet in both pipelines; check equal outcomes and D's two invariants."""
    sid, ts = packet.sid, packet.ts
    before = [_replies(pipe, ts) for pipe in pipes]
    verdicts = tuple(pipe.process(packet) for pipe in pipes)
    assert verdicts[0].outcome == verdicts[1].outcome, where
    out = verdicts[0].outcome
    for pipe, replies in zip(pipes, before):
        integrated = isinstance(pipe, IntegratedPipeline)
        _assert_one_live_entry_per_public_tuple(pipe.table if integrated else pipe.nat_table, ts, where)
        if type(out) is not Forwarded:
            continue
        if not LAN.contains(sid.src_addr):
            # a reply from outside answers a live flow, and leaves for that flow's LAN host
            flow = replies.get(sid)
            assert flow is not None, (pipe.name, where)
            assert out.sid == (*flow[2:4], *flow[:2], sid.proto), (pipe.name, where)
        else:
            # a LAN packet is its own flow's (opened by it, or live before), or a LAN peer's reply
            flows = pipe.table if integrated else pipe.state_table
            assert sid in flows._out or sid in replies, (pipe.name, where)
    return verdicts


def _keyed_at_now(pipes, now: float) -> bool:
    """Whether an expiry heap holds a live entry under the key `now`, as when now + horizon rounds to now."""
    for table in (pipes[0].state_table, pipes[1].table):
        for key, flow in table._heap or ():
            entry = table._out.get(flow)
            if key == now and entry is not None and entry.expiry > now:
                return True
    return False


def _explore(scope: Scope):
    """BFS from fresh pipelines: states, edges, outcomes seen, edges after which a live entry is
    keyed at now, and pairs of paths to one canonical state."""
    config = _config(scope)
    letters = _letters(scope, config)
    pipes, now, _ = _replay(config, scope.base, ())
    shortest = {_canonical(pipes, now): ()}
    queue = deque([()])
    edges, outcomes, at_now, twins = 0, set(), 0, []
    while queue:
        path = queue.popleft()
        for letter in letters:
            pipes, now, _ = _replay(config, scope.base, path)
            packet = _packet(letter, now)
            verdicts = _check_edge(pipes, packet, (path, letter))
            edges += 1
            out = verdicts[0].outcome
            outcomes.add(Forwarded if type(out) is Forwarded else out)
            at_now += _keyed_at_now(pipes, packet.ts)
            state = _canonical(pipes, packet.ts)
            if state in shortest:
                twins.append((shortest[state], path + (letter,)))
            else:
                shortest[state] = path + (letter,)
                queue.append(path + (letter,))
    return len(shortest), edges, outcomes, at_now, twins


@functools.cache
def _explored(name: str):
    return _explore(SCOPES[name])


@pytest.mark.parametrize("name", list(SCOPES))
def test_both_pipelines_agree_on_every_small_trace(name):
    scope = SCOPES[name]
    states, edges, outcomes, at_now, _ = _explored(name)
    assert (states, edges) == (scope.states, scope.edges)
    assert (at_now > 0) == (scope.base > 2**52), at_now  # only the large timestamps round
    # the scope forwards, and crowds its table or its pool
    assert {Forwarded, INBOUND_NO_SESSION} <= outcomes, outcomes
    assert outcomes & {TABLE_FULL, NAT_EXHAUSTED}, outcomes


def _normalised(verdicts: list) -> list:
    """Verdicts without the emitted packets' timestamps, which two paths may not share."""
    return [tuple(v._replace(ts=None) if type(v) is Forward else v for v in pair) for pair in verdicts]


@pytest.mark.parametrize("name", list(SCOPES))
def test_paths_to_one_canonical_state_continue_alike(name):
    """The canonical form keeps all that later verdicts depend on (see the module docstring)."""
    scope = SCOPES[name]
    config = _config(scope)
    letters = _letters(scope, config)
    *_, twins = _explored(name)
    rng = random.Random(name)
    assert len(twins) >= 40
    for first, second in rng.sample(twins, 40):
        for _ in range(3):
            more = tuple(rng.choice(letters) for _ in range(8))
            runs = [_replay(config, scope.base, path + more)[2][len(path):] for path in (first, second)]
            assert _normalised(runs[0]) == _normalised(runs[1]), (first, second, more)
