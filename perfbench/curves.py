"""Layer scaling curves, built by direct calls on benchmark-built tables.

Each point is the median over `REPS` repetitions of the mean µs per call
over a batch of calls. The curves show a layer's complexity class: how
the cost moves with rule count, route count, NAT pool fill or table size.
They are reported as points, never asserted.
"""

from __future__ import annotations

import random
import statistics
import time

from flowgate.filters import evaluate, parse_rules
from flowgate.nat import find_free_port, parse_nat_config
from flowgate.packet import TCP, UDP, SessionId
from flowgate.pipelines import StateEntry, StateTable
from flowgate.qos import classify, parse_qos
from flowgate.routing import parse_routes
from flowgate.session_table import SessionEntry, SessionState, SessionTable, TableFullError

from perfbench.workloads import (
    NAT_TEXT,
    PORT_LO,
    PUBLIC_ADDR,
    public_addr,
    policy_qos,
    policy_routes,
    policy_rules,
)

REPS = 5
NOW = 1.0
LIVE = 1e9  # an expiry no point reaches


def _per_call_us(call, batch: int) -> float:
    samples = []
    for _ in range(REPS):
        start = time.perf_counter_ns()
        for _ in range(batch):
            call()
        samples.append((time.perf_counter_ns() - start) / batch / 1e3)
    return statistics.median(samples)


def _per_item_us(fn, items: list) -> float:
    def call_all():
        for item in items:
            fn(item)

    return _per_call_us(call_all, 1) / len(items)


PEERS_BASE = 11 << 24  # 11.0.0.0: flow i of a full table talks to peer PEERS_BASE + i


def _full_session_table(capacity: int) -> SessionTable:
    table = SessionTable(capacity)
    for i in range(capacity):
        table.insert(SessionEntry(
            lan_addr=(10 << 24) | i, lan_port=1024, gwy_addr=PUBLIC_ADDR, gwy_port=PORT_LO,
            ext_addr=PEERS_BASE + i, ext_port=53, proto=UDP, state=SessionState.OPEN,
            expiry=LIVE,
        ))
    return table


def _full_state_table(capacity: int) -> StateTable:
    table = StateTable(capacity)
    for i in range(capacity):
        sid = SessionId((10 << 24) | i, 1024, PEERS_BASE + i, 53, UDP)
        table.insert(StateEntry(sid, UDP, SessionState.OPEN, LIVE))
    return table


def _reject(table) -> None:
    try:
        table.ensure_capacity(NOW)
    except TableFullError:
        return
    raise RuntimeError("a full table of live entries admitted a new flow")


def points(seed: int) -> dict[str, tuple[float, str]]:
    rng = random.Random(f"curves/{seed}")
    # TCP flows to port 80: no drop rule and no QoS rule matches, so both scan to the end
    sids = [SessionId((10 << 24) | rng.randrange(1, 1 << 24), 1024 + i, public_addr(rng), 80, TCP)
            for i in range(1000)]
    out: dict[str, tuple[float, str]] = {}
    for n in (1, 16, 64):
        rules = parse_rules(policy_rules(rng, n))
        out[f"filters.evaluate_us.r{n}"] = (_per_item_us(lambda s: evaluate(rules, s), sids), "us")
    for n in (0, 8, 32):
        policy = parse_qos(policy_qos(rng, n) if n else "")
        out[f"qos.classify_us.q{n}"] = (_per_item_us(lambda s: classify(policy, s), sids), "us")
    dsts = [s.dst_addr for s in sids]
    for n in (2, 256, 4096):
        lookup = parse_routes(policy_routes(rng, n, range(9, 29))).lookup
        out[f"routing.lookup_us.n{n}"] = (_per_item_us(lookup, dsts), "us")

    # one peer tuple's pool (10,000 ports) filled to 0, 50 and 99%, probed as
    # the integrated pipeline does, through the session table
    cfg = parse_nat_config(NAT_TEXT)
    peer = public_addr(rng)
    for pct in (0, 50, 99):
        table = SessionTable()
        for i in range(cfg.pool_size * pct // 100):
            table.insert(SessionEntry(
                lan_addr=(10 << 24) | i, lan_port=1024, gwy_addr=PUBLIC_ADDR,
                gwy_port=PORT_LO + i, ext_addr=peer, ext_port=53, proto=UDP,
                state=SessionState.OPEN, expiry=LIVE,
            ))

        def allocate(table=table):
            find_free_port(cfg, peer, 53, UDP,
                           lambda p: table.port_in_use(PUBLIC_ADDR, p, peer, 53, UDP, NOW))

        out[f"nat.alloc_us.fill{pct}"] = (_per_call_us(allocate, 200 if pct == 0 else 10), "us")

    for label, capacity in (("c4k", 4096), ("c32k", 32768)):
        session_table = _full_session_table(capacity)
        out[f"session_table.full_reject_us.{label}"] = (
            _per_call_us(lambda: _reject(session_table), 10), "us")
        state_table = _full_state_table(capacity)
        out[f"pipelines.state_full_reject_us.{label}"] = (
            _per_call_us(lambda: _reject(state_table), 10), "us")
    return out
