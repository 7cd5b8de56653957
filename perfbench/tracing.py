"""The traced run: spans and counts around calls into each layer.

The benchmark wraps, from its own files, the names the pipelines call:
the module-level ``evaluate``, ``classify``, ``find_free_port`` and
``advance`` in ``flowgate.pipelines``; ``flowgate.nat.find_free_port``,
which ``NatTable.allocate`` calls; and the methods of ``SessionTable``,
``StateTable``, ``NatTable`` and ``RoutingTable`` listed in ``PATCHES``.
Each wrapper records a span (name, start, end, parent span, packet index)
and a call count. Spans stay in memory and are written to
``perfbench/out/<workload>.<pipeline>.spans.csv`` when the run ends. The
``port_in_use`` probes are only counted: a span each would dominate the
trace on ``flood``.

End-to-end metrics never come from here. The traced replay is a separate
pass whose verdicts are checked against the untraced ones.
"""

from __future__ import annotations

import gc
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from flowgate import nat, pipelines
from flowgate.harness import first_divergence, make_pipeline
from flowgate.nat import NatTable
from flowgate.pipelines import StateTable
from flowgate.routing import RoutingTable
from flowgate.session_table import SessionTable

from perfbench import curves
from perfbench.measure import (
    PIPELINES,
    Checker,
    ReplayError,
    measure_rounds,
    render_all,
    replay,
)
from perfbench.workloads import Workload

OUT_DIR = Path(__file__).resolve().parent / "out"
SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "flowgate"

# (owner, attribute, span name); the span name's prefix is the layer's module.
PATCHES = (
    (pipelines, "evaluate", "filters.evaluate"),
    (pipelines, "classify", "qos.classify"),
    (pipelines, "find_free_port", "nat.find_free_port"),
    (pipelines, "advance", "session_table.advance"),
    (nat, "find_free_port", "nat.find_free_port"),
    (SessionTable, "lookup_outbound", "session_table.lookup_outbound"),
    (SessionTable, "lookup_inbound", "session_table.lookup_inbound"),
    (SessionTable, "insert", "session_table.insert"),
    (SessionTable, "ensure_capacity", "session_table.ensure_capacity"),
    (SessionTable, "sweep_expired", "session_table.sweep_expired"),
    (StateTable, "lookup", "pipelines.StateTable.lookup"),
    (StateTable, "insert", "pipelines.StateTable.insert"),
    (StateTable, "ensure_capacity", "pipelines.StateTable.ensure_capacity"),
    (StateTable, "sweep_expired", "pipelines.StateTable.sweep_expired"),
    (NatTable, "lookup_forward", "nat.NatTable.lookup_forward"),
    (NatTable, "lookup_reverse", "nat.NatTable.lookup_reverse"),
    (NatTable, "allocate", "nat.NatTable.allocate"),
    (NatTable, "remove", "nat.NatTable.remove"),
    (RoutingTable, "lookup", "routing.lookup"),
)
COUNTED = (
    (SessionTable, "port_in_use", "session_table.port_in_use"),
    (NatTable, "port_in_use", "nat.NatTable.port_in_use"),
)


class Tracer:
    """Spans and counts of one traced replay, kept in flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.packet = array("i")
        self.calls: dict[str, int] = defaultdict(int)
        self.tally: dict[str, int] = defaultdict(int)  # work reported by return values
        self.packet_id = -1
        self._open: list[int] = []
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}

    def wrap(self, span_name: str, fn, tally=None, new_packet: bool = False):
        """`fn` recording one span per call.

        `tally(counts, args, result)` may add to `self.tally`; a `new_packet`
        wrapper starts the next packet index on every call.
        """
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        clock = time.perf_counter_ns
        opened = self._open
        name, start, end, parent, packet = self.name, self.start, self.end, self.parent, self.packet
        calls = self.calls

        def traced(*args, **kwargs):
            if new_packet:
                self.packet_id += 1
            index = len(start)
            name.append(nid)
            parent.append(opened[-1] if opened else -1)
            packet.append(self.packet_id)
            start.append(0)
            end.append(0)
            opened.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                opened.pop()
                start[index] = t0
                end[index] = t1
                calls[span_name] += 1
            if tally is not None:
                tally(self.tally, args, result)
            return result

        return traced

    def count(self, span_name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[span_name] += 1
            return fn(*args, **kwargs)

        return counted

    def finish(self) -> None:
        """Sum inclusive and self time (ns) per span name.

        Self time is a span's duration minus the durations of its direct
        children, which lie inside it because calls nest.
        """
        n = len(self.start)
        child = array("q", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        total: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        names = self.names
        for i in range(n):
            key = names[self.name[i]]
            duration = end[i] - start[i]
            total[key] += duration
            self_ns[key] += duration - child[i]
        self.total_ns, self.self_ns = dict(total), dict(self_ns)

    def mean_us(self, *names: str) -> float:
        """Mean inclusive µs per call over the named spans; 0 when never called."""
        calls = sum(self.calls[n] for n in names)
        return sum(self.total_ns.get(n, 0) for n in names) / calls / 1e3 if calls else 0.0

    def write(self, path: Path) -> None:
        names = self.names
        with path.open("w", encoding="utf-8") as out:
            out.write("span,name,start_ns,end_ns,parent,packet\n")
            out.writelines(
                f"{i},{names[nid]},{s},{e},{p},{k}\n"
                for i, (nid, s, e, p, k) in enumerate(
                    zip(self.name, self.start, self.end, self.parent, self.packet)
                )
            )


def _tally_scanned(tally, args, result) -> None:
    tally["filters.rules_scanned"] += result[2]


def _tally_sweep(tally, args, result) -> None:
    tally["session_table.sweep.removed"] += result
    tally["session_table.sweep.scanned"] += len(args[0]) + result


TALLIES = {
    "filters.evaluate": _tally_scanned,
    "session_table.sweep_expired": _tally_sweep,
}


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in PATCHES + COUNTED]
    try:
        for owner, attr, span_name in PATCHES:
            setattr(owner, attr, tracer.wrap(span_name, getattr(owner, attr),
                                             TALLIES.get(span_name)))
        for owner, attr, span_name in COUNTED:
            setattr(owner, attr, tracer.count(span_name, getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def traced_replay(checker: Checker, config, name: str, packets) -> tuple[Tracer, object, list, float]:
    """Replay the trace once through a fresh pipeline with every wrapper on."""
    pipeline = make_pipeline(name, config)
    tracer = Tracer()
    gc.collect()
    with traced(tracer):
        process = tracer.wrap(f"pipelines.process.{name}", pipeline.process, new_packet=True)
        try:
            verdicts, chunk_ns = replay(process, packets)
        except ReplayError as exc:
            checker.raised(exc)
            verdicts, chunk_ns = exc.verdicts, array("q")
    tracer.finish()
    return tracer, pipeline, verdicts, sum(chunk_ns) / 1e9


def src_loc() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC_DIR.glob("*.py"))


def per_layer(w: Workload, seconds: float) -> tuple[dict[str, tuple[float, str]], Checker, str]:
    """Untraced rounds for the reference and the overhead base, then one traced replay each.

    The untraced rounds also give the tail latency, `pkt_p99_us.<p>`. On
    a hit-only trace the slowest 1% of calls are the host's noise, not a
    slow path (its spread over ten runs was 0.31 to 0.50), so it is
    reported here, without a regression bound.
    """
    checker = Checker(w.packets)
    r = measure_rounds(w, seconds / 2, checker)
    packets, config = r.last.packets, r.last.config
    n = w.packets
    traces: dict[str, Tracer] = {}
    traced_s = 0.0
    streams = {}
    metrics: dict[str, tuple[float, str]] = {"packet.parse_us_per_pkt": (r.parse_s / n * 1e6, "us")}
    OUT_DIR.mkdir(exist_ok=True)
    for name in PIPELINES:
        tracer, pipeline, verdicts, elapsed = traced_replay(checker, config, name, packets)
        checker.check(name, pipeline, verdicts, render_all(verdicts)[0])
        traces[name] = tracer
        traced_s += elapsed
        streams[name] = verdicts
        consultations = sum(v.lookups.total_consultations() for v in verdicts)
        metrics[f"pkt_p99_us.{name}"] = (r.p99_us[name], "us")
        metrics[f"harness.render_us_per_pkt.{name}"] = (r.render_s[name] / n * 1e6, "us")
        metrics[f"pipelines.consult_per_pkt.{name}"] = (consultations / n, "count")
        metrics[f"pipelines.miss_share.{name}"] = (pipeline.session_misses / n, "fraction")
        process = f"pipelines.process.{name}"
        metrics[f"pipelines.process_self_us.{name}"] = (
            tracer.self_ns[process] / tracer.calls[process] / 1e3, "us")
        tracer.write(OUT_DIR / f"{w.name}.{name}.spans.csv")
    divergence = first_divergence(streams["baseline"], streams["integrated"])
    if divergence is not None:
        checker.failed.add(divergence)
    del streams

    b, i = traces["baseline"], traces["integrated"]
    metrics.update(_layer_metrics(b, i))
    metrics["trace.overhead"] = (traced_s / sum(r.loop_s.values()), "ratio")
    metrics.update(curves.points(w.seed))
    metrics["src_loc"] = (float(src_loc()), "lines")
    note = (
        f"{w.name} (traced): {n} packets, {w.flows} flows, {r.rounds} untraced rounds,"
        f" one traced replay per pipeline; spans in {OUT_DIR}"
    )
    return metrics, checker, note


def _layer_metrics(b: Tracer, i: Tracer) -> dict[str, tuple[float, str]]:
    """Layer metrics from the integrated replay, baseline-only layers from the baseline's."""
    st_lookup = ("session_table.lookup_outbound", "session_table.lookup_inbound")
    allocs = i.calls["nat.find_free_port"]
    evals = i.calls["filters.evaluate"]
    sweep_scanned = i.tally["session_table.sweep.scanned"]
    return {
        "pipelines.state_lookup_us": (b.mean_us("pipelines.StateTable.lookup"), "us"),
        "pipelines.state_sweep_us_per_call": (
            b.mean_us("pipelines.StateTable.sweep_expired"), "us"),
        "session_table.lookup_calls": (float(sum(i.calls[n] for n in st_lookup)), "count"),
        "session_table.lookup_us": (i.mean_us(*st_lookup), "us"),
        "session_table.advance_us": (i.mean_us("session_table.advance"), "us"),
        "session_table.insert_us": (i.mean_us("session_table.insert"), "us"),
        "session_table.sweep_calls": (float(i.calls["session_table.sweep_expired"]), "count"),
        "session_table.sweep_us_per_call": (i.mean_us("session_table.sweep_expired"), "us"),
        "session_table.sweep_useful": (
            i.tally["session_table.sweep.removed"] / sweep_scanned if sweep_scanned else 0.0,
            "fraction"),
        "nat.alloc_calls": (float(allocs), "count"),
        "nat.alloc_us": (i.mean_us("nat.find_free_port"), "us"),
        "nat.probes_per_alloc": (
            i.calls["session_table.port_in_use"] / allocs if allocs else 0.0, "count"),
        "nat.table_lookup_us": (
            b.mean_us("nat.NatTable.lookup_forward", "nat.NatTable.lookup_reverse"), "us"),
        "filters.evaluate_calls": (float(evals), "count"),
        "filters.evaluate_us": (i.mean_us("filters.evaluate"), "us"),
        "filters.rules_scanned_per_eval": (
            i.tally["filters.rules_scanned"] / evals if evals else 0.0, "count"),
        "qos.classify_calls": (float(i.calls["qos.classify"]), "count"),
        "qos.classify_us": (i.mean_us("qos.classify"), "us"),
        "qos.classify_calls.baseline": (float(b.calls["qos.classify"]), "count"),
        "qos.classify_us.baseline": (b.mean_us("qos.classify"), "us"),
        "routing.lookup_calls": (float(i.calls["routing.lookup"]), "count"),
        "routing.lookup_us": (i.mean_us("routing.lookup"), "us"),
        "routing.lookup_calls.baseline": (float(b.calls["routing.lookup"]), "count"),
        "routing.lookup_us.baseline": (b.mean_us("routing.lookup"), "us"),
    }
