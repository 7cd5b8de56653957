"""End-to-end passes over one workload: set-up, replay, per-call latency, render.

The harness is a closed loop with one caller in one process: the replay
hands ``process()`` the next packet as soon as the previous call returns,
and logical time is the trace timestamp. No packet crosses a link and
there are no queues or threads, so no layer has time spent waiting.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field

from flowgate.filters import parse_rules
from flowgate.harness import make_pipeline, render_verdict
from flowgate.nat import parse_nat_config
from flowgate.packet import Cidr, Packet, load_trace
from flowgate.pipelines import BaselinePipeline, IntegratedPipeline, RouterConfig, Verdict
from flowgate.qos import parse_qos
from flowgate.routing import parse_routes
from flowgate.session_table import Timeouts

from perfbench import workloads
from perfbench.workloads import Workload

PIPELINES = ("baseline", "integrated")

TIMEOUTS = Timeouts(
    tcp_established=workloads.TCP_ESTABLISHED,
    tcp_transient=workloads.TCP_TRANSIENT,
    non_tcp=workloads.NON_TCP,
    closed_grace=workloads.CLOSED_GRACE,
)

MIN_ROUNDS = 3
CHUNK = 1000  # packets (or verdicts) per timed chunk


@dataclass
class Setup:
    config: RouterConfig
    packets: list[Packet]
    pipelines: dict[str, BaselinePipeline | IntegratedPipeline]
    parse_ns: array  # `load_trace` time of each `CHUNK`-line slice of the trace
    other_ns: int  # the rest: the four config parsers and building both pipelines


def set_up(w: Workload) -> Setup:
    """What `flowgate run` does before its first packet, for both pipelines.

    The trace text is handed to `load_trace` in slices of `CHUNK` lines,
    each timed on its own, so that a slice's fastest time can be taken
    across set-ups as for the replay's chunks. The work is the same as one
    call: `load_trace` handles each line on its own.
    """
    lines = w.trace.splitlines(keepends=True)
    slices = ["".join(lines[lo:lo + CHUNK]) for lo in range(0, len(lines), CHUNK)]
    clock = time.perf_counter_ns
    start = clock()
    config = RouterConfig(
        lan_prefix=Cidr.parse(workloads.LAN),
        rules=parse_rules(w.rules),
        qos=parse_qos(w.qos),
        routes=parse_routes(w.routes),
        nat=parse_nat_config(w.nat),
        timeouts=TIMEOUTS,
        capacity=w.capacity,
    )
    configs_ns = clock() - start
    packets: list[Packet] = []
    parse_ns = array("q")
    for text in slices:
        t0 = clock()
        packets += load_trace(text)
        parse_ns.append(clock() - t0)
    t0 = clock()
    pipelines = {name: make_pipeline(name, config) for name in PIPELINES}
    return Setup(config, packets, pipelines, parse_ns, configs_ns + clock() - t0)


class ReplayError(Exception):
    """`process()` raised; `index` is the packet it raised on."""

    def __init__(self, index: int, verdicts: list[Verdict]):
        super().__init__(f"process() raised on packet {index}")
        self.index = index
        self.verdicts = verdicts


def replay(process, packets: list[Packet]) -> tuple[list[Verdict], array]:
    """The closed loop: the next packet goes in as soon as the last call returns.

    Returns the verdicts and the time (ns) of each `CHUNK` packets in turn.
    """
    verdicts: list[Verdict] = []
    append = verdicts.append
    chunk_ns = array("q")
    clock = time.perf_counter_ns
    try:
        for lo in range(0, len(packets), CHUNK):
            t0 = clock()
            for packet in packets[lo:lo + CHUNK]:
                append(process(packet, packet.ts))
            chunk_ns.append(clock() - t0)
    except Exception as exc:
        raise ReplayError(len(verdicts), verdicts) from exc
    return verdicts, chunk_ns


def replay_per_call(process, packets: list[Packet]) -> tuple[list[Verdict], array]:
    """Like `replay`, but timing every call (ns) instead of every chunk."""
    verdicts: list[Verdict] = []
    append = verdicts.append
    latencies = array("q")
    record = latencies.append
    clock = time.perf_counter_ns
    try:
        for packet in packets:
            t0 = clock()
            verdict = process(packet, packet.ts)
            t1 = clock()
            append(verdict)
            record(t1 - t0)
    except Exception as exc:
        raise ReplayError(len(verdicts), verdicts) from exc
    return verdicts, latencies


def render_all(verdicts: list[Verdict]) -> tuple[list[str], array]:
    """`render_verdict` over every verdict, timing each `CHUNK` (ns)."""
    texts: list[str] = []
    chunk_ns = array("q")
    clock = time.perf_counter_ns
    for lo in range(0, len(verdicts), CHUNK):
        t0 = clock()
        texts += [render_verdict(v) for v in verdicts[lo:lo + CHUNK]]
        chunk_ns.append(clock() - t0)
    return texts, chunk_ns


def counters(pipeline) -> tuple[int, ...]:
    """The pipeline's own lookup counters, which must repeat exactly."""
    if isinstance(pipeline, BaselinePipeline):
        tables = (pipeline.nat_table.lookups, pipeline.state_table.lookups)
    else:
        tables = (pipeline.table.lookups,)
    return (pipeline.session_hits, pipeline.session_misses) + tables


@dataclass
class Checker:
    """Checks every pass of one run against the first pass.

    A packet fails when `process()` raises on it, or when its verdict or its
    lookup accounting differs from the reference. The first pass of either
    pipeline is the reference for both, so the baseline and integrated
    streams are compared with each other too. Passes that are rendered
    anyway are compared by their rendered text; latency passes, whose
    rendering would cost as much as the pass, by a fingerprint of each
    outcome (its hash). A pipeline whose own counters change between
    repetitions adds one failure.
    """

    packets: int
    ref_text: list[str] | None = None
    ref_prints: list[int] | None = None
    ref_lookups: dict[str, list] = field(default_factory=dict)
    ref_counters: dict[str, tuple] = field(default_factory=dict)
    failed: set[int] = field(default_factory=set)
    counter_mismatches: int = 0

    def raised(self, error: ReplayError) -> None:
        """Count the packet `process()` raised on; show the first traceback."""
        if not self.failed:
            traceback.print_exception(error.__cause__, file=sys.stderr)
        self.failed.add(error.index)

    def check(self, name: str, pipeline, verdicts: list[Verdict], texts: list[str] | None) -> None:
        prints = [hash(v.outcome) for v in verdicts]
        if self.ref_prints is None:
            if texts is None:
                raise ValueError("the reference pass must be rendered")
            self.ref_text, self.ref_prints = texts, prints
        else:
            if prints != self.ref_prints:
                self._diff(prints, self.ref_prints)
            if texts is not None and texts != self.ref_text:
                self._diff(texts, self.ref_text)
        lookups = [v.lookups for v in verdicts]
        ref_lookups = self.ref_lookups.setdefault(name, lookups)
        if lookups != ref_lookups:
            self._diff(lookups, ref_lookups)
        ref_counters = self.ref_counters.setdefault(name, counters(pipeline))
        if len(verdicts) == self.packets and counters(pipeline) != ref_counters:
            self.counter_mismatches += 1

    def _diff(self, got: list, want: list) -> None:
        for index, (a, b) in enumerate(zip(got, want)):
            if a != b:
                self.failed.add(index)

    @property
    def failures(self) -> int:
        return len(self.failed) + self.counter_mismatches


def _on_cpu(rounds: int, cpus: list[int]) -> None:
    """Run round `rounds` on the next of `cpus`, in turn.

    Contention from other tenants comes and goes per CPU, for tens of
    seconds at a time, and slows everything on that CPU alike. Rounds that
    take turns on the CPUs give the fastest-of-rounds estimates a sample
    from each, so one slowed CPU does not slow the whole run.
    """
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})


def _room_for_another(started: float, rounds: int, seconds: float) -> bool:
    """Whether one more round, as long as the average so far, ends within `seconds`."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / rounds <= seconds


def fastest_seconds(passes: list[array]) -> float:
    """A pass's time: the sum over its chunks of each chunk's fastest time across passes.

    The host's speed drifts by tens of percent over seconds, so one chunk
    of a few milliseconds measured in several passes, seconds apart, is
    taken at its fastest; the sum still weighs every part of the trace by
    its own cost.
    """
    return sum(min(col) for col in zip(*passes)) / 1e9 if passes else math.nan


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an already sorted sequence."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def timed_pass(checker: Checker, name: str, pipeline, packets: list[Packet]) -> tuple[array, array]:
    """Replay untimed per call, then render; check; return both chunk timings."""
    gc.collect()
    try:
        verdicts, loop_ns = replay(pipeline.process, packets)
    except ReplayError as exc:
        checker.raised(exc)
        verdicts, loop_ns = exc.verdicts, array("q")
    texts, render_ns = render_all(verdicts)
    checker.check(name, pipeline, verdicts, texts)
    return loop_ns, render_ns


def latency_pass(checker: Checker, name: str, config, packets: list[Packet]) -> array:
    """Replay a fresh pipeline timing every call; check; return the latencies (ns).

    The cyclic garbage collector is paused for the pass. A collection runs
    after a fixed count of allocations, so it lands on whichever packet
    crosses the count; on a hit-only trace those packets make up about
    0.6% of calls and put the 99th percentile on the edge of a 4x cliff.
    Collections stay in the loop passes, so their cost is in `loop_pps`
    and `run_pps`.
    """
    pipeline = make_pipeline(name, config)
    gc.collect()
    gc.disable()
    try:
        verdicts, latencies = replay_per_call(pipeline.process, packets)
    except ReplayError as exc:
        checker.raised(exc)
        verdicts, latencies = exc.verdicts, array("q")
    finally:
        gc.enable()
    checker.check(name, pipeline, verdicts, None)
    return latencies


@dataclass
class Rounds:
    """What repeated rounds measured; times in seconds, latencies in µs."""

    rounds: int
    last: Setup  # the last round's set-up, for passes that follow
    setup_s: float  # median whole set-up
    fastest_setup_s: float  # fastest parts of set-up, trace slices taken as chunks
    parse_s: float  # fastest `load_trace` slices only
    loop_s: dict[str, float]
    render_s: dict[str, float]
    p50_us: dict[str, float]
    p99_us: dict[str, float]


def measure_rounds(w: Workload, seconds: float, checker: Checker) -> Rounds:
    """Repeat rounds of every untraced pass while they fit in `seconds`.

    A round is one set-up, then per pipeline (order alternating between
    rounds) a replay timed per chunk and the render of its verdicts, then
    per pipeline a replay of a fresh pipeline that times every call.
    Loop and render times are `fastest_seconds`, and each packet's latency
    is its fastest call across rounds, so what the figures keep is the
    program's own cost and not the host's drift.
    """
    parse_ns: list[array] = []
    other_ns: list[int] = []
    loop_ns = {p: [] for p in PIPELINES}
    render_ns = {p: [] for p in PIPELINES}
    latencies = {p: [] for p in PIPELINES}
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    started = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or _room_for_another(started, rounds, seconds):
        _on_cpu(rounds, sorted(allowed))
        setup = None
        gc.collect()
        setup = set_up(w)
        parse_ns.append(setup.parse_ns)
        other_ns.append(setup.other_ns)
        order = PIPELINES if rounds % 2 == 0 else PIPELINES[::-1]
        for name in order:
            loop, render = timed_pass(checker, name, setup.pipelines[name], setup.packets)
            loop_ns[name].append(loop)
            render_ns[name].append(render)
        for name in order:
            latencies[name].append(latency_pass(checker, name, setup.config, setup.packets))
        rounds += 1
    if len(allowed) > 1:
        os.sched_setaffinity(0, allowed)

    fastest = {p: sorted(map(min, zip(*latencies[p]))) or [math.nan] for p in PIPELINES}
    parse_s = fastest_seconds(parse_ns)
    return Rounds(
        rounds=rounds,
        last=setup,
        setup_s=statistics.median((o + sum(p)) / 1e9 for o, p in zip(other_ns, parse_ns)),
        fastest_setup_s=min(other_ns) / 1e9 + parse_s,
        parse_s=parse_s,
        loop_s={p: fastest_seconds(loop_ns[p]) for p in PIPELINES},
        render_s={p: fastest_seconds(render_ns[p]) for p in PIPELINES},
        p50_us={p: percentile(fastest[p], 0.50) / 1e3 for p in PIPELINES},
        p99_us={p: percentile(fastest[p], 0.99) / 1e3 for p in PIPELINES},
    )


def end_to_end(w: Workload, seconds: float) -> tuple[dict[str, tuple[float, str]], Checker, str]:
    """The end-to-end metrics, as name -> (value, unit), the checker and a note.

    `setup_s` is the median set-up; `run_pps` adds the fastest set-up to
    the loop and render times.
    """
    checker = Checker(w.packets)
    r = measure_rounds(w, seconds, checker)
    n = w.packets
    metrics: dict[str, tuple[float, str]] = {"setup_s": (r.setup_s, "s")}
    for name in PIPELINES:
        run_s = r.fastest_setup_s + r.loop_s[name] + r.render_s[name]
        metrics[f"run_pps.{name}"] = (n / run_s, "packets/s")
        metrics[f"loop_pps.{name}"] = (n / r.loop_s[name], "packets/s")
        metrics[f"pkt_p50_us.{name}"] = (r.p50_us[name], "us")
    note = (
        f"{w.name}: {n} packets, {w.flows} flows, {r.rounds} rounds;"
        f" latency samples per pipeline: {n} packets x {r.rounds} rounds"
    )
    return metrics, checker, note
