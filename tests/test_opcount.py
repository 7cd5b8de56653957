"""Executed bytecode per packet: an exact cost of each pipeline's `process`, the same on any host.

One counter counts the instructions that both pipelines execute over `gen`
slices with the shipped configs: `sys.settrace` with `f_trace_opcodes` on
CPython 3.11, `sys.monitoring` INSTRUCTION events on 3.12 and later. The
counts need no timing harness, and two counts of one slice are equal. They
differ between interpreter versions, so they are printed (`pytest -s`) and
not pinned. A C call counts as one instruction, so dict probes and `heapify`
do not show here.

Consultations, the paper's unit, are exact on every interpreter, so their
curve by flow length is pinned to its closed form: a flow of n packets costs
the baseline 4n + 1 (its first packet adds a rule evaluation to the four
tables every packet consults) and the integrated pipeline n + 5 (its first
packet adds a rule evaluation, a NAT allocation, a classification and both
directions' routes to its one session lookup).
"""

import sys
from collections import deque
from pathlib import Path

import pytest

from flowgate.cli import main
from flowgate.harness import make_pipeline, run_pipeline
from flowgate.packet import load_trace

from conftest import make_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SLICES = {  # `gen` flags: long flows, short flows, and a peer inside the LAN
    "8x256": ["--sessions", "8", "--packets-per-session", "256"],
    "200x8": ["--sessions", "200", "--packets-per-session", "8"],
    "40x16-lan-peer": ["--sessions", "40", "--packets-per-session", "16", "--peers", "198.51.100.9,10.0.0.9"],
}
PIPELINES = ("baseline", "integrated")
FLOW_SESSIONS = 50
# consultations per flow of n packets, to WAN peers, with the shipped configs
CLOSED_FORM = {"baseline": lambda n: 4 * n + 1, "integrated": lambda n: n + 5}


def _count_instructions(run) -> int:
    """The bytecode instructions that Python frames execute during `run()`, `run`'s own included."""
    count = 0
    if sys.version_info >= (3, 12):
        mon = sys.monitoring
        tool = mon.PROFILER_ID

        def on_instruction(code, offset):
            nonlocal count
            count += 1

        mon.use_tool_id(tool, "opcount")
        mon.register_callback(tool, mon.events.INSTRUCTION, on_instruction)
        mon.set_events(tool, mon.events.INSTRUCTION)
        try:
            run()
        finally:
            mon.set_events(tool, 0)
            mon.register_callback(tool, mon.events.INSTRUCTION, None)
            mon.free_tool_id(tool)
        return count

    def on_event(frame, event, arg):
        nonlocal count
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            count += 1
        return on_event

    previous = sys.gettrace()
    sys.settrace(on_event)
    try:
        run()
    finally:
        sys.settrace(previous)
    return count


def _config():
    return make_config(**{name: (CONFIGS / f"{name}.txt").read_text() for name in ("rules", "routes", "nat", "qos")})


def _ops(name: str, packets) -> int:
    """Instructions a fresh `name` pipeline executes in `process` over `packets`.

    `map` and `deque` are C, so the loop adds no instructions of its own; the
    counter's fixed overhead, measured over no packets, is taken off.
    """

    def replay(pipeline, trace):
        timestamps = [p.ts for p in trace]
        return lambda: deque(map(pipeline.process, trace, timestamps), 0)

    config = _config()
    run, idle = replay(make_pipeline(name, config), packets), replay(make_pipeline(name, config), [])
    return _count_instructions(run) - _count_instructions(idle)


def _gen(tmp_path_factory, label: str, flags: list[str]):
    """The packets `flowgate gen` writes with these flags, its replies addressed by the shipped NAT."""
    path = tmp_path_factory.mktemp("opcount") / f"{label}.txt"
    assert main(["gen", *flags, "--nat", str(CONFIGS / "nat.txt"), "--out", str(path)]) == 0
    return load_trace(path.read_text())


@pytest.fixture(scope="module")
def counts(tmp_path_factory):
    """Per slice: its packet count and, per pipeline, two counts of its instructions."""
    out = {}
    for label, flags in SLICES.items():
        packets = _gen(tmp_path_factory, label, flags)
        out[label] = len(packets), {name: [_ops(name, packets) for _ in range(2)] for name in PIPELINES}
    return out


def test_two_counts_of_one_slice_are_equal(counts):
    for label, (packets, by_pipeline) in counts.items():
        per_packet = "  ".join(f"{name} {ops[0] / packets:.2f}" for name, ops in by_pipeline.items())
        print(f"\nops per packet, CPython {sys.version.split()[0]}, {label}: {per_packet}", end="")
        for name, (first, second) in by_pipeline.items():
            assert first == second > 0, (label, name)


def test_integrated_runs_at_most_0_7x_the_baselines_ops_on_long_flows(counts):
    """On 256-packet flows nearly every packet is a hit: one table lookup against the chain's four."""
    _, by_pipeline = counts["8x256"]
    assert by_pipeline["integrated"][0] <= 0.7 * by_pipeline["baseline"][0]


@pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
def test_consultations_per_flow_take_their_closed_form(tmp_path_factory, n):
    """`gen`'s flows of n packets to its WAN peers: every first packet is accepted, every later one hits."""
    flags = ["--sessions", str(FLOW_SESSIONS), "--packets-per-session", str(n)]
    packets = _gen(tmp_path_factory, f"{FLOW_SESSIONS}x{n}", flags)
    per_packet = []
    for name in PIPELINES:
        verdicts, _ = run_pipeline(make_pipeline(name, _config()), packets)
        consultations = sum(v.lookups.total_consultations() for v in verdicts)
        per_packet.append(f"{name} {_ops(name, packets) / len(packets):.2f} ops/pkt")
        assert consultations == FLOW_SESSIONS * CLOSED_FORM[name](n), (name, consultations / FLOW_SESSIONS)
    print(f"\nCPython {sys.version.split()[0]}, {FLOW_SESSIONS}x{n}: {'  '.join(per_packet)}", end="")
