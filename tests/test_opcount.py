"""Executed bytecode per packet: an exact cost of each pipeline's `process`, the same on any host.

One counter counts the instructions that both pipelines execute over `gen`
slices with the shipped configs: `sys.settrace` with `f_trace_opcodes` on
CPython 3.11, `sys.monitoring` INSTRUCTION events on 3.12 and later. The
counts need no timing harness, and two counts of one slice are equal. They
differ between interpreter versions, so they are printed (`pytest -s`) and
not pinned. A C call counts as one instruction, so dict probes and `heapify`
do not show here.
"""

import sys
from collections import deque
from pathlib import Path

import pytest

from flowgate.cli import main
from flowgate.harness import make_pipeline
from flowgate.packet import load_trace

from conftest import make_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SLICES = {  # `gen` flags: long flows, short flows, and a peer inside the LAN
    "8x256": ["--sessions", "8", "--packets-per-session", "256"],
    "200x8": ["--sessions", "200", "--packets-per-session", "8"],
    "40x16-lan-peer": ["--sessions", "40", "--packets-per-session", "16", "--peers", "198.51.100.9,10.0.0.9"],
}
PIPELINES = ("baseline", "integrated")


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


@pytest.fixture(scope="module")
def counts(tmp_path_factory):
    """Per slice: its packet count and, per pipeline, two counts of its instructions."""
    out = {}
    for label, flags in SLICES.items():
        path = tmp_path_factory.mktemp("opcount") / f"{label}.txt"
        assert main(["gen", *flags, "--nat", str(CONFIGS / "nat.txt"), "--out", str(path)]) == 0
        packets = load_trace(path.read_text())
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
