"""The benchmark's own tests: metric names and units, exact repeatable counts.

Timings are reported, never asserted. Workloads here are shrunk versions
of the benchmark's, so the suite stays fast; the counts they check are the
ones that must repeat exactly at any size.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from flowgate import nat, pipelines  # noqa: E402
from flowgate.filters import evaluate  # noqa: E402

from perfbench import workloads  # noqa: E402
from perfbench.measure import Checker, set_up, timed_pass  # noqa: E402
from perfbench.run import result  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT = (
    "pipelines.consult_per_pkt.baseline",
    "pipelines.consult_per_pkt.integrated",
    "pipelines.miss_share.baseline",
    "pipelines.miss_share.integrated",
    "nat.probes_per_alloc",
    "session_table.sweep_calls",
    "filters.rules_scanned_per_eval",
    "filters.evaluate_calls",
    "nat.alloc_calls",
    "session_table.lookup_calls",
)

SMALL = {
    "steady": lambda seed: workloads.steady(seed, flows=10, packets=200),
    "churn": lambda seed: workloads.churn(seed, flows=300),
    "flood": lambda seed: workloads.flood(seed, capacity=64),
}


def test_workloads_are_named_in_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(SMALL))
def test_generation_is_seeded(name):
    assert SMALL[name](3) == SMALL[name](3)
    assert SMALL[name](3).trace != SMALL[name](4).trace


@pytest.mark.parametrize("name", list(SMALL))
def test_end_to_end_reports_every_metric_with_its_unit(name):
    out, summary = result(SMALL[name](1), trace=0, seconds=0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert all(k in summary for k in want) and "failed_share" in summary


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of each small workload, from the same seed."""
    return {name: [result(make(5), trace=1, seconds=0)[0] for _ in range(2)]
            for name, make in SMALL.items()}


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_run_reports_every_layer_metric_with_its_unit(traced, name):
    for out in traced[name]:
        assert out["correct"] and out["failed"] == 0
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want


@pytest.mark.parametrize("name", list(SMALL))
def test_counts_are_exact_and_repeat(traced, name):
    first, second = ({k: out["metrics"][k]["value"] for k in EXACT} for out in traced[name])
    assert first == second


def test_counts_show_what_each_workload_stresses(traced):
    steady, churn, flood = ({k: v["value"] for k, v in traced[n][0]["metrics"].items()}
                            for n in ("steady", "churn", "flood"))
    # steady: the hit path; one miss per flow, no sweep
    assert steady["pipelines.miss_share.integrated"] < 0.01
    assert (steady["pipelines.consult_per_pkt.baseline"]
            / steady["pipelines.consult_per_pkt.integrated"]) >= 3.9
    assert steady["session_table.sweep_calls"] == 0
    # churn: one rule scan of all 64 rules per flow, ~1 NAT probe, no sweep
    assert churn["filters.evaluate_calls"] == 300
    assert churn["filters.rules_scanned_per_eval"] == 64
    assert 1 <= churn["nat.probes_per_alloc"] < 1.1
    assert churn["session_table.sweep_calls"] == 0
    # flood: refused flows sweep the full table and probe many ports
    assert flood["session_table.sweep_calls"] > 0
    assert flood["nat.probes_per_alloc"] > 10


def test_tracing_restores_the_program(traced):
    assert pipelines.evaluate is evaluate
    assert pipelines.find_free_port is nat.find_free_port
    assert "traced" not in pipelines.SessionTable.lookup_outbound.__qualname__


@pytest.mark.parametrize("name", ["steady", "churn"])
def test_replies_reach_their_sessions(name):
    """The generator addresses every reply to the port the gateway allocated."""
    w = SMALL[name](2)
    setup = set_up(w)
    checker = Checker(w.packets)
    timed_pass(checker, "integrated", setup.pipelines["integrated"], setup.packets)
    assert checker.failures == 0
    assert all(text.startswith("forward ") for text in checker.ref_text)


def test_flood_drops_only_for_a_full_table():
    w = SMALL["flood"](2)
    setup = set_up(w)
    checker = Checker(w.packets)
    timed_pass(checker, "baseline", setup.pipelines["baseline"], setup.packets)
    drops = {t for t in checker.ref_text if not t.startswith("forward ")}
    assert drops == {"drop table_full"}


def test_checker_counts_each_divergent_packet():
    w = SMALL["steady"](2)
    setup = set_up(w)
    checker = Checker(w.packets)
    timed_pass(checker, "baseline", setup.pipelines["baseline"], setup.packets)
    texts = list(checker.ref_text)
    texts[3] = texts[7] = "drop rule_denied"
    checker.check("baseline", setup.pipelines["baseline"], [], texts)
    assert checker.failed == {3, 7}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
