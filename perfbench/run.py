"""flowgate benchmark: one workload, one process, one JSON line at the end.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The workload (trace and configs) is made
from --seed; both pipelines replay it, their outputs are checked against
each other and across passes, and the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. --trace 0 reports the
end-to-end metrics; --trace 1 makes a separate traced run and reports the
per-layer metrics. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("steady", "churn", "flood")


def _import_program() -> None:
    """Put the checkout's own `src/` first and refuse any other flowgate."""
    if not (SRC / "flowgate" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import flowgate

    if Path(flowgate.__file__).resolve().parent != SRC / "flowgate":
        raise SystemExit(f"perfbench: imported flowgate from {flowgate.__file__}, not {SRC}")


def result(workload, trace: int, seconds: float) -> tuple[dict, str]:
    """The run's result object and a human-readable summary of it."""
    from perfbench.measure import end_to_end
    from perfbench.tracing import per_layer

    if trace:
        metrics, checker, note = per_layer(workload, seconds)
    else:
        metrics, checker, note = end_to_end(workload, seconds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kib / 1024, "MiB")
    failed = checker.failures
    failed_share = (failed / workload.packets, "fraction")
    if trace:
        metrics["failed_share"] = failed_share
    lines = [note] + [f"  {name:40s} {value:14.6g} {unit}" for name, (value, unit) in
                      {**metrics, "failed_share": failed_share}.items()]
    return {
        "correct": failed == 0,
        "attempted": workload.packets,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench.workloads import WORKLOADS

    out, summary = result(WORKLOADS[args.workload](args.seed), args.trace, args.seconds)
    print(summary)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
