"""Command-line entry point: gen, run, compare, and bench subcommands."""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from pathlib import Path

from flowgate.errors import ConfigError, TraceError
from flowgate.filters import parse_rules
from flowgate.harness import (
    CSV_HEADER,
    DEFAULT_NAT,
    TraceSpec,
    compare,
    csv_row,
    generate_packets,
    generate_trace,
    make_pipeline,
    render_verdict,
    run_pipeline,
)
from flowgate.nat import NatConfig, parse_nat_config
from flowgate.packet import Cidr, load_trace, parse_ip
from flowgate.pipelines import RouterConfig
from flowgate.qos import parse_qos
from flowgate.routing import parse_routes

EXIT_OK = 0
EXIT_COMPARE_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_TRACE_ERROR = 3
CONFIG_FILES = {  # the config flags that name a file, and what each file holds
    "rules": "filter rules", "routes": "routing table", "nat": "NAT config", "qos": "QoS policy"
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for name, holds in CONFIG_FILES.items():
        parser.add_argument(f"--{name}", required=True, help=f"{holds} file")
    parser.add_argument("--lan-prefix", required=True, help="LAN prefix, e.g. 10.0.0.0/8")


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sessions", type=int, default=10)
    parser.add_argument("--packets-per-session", type=int, default=100)
    parser.add_argument("--mix", type=float, default=1.0, help="fraction of TCP sessions")
    parser.add_argument(
        "--peers",
        default="198.51.100.9,203.0.113.77",
        help="comma-separated external peer addresses",
    )
    parser.add_argument("--seed", type=int, default=0)


def _read(path: str, error: type[Exception]) -> str:
    """The file's text; a failed read or decode raises `error` naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def _lan_prefix(args: argparse.Namespace) -> Cidr:
    try:
        return Cidr.parse(args.lan_prefix)
    except ValueError as exc:
        raise ConfigError(f"--lan-prefix: {exc}") from exc


def load_config(args: argparse.Namespace) -> RouterConfig:
    return RouterConfig(
        lan_prefix=_lan_prefix(args),
        rules=parse_rules(_read(args.rules, ConfigError)),
        qos=parse_qos(_read(args.qos, ConfigError)),
        routes=parse_routes(_read(args.routes, ConfigError)),
        nat=parse_nat_config(_read(args.nat, ConfigError)),
    )


def _trace_spec(args: argparse.Namespace, lan_prefix: Cidr, nat: NatConfig) -> TraceSpec:
    """The spec of `args`' trace; replies target `nat`'s public address and pool."""
    try:
        peers = tuple(parse_ip(p) for p in args.peers.split(",") if p)
    except ValueError as exc:
        raise ConfigError(f"--peers: {exc}") from exc
    return TraceSpec(
        sessions=args.sessions,
        packets_per_session=args.packets_per_session,
        tcp_fraction=args.mix,
        lan_prefix=lan_prefix,
        peers=peers,
        seed=args.seed,
        nat=nat,
    )


def _write(path: str | None, text: str, mode: str = "w") -> None:
    """Write `text` to `path`, or to stdout when `path` is not given.

    Commands write only once their work has succeeded, so a failed command
    leaves an existing file as it was. Mode "a" with no text is the check a
    command makes before long work: it refuses a path that cannot be opened
    and changes no file's content (a new one is left empty). A failed open,
    write or close is a config error naming the path, and a failed write or
    flush of stdout (a closed pipe) one naming standard output.
    """
    try:
        if not path:
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        with open(path, mode, encoding="utf-8") as out:
            out.write(text)
    except OSError as exc:
        if not path:
            # the text still buffered goes nowhere at exit, instead of to a second error
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigError(f"cannot write {path or 'standard output'}: {exc}") from exc


def _write_stderr(text: str) -> None:
    """Print `text` on stderr; a closed stderr drops it, so the exit code is still the command's."""
    try:
        print(text, file=sys.stderr, flush=True)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())  # as `_write` does stdout


def _refuse_shared_files(args: argparse.Namespace, outputs: tuple[str, ...], *inputs: str) -> None:
    """Refuse a file that an output flag names if another output or an input names it too.

    A path that names no file yet cannot be another one; inputs may share a file.
    """
    named = [(name, getattr(args, name)) for name in outputs + inputs]
    named = [(name, path) for name, path in named if path and Path(path).exists()]
    for i, (name, path) in enumerate(named):
        for other, other_path in named[i + 1:]:
            if name in outputs and Path(path).samefile(other_path):
                raise ConfigError(f"--{name} and --{other} name the same file: {other_path}")


def cmd_gen(args: argparse.Namespace) -> int:
    nat = parse_nat_config(_read(args.nat, ConfigError)) if args.nat else DEFAULT_NAT
    _refuse_shared_files(args, ("out",), "nat")
    _write(args.out, generate_trace(_trace_spec(args, _lan_prefix(args), nat)))
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args)
    packets = load_trace(_read(args.trace, TraceError))
    for path in (args.verdicts, args.out):
        _write(path, "", "a")
    _refuse_shared_files(args, ("verdicts", "out"), "trace", *CONFIG_FILES)
    verdicts, report = run_pipeline(make_pipeline(args.pipeline, config), packets)
    if args.verdicts:
        _write(args.verdicts, "".join(render_verdict(v) + "\n" for v in verdicts))
    if args.out:
        _write(args.out, f"{CSV_HEADER}\n{csv_row(report)}\n")
    _write(None, report.summary() + "\n")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    config = load_config(args)
    packets = load_trace(_read(args.trace, TraceError))
    result = compare(config, packets)
    summaries = (result.describe(), result.baseline_report.summary(), result.integrated_report.summary())
    _write(None, "\n".join(summaries) + "\n")
    return EXIT_OK if result.equal else EXIT_COMPARE_FAIL


def cmd_bench(args: argparse.Namespace) -> int:
    if args.reps < 1:
        raise ConfigError(f"--reps: must be >= 1, got {args.reps}")
    config = load_config(args)
    packets = generate_packets(_trace_spec(args, config.lan_prefix, config.nat))
    _write(args.out, "", "a")
    _refuse_shared_files(args, ("out",), *CONFIG_FILES)
    rows, medians = [CSV_HEADER], {}
    for name in ("baseline", "integrated"):
        reports = [run_pipeline(make_pipeline(name, config), packets)[1] for _ in range(args.reps)]
        rows += map(csv_row, reports)
        medians[name] = int(statistics.median(r.wall_ns for r in reports))
    _write(args.out, "\n".join(rows) + "\n")
    walls = f"baseline={medians['baseline']} integrated={medians['integrated']}"
    if packets and medians["integrated"]:  # two loops over no packets have no ratio
        walls += f" speedup={medians['baseline'] / medians['integrated']:.2f}x"
    _write_stderr(f"median wall_ns: {walls}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowgate",
        description="Replay traces through the multi-table and unified-session-table pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic trace")
    _add_spec_flags(gen)
    gen.add_argument("--lan-prefix", default="10.0.0.0/8")
    gen.add_argument("--nat", default=None, help="NAT config to address replies to (optional)")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="replay a trace through one pipeline")
    _add_config_flags(run)
    run.add_argument("--trace", required=True)
    run.add_argument("--pipeline", choices=("baseline", "integrated"), required=True)
    run.add_argument("--out", default=None, help="write metrics CSV here")
    run.add_argument("--verdicts", default=None, help="write per-packet verdicts here")
    run.set_defaults(func=cmd_run)

    cmp_ = sub.add_parser("compare", help="run both pipelines and diff the verdict streams")
    _add_config_flags(cmp_)
    cmp_.add_argument("--trace", required=True)
    cmp_.set_defaults(func=cmd_compare)

    bench_ = sub.add_parser("bench", help="generate a trace and time both pipelines")
    _add_config_flags(bench_)
    _add_spec_flags(bench_)
    bench_.add_argument("--reps", type=int, default=3)
    bench_.add_argument("--out", default=None, help="write per-repetition CSV here")
    bench_.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _write_stderr(f"config error: {exc}")
        return EXIT_CONFIG_ERROR
    except TraceError as exc:
        _write_stderr(f"trace error: {exc}")
        return EXIT_TRACE_ERROR


if __name__ == "__main__":
    sys.exit(main())
