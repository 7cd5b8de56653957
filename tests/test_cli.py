"""CLI end-to-end: subcommands, exit codes, output files."""

import errno
import hashlib
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from flowgate import cli, harness
from flowgate.cli import main
from flowgate.harness import CSV_HEADER, DEFAULT_NAT
from flowgate.nat import parse_nat_config
from flowgate.packet import format_ip, load_trace, parse_ip
from flowgate.pipelines import RULE_DENIED, Verdict

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def config_flags() -> list[str]:
    return [
        "--rules", str(CONFIGS / "rules.txt"),
        "--routes", str(CONFIGS / "routes.txt"),
        "--nat", str(CONFIGS / "nat.txt"),
        "--qos", str(CONFIGS / "qos.txt"),
        "--lan-prefix", "10.0.0.0/8",
    ]


def test_gen_run_compare_round_trip(tmp_path, capsys):
    trace_path = tmp_path / "trace.txt"
    assert main([
        "gen", "--sessions", "5", "--packets-per-session", "8", "--mix", "0.5",
        "--seed", "1", "--out", str(trace_path),
    ]) == 0
    assert trace_path.exists()

    csv_path = tmp_path / "metrics.csv"
    verdicts_path = tmp_path / "verdicts.txt"
    assert main([
        "run", *config_flags(), "--trace", str(trace_path),
        "--pipeline", "integrated", "--out", str(csv_path), "--verdicts", str(verdicts_path),
    ]) == 0
    header, row = csv_path.read_text().strip().split("\n")
    assert header.startswith("pipeline,packets,forwarded,dropped")
    assert row.startswith("integrated,40,")
    assert len(verdicts_path.read_text().strip().split("\n")) == 40

    assert main(["compare", *config_flags(), "--trace", str(trace_path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_a_divergence_fails_compare_with_its_first_packet(tmp_path, capsys, monkeypatch):
    """Exit 1 and a FAIL report naming the first differing packet and both verdicts."""

    class DeniesItsSecondPacket(harness.IntegratedPipeline):
        packets = 0

        def process(self, packet, now=None):
            verdict = super().process(packet, now)
            self.packets += 1
            return Verdict(RULE_DENIED, verdict.lookups) if self.packets == 2 else verdict

    monkeypatch.setattr(harness, "IntegratedPipeline", DeniesItsSecondPacket)
    trace_path = tmp_path / "trace.txt"
    assert main(["gen", "--sessions", "2", "--packets-per-session", "4", "--out", str(trace_path)]) == 0
    capsys.readouterr()
    assert main(["compare", *config_flags(), "--trace", str(trace_path)]) == cli.EXIT_COMPARE_FAIL == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL: first divergence at packet 1"
    assert lines[1].startswith("  baseline:   forward ")
    assert lines[2] == "  integrated: drop rule_denied"


def test_lan_peer_replies_are_forwarded(tmp_path):
    """A LAN peer's replies take their flow's inbound path: every packet forwards, in both."""
    trace_path = tmp_path / "trace.txt"
    assert main([
        "gen", "--sessions", "2", "--packets-per-session", "6", "--peers", "10.0.0.9",
        "--nat", str(CONFIGS / "nat.txt"), "--out", str(trace_path),
    ]) == 0
    verdicts = {}
    for name in ("baseline", "integrated"):
        path = tmp_path / f"{name}.txt"
        assert main([
            "run", *config_flags(), "--trace", str(trace_path), "--pipeline", name,
            "--verdicts", str(path),
        ]) == 0
        verdicts[name] = path.read_text().splitlines()
        assert len(verdicts[name]) == 12
        assert all(line.startswith("forward ") for line in verdicts[name]), verdicts[name]
    assert verdicts["baseline"] == verdicts["integrated"]


def test_a_flow_without_ports_gets_its_reply(tmp_path):
    """A protocol without ports is translated by address alone: port 0 stays 0 both ways."""
    trace_path = tmp_path / "trace.txt"
    trace_path.write_text(
        "0.1 1 10.0.0.1:0 1.2.3.4:0 - 0 0 64\n"
        "0.2 1 1.2.3.4:0 192.0.2.1:0 - 0 0 64\n"
    )
    for name in ("baseline", "integrated"):
        path = tmp_path / f"{name}.txt"
        assert main([
            "run", *config_flags(), "--trace", str(trace_path), "--pipeline", name,
            "--verdicts", str(path),
        ]) == 0
        assert path.read_text().splitlines() == [
            "forward 203.0.113.1 wan 0.1 1 192.0.2.1:0 1.2.3.4:0 - 0 0 63",
            "forward 10.0.0.254 lan 0.2 1 1.2.3.4:0 10.0.0.1:0 - 0 0 63",
        ]


def test_run_baseline_pipeline(tmp_path):
    trace_path = tmp_path / "t.txt"
    main(["gen", "--sessions", "2", "--packets-per-session", "4", "--out", str(trace_path)])
    assert main([
        "run", *config_flags(), "--trace", str(trace_path), "--pipeline", "baseline",
    ]) == 0


def test_gen_determinism_via_cli(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["gen", "--sessions", "9", "--packets-per-session", "7", "--mix", "0.4", "--seed", "42"]
    main([*args, "--out", str(a)])
    main([*args, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_outputs_match_the_golden_digests(tmp_path, capsys):
    """The CI smoke job's gen and run --verdicts files, byte for byte (tests/golden.sha256)."""
    golden = {}
    for line in (REPO / "tests" / "golden.sha256").read_text().splitlines():
        digest, name = line.split("  ")
        golden[name] = digest
    for seed in "123":
        trace = tmp_path / f"trace-{seed}.txt"
        assert main([
            "gen", "--seed", seed, "--peers", "198.51.100.9,10.0.0.9",
            "--nat", str(CONFIGS / "nat.txt"), "--out", str(trace),
        ]) == 0
        for pipeline in ("baseline", "integrated"):
            assert main([
                "run", *config_flags(), "--trace", str(trace), "--pipeline", pipeline,
                "--verdicts", str(tmp_path / f"verdicts-{seed}-{pipeline}.txt"),
            ]) == 0
    for pipeline in ("baseline", "integrated"):  # a committed trace, so the digests pin drop lines
        assert main([
            "run", *config_flags(), "--trace", str(REPO / "tests" / "drops-trace.txt"),
            "--pipeline", pipeline, "--verdicts", str(tmp_path / f"verdicts-drops-{pipeline}.txt"),
        ]) == 0
    capsys.readouterr()  # the run summaries
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in golden} == golden
    assert len(golden) == 11


def test_config_error_exit_code(tmp_path):
    bad_rules = tmp_path / "rules.txt"
    bad_rules.write_text("permit tcp any any any any\n")
    flags = config_flags()
    flags[1] = str(bad_rules)
    trace_path = tmp_path / "t.txt"
    main(["gen", "--sessions", "1", "--packets-per-session", "2", "--out", str(trace_path)])
    assert main(["run", *flags, "--trace", str(trace_path), "--pipeline", "baseline"]) == 2


def test_missing_config_file_exit_code(tmp_path):
    flags = config_flags()
    flags[1] = str(tmp_path / "nope.txt")
    assert main(["run", *flags, "--trace", "whatever", "--pipeline", "baseline"]) == 2


def test_trace_error_exit_code(tmp_path):
    bad_trace = tmp_path / "trace.txt"
    bad_trace.write_text("0.0 tcp 10.0.0.1 10.0.0.2 S 0 0\n")  # missing ports
    assert main(["run", *config_flags(), "--trace", str(bad_trace), "--pipeline", "baseline"]) == 3


def test_trace_not_utf8_is_a_one_line_trace_error(tmp_path, capsys):
    bad_trace = tmp_path / "trace.txt"
    bad_trace.write_bytes(b"\xff")
    assert main(["run", *config_flags(), "--trace", str(bad_trace), "--pipeline", "baseline"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("trace error: ") and err.count("\n") == 1


@pytest.mark.parametrize("extra", [["compare"], ["run", "--pipeline", "baseline"]])
def test_unicode_digit_in_trace_is_a_one_line_trace_error(tmp_path, capsys, extra):
    bad_trace = tmp_path / "trace.txt"
    bad_trace.write_text("0.0 tcp 10.0.0.1:1200 198.51.100.9:80 S ² 0\n", encoding="utf-8")
    assert main([extra[0], *config_flags(), "--trace", str(bad_trace), *extra[1:]]) == 3
    assert capsys.readouterr().err == "trace error: line 1: payload_len: bad value '²'\n"


def test_bench_csv(tmp_path, capsys):
    """Each pipeline's reps in turn, baseline first: only wall_ns differs between them."""
    out = tmp_path / "bench.csv"
    assert main([
        "bench", *config_flags(), "--sessions", "4", "--packets-per-session", "10",
        "--reps", "3", "--out", str(out),
    ]) == 0
    header, *lines = out.read_text().strip().split("\n")
    assert header == CSV_HEADER
    rows = [line.split(",") for line in lines]
    assert [row[0] for row in rows] == ["baseline"] * 3 + ["integrated"] * 3
    assert {len(row) for row in rows} == {len(header.split(","))}
    medians = []
    for reps in (rows[:3], rows[3:]):
        assert all(row[:-1] == reps[0][:-1] for row in reps)  # the counters repeat exactly
        assert all(int(row[-1]) > 0 for row in reps)
        medians.append(int(statistics.median(int(row[-1]) for row in reps)))
    base, integrated = medians
    err = capsys.readouterr().err
    assert err.startswith(f"median wall_ns: baseline={base} integrated={integrated} speedup=")
    assert err.endswith("x\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", *config_flags(), "--sessions", "2", "--packets-per-session", "4", "--reps", "1"],
        ["gen", "--sessions", "2", "--packets-per-session", "4", "--nat", str(CONFIGS / "nat.txt")],
    ],
    ids=["bench", "gen"],
)
def test_a_command_parses_the_nat_config_once(monkeypatch, capsys, argv):
    """And its LAN prefix once: bench generates its trace from its router config's."""
    parsed, prefixes = [], []

    def counted(text):
        parsed.append(text)
        return parse_nat_config(text)

    real_lan_prefix = cli._lan_prefix
    monkeypatch.setattr(cli, "parse_nat_config", counted)
    monkeypatch.setattr(
        cli, "_lan_prefix", lambda args: prefixes.append(1) or real_lan_prefix(args)
    )
    assert main(argv) == 0
    assert len(parsed) == 1 and len(prefixes) == 1


def test_gen_without_nat_addresses_the_shipped_pool():
    assert DEFAULT_NAT == parse_nat_config((CONFIGS / "nat.txt").read_text())


def test_gen_addresses_replies_to_the_nat_config_given(tmp_path, capsys):
    nat = tmp_path / "nat.txt"
    nat.write_text("public 203.0.113.5\nports 50001-50009\n")
    peers = "198.51.100.9,198.51.100.10"
    assert main([
        "gen", "--sessions", "2", "--packets-per-session", "4", "--mix", "0.5",
        "--peers", peers, "--nat", str(nat),
    ]) == 0
    packets = load_trace(capsys.readouterr().out)
    replies = {p.sid[2:4] for p in packets if format_ip(p.sid.src_addr) in peers.split(",")}
    assert replies == {(parse_ip("203.0.113.5"), 50001)}  # each flow's peer tuple's first port


def test_bench_of_no_packets_prints_no_ratio(capsys):
    """Two loops over no packets time only loop overhead: their ratio means nothing."""
    assert main(["bench", *config_flags(), "--sessions", "0", "--reps", "1"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("median wall_ns: baseline=") and "speedup" not in err


def test_gen_rejects_empty_peers():
    assert main(["gen", "--sessions", "1", "--packets-per-session", "2", "--peers", ""]) == 2


RUN_TRACE = ["run", *config_flags(), "--trace", "{tmp}/t.txt", "--pipeline", "baseline"]
BAD_INPUT = {
    "gen-peers-malformed": ["gen", "--peers", "1.2.3"],
    "gen-out-dir-missing": ["gen", "--out", "{tmp}/missing/t.txt"],
    "gen-nat-missing": ["gen", "--nat", "{tmp}/missing.txt"],
    "gen-sessions-negative": ["gen", "--sessions", "-3"],
    "gen-mix-above-one": ["gen", "--mix", "2"],
    "gen-reply-port-past-65535": [
        "gen", "--sessions", "6", "--packets-per-session", "3", "--peers", "198.51.100.9",
        "--mix", "0", "--nat", "{tmp}/nat-top.txt",
    ],
    "bench-reps-zero": ["bench", *config_flags(), "--reps", "0"],
    "run-out-dir-missing": [*RUN_TRACE, "--out", "{tmp}/missing/x.csv"],
    "run-verdicts-dir-missing": [*RUN_TRACE, "--verdicts", "{tmp}/missing/v.txt"],
    "run-verdicts-is-out": [*RUN_TRACE, "--verdicts", "{tmp}/v.txt", "--out", "{tmp}/./v.txt"],
    "run-verdicts-is-trace": [*RUN_TRACE, "--verdicts", "{tmp}/./t.txt"],
    "run-out-is-rules": [*RUN_TRACE[:2], "{tmp}/rules.txt", *RUN_TRACE[3:], "--out", "{tmp}/rules.txt"],
    "bench-out-is-qos": ["bench", *config_flags()[:7], "{tmp}/qos.txt", *config_flags()[8:],
                         "--out", "{tmp}/qos.txt"],
    "gen-out-is-nat": ["gen", "--nat", "{tmp}/nat.txt", "--out", "{tmp}/nat.txt"],
    "bench-out-dir-missing": ["bench", *config_flags(), "--out", "{tmp}/missing/b.csv"],
    "run-rules-not-utf8": [*RUN_TRACE[:2], "{tmp}/not-utf8.txt", *RUN_TRACE[3:]],
    "run-nat-unicode-digit": [*RUN_TRACE[:6], "{tmp}/nat-sup.txt", *RUN_TRACE[7:]],
    "run-qos-unicode-digit": [*RUN_TRACE[:8], "{tmp}/qos-sup.txt", *RUN_TRACE[9:]],
    "run-nat-repeated-line": [*RUN_TRACE[:6], "{tmp}/nat-repeat.txt", *RUN_TRACE[7:]],
    "run-nat-port-zero": [*RUN_TRACE[:6], "{tmp}/nat-port0.txt", *RUN_TRACE[7:]],
    "gen-lan-prefix-malformed": ["gen", "--lan-prefix", "10.0.0/8"],
    "run-lan-prefix-malformed": [*RUN_TRACE[:10], "10.0.0.0/33", *RUN_TRACE[11:]],
}


@pytest.mark.parametrize("argv", list(BAD_INPUT.values()), ids=list(BAD_INPUT))
def test_bad_input_is_a_one_line_config_error(tmp_path, capsys, monkeypatch, argv):
    main(["gen", "--sessions", "1", "--packets-per-session", "2", "--out", str(tmp_path / "t.txt")])
    (tmp_path / "not-utf8.txt").write_bytes(b"\xff")
    (tmp_path / "nat-sup.txt").write_text("public 192.0.2.1\nports 4²-5\n", encoding="utf-8")
    (tmp_path / "qos-sup.txt").write_text("any any any any any dscp ²\n", encoding="utf-8")
    (tmp_path / "nat-repeat.txt").write_text("public 192.0.2.1\nports 1-2\nports 3-4\n")
    (tmp_path / "nat-port0.txt").write_text("public 192.0.2.1\nports 0-0\n")
    (tmp_path / "nat-top.txt").write_text("public 192.0.2.1\nports 65535-65535\n")
    for name in ("rules.txt", "qos.txt", "nat.txt"):
        (tmp_path / name).write_bytes((CONFIGS / name).read_bytes())
    capsys.readouterr()
    replays = []
    monkeypatch.setattr(cli, "run_pipeline", lambda *a: replays.append("run"))
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert replays == []  # bad input is refused before any packet is replayed


GEN_REFUSED = [
    "gen", "--sessions", "6", "--packets-per-session", "3", "--peers", "198.51.100.9",
    "--mix", "0", "--nat", "{tmp}/nat-top.txt", "--out", "{tmp}/t.txt",
]


@pytest.mark.parametrize(
    "argv",
    [
        [*RUN_TRACE, "--verdicts", "{tmp}/v.txt", "--out", "{tmp}/missing/x.csv"],
        [*RUN_TRACE, "--verdicts", "{tmp}/v.txt", "--out", "{tmp}/t.txt"],
        GEN_REFUSED,
    ],
    ids=["run-out-refused", "run-out-is-trace", "gen-spec-refused"],
)
def test_a_failed_command_leaves_existing_outputs_as_they_were(tmp_path, argv):
    main(["gen", "--sessions", "1", "--packets-per-session", "2", "--out", str(tmp_path / "t.txt")])
    (tmp_path / "v.txt").write_bytes(b"earlier verdicts\n")
    (tmp_path / "nat-top.txt").write_text("public 192.0.2.1\nports 65535-65535\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_refused_gen_creates_no_file(tmp_path):
    (tmp_path / "nat-top.txt").write_text("public 192.0.2.1\nports 65535-65535\n")
    assert main([arg.format(tmp=tmp_path) for arg in GEN_REFUSED]) == 2
    assert not (tmp_path / "t.txt").exists()


WRITES_TO = {
    "run-verdicts": [*RUN_TRACE, "--verdicts", "/dev/full"],
    "run-out": [*RUN_TRACE, "--out", "/dev/full"],
    "run-verdicts-beside-out": [*RUN_TRACE, "--verdicts", "/dev/full", "--out", "{tmp}/x.csv"],
    "gen-out": ["gen", "--out", "/dev/full"],
    "bench-out": ["bench", *config_flags(), "--reps", "1", "--out", "/dev/full"],
}


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", list(WRITES_TO.values()), ids=list(WRITES_TO))
def test_an_output_that_cannot_be_written_is_a_one_line_config_error(tmp_path, capsys, argv):
    """/dev/full opens, but every write to it fails: the work is done, and then refused."""
    main(["gen", "--sessions", "1", "--packets-per-session", "2", "--out", str(tmp_path / "t.txt")])
    capsys.readouterr()
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write /dev/full: ") and err.count("\n") == 1
    assert f"[Errno {errno.ENOSPC}]" in err


TO_STDOUT = {
    "gen": ["gen", "--sessions", "2", "--packets-per-session", "3"],
    "run": RUN_TRACE,
    "compare": ["compare", *config_flags(), "--trace", "{tmp}/t.txt"],
    "bench": ["bench", *config_flags(), "--sessions", "2", "--packets-per-session", "3", "--reps", "1"],
}


def run_with_a_closed_pipe(tmp_path, argv: list[str], stream: str) -> subprocess.CompletedProcess:
    """Run the CLI with `stream` a pipe whose reader has gone, as after `| head -1`."""
    main(["gen", "--sessions", "1", "--packets-per-session", "2", "--out", str(tmp_path / "t.txt")])
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child starts, so its first write fails
    try:
        return subprocess.run(
            [sys.executable, "-m", "flowgate.cli", *(arg.format(tmp=tmp_path) for arg in argv)],
            **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write_end},
            text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")}, timeout=60,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv", list(TO_STDOUT.values()), ids=list(TO_STDOUT))
def test_a_closed_stdout_is_a_one_line_config_error(tmp_path, argv):
    """stdout is a pipe whose reader has gone: no traceback at any exit."""
    done = run_with_a_closed_pipe(tmp_path, argv, "stdout")
    assert done.returncode == 2, done.stderr
    assert done.stderr == f"config error: cannot write standard output: [Errno {errno.EPIPE}] Broken pipe\n"


ON_STDERR = {  # a command whose only stderr line is lost, and the exit code it keeps
    "run trace error": (
        ["run", *config_flags(), "--trace", "/nonexistent", "--pipeline", "baseline"], 3
    ),
    "compare trace error": (["compare", *config_flags(), "--trace", "/nonexistent"], 3),
    "bench median line": ([*TO_STDOUT["bench"], "--out", "{tmp}/bench.csv"], 0),
    "bench config error": ([*TO_STDOUT["bench"], "--reps", "0"], 2),
}


@pytest.mark.parametrize("argv, code", list(ON_STDERR.values()), ids=list(ON_STDERR))
def test_a_closed_stderr_keeps_the_exit_code(tmp_path, argv, code):
    """A lost error line is not a crash: exit 1 is compare's FAIL code."""
    done = run_with_a_closed_pipe(tmp_path, argv, "stderr")
    assert done.returncode == code
    assert done.stdout == ""
    if code == 0:
        assert (tmp_path / "bench.csv").read_text().startswith(CSV_HEADER)
