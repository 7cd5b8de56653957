"""CLI end-to-end: subcommands, exit codes, output files."""

from pathlib import Path

import pytest

from flowgate import cli
from flowgate.cli import main

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
    out = tmp_path / "bench.csv"
    assert main([
        "bench", *config_flags(), "--sessions", "4", "--packets-per-session", "10",
        "--reps", "2", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 4  # header + 2 pipelines x 2 reps
    assert "median wall_ns" in capsys.readouterr().err


def test_gen_rejects_empty_peers():
    assert main(["gen", "--sessions", "1", "--packets-per-session", "2", "--peers", ""]) == 2


RUN_TRACE = ["run", *config_flags(), "--trace", "{tmp}/t.txt", "--pipeline", "baseline"]
BAD_INPUT = {
    "gen-peers-malformed": ["gen", "--peers", "1.2.3"],
    "gen-out-dir-missing": ["gen", "--out", "{tmp}/missing/t.txt"],
    "gen-nat-missing": ["gen", "--nat", "{tmp}/missing.txt"],
    "gen-sessions-negative": ["gen", "--sessions", "-3"],
    "gen-mix-above-one": ["gen", "--mix", "2"],
    "bench-reps-zero": ["bench", *config_flags(), "--reps", "0"],
    "run-out-dir-missing": [*RUN_TRACE, "--out", "{tmp}/missing/x.csv"],
    "run-verdicts-dir-missing": [*RUN_TRACE, "--verdicts", "{tmp}/missing/v.txt"],
    "bench-out-dir-missing": ["bench", *config_flags(), "--out", "{tmp}/missing/b.csv"],
    "run-rules-not-utf8": [*RUN_TRACE[:2], "{tmp}/not-utf8.txt", *RUN_TRACE[3:]],
    "run-nat-unicode-digit": [*RUN_TRACE[:6], "{tmp}/nat-sup.txt", *RUN_TRACE[7:]],
    "run-qos-unicode-digit": [*RUN_TRACE[:8], "{tmp}/qos-sup.txt", *RUN_TRACE[9:]],
}


@pytest.mark.parametrize("argv", list(BAD_INPUT.values()), ids=list(BAD_INPUT))
def test_bad_input_is_a_one_line_config_error(tmp_path, capsys, monkeypatch, argv):
    main(["gen", "--sessions", "1", "--packets-per-session", "2", "--out", str(tmp_path / "t.txt")])
    (tmp_path / "not-utf8.txt").write_bytes(b"\xff")
    (tmp_path / "nat-sup.txt").write_text("public 192.0.2.1\nports 4²-5\n", encoding="utf-8")
    (tmp_path / "qos-sup.txt").write_text("any any any any any dscp ²\n", encoding="utf-8")
    capsys.readouterr()
    replays = []
    monkeypatch.setattr(cli, "run_pipeline", lambda *a: replays.append("run"))
    monkeypatch.setattr(cli, "bench", lambda *a: replays.append("bench"))
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert replays == []  # bad input is refused before any packet is replayed
