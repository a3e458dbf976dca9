import argparse
import os

import numpy as np

from nocosim import cli
from nocosim.cli import main

# the config keys each command reads; every command also takes workers and out
READS = {
    "fixed-state": {"gate", "epsilon"},
    "eff-h": {"gate", "epsilon"},
    "gate-error": {"gate", "epsilon", "freq_over_h"},
    "swap-check": set(),
    "transfer-check": {"epsilon", "freq_over_h"},
    "distill": {"rounds", "epsilon", "freq_over_h"},
    "threshold": {"freq_over_h", "rounds", "budget", "bisect_tol", "include_decoupling"},
    "noise-check": {"epsilon"},
}


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors, such as a flag the command does not take
        return exc.code


def read(path):
    return path.read_text(encoding="utf-8")


def test_gate_error_success_and_schema(tmp_path):
    out = tmp_path / "ge.csv"
    code = run([
        "gate-error", "--epsilon", "0.1,0.3", "--freq_over_h", "1e3,1e4",
        "--gate", "rz", "--out", str(out),
    ])
    assert code == 0
    lines = read(out).splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert len(header) == 3
    assert header[0].startswith("# nocosim ")
    assert any("config-sha256" in l for l in header)
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "epsilon,freq_over_h,infidelity,N_periods"
    assert len(body) == 5  # header row + 2x2 grid
    first = body[1].split(",")
    assert first[0] == "1.00000000000e-01"
    assert int(first[3]) > 0
    # epsilon is the outer loop
    eps_col = [row.split(",")[0] for row in body[1:]]
    assert eps_col == sorted(eps_col)


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["distill", "--rounds", "1,3", "--epsilon", "0.2", "--freq_over_h", "1e3"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert read(a) == read(b)


def test_workers_do_not_change_bytes(tmp_path):
    a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
    env = dict(os.environ)
    for args in (
        ["gate-error", "--epsilon", "0.1,0.2", "--freq_over_h", "1e3,3e3"],
        ["fixed-state", "--epsilon", "0.1,0.2"],
        ["eff-h", "--gate", "rzz", "--epsilon", "0.1,0.2"],
        ["noise-check", "--epsilon", "0.2,1.0"],
        ["threshold", "--freq_over_h", "1e3", "--rounds", "1,3", "--bisect_tol", "1e-3"],
    ):
        assert run(args + ["--workers", "1", "--out", str(a)]) == 0
        assert run(args + ["--workers", "2", "--out", str(b)]) == 0
        assert read(a) == read(b)
    assert dict(os.environ) == env  # the pool's BLAS pinning is undone


def test_pool_is_no_larger_than_task_list(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return [fn(*t) for t in tasks]

    class SerialContext:
        Pool = SerialPool

    monkeypatch.setattr(cli.multiprocessing, "get_context", lambda method: SerialContext)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli._map_tasks(pow, [(2, 3), (3, 2)], workers=64) == [8, 9]
    assert started == [2]
    # nor larger than the machine: one worker per CPU
    started.clear()
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    tasks = [(2, k) for k in range(10)]
    assert cli._map_tasks(pow, tasks, workers=64) == [2 ** k for k in range(10)]
    assert started == [3]


def test_stdout_mode(capsys):
    assert run(["swap-check"]) == 0
    captured = capsys.readouterr()
    assert "deviation,halftime_deviation" in captured.out
    assert "swap-check" in captured.err  # summary goes to stderr


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nepsilon = 0.4\nrounds = 5\n", encoding="utf-8")
    assert run(["distill", "--config", str(cfg), "--epsilon", "0.3"]) == 0
    out = capsys.readouterr().out
    row = [l for l in out.splitlines() if not l.startswith("#")][1]
    fields = row.split(",")
    assert fields[0] == "5"  # rounds from file
    assert fields[1] == "3.00000000000e-01"  # cli overrides file


def test_invalid_config_exit_codes(tmp_path):
    assert run(["distill", "--rounds", "2"]) == 2
    # C(1030, 515) overflows a double, so rounds stop at faulttol.MAX_ROUNDS
    assert run(["distill", "--rounds", "1031"]) == 2
    assert run(["threshold", "--rounds", "1031"]) == 2
    assert run(["distill", "--epsilon", "1.4"]) == 2
    assert run(["distill", "--epsilon", "abc"]) == 2
    assert run(["gate-error", "--freq_over_h", ""]) == 2
    assert run(["threshold", "--bisect_tol", "-1"]) == 2
    assert run(["threshold", "--budget", "abc"]) == 2
    assert run(["threshold", "--bisect_tol", "abc"]) == 2
    assert run(["gate-error", "--workers", "x"]) == 2
    for value in ("inf", "nan"):
        assert run(["gate-error", "--freq_over_h", value]) == 2
        assert run(["threshold", "--budget", value]) == 2
        assert run(["threshold", "--bisect_tol", value]) == 2
        assert run(["distill", "--rounds", value]) == 2
    # gate durations stretch like 1/(1 - epsilon)
    for command in ("gate-error", "distill", "transfer-check"):
        assert run([command, "--epsilon", "1.0"]) == 2
    # transfer-check computes one point; a grid is refused, not truncated
    assert run(["transfer-check", "--epsilon", "0.1,0.2"]) == 2
    assert run(["transfer-check", "--freq_over_h", "1e3,1e4"]) == 2
    # a flag the command does not take is a usage error
    assert run(["swap-check", "--rounds", "3"]) == 2
    assert run(["distill", "--gate", "rx"]) == 2
    assert run(["threshold", "--epsilon", "0.5"]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n", encoding="utf-8")
    assert run(["distill", "--config", str(bad)]) == 2
    bad.write_text("no equals sign here\n", encoding="utf-8")
    assert run(["distill", "--config", str(bad)]) == 2


def test_each_command_takes_only_the_keys_it_reads():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(READS)
    for command, parser in sub.choices.items():
        options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert options == {"--config", "--workers", "--out"} | {f"--{k}" for k in READS[command]}
        assert set(cli.COMMAND_DEFAULTS.get(command, {})) <= READS[command]
    assert set(cli.COMMAND_DEFAULTS) <= set(READS)


def test_one_config_file_serves_every_command(tmp_path):
    # a file may hold every key; each command reads and records only its own
    out, plain = tmp_path / "out.csv", tmp_path / "plain.csv"
    cfg = tmp_path / "all.cfg"
    cfg.write_text(
        "epsilon = 0.2\nfreq_over_h = 1e4\nrounds = 1\ngate = rx\nbudget = 0.03\n"
        f"bisect_tol = 1e-3\ninclude_decoupling = false\nworkers = 1\nout = {out}\n",
        encoding="utf-8",
    )
    assert set(cli.read_config_file(str(cfg))) == set(cli.CONFIG)
    tables = {}
    for command, reads in READS.items():
        assert run([command, "--config", str(cfg)]) == 0
        tables[command] = read(out)
        recorded = tables[command].splitlines()[1].split()[2:]
        assert {field.partition("=")[0] for field in recorded} == reads
    assert run(["swap-check", "--out", str(plain)]) == 0
    assert tables["swap-check"] == read(plain)


def test_unknown_gate_exit_code():
    assert run(["gate-error", "--gate", "cnot"]) == 3
    assert run(["fixed-state", "--gate", "nope"]) == 3
    # idle couplings are not catalog gates
    assert run(["fixed-state", "--gate", "decouple_heisenberg"]) == 3
    assert run(["eff-h", "--gate", "decouple_xy"]) == 3
    assert run(["gate-error", "--gate", "decouple_ising"]) == 3


def test_no_threshold_exit_code():
    assert run(["threshold", "--freq_over_h", "1e3", "--rounds", "1",
                "--budget", "1e-9"]) == 4


def test_period_count_overflow_exit_code(capsys):
    # pi / 1.6 * 1e308 overflows: a clear error, not int(inf)
    assert run(["gate-error", "--freq_over_h", "1e308"]) == 2
    assert "freq_over_h 1e+308" in capsys.readouterr().err
    # rz's finite but astronomical count used to print a nan row
    assert run(["gate-error", "--gate", "rz", "--freq_over_h", "1e308"]) == 2
    captured = capsys.readouterr()
    assert "freq_over_h 1e+308" in captured.err
    assert captured.out == ""


def test_unwritable_output_exit_code():
    assert run(["swap-check", "--out", "/nonexistent-dir/x.csv"]) == 5


def test_missing_config_file_exit_code(tmp_path):
    assert run(["distill", "--config", str(tmp_path / "absent.cfg")]) == 5


def test_non_utf8_config_file_exit_code(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"gate = rx\n# \xff\n")
    assert run(["fixed-state", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not UTF-8" in captured.err


def test_noise_check_reports_failures_with_exit_zero(capsys):
    assert run(["noise-check", "--epsilon", "0.2,1.0"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    assert rows[0].endswith(",1,1")
    assert rows[1].endswith(",0,0")


def test_fixed_state_two_actuator_gate_rejected():
    assert run(["fixed-state", "--gate", "rzz_prime"]) == 2


def test_threshold_table(tmp_path):
    out = tmp_path / "thr.csv"
    code = run([
        "threshold", "--freq_over_h", "1e4", "--rounds", "1,3",
        "--bisect_tol", "1e-3", "--out", str(out),
    ])
    assert code == 0
    body = [l for l in read(out).splitlines() if not l.startswith("#")]
    assert body[0] == "freq_over_h,rounds,epsilon_star,iterations"
    stars = [float(r.split(",")[2]) for r in body[1:]]
    assert len(stars) == 2
    assert stars[0] < stars[1]  # more rounds tolerate more noise
    assert all(0.0 < s < 1.0 for s in stars)


def test_eff_h_columns(capsys):
    assert run(["eff-h", "--gate", "rzz", "--epsilon", "0.2"]) == 0
    out = capsys.readouterr().out
    body = [l for l in out.splitlines() if not l.startswith("#")]
    cols = body[0].split(",")
    assert cols[:2] == ["epsilon_i", "epsilon_h"]
    assert "c_ZZ" in cols and len(cols) == 2 + 16
    vals = dict(zip(cols, body[1].split(",")))
    assert np.isclose(float(vals["c_ZZ"]), 0.8)
    assert np.isclose(float(vals["c_XX"]), 0.0)
