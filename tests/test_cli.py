import argparse
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

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
    assert dict(os.environ) == env  # starting a pool sets no variable in the parent


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

    # cli imports multiprocessing only when a pool starts, and reads get_context then
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SerialContext)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert cli._map_tasks(pow, [(2, 3), (3, 2)], workers=64) == [8, 9]
    assert started == [2]
    # nor larger than the CPUs the process may run on: one worker per CPU
    tasks = [(2, k) for k in range(10)]
    for affinity, pool in ({0, 1, 2}, [3]), ({5}, []):  # one CPU: serial, no pool
        started.clear()
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid, cpus=affinity: cpus)
        assert cli._map_tasks(pow, tasks, workers=64) == [2 ** k for k in range(10)]
        assert started == pool
    # without an affinity call (macOS, Windows) the CPU count caps the pool
    started.clear()
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
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
    assert run(["gate-error", "--workers", "0"]) == 2
    assert run(["distill", "--rounds", "2.5"]) == 2
    assert run(["threshold", "--include_decoupling", "maybe"]) == 2
    # "=" keeps argparse from reading a negative value as a flag
    for value in ("0", "-1e3"):
        assert run(["gate-error", f"--freq_over_h={value}"]) == 2
    for value in ("inf", "nan"):
        assert run(["gate-error", "--freq_over_h", value]) == 2
        assert run(["threshold", "--budget", value]) == 2
        assert run(["threshold", "--bisect_tol", value]) == 2
        assert run(["distill", "--rounds", value]) == 2
    # gate durations stretch like 1/(1 - epsilon)
    for command in ("gate-error", "distill", "transfer-check"):
        assert run([command, "--epsilon", "1.0"]) == 2
    # ... and that refusal comes before the gate lookup's exit 3
    assert run(["gate-error", "--gate", "cnot", "--epsilon", "1.0"]) == 2
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


def test_each_range_refusal_names_its_key_and_value(capsys):
    # each key's parser refuses what lies outside its domain, and says which key and value
    for argv, key, value in (
        (["distill", "--epsilon=-0.1"], "epsilon", "-0.1"),
        (["distill", "--epsilon", "1.4"], "epsilon", "1.4"),
        (["gate-error", "--freq_over_h=-1e3"], "freq_over_h", "-1e3"),
        (["gate-error", "--freq_over_h", "inf"], "freq_over_h", "inf"),
        (["distill", "--rounds", "4"], "rounds", "4"),
        (["distill", "--rounds=-3"], "rounds", "-3"),
        (["threshold", "--rounds", "1031"], "rounds", "1031"),
        (["threshold", "--budget", "0"], "budget", "0"),
        (["threshold", "--bisect_tol=-1"], "bisect_tol", "-1"),
        (["gate-error", "--workers", "0"], "workers", "0"),
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err and value in captured.err.split(), (argv, captured.err)


def test_epsilon_one_without_a_drive_frequency(capsys):
    # neither takes a drive frequency, and only a driven gate's duration diverges at 1
    for command in ("fixed-state", "eff-h"):
        assert run([command, "--epsilon", "1.0"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert rows[1].startswith("1.00000000000e+00,")


def test_whole_number_edges(capsys):
    # a rounds or worker count may be written as a float, if it is whole
    for value in ("1.0", "2.0", "1e0"):
        assert run(["gate-error", "--workers", value]) == 0, value
        assert capsys.readouterr().err == "gate-error: 1 rows\n"
    assert run(["gate-error", "--workers", "1.5"]) == 2
    assert capsys.readouterr().err == "error: bad workers value: '1.5'\n"
    assert run(["distill", "--rounds", "5.0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].endswith(" rounds=5")
    assert out[4].startswith("5,")


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


def test_unknown_gate_fails_before_any_row(monkeypatch, capsys):
    def no_rows(*args):
        raise AssertionError("rows computed for an unknown gate")

    monkeypatch.setattr(cli, "_map_tasks", no_rows)
    assert run(["gate-error", "--gate", "bogus", "--workers", "2"]) == 3
    assert capsys.readouterr().err == (
        "error: unknown gate 'bogus'; known: phase_z, rx, rz, rzz, rzz_prime\n")
    # the epsilon 1 refusal still comes first
    assert run(["gate-error", "--gate", "bogus", "--epsilon", "1"]) == 2
    assert "needs epsilon below 1" in capsys.readouterr().err


def test_no_threshold_exit_code():
    assert run(["threshold", "--freq_over_h", "1e3", "--rounds", "1",
                "--budget", "1e-9"]) == 4


def test_unforeseen_error_exit_code(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("distillation broke")

    monkeypatch.setattr(cli.faulttol, "distill", broken)
    assert run(["distill"]) == 1
    assert "error: distillation broke" in capsys.readouterr().err.splitlines()


def test_failed_threshold_point_keeps_the_other_rows(tmp_path, capsys):
    # (1e4, 5) is over budget already at eps = 0; the other five points have a threshold
    args = ["threshold", "--include_decoupling", "true", "--freq_over_h", "1e4,1e5,3e5",
            "--rounds", "3,5"]
    tables = {}
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        assert run(args + ["--workers", workers, "--out", str(out)]) == 4
        tables[workers] = read(out)
        assert "error: budget 3.6416e-02 already above target 0.03 at eps=0" in (
            capsys.readouterr().err)
    assert tables["1"] == tables["2"]
    lines = tables["1"].splitlines()
    assert lines[3] == "freq_over_h,rounds,epsilon_star,iterations"
    # the rows that succeed in grid order, then one error line per failed point
    assert [l.split(",")[:2] for l in lines[4:9]] == [
        ["1.00000000000e+04", "3"], ["1.00000000000e+05", "3"], ["1.00000000000e+05", "5"],
        ["3.00000000000e+05", "3"], ["3.00000000000e+05", "5"]]
    assert lines[9:] == [
        "# error: budget 3.6416e-02 already above target 0.03 at eps=0 "
        "(freq=10000.0, n=5)"]
    # stdout mode writes the same table
    assert run(args) == 4
    assert capsys.readouterr().out == tables["1"]


def test_period_count_overflow_exit_code(capsys):
    # pi / 1.6 * 1e308 overflows: a clear error, not int(inf)
    assert run(["gate-error", "--freq_over_h", "1e308"]) == 2
    assert "freq_over_h 1e+308" in capsys.readouterr().err
    # rz's finite but astronomical count used to print a nan row
    assert run(["gate-error", "--gate", "rz", "--freq_over_h", "1e308"]) == 2
    captured = capsys.readouterr()
    assert "freq_over_h 1e+308" in captured.err
    assert captured.out == ""
    # distillation propagates its round inputs; the count is refused first too
    assert run(["distill", "--freq_over_h", "1e308"]) == 2
    assert "freq_over_h 1e+308" in capsys.readouterr().err


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


def test_config_file_with_a_byte_order_mark_is_read(tmp_path, capsys):
    # an editor may save UTF-8 with a leading U+FEFF, which is no part of the first key
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfepsilon = 0.2\n")
    assert run(["fixed-state", "--config", str(cfg), "--gate", "rx"]) == 0
    assert run(["fixed-state", "--gate", "rx", "--epsilon", "0.2"]) == 0
    from_file, from_flag = capsys.readouterr().out.split("# nocosim", 2)[1:]
    assert from_file == from_flag


def test_config_file_key_given_twice_is_refused(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("epsilon = 0.2\n# comment\nepsilon = 0.3\n", encoding="utf-8")
    assert run(["fixed-state", "--config", str(cfg), "--gate", "rx"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{cfg}:3: key 'epsilon' already set on line 1" in captured.err


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


def _python(*args, env=None):
    """Run a fresh interpreter that imports nocosim from this checkout.

    env updates its environment; a variable whose value is None is removed.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = {**os.environ, "PYTHONPATH": path, **(env or {})}
    return subprocess.run([sys.executable, *args],
                          env={var: v for var, v in child.items() if v is not None},
                          capture_output=True, text=True, timeout=120)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_import_pins_one_blas_thread_unless_exported():
    probe = f"import os, nocosim; print([os.environ.get(v) for v in {BLAS_THREAD_VARS}])"
    unset = dict.fromkeys(BLAS_THREAD_VARS)
    proc = _python("-c", probe, env=unset)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['1', '1', '1']"
    proc = _python("-c", probe, env={**unset, "OPENBLAS_NUM_THREADS": "3"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['3', '1', '1']"


def test_blas_thread_count_does_not_change_bytes():
    for args in (
        ["gate-error", "--gate", "rzz_prime", "--epsilon", "0.2,0.45", "--freq_over_h", "1e3,5e5"],
        ["threshold", "--freq_over_h", "1e4", "--rounds", "3", "--bisect_tol", "1e-3"],
    ):
        runs = [_python("-m", "nocosim", *args, env=dict.fromkeys(BLAS_THREAD_VARS, n))
                for n in ("1", "2")]
        assert [p.returncode for p in runs] == [0, 0], runs[0].stderr + runs[1].stderr
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.count("\n") > 4  # provenance, header and rows


def test_import_leaves_the_cli_unloaded():
    # a library user pays for neither the CLI nor its argparse and hashlib
    probe = ("import sys, nocosim; "
             "print([m for m in ('nocosim.cli', 'argparse', 'hashlib') if m in sys.modules])")
    proc = _python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_cli_hashes_without_openssl():
    # the provenance digest comes from CPython's built-in SHA-256, so the CLI
    # never maps OpenSSL's libcrypto through hashlib
    probe = ("import sys, nocosim.cli; "
             "print([m for m in ('hashlib', '_hashlib') if m in sys.modules])")
    proc = _python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_hashlib_fallback_writes_the_same_provenance(tmp_path):
    # an interpreter built without the built-in SHA-256 hashes through hashlib
    out = tmp_path / "swap-check.csv"
    probe = ("import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
             "import nocosim.cli; "
             "print('hashlib' in sys.modules, nocosim.cli.main(['swap-check', '--out', sys.argv[1]]))")
    proc = _python("-c", probe, str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True 0"
    golden = Path(__file__).resolve().parent / "golden" / "swap-check.csv"
    provenance = [[l for l in p.read_text().splitlines() if l.startswith("#")]
                  for p in (out, golden)]
    assert len(provenance[0]) == 3
    assert provenance[0] == provenance[1]


def test_the_cli_alone_freezes_its_import_time_heap():
    # nocosim.cli freezes what its imports built and leaves the collector on;
    # a library user's collector is left alone
    probe = "import gc, {}; print(gc.isenabled(), gc.get_freeze_count() > 0)"
    proc = _python("-c", probe.format("nocosim.cli"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True True"
    proc = _python("-c", "import gc, nocosim; print(gc.get_freeze_count())")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_a_fresh_cli_process_writes_the_whole_table(tmp_path):
    # the frozen heap loses no buffered output at exit, serially or from
    # spawned workers, which import nocosim.cli and freeze too
    args = ["threshold", "--freq_over_h", "1e4", "--rounds", "3,5", "--bisect_tol", "1e-3"]
    expected = tmp_path / "in-process.csv"
    assert run(args + ["--out", str(expected)]) == 0
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        proc = _python("-m", "nocosim", *args, "--workers", workers, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == expected.read_bytes()
        assert proc.stdout == f"threshold: 2 rows -> {out}\n"
        assert proc.stderr == ""


def test_python_m_runs_the_cli():
    proc = _python("-m", "nocosim", "swap-check")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# nocosim ")
    assert lines[3] == "deviation,halftime_deviation"
    assert len(lines) == 5
    assert proc.stderr == "swap-check: 1 rows\n"
