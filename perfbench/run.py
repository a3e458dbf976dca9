"""nocosim benchmark: closed-loop CLI workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --write-reference

Every command is one ``nocosim.cli.main`` invocation in a fresh interpreter
(``entry.py``), so a row costs what a user of the CLI pays.  One client runs
the commands back to back (closed loop).  A *cycle* is the list of commands
drawn from (workload, seed, cycle index); a run repeats whole cycles until
``--seconds`` of command time have passed.  Inputs are stratified: each cycle draws one value from each
equal slice of a range, so cycles of different seeds cost about the same.

Workloads:
  threshold-deep  ``threshold`` serially, rounds 15,17, one command per
                  frequency; 2 frequencies per cycle from [1e3, 1e5],
                  log-uniform.  4 rows per cycle.  Distillation's 2^n branch
                  tree dominates.
  gate-grid       ``gate-error`` for rz, phase_z, rx, rzz, rzz_prime; per
                  gate 8 eps from [0.05, 0.5] x 8 frequencies from
                  [1e3, 1e6], log-uniform.  320 rows per cycle.  Only the
                  zeno/qcore channel powering; faulttol is never called.
  threshold-pool  ``threshold --workers 2``, rounds 9,11, 3 frequencies from
                  [1e3, 1e5] in one command.  6 rows per cycle.  The only
                  workload that runs the process pool.  BENCHMARK.json
                  leaves it out: with the default BLAS threads the pool's
                  time is bimodal (one 2-point grid took 3.3 s to 10 s over
                  eight runs, 1.2 s serially; whole runs gave 0.28 to 0.59
                  rows/s), so no regression bound holds on it.

End-to-end metrics (``--trace 0``): ``rows_per_s`` and ``cpu_s_per_row``
(user plus system time of the command's process tree) over all commands
of the run, ``peak_rss_mb`` as the maximum over commands, pool workers included,
and ``setup_s``, the median time of ``import nocosim`` in a fresh
interpreter, timed after every command (at least SETUP_REPS times) so the
samples spread over the run.  ``--trace 1`` runs each cycle untraced and then traced.  It
reports the per-layer metrics of ``spans.layer_metrics`` over cycle 0, a
fixed amount of work for a seed, so counts repeat exactly; and the tracing
overhead, untraced minus traced rows per second over all cycles.

Every row is checked: table header and row count, the input columns against
the requested grid, ``0 < epsilon_star < 0.99``, ``iterations >= 1``,
``0 <= infidelity <= 1``.  A pool table must be byte-identical to the same
grid run with ``--workers 1``, and a traced table to its untraced run.  For
the default seed, cycle 0 is compared with ``reference/`` (made by
``--write-reference``): integer columns and the header exactly, floats to a
relative 1e-10.  A row fails on a non-zero exit, a missing row or a failed
check; ``error_rate`` is failed rows over attempted rows.

The last line of standard output is the JSON result.  The environment
(thread variables, BLAS build, start method, commit) is recorded, never set.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import GATES, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENTRY = HERE / "entry.py"
REFERENCE_DIR = HERE / "reference"
DEFAULT_SEED = 0
SETUP_REPS = 11
FLOAT_RTOL = 1e-10
# no child may outlive this many seconds after the run starts
RUN_DEADLINE_S = 165.0

THRESHOLD_COLS = ("freq_over_h", "rounds", "epsilon_star", "iterations")
GATE_ERROR_COLS = ("epsilon", "freq_over_h", "infidelity", "N_periods")
INT_COLS = {"rounds", "iterations", "N_periods"}


def fmt(x: float) -> str:
    """The CLI's float format, used to match its input columns."""
    return "{:.11e}".format(float(x))


def stratified(rng, lo: float, hi: float, k: int, log: bool = False) -> list:
    """k draws, one uniform in each of k equal slices of [lo, hi] (of log10 if log)."""
    a, b = (math.log10(lo), math.log10(hi)) if log else (lo, hi)
    draws = [a + (i + rng.random()) * (b - a) / k for i in range(k)]
    return [float("%.6g" % (10.0 ** v if log else v)) for v in draws]


@dataclass
class Command:
    args: list      # nocosim CLI arguments, without --out
    columns: tuple
    keys: list      # expected (first column, second column) text of each row
    pool: bool = False


def _threshold(freqs, rounds, workers: int) -> Command:
    args = ["threshold", "--freq_over_h", ",".join(map(repr, freqs)),
            "--rounds", ",".join(map(str, rounds)), "--workers", str(workers)]
    keys = [(fmt(f), str(n)) for f in freqs for n in rounds]
    return Command(args, THRESHOLD_COLS, keys, pool=workers > 1)


def threshold_deep(rng, tiny: bool) -> list:
    rounds = [17] if tiny else [15, 17]
    freqs = stratified(rng, 1e3, 1e5, 1 if tiny else 2, log=True)
    return [_threshold([f], rounds, workers=1) for f in freqs]


def gate_grid(rng, tiny: bool) -> list:
    k = 1 if tiny else 8
    cmds = []
    for gate in GATES:
        eps = stratified(rng, 0.05, 0.5, k)
        freqs = stratified(rng, 1e3, 1e6, k, log=True)
        args = ["gate-error", "--gate", gate, "--epsilon", ",".join(map(repr, eps)),
                "--freq_over_h", ",".join(map(repr, freqs))]
        keys = [(fmt(e), fmt(f)) for e in eps for f in freqs]
        cmds.append(Command(args, GATE_ERROR_COLS, keys))
    return cmds


def threshold_pool(rng, tiny: bool) -> list:
    freqs = stratified(rng, 1e3, 1e5, 1 if tiny else 3, log=True)
    return [_threshold(freqs, [9, 11], workers=2)]


# workload -> (cycle builder, span whose call count must equal traced rows)
WORKLOADS = {
    "threshold-deep": (threshold_deep, "faulttol.threshold"),
    "gate-grid": (gate_grid, "zeno.noco_channel"),
    "threshold-pool": (threshold_pool, "faulttol.threshold"),
}


def cycle_commands(workload: str, seed: int, cycle: int, tiny: bool) -> list:
    build, _ = WORKLOADS[workload]
    return build(random.Random(f"{workload}/{seed}/{cycle}"), tiny)


@dataclass
class Outcome:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    text: str       # the CSV table, or "" when the command wrote none
    stderr: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the group ended before the deadline


class Runner:
    """Starts children in their own session and kills any left at the deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def _spawn(self, argv, capture=False):
        self.count += 1
        err_path = self.workdir / f"stderr-{self.count}"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, stderr=err, start_new_session=True,
                                    stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
        killer = threading.Timer(max(self.deadline - time.perf_counter(), 0.0),
                                 _kill_group, (proc.pid,))
        killer.start()
        try:
            out = proc.stdout.read() if capture else b""
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            killer.cancel()
            if capture:
                proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage, out, err_path.read_text(errors="replace")

    def setup(self) -> dict:
        code, _, _, out, err = self._spawn([sys.executable, str(ENTRY), "setup"], True)
        if code != 0:
            raise SystemExit(f"importing nocosim failed (exit {code}):\n{err}")
        return json.loads(out)

    def command(self, args, spans_path=None) -> Outcome:
        out_path = self.workdir / f"table-{self.count + 1}.csv"
        argv = [sys.executable, str(ENTRY), "run"]
        if spans_path is not None:
            argv += ["--spans", str(spans_path)]
        argv += ["--", *args, "--out", str(out_path)]
        code, wall, usage, _, err = self._spawn(argv)
        text = out_path.read_text() if code == 0 and out_path.exists() else ""
        return Outcome(code, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, text, err)


def table_rows(text: str):
    """(header, rows) of a CLI table, skipping '#' provenance lines."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines:
        return None, []
    return tuple(lines[0].split(",")), [ln.split(",") for ln in lines[1:]]


def _row_ok(columns, key, row) -> bool:
    if len(row) != len(columns) or (row[0], row[1]) != key:
        return False
    try:
        if columns == THRESHOLD_COLS:
            return 0.0 < float(row[2]) < 0.99 and int(row[3]) >= 1
        return 0.0 <= float(row[2]) <= 1.0 and int(row[3]) >= 0
    except ValueError:
        return False


def check_table(cmd: Command, text: str) -> set:
    """Indices of the rows of ``cmd`` that are missing or fail an invariant."""
    header, rows = table_rows(text)
    every = set(range(len(cmd.keys)))
    if header != cmd.columns or len(rows) != len(cmd.keys):
        return every
    return {i for i, (key, row) in enumerate(zip(cmd.keys, rows))
            if not _row_ok(cmd.columns, key, row)}


def _close(a: str, b: str, column: str) -> bool:
    if column in INT_COLS:
        return a == b
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= FLOAT_RTOL * max(abs(x), abs(y))


def differing_rows(text: str, reference: str, n: int, exact: bool) -> set:
    """Indices of the n rows where ``text`` departs from ``reference``.

    exact: every line, provenance included, byte-equal.  Otherwise the
    header and integer columns exactly and floats to a relative FLOAT_RTOL.
    """
    header, rows = table_rows(text)
    ref_header, ref_rows = table_rows(reference)
    provenance = [ln for ln in text.splitlines() if ln.startswith("#")]
    ref_provenance = [ln for ln in reference.splitlines() if ln.startswith("#")]
    if (header != ref_header or len(rows) != len(ref_rows)
            or (exact and provenance != ref_provenance)):
        return set(range(n))
    if exact:
        return {i for i, (row, ref) in enumerate(zip(rows, ref_rows)) if row != ref}
    return {i for i, (row, ref) in enumerate(zip(rows, ref_rows))
            if len(row) != len(ref)
            or not all(_close(a, b, c) for a, b, c in zip(row, ref, header))}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _serial(args) -> list:
    i = args.index("--workers")
    return args[:i + 1] + ["1"] + args[i + 2:]


def _reference_path(workload: str, k: int) -> Path:
    return REFERENCE_DIR / workload / f"cycle0-cmd{k}.csv"


def _report_exit(cmd: Command, res: Outcome) -> None:
    if res.code != 0:
        print(f"command {cmd.args} exited {res.code}:\n{res.stderr}", file=sys.stderr)


def write_reference(workload: str, runner: Runner) -> int:
    for k, cmd in enumerate(cycle_commands(workload, DEFAULT_SEED, 0, tiny=False)):
        res = runner.command(cmd.args)
        bad = check_table(cmd, res.text)
        if bad:
            _report_exit(cmd, res)
            print(f"not writing a reference: {len(bad)} bad rows from {cmd.args}",
                  file=sys.stderr)
            return 1
        path = _reference_path(workload, k)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(res.text)
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


@dataclass
class Tally:
    """Rows and command time of one cycle, untraced and traced."""

    rows: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    traced_rows: int = 0
    traced_wall_s: float = 0.0


def layer_report(workload: str, tallies: list, docs: list):
    """Per-layer and tracing-overhead metrics, and whether the span counts
    agree with the rows traced."""
    metrics, self_s, absent = layer_metrics(docs)
    traced_rows = tallies[0].traced_rows
    untraced_rate = sum(t.rows for t in tallies) / sum(t.wall_s for t in tallies)
    traced_rate = sum(t.traced_rows for t in tallies) / sum(t.traced_wall_s for t in tallies)
    metrics["trace.rows"] = (traced_rows, "count")
    metrics["trace.absent"] = (len(absent), "count")
    metrics["trace.rows_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.rows_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_rows_per_s"] = (untraced_rate - traced_rate, "1/s")
    total = sum(self_s.values()) or 1.0
    for name, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"self {name} {s:.4f} s ({100.0 * s / total:.1f}%)")
    for name in absent:
        print(f"absent {name}")
    counted = WORKLOADS[workload][1]
    calls = metrics[f"{counted}.calls"][0]
    count_ok = counted in absent or calls in (0, traced_rows)
    print(f"self-check {counted}.calls {calls} vs traced rows {traced_rows}: "
          f"{'ok' if count_ok else 'FAILED'}")
    return metrics, count_ok


def measure(args, runner: Runner) -> dict:
    env = runner.setup()["env"]
    env["commit"] = git_commit()
    print("env " + json.dumps(env, sort_keys=True))

    tallies = []
    peak_rss = 0.0
    attempted = failed = 0
    docs = []            # spans of cycle 0's traced commands
    import_s = []        # import timings, one after each untraced command
    measured = 0.0
    while not tallies or measured < args.seconds:
        c = len(tallies)
        tally = Tally()
        for k, cmd in enumerate(cycle_commands(args.workload, args.seed, c, args.tiny)):
            if time.perf_counter() >= runner.deadline:
                raise SystemExit("run deadline passed before the workload finished")
            n = len(cmd.keys)
            res = runner.command(cmd.args)
            _report_exit(cmd, res)
            bad = check_table(cmd, res.text)
            if args.seed == DEFAULT_SEED and c == 0 and not args.tiny:
                reference = _reference_path(args.workload, k).read_text()
                bad |= differing_rows(res.text, reference, n, exact=False)
            if cmd.pool:
                serial = runner.command(_serial(cmd.args))
                bad |= differing_rows(res.text, serial.text, n, exact=True)
            attempted += n
            failed += len(bad)
            tally.rows += len(table_rows(res.text)[1])
            tally.wall_s += res.wall_s
            tally.cpu_s += res.cpu_s
            peak_rss = max(peak_rss, res.rss_mb)
            measured += res.wall_s
            if not args.trace:
                import_s.append(runner.setup()["import_s"])
                continue
            spans_path = runner.workdir / f"spans-{c}-{k}.json"
            traced = runner.command(cmd.args, spans_path)
            _report_exit(cmd, traced)
            attempted += n
            failed += len(check_table(cmd, traced.text)
                          | differing_rows(traced.text, res.text, n, exact=True))
            tally.traced_rows += len(table_rows(traced.text)[1])
            tally.traced_wall_s += traced.wall_s
            measured += traced.wall_s
            if c == 0 and traced.code == 0:
                docs.append(json.loads(spans_path.read_text()))
        tallies.append(tally)

    rows = sum(t.rows for t in tallies)
    print(f"workload {args.workload} seed {args.seed} cycles {len(tallies)} "
          f"rows {rows} command_s {measured:.2f}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} rows failed)")
    if args.trace:
        metrics, count_ok = layer_report(args.workload, tallies, docs)
    else:
        while len(import_s) < SETUP_REPS:
            import_s.append(runner.setup()["import_s"])
        metrics = {
            "rows_per_s": (rows / sum(t.wall_s for t in tallies), "1/s"),
            "cpu_s_per_row": (sum(t.cpu_s for t in tallies) / max(rows, 1), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "setup_s": (statistics.median(import_s), "s"),
        }
        count_ok = True
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    return {
        "correct": failed == 0 and count_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one-point grids, for the smoke test")
    parser.add_argument("--write-reference", action="store_true",
                        help="store cycle 0 of the default seed as the reference")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nocosim" / "__init__.py").is_file():
        print(f"error: no nocosim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    runner = Runner(workdir, time.perf_counter() + RUN_DEADLINE_S)
    try:
        if args.write_reference:
            return write_reference(args.workload, runner)
        result = measure(args, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
