"""Command-line front end: parameter sweeps written as deterministic CSV.

Every command takes only the config keys its COMMANDS grid names, plus
workers and out.  It resolves them from built-in defaults, an optional flat
key=value config file, and command-line overrides (highest precedence),
then writes a comma-separated table with '#'-prefixed provenance lines:
package version, command, the resolved keys, and their hash.  No
timestamps or environment data are recorded, so identical configurations
produce byte-identical tables, also when computed with a worker pool.
"""

import argparse
import hashlib
import itertools
import math
import multiprocessing
import os
import sys

from . import __version__, faulttol, gates, zeno
from .channels import entanglement_fidelity, unitary_channel
from .qcore import pauli_coefficients, pauli_strings

COMMAND_DEFAULTS = {
    "fixed-state": {"gate": "rx"},
    "eff-h": {"gate": "rx"},
    "threshold": {
        "freq_over_h": "1e3,3e3,1e4,3e4,1e5",
        "rounds": "9,11,13,15,17",
    },
    "noise-check": {"epsilon": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"},
}


class ConfigError(ValueError):
    """Bad key, value, or grid; maps to exit code 2."""


class UnknownGateError(ValueError):
    """Gate name outside the catalog; maps to exit code 3."""


# commands whose gate durations stretch like 1/(1 - epsilon)
DURATION_COMMANDS = ("gate-error", "transfer-check", "distill")


def fmt(x: float) -> str:
    return "{:.11e}".format(float(x))


def _parse_number(text: str, key: str, kind=float):
    try:
        x = kind(text)
    except ValueError:
        raise ConfigError(f"bad {key} value: {text.strip()!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{key} must be finite, got {text.strip()}")
    return x


def _parse_float_list(value: str, key: str) -> list:
    items = [s for s in value.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{key} grid is empty")
    return [_parse_number(s, key) for s in items]


def _parse_int_list(value: str, key: str) -> list:
    out = []
    for v in _parse_float_list(value, key):
        if v != int(v):
            raise ConfigError(f"{key} entries must be integers, got {v}")
        out.append(int(v))
    return out


def _parse_bool(value: str, key: str) -> bool:
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean for {key}: {value!r}")


# key -> (default, parser); list-valued keys are grids a command may sweep
CONFIG = {
    "epsilon": ("0.2", _parse_float_list),
    "freq_over_h": ("1e4", _parse_float_list),
    "rounds": ("3", _parse_int_list),
    "gate": ("phase_z", lambda value, _key: value.strip()),
    "budget": ("0.03", _parse_number),
    "bisect_tol": ("1e-4", _parse_number),
    "include_decoupling": ("false", _parse_bool),
    "workers": ("1", lambda value, key: _parse_number(value, key, int)),
    "out": ("", lambda value, _key: value.strip()),
}


def read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


# workers and out steer execution, not results: every command takes them, and
# provenance leaves them out, so a rerun on another pool size is byte-identical
RUN_KEYS = ("workers", "out")


def _command_keys(command: str) -> list:
    """The config keys a command takes: the keys its grid names, then RUN_KEYS."""
    return [key for key in CONFIG if key in COMMANDS[command][1] or key in RUN_KEYS]


def resolve_config(command: str, args) -> dict:
    keys = _command_keys(command)
    raw = {key: CONFIG[key][0] for key in keys}
    raw.update(COMMAND_DEFAULTS.get(command, {}))
    if args.config:  # a file may serve several commands: keys this one does not read are ignored
        raw.update((k, v) for k, v in read_config_file(args.config).items() if k in raw)
    for key in keys:
        override = getattr(args, key)
        if override is not None:
            raw[key] = override

    cfg = {key: CONFIG[key][1](raw[key], key) for key in keys}
    for eps in cfg.get("epsilon", ()):
        if not 0.0 <= eps <= 1.0:
            raise ConfigError(f"epsilon {eps} outside [0, 1]")
        if eps == 1.0 and command in DURATION_COMMANDS:
            raise ConfigError(f"{command} needs epsilon below 1: gate durations diverge at 1")
    for f in cfg.get("freq_over_h", ()):
        if f <= 0:
            raise ConfigError(f"freq_over_h {f} must be positive")
    for n in cfg.get("rounds", ()):
        if n < 1 or n % 2 == 0:
            raise ConfigError(f"rounds must be positive odd integers, got {n}")
        if n > faulttol.MAX_ROUNDS:
            raise ConfigError(f"rounds must be at most {faulttol.MAX_ROUNDS}, got {n}")
    for key in ("budget", "bisect_tol"):
        if key in cfg and cfg[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    if cfg["workers"] < 1:
        raise ConfigError("workers must be >= 1")
    return cfg


def _canonical_config(command: str, cfg: dict) -> str:
    parts = [f"command={command}"]
    for key in sorted(k for k in cfg if k not in RUN_KEYS):
        val = cfg[key]
        if isinstance(val, list):
            text = ",".join(repr(v) for v in val)
        else:
            text = repr(val) if not isinstance(val, str) else val
        parts.append(f"{key}={text}")
    return " ".join(parts)


# BLAS thread counts pinned to 1 in pool workers: each worker already takes
# a core, and nested BLAS threads made a two-worker pool slower than serial
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _map_tasks(fn, tasks, workers: int):
    """[fn(*t) for t in tasks], on a pool of single-threaded-BLAS workers.

    Spawned workers read the thread variables when numpy loads, so they are
    set only while the pool starts and restored afterwards.
    """
    processes = min(workers, len(tasks), os.cpu_count() or 1)
    if processes <= 1:
        return [fn(*t) for t in tasks]
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        ctx = multiprocessing.get_context("spawn")
        pool = ctx.Pool(processes=processes)
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    with pool:
        return pool.starmap(fn, tasks)


# Row functions compute one table row from one grid point.  They are module
# level so they pickle into pool workers, and they look library functions up
# on their modules at call time, so a function rebound there (by a tracer,
# say) is the one that runs.


def _fixed_state_row(gate, eps):
    p = pauli_coefficients(zeno.fixed_state(gates.recipe(gate).cycle(eps)).rho)
    return [fmt(eps), fmt(eps if gate == "rx" else 0.0)] + [fmt(p[k]) for k in "XYZ"]


def _eff_h_row(gate, eps):
    coeffs = pauli_coefficients(zeno.effective_hamiltonian(gates.recipe(gate).cycle(eps)))
    return [fmt(eps), fmt(eps if gate == "rx" else 0.0)] + [fmt(c) for c in coeffs.values()]


def _eff_h_columns(cfg):
    spec = gates.recipe(cfg["gate"]).cycle(0.0)
    nregisters = spec.nqubits - spec.n_actuators
    return ["epsilon_i", "epsilon_h"] + [f"c_{s}" for s in pauli_strings(nregisters)]


def _gate_error_row(gate, eps, f):
    run = gates.realized_channel(gate, eps, f)
    infid = 1.0 - entanglement_fidelity(run.superop, gates.recipe(gate).target)
    return [fmt(eps), fmt(f), fmt(infid), str(run.n_periods)]


def _swap_check_row():
    chk = gates.swap_identity_check()
    return [fmt(chk.deviation), fmt(chk.halftime_deviation)]


def _transfer_check_row(mode, eps, f):
    if mode == "ideal":
        gate, eps, f = unitary_channel(gates.RZZ_TARGET), 0.0, 0.0
    else:
        gate = gates.realized_channel("rzz", eps, f).superop
    rep = gates.transfer_independence_report(gate)
    return [mode, fmt(eps), fmt(f), fmt(rep.max_pair_distance), fmt(rep.max_distance_to_rzz)]


def _distill_row(n, eps, f):
    res = faulttol.distill(faulttol.DistillationConfig(rounds=n, eps=eps, freq_over_h=f))
    return [str(n), fmt(eps), fmt(f), fmt(res.p_fail)]


def _threshold_row(f, n, budget, bisect_tol, include_decoupling):
    p = faulttol.threshold(f, n, budget, bisect_tol, include_decoupling)
    return [fmt(f), str(n), fmt(p.eps_star), str(p.iterations)]


def _noise_check_row(eps):
    res = gates.noise_conditions(*gates.depolarizing_fixed_states(eps))
    return [fmt(eps), fmt(res.cross_norm), fmt(res.trz_s),
            str(int(res.pass_c1)), str(int(res.pass_c2))]


# command -> (row function, grid, columns).  The grid lists the row
# function's arguments: a config key, whose value or values are swept, or a
# tuple of fixed values.  Rows follow itertools.product, the first entry
# outermost.  Columns are a list, or a function of the config.
COMMANDS = {
    "fixed-state": (_fixed_state_row, ("gate", "epsilon"),
                    ["epsilon_i", "epsilon_h", "px", "py", "pz"]),
    "eff-h": (_eff_h_row, ("gate", "epsilon"), _eff_h_columns),
    "gate-error": (_gate_error_row, ("gate", "epsilon", "freq_over_h"),
                   ["epsilon", "freq_over_h", "infidelity", "N_periods"]),
    "swap-check": (_swap_check_row, (), ["deviation", "halftime_deviation"]),
    "transfer-check": (_transfer_check_row,
                       (("ideal", "finite_frequency"), "epsilon", "freq_over_h"),
                       ["mode", "epsilon", "freq_over_h", "max_pair_distance",
                        "max_distance_to_rzz"]),
    "distill": (_distill_row, ("rounds", "epsilon", "freq_over_h"),
                ["rounds", "epsilon", "freq_over_h", "p_fail"]),
    "threshold": (_threshold_row,
                  ("freq_over_h", "rounds", "budget", "bisect_tol", "include_decoupling"),
                  ["freq_over_h", "rounds", "epsilon_star", "iterations"]),
    "noise-check": (_noise_check_row, ("epsilon",),
                    ["epsilon", "cross_norm", "trz_s", "pass_c1", "pass_c2"]),
}


def _check_command(command: str, cfg: dict) -> None:
    """Refuse a configuration the command's rows cannot be computed for."""
    gate = cfg.get("gate")
    if gate is not None and gate not in gates.GATE_NAMES:
        raise UnknownGateError(f"unknown gate {gate!r}; known: {', '.join(gates.GATE_NAMES)}")
    if command == "fixed-state" and gates.recipe(gate).cycle(0.0).n_actuators != 1:
        raise ConfigError("fixed-state output is defined for single-actuator gates")
    if command == "transfer-check" and max(len(cfg["epsilon"]), len(cfg["freq_over_h"])) > 1:
        raise ConfigError("transfer-check takes one epsilon and one freq_over_h")


def _axis(cfg: dict, entry):
    if isinstance(entry, tuple):
        return entry
    value = cfg[entry]
    return value if isinstance(value, list) else [value]


def render_table(command: str, cfg: dict, cols, rows) -> str:
    canonical = _canonical_config(command, cfg)
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    lines = [
        f"# nocosim {__version__}",
        f"# {canonical}",
        f"# config-sha256 {digest}",
        ",".join(cols),
    ]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nocosim",
        description="Deterministic sweeps for noisy-drive gate simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value file")
        for key in _command_keys(name):
            p.add_argument(f"--{key}", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.command, args)
        _check_command(args.command, cfg)
        row, grid, columns = COMMANDS[args.command]
        tasks = list(itertools.product(*(_axis(cfg, entry) for entry in grid)))
        rows = _map_tasks(row, tasks, cfg["workers"])
        cols = columns(cfg) if callable(columns) else columns
        table = render_table(args.command, cfg, cols, rows)
        summary = f"{args.command}: {len(rows)} rows"
        if cfg["out"]:
            try:
                with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
                    fh.write(table)
            except OSError as exc:
                print(f"error: cannot write {cfg['out']}: {exc}", file=sys.stderr)
                return 5
            print(f"{summary} -> {cfg['out']}")
        else:
            sys.stdout.write(table)
            print(summary, file=sys.stderr)
        return 0
    except (ConfigError, OverflowError) as exc:  # overflow: 2^53+ drive periods
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnknownGateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except faulttol.ThresholdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:  # invariant violations and anything unforeseen
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
