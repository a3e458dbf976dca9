"""Command-line front end: parameter sweeps written as deterministic CSV.

Every command takes only the config keys its COMMANDS grid names, plus
workers and out.  It resolves them from built-in defaults, an optional flat
key=value config file, and command-line overrides (highest precedence),
then writes a comma-separated table with '#'-prefixed provenance lines:
package version, command, the resolved keys, and their hash.  A threshold
point without a crossing adds a '# error:' line after the rows.  No
timestamps or environment data are recorded, so identical configurations
produce byte-identical tables, also when computed with a worker pool.
"""

import argparse
import gc
import itertools
import math
import os
import sys
# CPython's built-in SHA-256, as in random's _sha512: hashlib maps OpenSSL's
# libcrypto, 3.3 MB resident.  Builds that omit it still have hashlib's.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__, faulttol, gates, zeno
from .channels import unitary_channel
from .qcore import pauli_coefficients, pauli_strings

# What the imports built (about 21k tracked objects: numpy's, nocosim's,
# argparse's) lives until the process ends, so no full collection, the
# interpreter's last one at exit included, needs to walk it again.
gc.freeze()

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
    """Bad key, value, or grid."""


def fmt(x: float) -> str:
    return "{:.11e}".format(float(x))


def _number(domain: str, test, kind=float):
    """A parser of one number of the given kind, refused unless test(x)."""
    def parse(text: str, key: str):
        try:
            x = kind(text)
        except ValueError:
            raise ConfigError(f"bad {key} value: {text.strip()!r}") from None
        if not test(x):
            raise ConfigError(f"{key} must be {domain}, got {text.strip()}")
        return x
    return parse


def _whole(text: str) -> int:
    """int(text), also where text writes a whole number as a float: '5.0', '1e3'."""
    x = float(text)
    return int(x) if x.is_integer() else int(text)


def _grid(parse_entry):
    """A parser of a comma-separated grid whose entries parse_entry reads."""
    def parse(value: str, key: str) -> list:
        entries = value.split(",")
        if not value.strip():
            raise ConfigError(f"{key} grid is empty")
        if not all(s.strip() for s in entries):  # refused, not shortened
            raise ConfigError(f"{key} grid has an empty entry: {value.strip()!r}")
        return [parse_entry(s, key) for s in entries]
    return parse


def _parse_bool(value: str, key: str) -> bool:
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean for {key}: {value!r}")


_positive = _number("positive and finite", lambda x: 0.0 < x < math.inf)
_parse_rounds = _number(f"odd and in [1, {faulttol.MAX_ROUNDS}]",
                        lambda n: n % 2 == 1 and 1 <= n <= faulttol.MAX_ROUNDS, _whole)

# key -> (default, parser).  Parsers refuse values outside the key's domain; lists are grids.
CONFIG = {
    "epsilon": ("0.2", _grid(_number("in [0, 1]", lambda x: 0.0 <= x <= 1.0))),
    "freq_over_h": ("1e4", _grid(_positive)),
    "rounds": ("3", _grid(_parse_rounds)),
    "gate": ("phase_z", lambda value, _key: value.strip()),
    "budget": ("0.03", _positive),
    "bisect_tol": ("1e-4", _positive),
    "include_decoupling": ("false", _parse_bool),
    "workers": ("1", _number("at least 1", lambda n: n >= 1, _whole)),
    "out": ("", lambda value, _key: value.strip()),
}


def read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is not a key
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    out, key_lines = {}, {}
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
        if key in key_lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {key_lines[key]}")
        key_lines[key] = lineno
        out[key] = value.strip()
    return out


# workers and out steer execution, not results: every command takes them, and
# provenance leaves them out, so a rerun on another pool size is byte-identical
RUN_KEYS = ("workers", "out")


def _command_keys(command: str) -> list:
    """The config keys a command takes: the keys its grid names, then RUN_KEYS."""
    grid = COMMANDS[command][1]
    return [key for key in CONFIG if key in grid or [key] in grid or key in RUN_KEYS]


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
    return {key: CONFIG[key][1](raw[key], key) for key in keys}


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


def _map_tasks(fn, tasks, workers: int):
    """[fn(*t) for t in tasks], on a pool of at most one worker per CPU this
    process may run on.  Spawned workers inherit the BLAS thread setting that
    ``import nocosim`` made."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    processes = min(workers, len(tasks), cpus or 1)
    if processes <= 1:
        return [fn(*t) for t in tasks]
    import multiprocessing  # only here: a serial run does not pay for the import

    with multiprocessing.get_context("spawn").Pool(processes=processes) as pool:
        return pool.starmap(fn, tasks)


def _row_or_error(row, *args):
    """row(*args), or the message of the ThresholdError it raises.

    A threshold point without a crossing costs its own row, not the table.
    """
    try:
        return row(*args)
    except faulttol.ThresholdError as exc:
        return str(exc)


# Row functions compute one table row from one grid point (threshold's, one
# row per round count from one frequency).  They return the row's values (floats, ints, 0/1 flags as ints, text), and render_table
# formats them.  They are module level so they pickle into pool workers, and
# they look library functions up on their modules at call time, so a function
# rebound there (by a tracer, say) is the one that runs.


def _fixed_state_row(gate, eps):
    rec = gates.recipe(gate)
    p = pauli_coefficients(rec.rho_u(eps))
    return [eps, eps if rec.hadamard else 0.0] + [p[k] for k in "XYZ"]


def _eff_h_row(gate, eps):
    rec = gates.recipe(gate)
    coeffs = pauli_coefficients(zeno.effective_hamiltonian(rec.cycle(eps)))
    return [eps, eps if rec.hadamard else 0.0, *coeffs.values()]


def _eff_h_columns(cfg):
    nregisters = len(gates.recipe(cfg["gate"]).target).bit_length() - 1
    return ["epsilon_i", "epsilon_h"] + [f"c_{s}" for s in pauli_strings(nregisters)]


def _gate_error_row(gate, eps, f):
    return [eps, f, *gates.gate_infidelity(gate, eps, f)]


def _swap_check_row():
    return gates.swap_identity_check()


def _transfer_check_row(mode, eps, f):
    if mode == "ideal":
        gate, eps, f = unitary_channel(gates.RZZ_TARGET), 0.0, 0.0
    else:
        gate = gates.realized_channel("rzz", eps, f)
    return [mode, eps, f, *gates.transfer_independence_report(gate)]


def _distill_row(n, eps, f):
    return [n, eps, f, faulttol.distill(n, eps, f)]


def _threshold_rows(f, rounds, budget, bisect_tol, include_decoupling):
    # one frequency's round counts, in order, share one pass's table of terms;
    # a count without a crossing costs its own row
    search = faulttol.ThresholdPass(f, budget, bisect_tol, include_decoupling)

    def row(n):
        p = search.threshold(n)
        return [f, n, p.eps_star, p.iterations]

    return [_row_or_error(row, n) for n in rounds]


def _noise_check_row(eps):
    cross_norm, trz_s, c1, c2 = gates.noise_conditions(*gates.depolarizing_fixed_states(eps))
    return [eps, cross_norm, trz_s, int(c1), int(c2)]


# command -> (row function, grid, columns).  The grid lists the row
# function's arguments: a config key, whose value or values are swept, or a
# tuple of fixed values.  Rows follow itertools.product, the first entry
# outermost.  A key in a list, [key], passes the key's whole grid to one
# call, which returns a row or error message per value, in order.  Columns
# are a list, or a function of the config.
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
    "threshold": (_threshold_rows,
                  ("freq_over_h", ["rounds"], "budget", "bisect_tol", "include_decoupling"),
                  ["freq_over_h", "rounds", "epsilon_star", "iterations"]),
    "noise-check": (_noise_check_row, ("epsilon",),
                    ["epsilon", "cross_norm", "trz_s", "pass_c1", "pass_c2"]),
}


def _check_command(command: str, cfg: dict) -> None:
    """Refuse a configuration the command's rows cannot be computed for."""
    if "freq_over_h" in cfg and 1.0 in cfg.get("epsilon", ()):
        raise ConfigError(f"{command} needs epsilon below 1: driven gate durations diverge at 1")
    rec = gates.recipe(cfg["gate"]) if "gate" in cfg else None  # exit 3 before any row
    if command == "fixed-state" and rec.n_actuators != 1:
        raise ConfigError("fixed-state output is defined for single-actuator gates")
    if command == "transfer-check" and max(len(cfg["epsilon"]), len(cfg["freq_over_h"])) > 1:
        raise ConfigError("transfer-check takes one epsilon and one freq_over_h")


def _axis(cfg: dict, entry):
    if isinstance(entry, tuple):
        return entry
    if isinstance(entry, list):
        return [cfg[entry[0]]]
    value = cfg[entry]
    return value if isinstance(value, list) else [value]


def render_table(command: str, cfg: dict, cols, rows, errors) -> str:
    """Provenance lines, the header, the rows, then one '# error:' line per failed point.

    The one place a cell is formatted: floats by fmt, anything else by str.
    """
    canonical = _canonical_config(command, cfg)
    digest = sha256(canonical.encode()).hexdigest()
    lines = [
        f"# nocosim {__version__}",
        f"# {canonical}",
        f"# config-sha256 {digest}",
        ",".join(cols),
    ]
    lines.extend(",".join(fmt(x) if isinstance(x, float) else str(x) for x in row) for row in rows)
    lines.extend(f"# error: {message}" for message in errors)
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


EXIT_CODES = {  # exception -> exit code; any other (a broken invariant, say) exits 1
    ConfigError: 2,
    OverflowError: 2,  # 2^53+ drive periods
    gates.UnknownGateError: 3,
    OSError: 5,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.command, args)
        _check_command(args.command, cfg)
        row, grid, columns = COMMANDS[args.command]
        tasks = [(row, *t) for t in itertools.product(*(_axis(cfg, entry) for entry in grid))]
        results = _map_tasks(_row_or_error, tasks, cfg["workers"])
        if any(isinstance(entry, list) for entry in grid):  # each task returned a list
            results = list(itertools.chain.from_iterable(results))
        rows = [r for r in results if not isinstance(r, str)]
        errors = [r for r in results if isinstance(r, str)]
        cols = columns(cfg) if callable(columns) else columns
        table = render_table(args.command, cfg, cols, rows, errors)
        summary = f"{args.command}: {len(rows)} rows"
        if cfg["out"]:
            with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
                fh.write(table)
            print(f"{summary} -> {cfg['out']}")
        else:
            sys.stdout.write(table)
            print(summary, file=sys.stderr)
        for message in errors:
            print(f"error: {message}", file=sys.stderr)
        return 4 if errors else 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in EXIT_CODES.items() if isinstance(exc, cls)), 1)


if __name__ == "__main__":
    sys.exit(main())
