"""Command-line front end: parameter sweeps written as deterministic CSV.

Every command resolves its configuration from built-in defaults, an
optional flat key=value config file, and command-line overrides (highest
precedence), then writes a comma-separated table with '#'-prefixed
provenance lines: package version, command, the fully resolved
configuration, and its hash.  No timestamps or environment data are
recorded, so identical configurations produce byte-identical tables, also
when computed with a worker pool.
"""

import argparse
import hashlib
import math
import sys
from multiprocessing import Pool

from . import __version__, faulttol, gates, zeno
from .channels import entanglement_fidelity
from .qcore import bloch_vector, pauli_coefficients

CONFIG_KEYS = (
    "epsilon",
    "freq_over_h",
    "rounds",
    "gate",
    "budget",
    "bisect_tol",
    "include_decoupling",
    "workers",
    "out",
)

GLOBAL_DEFAULTS = {
    "epsilon": "0.2",
    "freq_over_h": "1e4",
    "rounds": "3",
    "gate": "phase_z",
    "budget": "0.03",
    "bisect_tol": "1e-4",
    "include_decoupling": "false",
    "workers": "1",
    "out": "",
}

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


def read_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value.strip()
    return out


def resolve_config(command: str, args) -> dict:
    raw = dict(GLOBAL_DEFAULTS)
    raw.update(COMMAND_DEFAULTS.get(command, {}))
    if args.config:
        raw.update(read_config_file(args.config))
    for key in CONFIG_KEYS:
        override = getattr(args, key, None)
        if override is not None:
            raw[key] = override

    cfg = {
        "epsilon": _parse_float_list(raw["epsilon"], "epsilon"),
        "freq_over_h": _parse_float_list(raw["freq_over_h"], "freq_over_h"),
        "rounds": _parse_int_list(raw["rounds"], "rounds"),
        "gate": raw["gate"].strip(),
        "budget": _parse_number(raw["budget"], "budget"),
        "bisect_tol": _parse_number(raw["bisect_tol"], "bisect_tol"),
        "include_decoupling": _parse_bool(raw["include_decoupling"], "include_decoupling"),
        "workers": _parse_number(raw["workers"], "workers", int),
        "out": raw["out"].strip(),
    }
    for eps in cfg["epsilon"]:
        if not 0.0 <= eps <= 1.0:
            raise ConfigError(f"epsilon {eps} outside [0, 1]")
        if eps == 1.0 and command in DURATION_COMMANDS:
            raise ConfigError(f"{command} needs epsilon below 1: gate durations diverge at 1")
    for f in cfg["freq_over_h"]:
        if f <= 0:
            raise ConfigError(f"freq_over_h {f} must be positive")
    for n in cfg["rounds"]:
        if n < 1 or n % 2 == 0:
            raise ConfigError(f"rounds must be positive odd integers, got {n}")
    if cfg["budget"] <= 0:
        raise ConfigError("budget must be positive")
    if cfg["bisect_tol"] <= 0:
        raise ConfigError("bisect_tol must be positive")
    if cfg["workers"] < 1:
        raise ConfigError("workers must be >= 1")
    return cfg


# out and workers steer execution, not results; keep them out of provenance
# so reruns with a different pool size stay byte-identical
PROVENANCE_KEYS = tuple(k for k in CONFIG_KEYS if k not in ("workers", "out"))


def _canonical_config(command: str, cfg: dict) -> str:
    parts = [f"command={command}"]
    for key in sorted(PROVENANCE_KEYS):
        val = cfg[key]
        if isinstance(val, list):
            text = ",".join(repr(v) for v in val)
        else:
            text = repr(val) if not isinstance(val, str) else val
        parts.append(f"{key}={text}")
    return " ".join(parts)


def _require_catalog_gate(name: str) -> None:
    if name not in gates.GATE_NAMES:
        raise UnknownGateError(
            f"unknown gate {name!r}; known: {', '.join(gates.GATE_NAMES)}"
        )


def _map_tasks(fn, tasks, workers: int):
    if workers > 1 and len(tasks) > 1:
        with Pool(processes=workers) as pool:
            return pool.map(fn, tasks)
    return [fn(t) for t in tasks]


# worker entry points must be module level so they pickle


def _gate_error_task(task):
    gate, eps, f = task
    run = gates.realized_channel(gate, eps, f)
    fid = entanglement_fidelity(run.channel, gates.recipe(gate).target)
    return eps, f, 1.0 - fid, run.n_periods


def _distill_task(task):
    n, eps, f = task
    res = faulttol.distill(faulttol.DistillationConfig(rounds=n, eps=eps, freq_over_h=f))
    return n, eps, f, res.p_fail


def cmd_fixed_state(cfg):
    _require_catalog_gate(cfg["gate"])
    rec = gates.recipe(cfg["gate"])
    if len(rec.layout.actuators) != 1:
        raise ConfigError("fixed-state output is defined for single-actuator gates")
    has_hadamard = cfg["gate"] == "rx"
    rows = []
    for eps in cfg["epsilon"]:
        fs = zeno.fixed_state(rec.cycle(eps))
        p = bloch_vector(fs.rho)
        eps_h = eps if has_hadamard else 0.0
        rows.append([fmt(eps), fmt(eps_h), fmt(p[0]), fmt(p[1]), fmt(p[2])])
    cols = ["epsilon_i", "epsilon_h", "px", "py", "pz"]
    return cols, rows, f"fixed-state: {len(rows)} rows for gate {cfg['gate']}"


def cmd_eff_h(cfg):
    _require_catalog_gate(cfg["gate"])
    rec = gates.recipe(cfg["gate"])
    has_hadamard = cfg["gate"] == "rx"
    rows = []
    cols = None
    for eps in cfg["epsilon"]:
        hq = zeno.effective_hamiltonian(rec.cycle(eps))
        coeffs = pauli_coefficients(hq)
        if cols is None:
            cols = ["epsilon_i", "epsilon_h"] + [f"c_{s}" for s in coeffs]
        eps_h = eps if has_hadamard else 0.0
        rows.append([fmt(eps), fmt(eps_h)] + [fmt(c) for c in coeffs.values()])
    return cols, rows, f"eff-h: {len(rows)} rows for gate {cfg['gate']}"


def cmd_gate_error(cfg):
    _require_catalog_gate(cfg["gate"])
    if gates.recipe(cfg["gate"]).duration_rule is None:
        raise ConfigError("gate-error needs a gate with a duration rule")
    tasks = [
        (cfg["gate"], eps, f) for eps in cfg["epsilon"] for f in cfg["freq_over_h"]
    ]
    results = _map_tasks(_gate_error_task, tasks, cfg["workers"])
    rows = [
        [fmt(eps), fmt(f), fmt(infid), str(n)] for eps, f, infid, n in results
    ]
    cols = ["epsilon", "freq_over_h", "infidelity", "N_periods"]
    return cols, rows, f"gate-error: {len(rows)} rows for gate {cfg['gate']}"


def cmd_swap_check(cfg):
    chk = gates.swap_identity_check()
    rows = [[fmt(chk.deviation), fmt(chk.halftime_deviation)]]
    cols = ["deviation", "halftime_deviation"]
    return cols, rows, f"swap-check: deviation {chk.deviation:.3e}"


def cmd_transfer_check(cfg):
    eps = cfg["epsilon"][0]
    f = cfg["freq_over_h"][0]
    rows = []
    for mode in ("ideal", "finite_frequency"):
        rep = gates.transfer_independence_report(mode, eps, f)
        rows.append([
            mode,
            fmt(eps if mode == "finite_frequency" else 0.0),
            fmt(f if mode == "finite_frequency" else 0.0),
            fmt(rep.max_pair_distance),
            fmt(rep.max_distance_to_rzz),
        ])
    cols = ["mode", "epsilon", "freq_over_h", "max_pair_distance", "max_distance_to_rzz"]
    return cols, rows, "transfer-check: 2 rows"


def cmd_distill(cfg):
    tasks = [
        (n, eps, f)
        for n in cfg["rounds"]
        for eps in cfg["epsilon"]
        for f in cfg["freq_over_h"]
    ]
    results = _map_tasks(_distill_task, tasks, cfg["workers"])
    rows = [
        [str(n), fmt(eps), fmt(f), fmt(pf)] for n, eps, f, pf in results
    ]
    cols = ["rounds", "epsilon", "freq_over_h", "p_fail"]
    return cols, rows, f"distill: {len(rows)} rows"


def cmd_threshold(cfg):
    points = faulttol.threshold_sweep(
        cfg["freq_over_h"],
        cfg["rounds"],
        budget=cfg["budget"],
        bisect_tol=cfg["bisect_tol"],
        include_decoupling=cfg["include_decoupling"],
        workers=cfg["workers"],
    )
    rows = [
        [fmt(p.freq_over_h), str(p.rounds), fmt(p.eps_star), str(p.iterations)]
        for p in points
    ]
    cols = ["freq_over_h", "rounds", "epsilon_star", "iterations"]
    return cols, rows, f"threshold: {len(rows)} points"


def cmd_noise_check(cfg):
    rows = []
    for eps in cfg["epsilon"]:
        rho_i, rho_h, rho_s = gates.depolarizing_fixed_states(eps)
        res = gates.noise_conditions(rho_i, rho_h, rho_s)
        rows.append([
            fmt(eps),
            fmt(res.cross_norm),
            fmt(res.trz_s),
            str(int(res.pass_c1)),
            str(int(res.pass_c2)),
        ])
    cols = ["epsilon", "cross_norm", "trz_s", "pass_c1", "pass_c2"]
    n_fail = sum(1 for r in rows if r[3] == "0" or r[4] == "0")
    return cols, rows, f"noise-check: {len(rows)} rows, {n_fail} failing"


COMMANDS = {
    "fixed-state": cmd_fixed_state,
    "eff-h": cmd_eff_h,
    "gate-error": cmd_gate_error,
    "swap-check": cmd_swap_check,
    "transfer-check": cmd_transfer_check,
    "distill": cmd_distill,
    "threshold": cmd_threshold,
    "noise-check": cmd_noise_check,
}


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
        for key in CONFIG_KEYS:
            p.add_argument(f"--{key}", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.command, args)
        cols, rows, summary = COMMANDS[args.command](cfg)
        table = render_table(args.command, cfg, cols, rows)
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
    except ConfigError as exc:
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
