"""Accuracy ledger: every pinned gate-error value against the 40-digit oracle.

Not a test module; run it from the repository root:

    PYTHONPATH=src:tests python tests/oracle_ledger.py

For each row of the seed-0 ``gate-grid`` reference tables and the
``gate-error`` golden tables it prints the pinned infidelity, the
``register_oracle.infidelity`` value and the pinned value's relative error,
then the worst relative error per gate.  The tables print 12 significant
digits, so errors below about 5e-12 are their print rounding.  Last, it
prints the relative error of each distillation round rate
(``faulttol._round_rates``) against ``register_oracle.oracle_rates``.  The
tables are only read.
"""

from itertools import product
from pathlib import Path

import numpy as np
from register_oracle import infidelity, oracle_rates

from nocosim.faulttol import _round_rates

ROOT = Path(__file__).resolve().parent.parent
TABLES = (sorted((ROOT / "perfbench" / "reference" / "gate-grid").glob("cycle0-cmd*.csv"))
          + sorted((ROOT / "tests" / "golden").glob("gate-error*.csv")))
RATE_EPS = (0.0, 0.05, 0.2, 0.5, 0.9)
RATE_FREQS = (1e3, 1e4, 1e5, 1e6)


def relative_error(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact) if exact else abs(value)


def pinned_rows(path: Path):
    """(line number, gate, epsilon, freq_over_h, infidelity) of a gate-error table."""
    lines = path.read_text(encoding="utf-8").splitlines()
    config = dict(item.split("=", 1) for item in lines[1][2:].split())
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    for lineno, line in enumerate(lines[header + 1:], header + 2):
        if not line.startswith("#"):
            eps, f, infid, _ = line.split(",")
            yield lineno, config["gate"], float(eps), float(f), float(infid)


def main() -> None:
    worst, counts = {}, {}
    print("table:line,gate,epsilon,freq_over_h,pinned,oracle,rel_error")
    for path in TABLES:
        name = path.relative_to(ROOT)
        for lineno, gate, eps, f, pinned in pinned_rows(path):
            exact = infidelity(gate, eps, f)
            err = relative_error(pinned, exact)
            worst[gate] = max(worst.get(gate, (-1.0,)), (err, f"{name}:{lineno}", eps, f))
            counts[gate] = counts.get(gate, 0) + 1
            print(f"{name}:{lineno},{gate},{eps!r},{f!r},{pinned:.11e},{exact:.11e},{err:.2e}")

    print("\nworst per gate: gate,rows,rel_error,table:line,epsilon,freq_over_h")
    for gate in sorted(worst):
        err, where, eps, f = worst[gate]
        print(f"{gate},{counts[gate]},{err:.2e},{where},{eps!r},{f!r}")

    print("\nround rates: epsilon,freq_over_h,rel_error of +|0,-|0,+|1,-|1")
    for eps, f in product(RATE_EPS, RATE_FREQS):
        exact = oracle_rates(eps, f)
        got = _round_rates(eps, f)
        errs = [relative_error(g, e) for g, e in zip(np.ravel(got), np.ravel(exact))]
        print(f"{eps!r},{f!r}," + ",".join(f"{e:.2e}" for e in errs))


if __name__ == "__main__":
    main()
