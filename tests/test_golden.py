"""CLI tables against golden copies under tests/golden/.

Provenance lines, headers, text cells and integer columns must match
exactly.  Floats must satisfy |a - b| <= 1e-10 * max(|a|, |b|) + 1e-12.
The absolute 1e-12 floor is there only for the deviation columns of
`swap-check` and `transfer-check`, which sit at roundoff (about 1e-15)
and carry no relative precision.  Every cell must also be in the one
format `cli.render_table` writes: a float exactly as `cli.fmt` prints it,
an integer in decimal.  Never regenerate a golden table to make this test
pass: a mismatch means the program's output changed.
"""

from pathlib import Path

import pytest

from nocosim.cli import fmt, main

GOLDEN = Path(__file__).parent / "golden"

REL_TOL = 1e-10
ABS_TOL = 1e-12

# golden file -> command line that produced it
COMMANDS = {
    "fixed-state.csv": ["fixed-state"],
    "eff-h.csv": ["eff-h"],
    "gate-error.csv": ["gate-error"],
    "gate-error-rzz_prime.csv": [
        "gate-error", "--gate", "rzz_prime", "--epsilon", "0.1,0.3",
        "--freq_over_h", "1e3,1e5",
    ],
    "swap-check.csv": ["swap-check"],
    "transfer-check.csv": ["transfer-check"],
    "distill.csv": ["distill"],
    # three round counts up to MAX_ROUNDS, ideal and noisy drive, two frequencies
    "distill-grid.csv": [
        "distill", "--rounds", "3,101,1029", "--epsilon", "0,0.3", "--freq_over_h", "1e3,1e4",
    ],
    "threshold.csv": ["threshold", "--freq_over_h", "1e3", "--rounds", "9"],
    # the paper's headline table: the default sweep, f 1e3-1e5 by rounds 9-17
    "threshold-default.csv": ["threshold"],
    # the only table with idle terms in the budget
    "threshold-decoupling.csv": [
        "threshold", "--freq_over_h", "1e4", "--rounds", "3", "--include_decoupling", "true",
    ],
    # idle terms at a higher frequency, where the residuals are small next to the gates'
    "threshold-decoupling-1e5.csv": [
        "threshold", "--freq_over_h", "1e5", "--rounds", "5", "--include_decoupling", "true",
    ],
    "noise-check.csv": ["noise-check"],
}


def _cells_agree(expected: str, actual: str) -> bool:
    if expected == actual:
        return True
    if "e" not in expected.lower() and "." not in expected:
        return False  # integer and text cells must match exactly
    try:
        a, b = float(expected), float(actual)
    except ValueError:
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def _in_cell_format(cell: str) -> bool:
    """A float cell as fmt writes it, an integer cell in decimal, or text."""
    try:
        return cell == str(int(cell))
    except ValueError:
        pass
    try:
        return cell == fmt(float(cell))
    except ValueError:
        return True  # text, such as transfer-check's mode


def test_every_golden_table_has_a_command():
    assert sorted(p.name for p in GOLDEN.glob("*.csv")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_table_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(COMMANDS[name] + ["--out", str(out)]) == 0
    expected = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
    actual = out.read_text(encoding="utf-8").splitlines()
    assert len(actual) == len(expected)
    for lineno, (exp, act) in enumerate(zip(expected, actual), 1):
        if exp.startswith("#") or lineno == 4:  # provenance and header
            assert act == exp, f"{name}:{lineno}"
            continue
        exp_cells, act_cells = exp.split(","), act.split(",")
        assert len(act_cells) == len(exp_cells), f"{name}:{lineno}"
        for col, (e, a) in enumerate(zip(exp_cells, act_cells)):
            assert _cells_agree(e, a), f"{name}:{lineno} column {col}: {a} != {e}"
            assert _in_cell_format(a), f"{name}:{lineno} column {col}: {a} is not a cell"
