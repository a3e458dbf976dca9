"""The benchmark traces library functions by name; keep every name live.

``perfbench/run.py`` reports a traced function that has gone as absent and
still passes its self-check, so a refactor that deleted one would blank
that function's metrics without a failing run.  These tests read the
benchmark's list of traced functions and check each against the package,
and check that its per-gate metrics cover the gate catalog.
"""

import importlib
import types
from pathlib import Path

from nocosim import gates

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# gone from the library; the benchmark still lists them and reports them absent
KNOWN_ABSENT = {
    ("faulttol", "threshold_sweep"),
    ("channels", "pauli_twirl"),
    ("gates", "gate_error_channel"),
    ("qcore", "matrix_power_int"),
}


def _spans():
    # exec the source rather than import it, so nothing is written beside it
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_function_exists():
    traced = [(mod, fn) for mod, fn, _ in _spans().TRACED]
    assert len(traced) > len(KNOWN_ABSENT)
    missing = [
        f"{mod}.{fn}"
        for mod, fn in traced
        if (mod, fn) not in KNOWN_ABSENT
        and not callable(getattr(importlib.import_module(f"nocosim.{mod}"), fn, None))
    ]
    assert not missing, f"traced by perfbench/spans.py but gone: {missing}"


def test_per_gate_metrics_cover_the_catalog():
    # a gate added to the catalog without per-gate metrics would go unmeasured
    assert set(_spans().GATES) == set(gates.GATE_NAMES)
