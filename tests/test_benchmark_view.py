"""The benchmark traces library functions by name; keep every name live.

``perfbench/run.py`` reports a traced function that has gone as absent and
still passes its self-check, so a refactor that deleted one would blank
that function's metrics without a failing run.  This test reads the
benchmark's list of traced functions and checks each against the package.
"""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# gone from the library; the benchmark still lists it and reports it absent
KNOWN_ABSENT = {("faulttol", "threshold_sweep")}


def _traced():
    # exec the source rather than import it, so nothing is written beside it
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module.TRACED


def test_every_traced_function_exists():
    traced = [(mod, fn) for mod, fn, _ in _traced()]
    assert len(traced) > len(KNOWN_ABSENT)
    missing = [
        f"{mod}.{fn}"
        for mod, fn in traced
        if (mod, fn) not in KNOWN_ABSENT
        and not callable(getattr(importlib.import_module(f"nocosim.{mod}"), fn, None))
    ]
    assert not missing, f"traced by perfbench/spans.py but gone: {missing}"
