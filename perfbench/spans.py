"""Span tracing of nocosim's public functions, installed from outside the package.

``install`` wraps each function in ``TRACED`` and rebinds the wrapper in
every ``nocosim`` module namespace that holds the original object, so calls
through ``from .qcore import matrix_power_int`` style imports are timed
too.  A function missing from its module is reported as absent instead of
failing, so the benchmark keeps running after a refactor deletes it.

Spans stay in memory.  A forked pool worker starts with an empty span list
and appends its spans to ``<spans path>.worker-<pid>`` each time its
outermost span closes; ``Tracer.dump`` merges those files into the parent's
output.  Workers created by ``spawn`` or ``forkserver`` import nocosim
afresh and are not traced.
"""

import functools
import glob
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict

# gates whose realized channels get per-call latency metrics
GATES = ("rz", "phase_z", "rx", "rzz", "rzz_prime")


def _power_attrs(args, _result):
    m, n = args["m"], int(args["n"])
    return {"n": n, "d": int(m.shape[0])}


def _noco_attrs(_args, result):
    return {"n_periods": int(result.n_periods)}


def _gate_attrs(args, _result):
    return {"gate": str(args["name"])}


def _distill_attrs(_args, result):
    return {"leaves": len(result.outcome_indices)}


def _sweep_attrs(args, _result):
    return {"workers": int(args["workers"])}


# (module, function, attribute extractor or None)
TRACED = (
    ("cli", "main", None),
    ("faulttol", "threshold_sweep", _sweep_attrs),
    ("faulttol", "threshold", None),
    ("faulttol", "vacuum_error_budget", None),
    ("faulttol", "distill", _distill_attrs),
    ("gates", "gate_error_channel", None),
    ("gates", "realized_channel", _gate_attrs),
    ("zeno", "noco_channel", _noco_attrs),
    ("qcore", "matrix_power_int", _power_attrs),
    ("channels", "pauli_twirl", None),
    ("channels", "entanglement_fidelity", None),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in TRACED)


class Tracer:
    """Records one span per call of a wrapped function.

    A span is ``[name, parent id, start, end, attrs]``; its id is its index
    in the recording process's list, and times come from the system-wide
    monotonic clock, so spans of forked workers share the parent's time base.
    """

    def __init__(self, spans_path: str):
        self.spans_path = spans_path
        self.owner_pid = os.getpid()
        self.spans = []
        self.stack = []
        self.flushed = 0
        os.register_at_fork(after_in_child=self._forget_parent)

    def _forget_parent(self):
        self.spans = []
        self.stack = []
        self.flushed = 0

    def wrap(self, name: str, fn, extract=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if extract is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[4] = extract(bound.arguments, result)
                except (TypeError, KeyError, AttributeError, ValueError):
                    span[4] = None  # signature or result changed shape
            if not self.stack and os.getpid() != self.owner_pid:
                self._flush_worker()
            return result

        return traced

    def _flush_worker(self):
        path = f"{self.spans_path}.worker-{os.getpid()}"
        with open(path, "a", encoding="utf-8") as fh:
            for sid in range(self.flushed, len(self.spans)):
                fh.write(json.dumps([os.getpid(), sid] + self.spans[sid]) + "\n")
        self.flushed = len(self.spans)

    def dump(self, absent):
        """Write own and worker spans as one JSON document to ``spans_path``."""
        rows = [[self.owner_pid, sid] + span for sid, span in enumerate(self.spans)]
        for path in sorted(glob.glob(f"{glob.escape(self.spans_path)}.worker-*")):
            with open(path, encoding="utf-8") as fh:
                rows.extend(json.loads(line) for line in fh)
            os.remove(path)
        with open(self.spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "absent": sorted(absent)}, fh)


def install(tracer: Tracer) -> list:
    """Wrap every function in TRACED; return the names that were absent."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "nocosim" or name.startswith("nocosim.")]
    absent = []
    for mod_name, fn_name, extract in TRACED:
        mod = importlib.import_module(f"nocosim.{mod_name}")
        original = getattr(mod, fn_name, None)
        if not callable(original):
            absent.append(f"{mod_name}.{fn_name}")
            continue
        wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original, extract)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return absent


def _matmuls(n: int) -> int:
    """Products square-and-multiply spends on m**n: squarings plus multiplies."""
    return n.bit_length() - 1 + bin(n).count("1") if n > 0 else 0


def _p50_p90_ms(durations):
    if len(durations) < 2:
        return (durations[0] * 1e3,) * 2 if durations else (0.0, 0.0)
    q = statistics.quantiles(durations, n=10, method="inclusive")
    return q[4] * 1e3, q[8] * 1e3


def layer_metrics(docs):
    """Per-layer metrics over the span documents that ``Tracer.dump`` wrote.

    Returns ``(metrics, self_s, absent)``: metrics maps a name to
    ``(value, unit)``; self_s maps each span name to its summed self time
    (span duration minus the durations of its direct children, summed over
    all processes); absent lists traced functions the program lacks.
    Functions that were never called report zero.
    """
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    self_s = defaultdict(float)
    gate_calls = defaultdict(list)   # gate -> [(duration, self time)]
    n_periods = matmuls = leaves = 0
    flop = nbytes = sweep_capacity = 0.0
    absent = set()
    for doc in docs:
        absent.update(doc["absent"])
        child_s = defaultdict(float)
        for pid, _sid, _name, parent, start, end, _attrs in doc["spans"]:
            if parent >= 0:
                child_s[(pid, parent)] += end - start
        for pid, sid, name, _parent, start, end, attrs in doc["spans"]:
            dur = end - start
            own = dur - child_s[(pid, sid)]
            calls[name] += 1
            inclusive[name] += dur
            self_s[name] += own
            attrs = attrs or {}
            if "gate" in attrs:
                gate_calls[attrs["gate"]].append((dur, own))
            n_periods += attrs.get("n_periods", 0)
            leaves += attrs.get("leaves", 0)
            if "n" in attrs:
                k = _matmuls(attrs["n"])
                matmuls += k
                flop += 8.0 * attrs["d"] ** 3 * k
                nbytes += 48.0 * attrs["d"] ** 2 * k
            if name == "faulttol.threshold_sweep":
                sweep_capacity += attrs.get("workers", 1) * dur

    metrics = {}
    for name in SPAN_NAMES:
        if name in ("gates.realized_channel", "faulttol.threshold_sweep"):
            continue
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for gate in GATES:
        samples = gate_calls[gate]
        p50, p90 = _p50_p90_ms([d for d, _ in samples])
        prefix = f"gates.realized_channel.{gate}"
        metrics[f"{prefix}.calls"] = (len(samples), "count")
        metrics[f"{prefix}.self_s"] = (sum(s for _, s in samples), "s")
        metrics[f"{prefix}.p50_ms"] = (p50, "ms")
        metrics[f"{prefix}.p90_ms"] = (p90, "ms")
    metrics["faulttol.threshold_sweep.s"] = (inclusive["faulttol.threshold_sweep"], "s")
    metrics["faulttol.pool.efficiency"] = (
        inclusive["faulttol.threshold"] / sweep_capacity if sweep_capacity else 0.0,
        "ratio",
    )
    metrics["faulttol.distill.leaves"] = (leaves, "count")
    metrics["zeno.noco_channel.n_periods"] = (n_periods, "count")
    metrics["qcore.matrix_power_int.matmuls"] = (matmuls, "count")
    metrics["qcore.matrix_power_int.gflop_computed"] = (flop / 1e9, "GFLOP")
    metrics["qcore.matrix_power_int.gbyte_computed"] = (nbytes / 1e9, "GB")
    return metrics, dict(self_s), sorted(absent)
