"""Smoke test of the benchmark: every workload at a tiny size, traced and not.

    python3 perfbench/smoke.py

Asserts for each run that it exits 0, that its last line is the JSON result
with exactly the keys correct/attempted/failed/metrics, that every output
row passed its checks, and that every metric BENCHMARK.json names for that
mode is emitted with the unit BENCHMARK.json gives it.  Takes about a
minute on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in sorted(WORKLOADS):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=300,
            )
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            for metric in expected[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{label}: metric {metric['name']} missing or "
                                    f"not in {metric['unit']}: {got}")
            print(f"{label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} rows checked", flush=True)
    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
