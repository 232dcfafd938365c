#!/usr/bin/env python3
"""Self-check of the benchmark itself, in a tiny configuration (about a minute).

    python3 perfbench/selfcheck.py

1. Every workload, untraced and traced, prints every metric that
   ``BENCHMARK.json`` names for the mode, with its unit, plus the report lines
   for ``failed_frac``, ``latency_tail_ms`` and, on high_level, ``r_exponent``.
2. A copy of ``reference.json`` with one exact field and one float corrupted
   makes the table workload report failures: ``correct`` is false,
   ``failed_frac`` is above 0 and the exit status is 1.

Exits 0 when both hold and 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIMIT = 3


def run(workload: str, trace: int, *extra: str) -> tuple[int, list[str], dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "0", "--trace", str(trace), "--limit", str(LIMIT), *extra]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=ROOT)
    lines = done.stdout.splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(argv)} printed nothing:\n{done.stderr}")
    return done.returncode, lines[:-1], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, report, result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit {code}, result {result}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if set(result["metrics"]) != {m["name"] for m in wanted}:
                problems.append(f"{where}: metrics {sorted(result['metrics'])}")
            for m in wanted:
                got = result["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: {m['name']} printed as {got}")
                if not any(f" {m['name']} " in line for line in report):
                    problems.append(f"{where}: no report line for {m['name']}")
            names = ["failed_frac"]
            if trace == 0:
                names.append("latency_tail_ms")
                if workload == "high_level":
                    names.append("r_exponent")
            for name in names:
                if not any(f" {name} " in line for line in report):
                    problems.append(f"{where}: no report line for {name}")
            print(f"{where}: {len(result['metrics'])} metrics, exit {code}")

    reference = json.loads((HERE / "reference.json").read_text())
    records = reference["records"]
    records["X(1/1)|3"]["xi"][0][0] += 1
    records["X(1/1)|5"]["tau_re"] += 1e-6
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    corrupted = scratch / "reference-corrupted.json"
    corrupted.write_text(json.dumps(reference))
    try:
        code, report, result = run("table", 0, "--reference", str(corrupted))
    finally:
        corrupted.unlink()
    frac = result["failed"] / result["attempted"]
    print(f"corrupted reference: exit {code}, failed_frac {frac:.3g}, correct {result['correct']}")
    if code != 1 or result["correct"] or not frac > 0:
        problems.append("a corrupted reference did not fail the correctness gate")

    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
