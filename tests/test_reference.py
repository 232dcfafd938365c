"""The benchmark's reference records, recomputed by the CLI.

``perfbench/reference.json`` holds the expected record of every table and
high_level request (levels 3 to 101), each checked against the plumbing state
sum when the file was written.  Rerunning ``tau --format json`` on all of them
keeps the records byte-identical from change to change.  The file is read,
never written.  The traced run's span recorder is checked to still reach
every layer that ``BENCHMARK.json`` reports, and a short run of the benchmark
itself, in a fresh interpreter, must find every output it checks correct.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import seifertwrt.cli as cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _harness(monkeypatch):
    """``perfbench/run.py``, for its exact fields and its float bound.

    Importing it prepends ``src`` and ``perfbench`` to ``sys.path``; the
    path is restored after the test.
    """
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_cli_reproduces_every_reference_record(monkeypatch):
    harness = _harness(monkeypatch)
    records = json.loads((PERFBENCH / "reference.json").read_text())["records"]
    assert len(records) == 638
    problems = []
    for key, ref in records.items():
        spec, r = key.split("|")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["tau", spec, "--r", r, "--format", "json"])
        rec = json.loads(out.getvalue())
        if code != 0:
            problems.append(f"{key}: exit {code}")
        problems += [
            f"{key}: {name}" for name in harness.EXACT_FIELDS if rec[name] != ref[name]
        ]
        bound = harness.float_bound(ref)
        problems += [
            f"{key}: {name} off by {rec[name] - ref[name]:.3g}"
            for name in ("tau_re", "tau_im")
            if not abs(rec[name] - ref[name]) <= bound
        ]
    assert not problems, problems[:10]


def test_traced_benchmark_reaches_every_layer(tmp_path):
    # perfbench/spans.py wraps the package's functions by name, so a renamed
    # function would silently drop its layer from the traced metrics.
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer(tmp_path)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["tau", "X(2/1,3/1,5/1)", "X(5/2,-7/3)", "--r", "5,7",
                             "--oracle", "--rozansky", "--format", "json"])
    finally:
        tracer.uninstall()
    assert code == 0
    layer = spans.layer_metrics(tracer.collect(), 4)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = {m["name"] for m in declared} - {"tracing.overhead_s"} - set(layer)
    assert not missing, missing
    assert layer["statesum.leg_sum_dp.calls"] > 0
    assert layer["seifert.signature_counts.self_s"] > 0
    assert layer["cyclotomic.inverse.calls"] == 0  # the oracle inverts nothing


@pytest.mark.parametrize("workload,limit", [("verify", "14"), ("batch", "2")])
def test_benchmark_smoke_run_checks_every_output(workload, limit):
    # A short run of the benchmark in a fresh interpreter: every output it
    # checks (the oracle and residue verdicts, the reference records) holds.
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--limit", limit],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["failed"] == 0 and summary["attempted"] == int(limit), summary
