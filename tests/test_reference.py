"""The benchmark's reference records, recomputed by the CLI.

``perfbench/reference.json`` holds the expected record of every table and
high_level request (levels 3 to 101), each checked against the plumbing state
sum when the file was written.  Rerunning ``tau --format json`` on all of them
keeps the records byte-identical from change to change.  The file is read,
never written.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import seifertwrt.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
