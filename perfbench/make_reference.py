#!/usr/bin/env python3
"""Write ``reference.json``: the expected record of every table and high_level request.

Run once, from the root of the repository, at a commit whose outputs are
trusted::

    python3 perfbench/make_reference.py

Each record is produced by the CLI exactly as the benchmark requests it, and
its ``xi`` is checked against the independent plumbing state sum
(``xi_statesum``) before it is stored.  The batch workload asks for the same
``(manifold, r)`` pairs as table and is checked against the same records.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import seifertwrt.cli as cli  # noqa: E402
from seifertwrt import parse_manifold, xi_statesum  # noqa: E402

import workloads  # noqa: E402

FIELDS = ("t", "nu", "b_plus", "b_minus", "xi", "xi_integral", "theta_integral",
          "tau_re", "tau_im")


def reference_record(spec: str, r: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["tau", spec, "--r", str(r), "--format", "json"])
    if code != 0:
        raise SystemExit(f"{spec} r={r}: CLI exited with {code}")
    rec = json.loads(out.getvalue())
    oracle = xi_statesum(parse_manifold(spec), r, rec["t"])
    if [Fraction(n, d) for n, d in rec["xi"]] != list(oracle.coefficients()):
        raise SystemExit(f"{spec} r={r}: closed formula disagrees with the state sum")
    return {name: rec[name] for name in FIELDS}


def main() -> None:
    keys = sorted({key for name in ("table", "high_level")
                   for req in workloads.requests(name, 0) for key in req.keys})
    records = {}
    for spec, r in keys:
        records[f"{spec}|{r}"] = reference_record(spec, r)
        print(f"{spec} r={r} ok", file=sys.stderr)
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in records.items())
    (HERE / "reference.json").write_text('{"records": {\n' + lines + "\n}}\n")


if __name__ == "__main__":
    main()
