"""Package-level guards: the public namespace, the oldest supported Python, the
one home of ``Z[C_r]``, the CLI's start-up imports, the records' value
semantics and the suite's own warning filters."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import seifertwrt
from seifertwrt.numtheory import GoodExpansion
from seifertwrt.seifert import (
    PlumbingPresentation,
    parse_manifold,
    plumbing,
    top_invariants,
)
from seifertwrt.statesum import leg_sum_dp
from seifertwrt.wrt import leg_data, tau_prime

SRC = Path(__file__).resolve().parents[1] / "src" / "seifertwrt"
PYPROJECT = SRC.parents[1] / "pyproject.toml"
# Builders and the packed product of group-ring vectors; only
# ``seifertwrt.cyclotomic`` may define them.
GROUP_RING_HELPERS = {
    "_bias",
    "_binomial",
    "_fold",
    "_gauss_vector",
    "_pack",
    "_ring_mul",
    "_rotate",
    "_slot_width",
    "_substitute",
    "_substitutions",
    "_unpack",
    "_widen",
}


def test_every_exported_name_resolves():
    missing = [name for name in seifertwrt.__all__ if not hasattr(seifertwrt, name)]
    assert missing == []


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; tier 1 runs a newer one.
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))


def test_only_cyclotomic_defines_group_ring_helpers():
    names = [info.name for info in pkgutil.iter_modules(seifertwrt.__path__)]
    assert "cyclotomic" in names
    for name in names:
        module = importlib.import_module(f"seifertwrt.{name}")
        tree = ast.parse(inspect.getsource(module))
        defined = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        if name == "cyclotomic":
            assert GROUP_RING_HELPERS <= defined
        else:
            assert not defined & GROUP_RING_HELPERS, name


def test_only_cyclotomic_handles_slot_bytes():
    # A packed slot's byte layout is known in ``seifertwrt.cyclotomic`` alone.
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = {
            node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("to_bytes", "from_bytes")
        }
        if path.stem == "cyclotomic":
            assert calls == {"to_bytes", "from_bytes"}
        else:
            assert not calls, path.name


def test_cli_start_up_imports_no_rarely_used_module():
    # ``import seifertwrt.cli`` and ``build_parser()`` are what every
    # invocation pays before its first record.  ``-S`` keeps ``site`` from
    # loading modules of its own; pytest itself imports ``dataclasses``.
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import seifertwrt.cli\n"
        "seifertwrt.cli.build_parser()\n"
        "print([m for m in ('dataclasses', 'inspect', 'csv', 'random',"
        " 'multiprocessing', 'concurrent.futures', 'mpmath') if m in sys.modules])\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_no_module_imports_dataclasses():
    # Importing ``dataclasses`` (and the ``inspect`` it pulls in) costs a
    # fresh interpreter about 10 ms; the records are ``NamedTuple`` classes.
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" not in imported, path.name


X237 = parse_manifold("X(2,3,7)")
# Each record type: a builder of a fresh instance, and its fields in order
# (``LegData.chi_terms`` unpacks its record by position).
RECORDS = {
    "GoodExpansion": (lambda: GoodExpansion(5, 2, (3, 2)), ("p", "q", "ms")),
    "SeifertData": (lambda: parse_manifold("X(2,3,7)"), ("legs",)),
    "TopInvariants": (lambda: top_invariants(X237),
                      ("P", "H", "nu", "sign_P", "sign_H_abs", "sign_H_over_P")),
    "PlumbingPresentation": (lambda: plumbing(X237), ("chains", "central_framing")),
    "LegSumTable": (lambda: leg_sum_dp((2, 3), 5),
                    ("r", "t", "framings", "width", "rows")),
    "LegData": (lambda: leg_data(5, 2, 7),
                ("p", "q", "r", "c", "q_star", "p_star", "pc_prime", "sf", "jac",
                 "exponent_const")),
    "InvariantResult": (lambda: tau_prime(X237, 5),
                        ("manifold", "r", "t", "xi", "nu", "b_plus", "b_minus",
                         "tau", "xi_is_integral", "theta_is_integral")),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_values(name):
    build, fields = RECORDS[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert type(a)._fields == fields
    assert a is not b
    assert a == b and hash(a) == hash(b)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))


def test_record_text_and_defaults():
    M = parse_manifold("X(2, -3/2, 7)")
    assert str(M) == f"{M}" == "X(2/1,-3/2,7/1)"
    assert repr(M) == "SeifertData(legs=((2, 1), (-3, 2), (7, 1)))"
    assert PlumbingPresentation(chains=((2,),)).central_framing == 0


FALSIFIED_PROBE = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_falsified(x):
    assert x < 5


@given(st.integers(0, 10))
def test_holds(x):
    assert x >= 0
"""


def test_a_falsified_hypothesis_test_is_reported(tmp_path):
    # Under the suite's warning filters a failing ``@given`` test must print
    # its falsifying example and let the tests after it run, not abort the
    # session with an INTERNALERROR raised inside Hypothesis' report.
    (tmp_path / "test_probe.py").write_text(FALSIFIED_PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_falsified(" in output
    assert "1 failed, 1 passed" in output
    assert done.returncode == 1
