"""Package-level guards: the public namespace, no public definition that
``src/`` leaves unnamed, the oldest supported Python, the one home of
``Z[C_r]``, the CLI's start-up imports, the default records' freedom from
mpmath, the records' value semantics and the suite's own warning filters."""

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
from seifertwrt.seifert import parse_manifold, top_invariants
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
    "_unpack",
    "_widen",
}
# The helpers that know the packed (Kronecker) layout of a vector.
PACKED_LAYOUT = {"_bias", "_fold", "_pack", "_rotate", "_slot_width", "_unpack",
                 "_widen"}


def test_every_exported_name_resolves():
    missing = [name for name in seifertwrt.__all__ if not hasattr(seifertwrt, name)]
    assert missing == []


# Public definitions that nothing in ``src/`` names, each kept because the
# benchmark harness reads it.
NAMED_ONLY_OUTSIDE_SRC = {
    "cyclotomic_polynomial": "perfbench/spans.py reads its cache statistics",
    "LegData.chi_terms": "perfbench/spans.py measures the share of active colors",
    "CyclotomicNumber.coefficients": "perfbench/make_reference.py reads the "
                                     "oracle's xi through it",
}


def test_every_public_definition_is_named_elsewhere_in_src():
    """Every public function, class and method defined in ``src/`` is named
    somewhere else in ``src/``: as a name, an attribute or an import alias.

    The check goes by name alone, so it cannot see a definition whose name
    other objects share, such as a property ``denominator`` beside
    ``Fraction.denominator``.
    """
    named, defined = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined += [f"{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef)]
    unnamed = {name for name in defined
               for short in [name.rpartition(".")[2]]
               if not short.startswith("_") and short not in named}
    assert unnamed == set(NAMED_ONLY_OUTSIDE_SRC)


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


def test_joint_brute_force_packs_nothing():
    # The joint brute force sums its colorings over plain integer lists; only
    # ``_close``, called once after the enumeration, may pack.
    packed = PACKED_LAYOUT | {"_ring_mul"}
    tree = ast.parse((SRC / "statesum.py").read_text())
    (brute,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "xi_statesum_brute"]
    called = [getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(brute) if isinstance(node, ast.Call)]
    assert packed <= GROUP_RING_HELPERS
    assert not packed & set(called)
    assert called.count("_close") == 1
    last = brute.body[-1]
    assert isinstance(last, ast.Return) and last.value.func.id == "_close"


def test_closed_formula_uses_no_packed_layout():
    # The closed formula's products go through ``_ring_mul``: the packed
    # layout stays behind it, and ``wrt`` neither imports nor calls a helper
    # that knows it.
    tree = ast.parse((SRC / "wrt.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert PACKED_LAYOUT <= GROUP_RING_HELPERS
    assert not PACKED_LAYOUT & (imported | called)
    assert imported & GROUP_RING_HELPERS == {"_gauss_vector", "_ring_mul"}


def test_trefoil_closed_form_keeps_the_packed_product():
    # The general formula multiplies by E through running sums
    # (``_times_central``); the trefoil's closed form takes its E * E as a
    # packed product, so ``closed_matches_general`` compares the two.
    tree = ast.parse((SRC / "wrt.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(functions["tref_xi_closed"])
              if isinstance(node, ast.Call)}
    assert "_times_central" in functions
    assert "_ring_mul" in called
    assert "_times_central" not in called


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


@pytest.mark.parametrize(("checks", "imported"), [((), False), (("--rozansky",), True)])
def test_default_records_import_no_mpmath(checks, imported):
    # The embedding prints doubles from integers alone; importing mpmath adds
    # about 2.8 MB of peak resident memory to the CLI's 16.1 MB (Python 3.11).  The residue form needs it.  Both
    # manifolds' records at 3..31 cover nu = 0 (X(2,3,7)) and nu = 1
    # (X(-2,3,6)).
    probe = (
        "import io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from seifertwrt.cli import main\n"
        "sys.stdout = io.StringIO()\n"
        "code = main(['tau', 'X(2,3,7)', 'X(-2,3,6)', '--r-range', '3:31',"
        " '--format', 'json', *sys.argv[2:]])\n"
        "lines = sys.stdout.getvalue().splitlines()\n"
        "sys.stdout = sys.__stdout__\n"
        "print(code, len(lines), 'mpmath' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe, str(SRC.parent), *checks],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == ["0", "30", str(imported)]


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
    "SeifertData": (lambda: parse_manifold("X(2,3,7)"), ("legs",)),
    "TopInvariants": (lambda: top_invariants(X237),
                      ("P", "H", "nu", "sign_P", "sign_H_abs", "sign_H_over_P")),
    "LegSumTable": (lambda: leg_sum_dp((2, 3), 5),
                    ("r", "t", "framings", "width", "rows")),
    "LegData": (lambda: leg_data(5, 2, 7),
                ("p", "q", "c", "q_star", "p_star", "pc_prime", "sf", "jac",
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
