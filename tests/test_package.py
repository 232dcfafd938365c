"""Package-level guards: the public namespace, the oldest supported Python, and
the one home of ``Z[C_r]``."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import seifertwrt

SRC = Path(__file__).resolve().parents[1] / "src" / "seifertwrt"
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
