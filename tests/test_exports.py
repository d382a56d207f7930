"""Every name in a public module's ``__all__`` resolves, and some program
file outside the tests loads it, as it loads every public module-level
function and class of the package."""

import ast
import importlib
from functools import cache
from pathlib import Path

import pytest

MODULES = (
    "torusembed",
    "torusembed.arith",
    "torusembed.engine",
    "torusembed.oracle",
    "torusembed.docio",
    "torusembed.cli",
    "torusembed.selftest",
)

ROOT = Path(__file__).resolve().parents[1]


@cache
def _loaded_names() -> set[str]:
    """Every name read (an ``ast.Name`` in load context) by a ``.py`` file
    under ``src/``, ``bench/`` or ``tools/`` that is not a ``test_*.py``."""
    names = set()
    for top in ("src", "bench", "tools"):
        for path in (ROOT / top).rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert exported and len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_all_names_have_a_caller_outside_tests(name):
    # A public name exists only if something other than a test uses it.
    loaded = _loaded_names()
    exported = importlib.import_module(name).__all__
    assert [n for n in exported if n not in loaded] == []


def _public_definitions() -> list[tuple[str, str]]:
    """(module path, name) of every module-level function and class under
    ``src/torusembed`` whose name has no leading underscore."""
    out = []
    for path in sorted((ROOT / "src" / "torusembed").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    out.append((str(path.relative_to(ROOT / "src")), node.name))
    return out


def test_public_definitions_have_a_caller_outside_tests():
    # A public function or class that only the tests read belongs in
    # tests/helpers.py, exported or not.
    defined = _public_definitions()
    assert ("torusembed/arith/polyq.py", "hermite_pivots") in defined
    loaded = _loaded_names()
    assert [f"{path}: {name}" for path, name in defined if name not in loaded] == []
