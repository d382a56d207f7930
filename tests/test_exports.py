"""Every name in a public module's ``__all__`` resolves, and some program
file outside the tests loads it."""

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
