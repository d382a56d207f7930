"""Every name in a public module's ``__all__`` resolves, and some program
file outside the tests loads it, as it loads every public module-level
function and class of the package and every public method of its classes."""

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
def _program_trees() -> list[ast.AST]:
    """The parsed ``.py`` files under ``src/``, ``bench/`` and ``tools/``,
    less the ``test_*.py`` ones."""
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for top in ("src", "bench", "tools")
        for path in (ROOT / top).rglob("*.py")
        if not path.name.startswith("test_")
    ]


@cache
def _loaded_names() -> set[str]:
    """Every name read (an ``ast.Name`` in load context) by a program file."""
    return {
        node.id
        for tree in _program_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@cache
def _loaded_attributes() -> tuple[set[str], list[set[str]]]:
    """Every attribute read (an ``ast.Attribute`` in load context) by a
    program file, and the strings of each tuple of string constants, which
    is how ``bench/spans.py`` names the methods it wraps."""
    attributes, pins = set(), []
    for tree in _program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.Tuple) and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts
            ):
                pins.append({e.value for e in node.elts})
    return attributes, pins


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
    assert ("torusembed/arith/polyq.py", "hankel_pivots") in defined
    loaded = _loaded_names()
    assert [f"{path}: {name}" for path, name in defined if name not in loaded] == []


def _public_methods() -> list[tuple[str, str, str]]:
    """(module path, class, name) of every method, classmethod,
    staticmethod and property with no leading underscore of a module-level
    class under ``src/torusembed``, less the overrides of a base-class
    attribute, such as ``cli._Parser.error``, which argparse calls."""
    out = []
    for path in sorted((ROOT / "src" / "torusembed").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
        if not classes:
            continue
        module = importlib.import_module(
            ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        )
        for node in classes:
            bases = getattr(module, node.name).__mro__[1:]
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                    and not any(hasattr(base, item.name) for base in bases)
                ):
                    out.append((str(path.relative_to(ROOT / "src")), node.name, item.name))
    return out


def test_public_methods_have_a_caller_outside_tests():
    # A method only the tests call belongs in tests/helpers.py as a function.
    # It is read as an attribute, or named beside its class by a tuple of
    # strings, as bench/spans.py pins QuadraticSpace.local_hasse_bit.
    methods = _public_methods()
    assert ("torusembed/arith/places.py", "Place", "sort_key") in methods
    assert [m for m in methods if m[2] == "error"] == []
    attributes, pins = _loaded_attributes()
    unread = [
        f"{path}: {cls}.{name}"
        for path, cls, name in methods
        if name not in attributes and not any({cls, name} <= pin for pin in pins)
    ]
    assert unread == []
