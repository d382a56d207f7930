"""Every name in a public module's ``__all__`` resolves."""

import importlib

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


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert exported and len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
