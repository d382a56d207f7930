"""Plain record classes: what ``import torusembed.cli`` loads, and the
equality and hashing the program and its tests rely on."""

import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from torusembed import cli
from torusembed.arith.integers import SquareClass
from torusembed.arith.places import INFINITY, TWO, Place
from torusembed.arith.polyq import PolyQ
from torusembed.engine import (
    BaselineCollection,
    DecisionReport,
    LocalCheckResult,
    WitnessGraph,
)
from torusembed.etale import EtaleAlgebra, GeneralSpec, QuadSpec, build_algebra
from torusembed.oracle import AlgebraElement
from torusembed.qform import QFInvariants

ROOT = Path(__file__).resolve().parent.parent


def _span_targets():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [list(t) for t in (*spans.FUNCTIONS, *spans.METHODS)]


def test_cli_import_loads_every_span_target_and_no_dataclasses():
    # A fresh interpreter: the cold start must not pay for the dataclasses
    # module, and every module the benchmark's tracer wraps must be loaded by
    # the import alone, because the tracer wraps only loaded modules.
    script = (
        "import json, sys\n"
        "from functools import cached_property\n"
        "import torusembed.cli\n"
        "loaded = 'dataclasses' in sys.modules\n"
        "missing = []\n"
        "for target in json.loads(sys.argv[1]):\n"
        "    module, attr = sys.modules.get(target[1]), target[-1]\n"
        "    owner = getattr(module, target[2], None) if len(target) == 4 else module\n"
        "    if owner is None or attr not in vars(owner):\n"
        "        missing.append(target)\n"
        "from torusembed.qform import QuadraticSpace\n"
        "cached = isinstance(vars(QuadraticSpace)['invariants'], cached_property)\n"
        "print(json.dumps([loaded, missing, cached]))\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(_span_targets())],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, [], True]


def _spec(f, theta):
    return GeneralSpec(PolyQ.of(f), PolyQ.of(theta))


def _invariants(rep):
    det, disc = SquareClass.of(rep), SquareClass.of(-rep)
    return QFInvariants(2, det, disc, frozenset({TWO, INFINITY}), (1, 1))


def _local(ok):
    return LocalCheckResult(ok, True, True, None, None, ())


# Each entry: a factory called twice for two records with equal fields, and a
# record of the same class with one field changed.
RECORDS = [
    (lambda: Place(5), Place(7)),
    (lambda: INFINITY, TWO),
    (lambda: SquareClass.of(12), SquareClass.of(-3)),
    (lambda: PolyQ.of([1, Fraction(1, 2)]), PolyQ.of([1, Fraction(1, 3)])),
    (lambda: QuadSpec(5), QuadSpec(-5)),
    (lambda: _spec([-2, 0, 1], [0, 1]), _spec([-2, 0, 1], [2, 1])),
    (lambda: _invariants(3), _invariants(5)),
    (lambda: AlgebraElement((PolyQ.of([1]),)), AlgebraElement((PolyQ.of([2]),))),
    (lambda: _local(True), _local(False)),
    (
        lambda: BaselineCollection((TWO,), ((TWO, (0, 1)),), ((1, 1),)),
        BaselineCollection((TWO,), ((TWO, (1, 0)),), ((1, 1),)),
    ),
    (
        lambda: WitnessGraph(2, ((0, 1, TWO),), ()),
        WitnessGraph(2, (), ((0, 1),)),
    ),
    (
        lambda: DecisionReport("realizable", 1000, _local(True), notes=("n",)),
        DecisionReport("realizable", 1000, _local(True)),
    ),
]


@pytest.mark.parametrize("make, changed", RECORDS)
def test_equal_fields_mean_equal_records_with_equal_hashes(make, changed):
    a, b = make(), make()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != changed and not a == changed


@pytest.mark.parametrize("make, changed", RECORDS)
def test_records_of_other_classes_and_tuples_are_unequal(make, changed):
    a = make()
    fields = tuple(vars(a).values())
    for other in (fields, fields[:1], Place(5), QuadSpec(5), object()):
        if type(other) is not type(a):
            assert a != other and other != a and not a == other


def test_square_class_equality_is_decided_by_rep():
    six = SquareClass.of(6)
    assert six == SquareClass(6, frozenset()) == SquareClass.of(Fraction(3, 2))
    assert hash(six) == hash(SquareClass(6, frozenset()))
    assert SquareClass.of(6) != SquareClass.of(-6)
    assert len({SquareClass.of(n) for n in (6, 24, 54, Fraction(2, 3))}) == 1


def test_algebras_built_without_annotations_do_not_share_a_dict():
    comps = build_algebra([QuadSpec(-1)]).components
    first, second = EtaleAlgebra(comps), EtaleAlgebra(comps)
    first.annotations[(0, 3)] = "split"
    assert second.annotations == {}
    assert build_algebra([QuadSpec(-1)]).annotations == {}
