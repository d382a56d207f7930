"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(scope="module")
def goldens():
    return corpus.load_goldens(ROOT)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_byte_identical_documents(workload, goldens):
    first = json.dumps(corpus.generate(workload, 7, 6, goldens))
    again = json.dumps(corpus.generate(workload, 7, 6, goldens))
    other = json.dumps(corpus.generate(workload, 8, 6, goldens))
    assert first == again
    assert first != other


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 10] has children b [1, 4] and c [5, 9]; c has child d [6, 8];
    # e [2, 3] nests a second "a" inside b, so inclusive "a" time counts once.
    tree = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("a", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
        ("d", 6.0, 8.0, 3),
    ]
    summary = spans.summarize(tree)
    assert summary["a"] == {"calls": 2, "ms": 10_000.0, "self_ms": 4_000.0}
    assert summary["b"] == {"calls": 1, "ms": 3_000.0, "self_ms": 2_000.0}
    assert summary["c"] == {"calls": 1, "ms": 4_000.0, "self_ms": 2_000.0}
    assert summary["d"] == {"calls": 1, "ms": 2_000.0, "self_ms": 2_000.0}


def test_tail_is_the_eleventh_largest_sample():
    value, percentile = run.tail_latency([float(k) for k in range(100)])
    assert value == 89.0
    assert percentile == 90.0


def test_planted_gram_matches_the_program_trace_form():
    from torusembed.arith import PolyQ
    from torusembed.etale import GeneralSpec, build_algebra
    from torusembed.oracle import make_element, trace_form
    from torusembed.qform import QuadraticSpace

    f, theta = [-2, 0, 1], [-2, 1]
    algebra = build_algebra([GeneralSpec(PolyQ.of(f), PolyQ.of(theta))])
    # alpha = 1 + 2*theta(y) = -3 + 2y, which the oracle writes as 1 + 2x^2.
    planted = QuadraticSpace.from_gram(corpus.trace_gram(f, theta, [-3, 2]))
    element = make_element(algebra, [PolyQ.of([1, 0, 2])])
    assert planted.invariants == trace_form(algebra, element).invariants


def test_oracle_shapes_respect_the_candidate_cap():
    for shape in corpus._ORACLE_SHAPES:
        assert corpus.oracle_candidates(*shape) <= corpus.ORACLE_CANDIDATE_CAP


def test_irreducibility_certificate_is_sound():
    assert corpus.provably_irreducible([-2, 0, 0, 0, 1])  # y^4 - 2
    assert not corpus.provably_irreducible([4, 0, -5, 0, 1])  # (y^2-1)(y^2-4)
    assert not corpus.provably_irreducible([1, 0, 0, 0, 1])  # cyclotomic, no proof


def _worker(manifest: Path, trace: int, work_dir: Path) -> dict:
    out = work_dir / f"result-{trace}.json"
    subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"),
            "--manifest", str(manifest), "--root", str(ROOT),
            "--seconds", "0.2", "--trace", str(trace), "--out", str(out),
        ],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True,
        timeout=170,
    )
    return json.loads(out.read_text())


@pytest.fixture
def work_dir(request):
    """A scratch directory under the checkout's ignored .bench_work/."""
    path = ROOT / ".bench_work" / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_smoke_run_has_no_failures(workload, goldens, work_dir):
    ops = corpus.generate(workload, 3, 3, goldens)
    manifest = work_dir / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "ops": corpus.write_corpus(ops, work_dir / "docs"),
                "goldens": {g["name"]: g["report"] for g in goldens},
            }
        )
    )
    timed = _worker(manifest, 0, work_dir)
    assert timed["attempted"] > 0
    assert timed["failed"] == 0, timed["failures"]
    traced = _worker(manifest, 1, work_dir)
    assert traced["failed"] == 0, traced["failures"]
    assert traced["missing_targets"] == []
    assert list(traced["per_layer"]) == [name for name, _ in spans.PER_LAYER]
    assert traced["per_layer"]["cli.main.self_ms"] > 0
    oracle_runs = workload == "oracle-search"
    assert (traced["per_layer"]["oracle.candidates"] > 0) == oracle_runs
