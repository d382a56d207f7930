"""Acceptance gate: one test per shipped guarantee, each with a budget.

Every test prints a single ``criterion NN: pass`` line on success (visible
with ``pytest -v -rA`` or ``-s``); a failure of any assertion is the
corresponding fail line.
"""

import json
import random
import time
from pathlib import Path

from torusembed.arith.places import INFINITY, Place
from torusembed.arith.symbols import hilbert_symbol
from torusembed.engine import (
    VERDICT_LOCALLY_FAILS,
    VERDICT_REALIZABLE,
    bad_places,
    check_local,
    construct_baseline,
    decide,
    parity_vector,
)
from torusembed.errors import NeedAnnotations
from torusembed.etale import SPLIT
from torusembed.oracle import search_realizing_element, trace_form
from torusembed.qform import QuadraticSpace

from bruteforce import brute_hilbert_bit
from helpers import (
    algebra,
    candidate_places,
    diag,
    general,
    is_locally_hyperbolic,
    quad,
    ramified_sign_counts,
    random_symmetric_unit,
    run_cli,
    squarefree_part,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _sf_reduced_space(space: QuadraticSpace) -> QuadraticSpace | None:
    """An equivalent diagonal form with squarefree entries, or None if any
    entry falls outside [-10, 10]."""
    entries = [squarefree_part(c) for c in space.diagonal]
    if any(abs(e) > 10 for e in entries):
        return None
    return QuadraticSpace.of(entries)


def _planted_forms(pool, rng, count, height=2):
    """Realizable instances: squarefree-reduced trace forms of small units."""
    out = []
    while len(out) < count:
        alg = pool[rng.randrange(len(pool))]
        alpha = random_symmetric_unit(alg, rng, height=height)
        reduced = _sf_reduced_space(trace_form(alg, alpha).space)
        if reduced is not None:
            out.append((alg, reduced))
    return out


def _random_forms(pool, rng, count):
    out = []
    for _ in range(count):
        alg = pool[rng.randrange(len(pool))]
        entries = [rng.choice([c for c in range(-10, 11) if c]) for _ in range(alg.rank)]
        out.append((alg, diag(*entries)))
    return out


# --------------------------------------------------------------- criterion 1


def test_criterion_01_hilbert_bits_match_brute_force():
    rng = random.Random(101)
    start = time.perf_counter()
    pairs = 0
    while pairs < 1000:
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        if a == 0 or b == 0:
            continue
        pairs += 1
        total = 0
        for v in candidate_places((a, b)):
            bit = hilbert_symbol(a, b, v)
            p = None if v.is_infinite else v.p
            assert bit == brute_hilbert_bit(a, b, p), (a, b, v)
            total ^= bit
        # Away from the candidate places every bit vanishes, so the product
        # formula reduces to the candidate support.
        assert total == 0, (a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    print(f"criterion 01: pass - 1000 symbol pairs match brute force "
          f"and satisfy the product formula in {elapsed:.1f}s")


# ----------------------------------------------------- criteria 2 and 3 corpus


def test_criterion_02_trace_form_discriminant_identity(unit_corpus):
    names = {name for name, _, _, _ in unit_corpus}
    assert len(names) >= 6
    assert {"gaussian", "quartic-cm", "quartic-mixed"} <= names
    assert len(unit_corpus) == 100
    for name, alg, alpha, tf in unit_corpus:
        assert tf.invariants.disc == alg.disc_class, (name, alpha)
    print("criterion 02: pass - 100 trace forms over "
          f"{len(names)} algebras have the algebra discriminant")


def test_criterion_03_trace_form_signature_identity(unit_corpus):
    for name, alg, alpha, tf in unit_corpus:
        pos, neg = ramified_sign_counts(alg, alpha)
        w = alg.unramified_real_weight
        assert tf.invariants.signature == (2 * pos + w, 2 * neg + w), (name, alpha)
    print("criterion 03: pass - 100 trace form signatures match the "
          "ramified sign counts")


def test_criterion_04_split_bad_places_are_hyperbolic(unit_corpus):
    checked = 0
    for name, alg, alpha, tf in unit_corpus:
        for v in bad_places(alg, tf.space):
            if v.is_infinite or not all(s is SPLIT for s in alg.statuses(v)):
                continue
            checked += 1
            assert is_locally_hyperbolic(tf.space, v), (name, alpha, v)
    assert checked >= 20
    print(f"criterion 04: pass - {checked} fully split bad places all "
          "carry hyperbolic localizations")


# --------------------------------------------------------------- criterion 5


def test_criterion_05_baseline_parity_is_even(unit_corpus):
    checked = 0
    for path in sorted(GOLDEN_DIR.glob("*.report.json")):
        report = json.loads(path.read_text())
        if report["parity"] is not None:
            checked += 1
            assert sum(report["parity"]) % 2 == 0, path.name
    assert checked >= 5
    skipped = 0
    for name, alg, alpha, tf in unit_corpus:
        if not check_local(alg, tf.space).passed:
            skipped += 1
            continue
        try:
            baseline = construct_baseline(alg, tf.space, bad_places(alg, tf.space))
        except NeedAnnotations:
            # Unannotated components leave the bit at 2 undetermined even
            # when the local checks pass.
            skipped += 1
            continue
        checked += 1
        assert sum(parity_vector(baseline)) % 2 == 0, (name, alpha)
    assert checked >= 60
    print(f"criterion 05: pass - {checked} baselines all have even "
          f"total parity ({skipped} corpus entries need annotations)")


# --------------------------------------------------------------- criterion 6


def test_criterion_06_engine_and_search_agree():
    rng = random.Random(606)
    pool = [
        algebra(quad(-1)),
        algebra(quad(-3)),
        algebra(quad(5)),
        algebra(quad(2)),
        algebra(quad(-1), quad(-3)),
        algebra(quad(5), quad(-1)),
        algebra(general([-2, 0, 1], [0, 1]), annotations={(0, 2): "nonsplit"}),
        algebra(general([-2, 0, 1], [-2, 1]), annotations={(0, 2): "nonsplit"}),
    ]
    instances = _planted_forms(pool, rng, 30) + _random_forms(pool, rng, 30)
    assert len(instances) >= 50

    height = 6
    realizable = found = 0
    misses = []
    for k, (alg, form) in enumerate(instances):
        report = decide(alg, form)
        result = search_realizing_element(alg, form, height)
        if result.found:
            # A concrete element is unimpeachable: the engine must agree.
            assert report.verdict == VERDICT_REALIZABLE, (k, report.verdict)
            found += 1
        if report.verdict == VERDICT_LOCALLY_FAILS:
            assert not result.found, (k, "element found despite local failure")
        if report.verdict == VERDICT_REALIZABLE:
            realizable += 1
            if not result.found:
                misses.append(k)
    assert realizable >= 25
    hit_rate = (realizable - len(misses)) / realizable
    for k in misses:
        print(f"criterion 06 note: instance {k} realizable but no element "
              f"up to height {height}")
    assert hit_rate >= 0.8, f"hit rate {hit_rate:.0%}"
    print(f"criterion 06: pass - {len(instances)} instances; "
          f"{found} found elements all confirmed realizable; "
          f"hit rate {hit_rate:.0%} on {realizable} realizable instances")


# --------------------------------------------------------------- criterion 7


def test_criterion_07_cm_verdict_matches_checklist():
    rng = random.Random(707)
    pool = [
        algebra(quad(-1)),
        algebra(quad(-3)),
        algebra(quad(-7)),
        algebra(quad(-1), quad(-3)),
        algebra(quad(-3), quad(-7)),
        algebra(general([-2, 0, 1], [-2, 1]), annotations={(0, 2): "nonsplit"}),
    ]
    instances = _planted_forms(pool, rng, 10) + _random_forms(pool, rng, 14)
    assert len(instances) >= 20
    for k, (alg, form) in enumerate(instances):
        assert alg.is_cm
        report = decide(alg, form)
        ok_disc = form.invariants.disc == alg.disc_class
        ok_hyp = all(
            is_locally_hyperbolic(form, v)
            for v in bad_places(alg, form)
            if not v.is_infinite and all(s is SPLIT for s in alg.statuses(v))
        )
        ok_sig = form.invariants.signature[0] % 2 == 0
        checklist = ok_disc and ok_hyp and ok_sig
        assert (report.verdict == VERDICT_REALIZABLE) == checklist, (
            k, report.verdict, ok_disc, ok_hyp, ok_sig,
        )
        if checklist:
            assert report.fast_path == "cm"
        else:
            assert report.verdict == VERDICT_LOCALLY_FAILS
    print(f"criterion 07: pass - {len(instances)} totally imaginary "
          "instances match the three-condition checklist")


# --------------------------------------------------------------- criterion 8


def test_criterion_08_star_instances_decided_locally():
    rng = random.Random(808)
    pool = [
        algebra(quad(5)),
        algebra(quad(2)),
        algebra(quad(-1)),
        algebra(quad(5), quad(13)),
        algebra(quad(2), quad(5)),
        algebra(quad(-1), quad(-1)),
        algebra(general([-2, 0, 1], [0, 1]), annotations={(0, 2): "nonsplit"}),
    ]
    instances = _planted_forms(pool, rng, 15) + _random_forms(pool, rng, 15)
    stars = 0
    for k, (alg, form) in enumerate(instances):
        local = check_local(alg, form)
        report = decide(alg, form)
        if local.failed:
            assert report.verdict == VERDICT_LOCALLY_FAILS, k
            continue
        assert local.passed, k  # the pool carries no indeterminate data
        if report.graph is not None and report.graph.star_vertex() is not None:
            stars += 1
            # With a star vertex the local pass already settles the verdict.
            assert report.verdict == VERDICT_REALIZABLE, (k, report.verdict)
    assert stars >= 10
    print(f"criterion 08: pass - {stars} star-vertex instances decided "
          "by their local data alone")


# --------------------------------------------------------------- criterion 9


def test_criterion_09_golden_reports_are_byte_identical():
    expected = {
        "01-gaussian-sum-of-squares": (0, "realizable", None),
        "02-gaussian-indefinite": (1, "locally_fails", ("signature", "infinity")),
        "03-cm-pair-disc-mismatch": (1, "locally_fails", ("disc", None)),
        "04-cm-pair-matched": (0, "realizable", None),
        "05-real-quad-disc-mismatch": (1, "locally_fails", ("disc", None)),
        "06-quartic-pending-annotation": (3, "inconclusive", None),
        "07-quartic-annotated": (0, "realizable", None),
        "08-pair-bound-too-low": (2, "not_realizable_up_to_bound", None),
        "09-pair-witness-at-five": (0, "realizable", None),
    }
    inputs = sorted(GOLDEN_DIR.glob("*.input.json"))
    assert [p.name[:-len(".input.json")] for p in inputs] == sorted(expected)
    for path in inputs:
        name = path.name[: -len(".input.json")]
        code, out, _ = run_cli(["decide", str(path), "--json"])
        committed = (GOLDEN_DIR / f"{name}.report.json").read_text()
        assert out == committed, f"{name}: report drifted from committed bytes"
        report = json.loads(out)
        want_code, want_verdict, certificate = expected[name]
        assert code == want_code, name
        assert report["verdict"] == want_verdict, name
        if certificate is not None:
            condition, place = certificate
            assert report["local"]["failing_condition"] == condition, name
            assert report["local"]["failing_place"] == place, name
    extras = json.loads((GOLDEN_DIR / "07-quartic-annotated.report.json").read_text())
    assert extras["oracle"]["found"] is True
    assert any("degree weights" in note for note in extras["notes"])
    pending = json.loads(
        (GOLDEN_DIR / "06-quartic-pending-annotation.report.json").read_text()
    )
    assert pending["needed_annotations"] == [[0, 2]]
    print(f"criterion 09: pass - {len(inputs)} golden reports byte-identical "
          "with the expected verdicts and certificates")


# -------------------------------------------------------------- criterion 10


def test_criterion_10_decide_meets_latency_budget():
    cases = [
        (algebra(
            general([-2, 0, 1], [0, 1]),
            general([-2, 0, 1], [2, 1]),
            annotations={(0, 2): "nonsplit", (1, 2): "split"},
        ), diag(1, -1, 1, -1, 1, -1, -3, -3)),
        (algebra(quad(5), quad(13)), diag(1, -1, 1, -65)),
        (algebra(quad(-1), quad(-3)), diag(1, 1, 1, 3)),
        (algebra(quad(2), quad(-5)), diag(1, 1, 1, -10)),
    ]
    worst = 0.0
    for alg, form in cases:
        start = time.perf_counter()
        decide(alg, form, bound=1000)
        worst = max(worst, time.perf_counter() - start)
    assert worst < 2.0, f"slowest decide took {worst:.2f}s"
    print(f"criterion 10: pass - decide at witness bound 1000 peaks at "
          f"{worst * 1000:.0f} ms")
