"""The decision pipeline: local checks, baselines, witness graphs, verdicts."""

import random
from itertools import chain

import pytest

from torusembed import engine, etale
from torusembed.arith.integers import is_probable_prime
from torusembed.arith.places import INFINITY, TWO, Place
from torusembed.engine import (
    CONDITION_DISC,
    CONDITION_HYPERBOLICITY,
    CONDITION_SIGNATURE,
    DEFAULT_PRIME_BOUND,
    VERDICT_INCONCLUSIVE,
    VERDICT_LOCALLY_FAILS,
    VERDICT_NOT_REALIZABLE_UP_TO_BOUND,
    VERDICT_REALIZABLE,
    WitnessGraph,
    bad_places,
    build_graph,
    check_local,
    construct_baseline,
    decide,
    parity_vector,
)
from torusembed.errors import AuditError, NeedAnnotations
from torusembed.etale import INDETERMINATE, NONSPLIT, SPLIT
from torusembed.oracle import trace_form
from torusembed.qform import QuadraticSpace

import helpers
from helpers import (
    algebra,
    demo_algebra,
    demo_form,
    diag,
    general,
    quad,
    random_general_spec,
    random_symmetric_unit,
)

V2, V3, V5, V7 = (Place(p) for p in (2, 3, 5, 7))


# -------------------------------------------------------------- local checks


def test_check_local_pass():
    local = check_local(algebra(quad(-1)), diag(1, 1))
    assert local.passed and not local.failed
    assert local.disc_ok and local.hyperbolicity_ok and local.signature_ok
    assert local.failing_place is None and local.failing_condition is None
    assert local.pending == ()


def test_check_local_signature_certificate():
    local = check_local(algebra(quad(-1)), diag(1, -1))
    assert local.failed
    assert not local.signature_ok
    assert local.failing_place == INFINITY
    assert local.failing_condition == CONDITION_SIGNATURE


def test_check_local_disc_certificate_has_no_place():
    local = check_local(algebra(quad(-3), quad(-1)), diag(1, 1, 1, 1))
    assert local.failed
    assert not local.disc_ok
    assert local.hyperbolicity_ok and local.signature_ok
    assert local.failing_place is None
    assert local.failing_condition == CONDITION_DISC


def test_check_local_hyperbolicity_certificate():
    # <2,10,1,5> has trivial discriminant and signature (4,0) but the wrong
    # Hasse bit at 5, where both Gaussian components split.
    local = check_local(algebra(quad(-1), quad(-1)), diag(2, 10, 1, 5))
    assert local.failed
    assert local.disc_ok and local.signature_ok
    assert local.hyperbolicity_ok is False
    assert local.failing_place == V5
    assert local.failing_condition == CONDITION_HYPERBOLICITY


def test_check_local_signature_takes_precedence():
    local = check_local(algebra(quad(-1), quad(-1)), diag(-2, 10, 1, 5))
    assert not local.signature_ok
    assert local.failing_condition == CONDITION_SIGNATURE
    assert local.failing_place == INFINITY


def test_check_local_signature_needs_enough_negative_entries():
    # rho = 1 for Q(sqrt 5): signature (2, 0) leaves no room for the
    # unramified embedding.
    local = check_local(algebra(quad(5)), diag(1, 1))
    assert local.failing_condition == CONDITION_SIGNATURE
    local2 = check_local(algebra(quad(5)), diag(1, -5))
    assert local2.passed


def test_check_local_pending_annotations():
    local = check_local(algebra(general([-2, 0, 1], [0, 1])), diag(1, 1, 1, -2))
    assert not local.passed and not local.failed
    assert local.hyperbolicity_ok is None
    assert local.pending == ((0, 2),)


def test_check_local_rank_mismatch():
    with pytest.raises(ValueError):
        check_local(algebra(quad(-1)), diag(1, 1, 1))


# ------------------------------------------------- bad places and baselines


def test_bad_places_always_include_two_and_infinity():
    assert bad_places(algebra(quad(-1)), diag(1, 1)) == (TWO, INFINITY)
    assert bad_places(algebra(quad(2), quad(-5)), diag(1, 1, 1, 10)) == (
        TWO,
        V5,
        INFINITY,
    )
    places = bad_places(demo_algebra(), demo_form())
    assert places == (TWO, V3, INFINITY)


def _bits_at(alg, form, v):
    """The baseline's bits at the one finite place v."""
    ((place, bits),) = construct_baseline(alg, form, (v,)).finite_bits
    assert place == v
    return bits


def test_achievable_bits():
    # The status row sets the baseline's bits at a finite place: a non-split
    # component achieves both bits, a split one only the hyperbolic bit (0 in
    # dimension 2), and an indeterminate one blocks the place.
    alg = algebra(quad(-1))
    assert alg.statuses(V3) == (NONSPLIT,)
    assert {_bits_at(alg, diag(1, 1), V3), _bits_at(alg, diag(3, 3), V3)} == {
        (0,),
        (1,),
    }
    assert alg.statuses(V5) == (SPLIT,)
    assert _bits_at(alg, diag(1, 1), V5) == (0,)
    with pytest.raises(AuditError, match="every bit is forced"):
        construct_baseline(alg, diag(2, 5), (V5,))  # odd at 5
    quartic = algebra(general([-2, 0, 1], [0, 1]))
    assert quartic.statuses(V2) == (INDETERMINATE,)
    with pytest.raises(NeedAnnotations) as exc:
        construct_baseline(quartic, diag(1, 1, -1, 3), (V2,))
    assert exc.value.pending == ((0, 2),)
    noted = algebra(general([-2, 0, 1], [0, 1]), annotations={(0, 2): "nonsplit"})
    assert noted.statuses(V2) == (NONSPLIT,)
    assert {
        _bits_at(noted, diag(1, 1, 1, -1), V2),
        _bits_at(noted, diag(1, 1, -1, 3), V2),  # odd at 2
    } == {(0,), (1,)}
    # Infinity has a status but carries a signature, not a bit.
    assert alg.statuses(INFINITY) == (NONSPLIT,)
    assert construct_baseline(alg, diag(1, 1), (INFINITY,)).finite_bits == ()


def test_construct_baseline_demo_values():
    alg, form = demo_algebra(), demo_form()
    baseline = construct_baseline(alg, form)
    assert baseline.places == (TWO, V3, INFINITY)
    finite = dict(baseline.finite_bits)
    assert finite[TWO] == (0, 1)
    assert finite[V3] == (0, 1)
    assert baseline.infinity_signatures == ((1, 3), (2, 2))
    assert parity_vector(baseline) == (1, 1)


def test_construct_baseline_cm_pair():
    alg = algebra(quad(-3), quad(-1))
    baseline = construct_baseline(alg, diag(1, 1, 1, 3))
    # Component determinant classes are 3 and 1, a pair with empty pairing
    # support, and the form deviates from hyperbolic only at 2 and infinity.
    assert baseline.places == (TWO, INFINITY)
    assert baseline.infinity_signatures == ((2, 0), (2, 0))
    total = sum(parity_vector(baseline))
    assert total % 2 == 0


def test_construct_baseline_needs_annotations():
    with pytest.raises(NeedAnnotations) as info:
        construct_baseline(algebra(general([-2, 0, 1], [0, 1])), diag(1, 1, 1, -2))
    assert info.value.pending == ((0, 2),)


def test_construct_baseline_infeasible_forced_bits():
    with pytest.raises(AuditError, match="no feasible local data"):
        construct_baseline(algebra(quad(-1), quad(-1)), diag(2, 10, 1, 5))


def test_parity_total_is_even_across_instances():
    cases = [
        (algebra(quad(-1)), diag(1, 1)),
        (algebra(quad(-3), quad(-1)), diag(1, 1, 1, 3)),
        (algebra(quad(5)), diag(2, -10)),
        (demo_algebra(), demo_form()),
        (algebra(quad(2), quad(-5)), diag(1, 1, 1, -10)),
    ]
    for alg, form in cases:
        assert sum(parity_vector(construct_baseline(alg, form))) % 2 == 0


# -------------------------------------------------------------------- graphs


def test_witness_graph_small_cases():
    g = build_graph(algebra(quad(-3), quad(-1)), DEFAULT_PRIME_BOUND)
    assert g.vertex_count == 2
    assert g.edges == ((0, 1, INFINITY),)
    assert helpers.witness(g, 0, 1) == INFINITY
    assert g.unresolved == ()
    assert g.connected_components() == ((0, 1),)
    assert g.star_vertex() == 0

    g2 = build_graph(algebra(quad(5), quad(13)), DEFAULT_PRIME_BOUND)
    assert g2.edges == ((0, 1, TWO),)

    g3 = build_graph(algebra(quad(-1), quad(-1)), DEFAULT_PRIME_BOUND)
    assert g3.edges == ((0, 1, INFINITY),)

    single = build_graph(algebra(quad(-1)), DEFAULT_PRIME_BOUND)
    assert single.vertex_count == 1
    assert single.edges == ()
    assert single.star_vertex() == 0
    assert single.connected_components() == ((0,),)


def test_witness_graph_demo_unresolved_below_bound():
    g = build_graph(demo_algebra(), 3)
    assert g.edges == ()
    assert g.unresolved == ((0, 1),)
    assert g.connected_components() == ((0,), (1,))
    assert g.star_vertex() is None

    g5 = build_graph(demo_algebra(), 5)
    assert g5.edges == ((0, 1, V5),)
    assert g5.unresolved == ()
    assert g5.star_vertex() == 0


def test_witness_prefers_infinity_then_small_primes():
    mixed = algebra(quad(-1), quad(-3))
    g = build_graph(mixed, DEFAULT_PRIME_BOUND)
    assert helpers.witness(g, 0, 1) == INFINITY
    real_pair = algebra(quad(5), quad(2))
    gr = build_graph(real_pair, DEFAULT_PRIME_BOUND)
    # Both components split at infinity, so the witness must be finite.
    assert helpers.witness(gr, 0, 1) is not None and not helpers.witness(gr, 0, 1).is_infinite


def _reference_graph(alg, bound, cap):
    """Each pair's smallest witness, searched pair by pair: infinity, then
    primes up to the bound, or up to max(bound, cap) for two quad components."""
    n = len(alg.components)
    edges, unresolved = [], []
    for i in range(n):
        for j in range(i + 1, n):
            quad_pair = alg.components[i].is_quad and alg.components[j].is_quad
            limit = max(bound, cap) if quad_pair else bound
            primes = (p for p in range(2, limit + 1) if is_probable_prime(p))
            places = chain([INFINITY], map(Place, primes))
            witness = next(
                (
                    v
                    for v in places
                    if alg.component_split(i, v) is etale.NONSPLIT
                    and alg.component_split(j, v) is etale.NONSPLIT
                ),
                None,
            )
            if witness is not None:
                edges.append((i, j, witness))
            elif quad_pair:
                raise AuditError(
                    f"no shared non-split prime below {limit} for quadratic pair "
                    f"({i}, {j}); this contradicts character independence"
                )
            else:
                unresolved.append((i, j))
    return WitnessGraph(n, tuple(edges), tuple(unresolved))


def _random_annotated_algebra(rng):
    """2-4 quad and general components; general ones are annotated at some
    of 2 and their gap primes below 60."""
    specs = []
    for _ in range(rng.randint(2, 4)):
        if rng.random() < 0.5:
            specs.append(quad(rng.choice([-7, -3, -1, 2, 5, 7, 17, 41, 73, 97])))
        else:
            specs.append(random_general_spec(rng, 3))
    alg = algebra(*specs)
    annotations = {}
    if rng.random() < 0.5:
        for i, c in enumerate(alg.components):
            if c.is_quad:
                continue
            for p in sorted({2} | c.exactness_gaps):
                if p < 60 and rng.random() < 0.7:
                    annotations[i, p] = rng.choice(("split", "nonsplit"))
    return algebra(*specs, annotations=annotations)


def test_witness_walk_matches_a_per_pair_search(monkeypatch):
    rng = random.Random(47)
    # Three quad components split at infinity and at 2, so with cap 2 every
    # pair exhausts it at once; the error names the first.
    cases = [(algebra(quad(17), quad(41), quad(73)), 2, 2)]
    for k in range(160):
        alg = _random_annotated_algebra(rng)
        bound = rng.randint(2, 60)
        # A small cap makes some quad pairs exhaust it, as in the reference.
        cap = engine._QUAD_PAIR_PRIME_CAP if k % 4 else rng.choice((3, 7, 13))
        cases.append((alg, bound, cap))
    outcomes = set()
    for alg, bound, cap in cases:
        monkeypatch.setattr(engine, "_QUAD_PAIR_PRIME_CAP", cap)
        try:
            want = _reference_graph(alg, bound, cap)
        except AuditError as exc:
            with pytest.raises(AuditError) as got:
                build_graph(alg, bound)
            assert str(got.value) == str(exc)
            outcomes.add("audit")
            continue
        assert build_graph(alg, bound) == want, (alg, bound)
        outcomes.add("unresolved" if want.unresolved else "complete")
        outcomes.update("finite" for *_, v in want.edges if not v.is_infinite)
    assert outcomes == {"audit", "unresolved", "complete", "finite"}


def test_decide_evaluates_each_block_rule_once(monkeypatch):
    # Within one document the field check and the engine share one answer
    # per (component, prime); components are told apart by their kernel
    # lists g and W.
    rng = random.Random(53)
    evaluations: list[tuple[int, int, int]] = []
    queries: set[tuple[int, int, int]] = set()
    is_square_at, split_at = etale._is_square_at, etale.component_split_at

    def counting(g, W, D, p):
        evaluations.append((id(g), id(W), p))
        return is_square_at(g, W, D, p)

    def asking(c, p, annotation=None):
        queries.add((id(c.g), id(c.W), p))
        return split_at(c, p, annotation)

    monkeypatch.setattr(etale, "_is_square_at", counting)
    monkeypatch.setattr(etale, "component_split_at", asking)
    shared = 0
    for _ in range(30):
        specs = [random_general_spec(rng, 3) for _ in range(rng.randint(2, 3))]
        evaluations.clear()
        queries.clear()
        alg = algebra(*specs)
        validated = set(evaluations)
        form = trace_form(alg, random_symmetric_unit(alg, rng)).space
        decide(alg, form, 60)
        assert len(set(evaluations)) == len(evaluations)
        shared += len(validated & queries)
    assert shared >= 10


def test_decide_builds_bad_places_and_det_support_once(monkeypatch):
    # decide hands its bad places to construct_baseline, and the algebra
    # keeps its pairwise determinant support for every later reader.
    rng = random.Random(59)
    calls = {"bad_places": 0, "det_support": 0}
    bad, support = engine.bad_places, etale.pairwise_det_support

    def counting_bad(alg, form):
        calls["bad_places"] += 1
        return bad(alg, form)

    def counting_support(dets):
        calls["det_support"] += 1
        return support(dets)

    monkeypatch.setattr(engine, "bad_places", counting_bad)
    monkeypatch.setattr(etale, "pairwise_det_support", counting_support)
    full = baselines = 0
    for _ in range(30):
        specs = [
            random_general_spec(rng, 2)
            if rng.random() < 0.5
            else quad(rng.choice((-7, -3, -1, 2, 3, 5)))
            for _ in range(rng.randint(2, 3))
        ]
        alg = algebra(*specs)
        form = trace_form(alg, random_symmetric_unit(alg, rng)).space
        calls.update(bad_places=0, det_support=0)
        report = decide(alg, form, 60)
        if report.bad_places is None:
            assert calls == {"bad_places": 0, "det_support": 0}
            continue
        assert calls == {"bad_places": 1, "det_support": 1}
        # A later reader, such as the report, reuses the algebra's support.
        assert alg.pairwise_det_support <= frozenset(report.bad_places)
        assert calls["det_support"] == 1
        full += 1
        if report.baseline is not None:
            assert report.baseline.places == report.bad_places
            baselines += 1
    assert full >= 20 and baselines >= 3


# ------------------------------------------------------------------- decide


def test_decide_realizable_cm():
    report = decide(algebra(quad(-1)), diag(1, 1))
    assert report.verdict == VERDICT_REALIZABLE
    assert report.fast_path == "cm"
    assert report.star_vertex is None
    assert report.parity == (0,)
    assert report.bad_places == (TWO, INFINITY)
    assert report.needed_annotations == ()


def test_decide_locally_fails_nulls_pipeline_fields():
    report = decide(algebra(quad(-1)), diag(1, -1))
    assert report.verdict == VERDICT_LOCALLY_FAILS
    assert report.bad_places is None
    assert report.baseline is None
    assert report.parity is None
    assert report.graph is None
    assert report.fast_path is None


def test_decide_star_fast_path():
    report = decide(algebra(quad(5)), diag(2, -10))
    assert report.verdict == VERDICT_REALIZABLE
    assert report.fast_path == "star"
    assert report.star_vertex == 0

    pair = decide(algebra(quad(5), quad(13)), diag(1, -1, 1, -65))
    assert pair.fast_path == "star"
    assert pair.star_vertex == 0


def test_decide_inconclusive_lists_needed_annotations():
    report = decide(algebra(general([-2, 0, 1], [0, 1])), diag(1, 1, 1, -2))
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.needed_annotations == ((0, 2),)
    assert any("annotations" in note for note in report.notes)
    assert report.baseline is None


def test_decide_annotated_quartic_realizable_with_weighted_note():
    alg = algebra(general([-2, 0, 1], [0, 1]), annotations={(0, 2): "nonsplit"})
    report = decide(alg, diag(1, 1, 1, -2))
    assert report.verdict == VERDICT_REALIZABLE
    assert report.fast_path == "star"
    assert any("degree weights" in note for note in report.notes)


def test_decide_demo_monotone_in_bound():
    alg, form = demo_algebra(), demo_form()
    low = decide(alg, form, bound=3)
    assert low.verdict == VERDICT_NOT_REALIZABLE_UP_TO_BOUND
    assert low.graph.unresolved == ((0, 1),)
    assert low.parity == (1, 1)
    assert low.fast_path is None

    high = decide(alg, form, bound=5)
    assert high.verdict == VERDICT_REALIZABLE
    assert high.graph.edges == ((0, 1, V5),)

    default = decide(alg, form)
    assert default.verdict == VERDICT_REALIZABLE


def test_decide_is_deterministic():
    alg, form = demo_algebra(), demo_form()
    assert decide(alg, form, bound=7) == decide(demo_algebra(), demo_form(), bound=7)


def test_decide_same_invariants_same_verdict():
    gram = [[2, 1], [1, 1]]  # congruent to <1,1>
    a = decide(algebra(quad(-1)), diag(1, 1))
    b = decide(algebra(quad(-1)), QuadraticSpace.from_gram(gram))
    assert a.verdict == b.verdict == VERDICT_REALIZABLE
    assert a.parity == b.parity
    assert a.baseline == b.baseline


def test_decide_rejects_tiny_bound():
    with pytest.raises(ValueError):
        decide(algebra(quad(-1)), diag(1, 1), bound=1)


def test_decide_weighted_count_discrepancy_note():
    # A complex fixed field makes the degree-weighted count (2) differ from
    # the raw place count (1).
    alg = algebra(general([1, 0, 1], [0, 1]))  # F = Q(i), h = x^4 + 1
    form = diag(1, 1, -1, -1)
    local = check_local(alg, form)
    if local.passed:
        report = decide(alg, form)
        assert any("differs from the plain place count" in n for n in report.notes)


def test_decide_handles_every_cm_quad_pair_locally():
    # For CM algebras the verdict coincides with the local outcome.
    for d1, d2 in ((-1, -3), (-1, -7), (-3, -7), (-1, -1)):
        alg = algebra(quad(d1), quad(d2))
        disc = alg.disc_class.rep
        good = diag(1, 1, 1, disc if disc > 0 else -disc)
        report = decide(alg, good)
        local = check_local(alg, good)
        if local.passed:
            assert report.verdict == VERDICT_REALIZABLE
            assert report.fast_path == "cm"
        else:
            assert report.verdict == VERDICT_LOCALLY_FAILS
