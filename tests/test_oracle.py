"""Trace forms and the bounded realizing-element search."""

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt, prod
from pathlib import Path

import numpy as np
import pytest

from torusembed import oracle
from torusembed.arith.integers import factor_rationals
from torusembed.arith.places import INFINITY, Place
from torusembed.arith.polyq import PolyQ
from torusembed.arith.symbols import places_over
from torusembed.errors import AuditError, ComponentValidationError
from torusembed.etale import NONSPLIT, SPLIT, EtaleAlgebra
from torusembed.oracle import (
    AlgebraElement,
    make_element,
    search_realizing_element,
    trace_form,
)
from torusembed.qform import QuadraticSpace

import helpers
from helpers import (
    algebra,
    base_field,
    diag,
    enumerate_symmetric_units,
    equivalent_over_q,
    factored_block_invariants,
    fixed_field_image,
    fraction_component_gram,
    fraction_diagonalize,
    general,
    orthogonal_sum,
    quad,
    ramified_sign_counts,
    random_general_spec,
    random_symmetric_unit,
    sigma_apply,
    sylvester_resultant,
    symmetric_part,
)

P = PolyQ.of
V3, V5 = Place(3), Place(5)


def test_make_element_coercions_and_reduction():
    alg = algebra(general([-2, 0, 1], [0, 1]))  # h = x^4 - 2
    e = make_element(alg, [P([0, 0, 0, 0, 1])])  # x^4 reduces to 2
    assert e.parts[0].coeffs == (2,)
    e2 = make_element(alg, [3])
    assert e2.parts[0].coeffs == (3,)
    e3 = make_element(alg, [Fraction(1, 2)])
    assert e3.parts[0].coeffs == (Fraction(1, 2),)
    with pytest.raises(ValueError):
        make_element(alg, [1, 2])  # wrong number of parts


def test_sigma_and_symmetry():
    alg = algebra(general([-2, 0, 1], [0, 1]))
    x = make_element(alg, [P([1, 1, 1, 1])])
    sx = sigma_apply(x)
    assert sx.parts[0].coeffs == (1, -1, 1, -1)
    with pytest.raises(ValueError, match="not fixed by the involution"):
        trace_form(alg, x)
    assert trace_form(alg, make_element(alg, [P([1, 0, 5])])).space.dim == 4
    assert sigma_apply(sx).parts == x.parts  # sigma is an involution


def test_is_unit():
    # trace_form takes a part as a unit exactly when it is nonzero mod h.
    alg = algebra(quad(-1), quad(5))
    assert trace_form(alg, make_element(alg, [1, 1])).space.dim == 4
    for parts in ([0, 1], [1, 0]):
        with pytest.raises(ValueError, match="not a unit"):
            trace_form(alg, make_element(alg, parts))
    assert trace_form(alg, make_element(alg, [Fraction(-1, 3), 7])).space.dim == 4
    # An unreduced part that h divides is 0 in the algebra.
    quartic = algebra(general([-2, 0, 1], [0, 1]))  # h = x^4 - 2
    with pytest.raises(ValueError, match="not a unit"):
        trace_form(quartic, AlgebraElement((P([-6, 0, 0, 0, 3]),)))


def test_one_element_trace_form_gaussian():
    alg = algebra(quad(-1))
    result = trace_form(alg, make_element(alg, [1]))
    assert result.gram == ((2, 0), (0, 2))
    inv = result.space.invariants
    assert inv.disc.rep == -1
    assert inv.signature == (2, 0)


def test_trace_form_frozen_quartic_gram():
    alg = algebra(general([-2, 0, 1], [0, 1]))  # h = x^4 - 2
    result = trace_form(alg, make_element(alg, [1]))
    assert result.gram == (
        (4, 0, 0, 0),
        (0, 0, 0, -8),
        (0, 0, 8, 0),
        (0, -8, 0, 0),
    )
    inv = result.space.invariants
    assert inv.disc.rep == -2
    assert inv.signature == (3, 1)


def test_trace_form_gram_matches_numeric_roots_of_h():
    # A reference independent of h and its power sums: the roots of h_i are
    # r = +-sqrt(theta(y)) over the complex roots y of f, and
    # Tr(alpha * y^u * sigma(y^v)) = (-1)^v * sum_r alpha_i(r) * r^(u+v).
    # Entries agree to 1e-6 relative to the largest entry of their block, and
    # entries outside the diagonal blocks are exactly 0.
    rng = random.Random(43)
    for _ in range(30):
        alg = algebra(*(random_general_spec(rng, 3) for _ in range(rng.randint(1, 2))))
        for _ in range(3):
            alpha = random_symmetric_unit(alg, rng, halves=True)
            gram = trace_form(alg, alpha).gram
            offset = 0
            for comp, part in zip(alg.components, alpha.parts):
                d = comp.degree
                f, theta = base_field(comp)
                ys = np.roots([float(c) for c in reversed(f.coeffs)])
                theta = [float(c) for c in reversed(theta.coeffs)]
                half = np.sqrt(np.polyval(theta, ys).astype(complex))
                roots = np.concatenate([half, -half])
                at_roots = np.polyval([float(c) for c in reversed(part.coeffs)], roots)
                sums = [np.sum(at_roots * roots**w).real for w in range(2 * d - 1)]
                want = np.array(
                    [[(-1) ** v * sums[u + v] for v in range(d)] for u in range(d)]
                )
                block = [row[offset : offset + d] for row in gram[offset : offset + d]]
                got = np.array(block, dtype=float)
                assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
                for u in range(d):
                    outside = gram[offset + u][:offset] + gram[offset + u][offset + d :]
                    assert all(x == 0 for x in outside)
                offset += d


def test_trace_form_is_block_diagonal_across_components():
    alg = algebra(quad(-1), quad(5))
    alpha = make_element(alg, [2, -3])
    result = trace_form(alg, alpha)
    gram = result.gram
    assert all(gram[i][j] == 0 for i in range(2) for j in range(2, 4))
    single1 = trace_form(algebra(quad(-1)), make_element(algebra(quad(-1)), [2]))
    single2 = trace_form(algebra(quad(5)), make_element(algebra(quad(5)), [-3]))
    assert gram[0][0] == single1.gram[0][0]
    assert gram[2][2] == single2.gram[0][0]


def test_trace_form_rejects_bad_elements():
    alg = algebra(general([-2, 0, 1], [0, 1]))
    with pytest.raises(ValueError, match="not fixed by the involution"):
        trace_form(alg, make_element(alg, [P([0, 1])]))
    with pytest.raises(ValueError, match="not a unit"):
        trace_form(alg, make_element(alg, [0]))
    from torusembed.oracle import AlgebraElement

    wrong_arity = AlgebraElement((P([1]), P([1])))
    with pytest.raises(ValueError, match="does not match"):
        trace_form(alg, wrong_arity)


def test_trace_form_identities_random(unit_corpus):
    """disc q_alpha = disc E and the signature law, on the shared corpus."""
    for name, alg, alpha, result in unit_corpus:
        inv = result.space.invariants
        assert inv.dim == alg.rank
        assert inv.disc == alg.disc_class, name
        pos, neg = ramified_sign_counts(alg, alpha)
        w = alg.unramified_real_weight
        assert inv.signature == (2 * pos + w, 2 * neg + w), name


def test_gram_is_symmetric_and_det_class_matches_disc(unit_corpus):
    for _, alg, _, result in unit_corpus[:40]:
        gram = result.gram
        n = len(gram)
        for i in range(n):
            for j in range(n):
                assert gram[i][j] == gram[j][i]


def test_enumerate_symmetric_units_order_and_count():
    galg = algebra(quad(-1))
    els = list(enumerate_symmetric_units(galg, 1))
    assert [e.parts[0].coeffs for e in els] == [(-1,), (1,)]
    assert len(list(enumerate_symmetric_units(galg, 2))) == 4
    qalg = algebra(general([-2, 0, 1], [0, 1]))
    quartic_units = list(enumerate_symmetric_units(qalg, 1))
    assert len(quartic_units) == 8  # 3^2 - 1 nonzero vectors, all units
    assert quartic_units[0].parts[0].coeffs == (-1, 0, -1)
    pair = algebra(quad(-1), quad(5))
    combos = [
        tuple(part.coeffs[0] for part in e.parts)
        for e in enumerate_symmetric_units(pair, 1)
    ]
    assert combos == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    with pytest.raises(ValueError):
        list(enumerate_symmetric_units(pair, 0))


def test_enumerated_elements_are_symmetric_units():
    alg = algebra(general([-2, 0, 1], [-2, 1]), quad(-3))
    for e in itertools.islice(enumerate_symmetric_units(alg, 2), 50):
        assert not any(any(part.coeffs[1::2]) for part in e.parts)
        assert trace_form(alg, e).space.dim == alg.rank  # a symmetric unit


def test_search_finds_planted_element():
    alg = algebra(general([-2, 0, 1], [0, 1]))
    planted = make_element(alg, [symmetric_part([2, -1])])
    target = trace_form(alg, planted).space
    result = search_realizing_element(alg, target, 3)
    assert result.found
    assert equivalent_over_q(trace_form(alg, result.element).space, target)
    # The search returns the first match in enumeration order, which may be
    # an earlier element than the planted one.
    assert result.height == 3


def test_search_respects_dimension_and_reports_misses():
    alg = algebra(quad(-1))
    with pytest.raises(ValueError, match="dimension"):
        search_realizing_element(alg, diag(1, 1, 1), 2)
    missing = search_realizing_element(alg, diag(1, -1), 4)
    assert not missing.found
    assert missing.element is None and missing.form is None


def test_search_deterministic_first_hit():
    alg = algebra(quad(-1))
    result = search_realizing_element(alg, diag(2, 2), 3)
    assert result.found
    assert result.element.parts[0].coeffs == (1,)
    again = search_realizing_element(alg, diag(2, 2), 3)
    assert again.element.parts == result.element.parts


def test_local_bits_cover_both_classes_at_nonsplit_places():
    """At an odd nonsplit place the trace forms realize both Hasse bits;
    at a split place only the hyperbolic bit appears."""
    cases = [
        (algebra(quad(-1)), V3, 3, V5),  # 3 inert, 5 split in Q(i)
        (algebra(quad(-3)), V5, 5, Place(13)),  # 5 inert, 13 = 1 mod 3
        (algebra(general([-2, 0, 1], [0, 1])), V5, 5, None),
        (algebra(general([-2, 0, 1], [-2, 1])), V5, 5, None),
        (algebra(quad(2)), V5, 5, Place(7)),  # 2 nonresidue mod 5
        (algebra(quad(-7)), V5, 5, Place(2)),  # -7 = 1 mod 8: 2 splits
    ]
    for alg, nonsplit_v, height, split_v in cases:
        # Flipping the bit at an odd place needs an element of odd valuation
        # there, so the search height must reach the prime itself.
        assert alg.statuses(nonsplit_v) == (NONSPLIT,)
        bits = set()
        for e in enumerate_symmetric_units(alg, height):
            bits.add(trace_form(alg, e).space.local_hasse_bit(nonsplit_v))
            if len(bits) == 2:
                break
        assert bits == {0, 1}, (alg, nonsplit_v)
        if split_v is None:
            continue
        assert alg.statuses(split_v) == (SPLIT,)
        hyper_bit = QuadraticSpace.of([1, -1] * (alg.rank // 2)).local_hasse_bit(
            split_v
        )
        for e in itertools.islice(enumerate_symmetric_units(alg, 2), 24):
            assert trace_form(alg, e).space.local_hasse_bit(split_v) == hyper_bit


def test_fixed_field_image():
    comp = algebra(general([-2, 0, 1], [0, 1])).components[0]
    image = fixed_field_image(comp, symmetric_part([0, 1]))  # x^2 -> theta = y
    assert image.coeffs == (0, 1)
    image2 = fixed_field_image(comp, symmetric_part([3, 2]))  # 3 + 2 theta
    assert image2.coeffs == (3, 2)
    with pytest.raises(ValueError):
        fixed_field_image(comp, P([0, 1]))


def test_signs_at_ramified_embeddings():
    alg = algebra(general([-2, 0, 1], [0, 1]))
    # Only the embedding y -> -sqrt(2) is ramified (theta < 0 there).
    assert ramified_sign_counts(alg, make_element(alg, [symmetric_part([1])])) == (1, 0)
    assert ramified_sign_counts(
        alg, make_element(alg, [symmetric_part([0, 1])])
    ) == (0, 1)
    cm = algebra(general([-2, 0, 1], [-2, 1]))
    assert ramified_sign_counts(cm, make_element(cm, [symmetric_part([1])])) == (2, 0)
    assert ramified_sign_counts(cm, make_element(cm, [symmetric_part([-1])])) == (0, 2)


def test_ramified_sign_counts_pairs():
    alg = algebra(quad(-1), quad(-3))
    assert ramified_sign_counts(alg, make_element(alg, [1, -1])) == (1, 1)
    assert ramified_sign_counts(alg, make_element(alg, [2, 5])) == (2, 0)
    really_mixed = algebra(general([-2, 0, 1], [0, 1]))
    assert ramified_sign_counts(
        really_mixed, make_element(really_mixed, [symmetric_part([0, 1])])
    ) == (0, 1)


def test_signature_spectrum_matches_achievable_signatures():
    """Across many units of the CM quartic the trace forms realize exactly
    the two definite signatures, never the mixed ones."""
    alg = algebra(general([-2, 0, 1], [-2, 1]))
    seen = set()
    for e in enumerate_symmetric_units(alg, 2):
        seen.add(trace_form(alg, e).space.invariants.signature)
    assert seen == {(4, 0), (0, 4), (2, 2)}


def _random_small_algebra(rng: random.Random, max_components: int = 3):
    specs = []
    for _ in range(rng.randint(1, max_components)):
        if rng.random() < 0.5:
            specs.append(quad(rng.choice([-11, -7, -6, -5, -3, -2, -1, 2, 3, 5, 6, 7])))
        else:
            specs.append(random_general_spec(rng, 3))
    return algebra(*specs)


def test_orthogonal_sum_of_block_invariants_is_the_trace_form_invariants():
    # Each block's invariants come from the trace form of the one-component
    # algebra; their orthogonal sum must be the full trace form's invariants.
    rng = random.Random(5)
    for _ in range(60):
        alg = _random_small_algebra(rng)
        for _ in range(3):
            alpha = random_symmetric_unit(alg, rng, halves=True)
            blocks = [
                trace_form(EtaleAlgebra((comp,)), AlgebraElement((part,))).invariants
                for comp, part in zip(alg.components, alpha.parts)
            ]
            assert orthogonal_sum(blocks) == trace_form(alg, alpha).invariants


def _random_vector(rng: random.Random, m: int, height: int) -> tuple[int, ...]:
    """A nonzero integer vector of length m with entries in [-height, height]."""
    while True:
        vec = tuple(rng.randint(-height, height) for _ in range(m))
        if any(vec):
            return vec


def _reference_search(alg, target, height):
    want = target.invariants
    for e in enumerate_symmetric_units(alg, height):
        result = trace_form(alg, e)
        if result.invariants == want:
            return e, result
    return None, None


def test_search_matches_a_linear_scan_and_exhausts_without_trace_forms(monkeypatch):
    rng = random.Random(11)
    calls = []

    def counting_trace_form(alg, alpha):
        calls.append(alpha)
        return trace_form(alg, alpha)

    monkeypatch.setattr(oracle, "trace_form", counting_trace_form)
    for _ in range(12):
        alg = _random_small_algebra(rng, 2)
        planted = random_symmetric_unit(alg, rng, height=2)
        entries = [
            a * rng.choice((1, 4, 9)) for a in trace_form(alg, planted).space.diagonal
        ]
        target = QuadraticSpace.of(entries)
        element, form = _reference_search(alg, target, 2)
        assert element is not None
        result = search_realizing_element(alg, target, 2)
        assert result.element == element
        assert result.form.gram == form.gram
        assert result.form.space.diagonal == form.space.diagonal

        entries[rng.randrange(len(entries))] *= rng.choice((3, 5, 7))
        calls.clear()
        missing = search_realizing_element(alg, QuadraticSpace.of(entries), 2)
        assert not missing.found
        assert calls == []


def test_streams_keep_every_nonzero_vector_and_run_no_gcd(monkeypatch):
    # A nonzero part has degree below deg h and every h is irreducible, so each
    # nonzero vector is a unit: a stream holds (2H+1)^(deg f) - 1 blocks, the
    # count cli._check_oracle_cost charges, and needs no gcd to build.
    rng = random.Random(23)
    algebras = [_random_small_algebra(rng) for _ in range(12)]
    assert {c.fixed_degree for a in algebras for c in a.components} == {1, 2, 3}
    assert {c.is_quad for a in algebras for c in a.components} == {True, False}

    def no_gcd(self, other):
        raise AssertionError("_streams ran a gcd")

    for alg in algebras:
        for height in (1, 2, 3):
            with monkeypatch.context() as m:
                m.setattr(PolyQ, "gcd", no_gcd)
                streams = oracle._streams(alg, height, frozenset())
            assert [len(s) for s in streams] == [
                (2 * height + 1) ** c.fixed_degree - 1 for c in alg.components
            ]
            for comp, blocks in zip(alg.components, streams):
                assert all(b.part.gcd(comp.h).degree == 0 for b in blocks)


def test_block_det_class_is_the_component_det_class():
    # det Gram(Tr(alpha x sigma(x))) = N_{K/Q}(alpha) det(q_1), and the norm
    # of a fixed alpha is N_{F/Q}(alpha)^2, a square: the product of a block's
    # diagonal times the component's det class is a rational square.
    rng = random.Random(37)
    checked = 0
    for _ in range(40):
        alg = _random_small_algebra(rng)
        traces = [oracle._Trace(comp, ()) for comp in alg.components]
        for _ in range(3):
            for comp, trace in zip(alg.components, traces):
                vec = _random_vector(rng, comp.fixed_degree, 3)
                block = oracle._Block(trace, vec)
                value = prod(block.halves[0]) * comp.det_class.rep
                assert value > 0 and isqrt(value) ** 2 == value, (comp.spec, vec)
                checked += 1
    assert checked >= 200


def test_det_mismatched_search_computes_no_block_invariants(monkeypatch):
    rng = random.Random(41)
    built = []
    halves = oracle._halves

    def counting_halves(trace, vec):
        built.append(vec)
        return halves(trace, vec)

    monkeypatch.setattr(oracle, "_halves", counting_halves)
    for _ in range(12):
        alg = _random_small_algebra(rng, 2)
        planted = random_symmetric_unit(alg, rng, height=2)
        entries = list(trace_form(alg, planted).space.diagonal)
        entries[rng.randrange(len(entries))] *= rng.choice((3, 5, 7))
        target = QuadraticSpace.of(entries)
        assert target.invariants.det != trace_form(alg, planted).invariants.det
        built.clear()
        assert not search_realizing_element(alg, target, 2).found
        assert built == []
    with pytest.raises(ValueError, match="height"):
        search_realizing_element(alg, target, 0)


def test_bounded_block_support_matches_the_factored_reference():
    # Components with deg f 1..5 and theta of full degree, blocks of height 1
    # and 2.  Every block must have the signature of its Gram block, and
    # det E_alpha / det E_1 must be the norm Res(f, a) of alpha's image a in
    # F.  Where the Gram block's diagonal stays below 10^40, so that the
    # factored reference ends within a second, the support read off the
    # known places and the primes of N(alpha) outside them must equal the
    # fully factored one.
    rng = random.Random(2)
    compared = {m: 0 for m in range(1, 6)}
    checked = 0
    for _ in range(60):
        alg = algebra(random_general_spec(rng, 5))
        comp = alg.components[0]
        m = comp.fixed_degree
        primes = oracle._known_primes(alg, frozenset())
        (stream,) = oracle._streams(alg, 1, primes)
        trace = stream[0].trace
        known = trace.known
        for height in (1, 2):
            for _ in range(2):
                vec = _random_vector(rng, m, height)
                block = oracle._Block(trace, vec)
                gram = oracle._component_gram(comp, block.part)
                space = QuadraticSpace.from_gram(gram)
                r = sum(1 for a in space.diagonal if a > 0)
                assert (block.positives, 2 * m - block.positives) == (r, 2 * m - r)
                f = base_field(comp)[0]
                norm = sylvester_resultant(f, fixed_field_image(comp, block.part))
                assert Fraction(block.halves[1], trace.unit_det) == norm
                assert not set(block.late_places) & set(known)
                checked += 1
                sizes = (max(abs(a.numerator), a.denominator) for a in space.diagonal)
                if max(sizes) >= 10**40:
                    continue
                want = factored_block_invariants(comp, vec)
                assert want.signature == (r, 2 * m - r)
                assert block.known_support | block.late_support == want.hasse_support
                compared[m] += 1
    assert checked == 240
    assert all(count >= 5 for count in compared.values()), compared


def _rational_component(rng: random.Random, m: int):
    """A component with deg f = m, denominators in f and theta two times in
    three, and theta of any lower degree; m = 0 gives a quad component."""
    while True:
        if m == 0:
            spec = quad(rng.choice([-15, -7, -3, -2, -1, 2, 3, 5, 6, 10]))
        else:
            dens = (1, 2, 3, 4) if rng.random() < 2 / 3 else (1,)
            f = [Fraction(rng.randint(-6, 6), rng.choice(dens)) for _ in range(m)]
            theta = [
                Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 5)))
                for _ in range(rng.randint(1, m))
            ]
            spec = general(f + [1], theta)
        try:
            return algebra(spec).components[0]
        except ComponentValidationError:
            continue


def _is_rational_square(x: Fraction) -> bool:
    return x > 0 and all(isqrt(n) ** 2 == n for n in (x.numerator, x.denominator))


def test_integer_gram_and_halves_match_the_fraction_reference():
    # The oracle's integer sums L * s_n = 2 * t_n * D^(top - n) against the
    # Fraction sums 2 * t_n / D^n: on quad components and on deg f = 1..5
    # with denominators in f and theta, each trace form's Gram block and
    # diagonal equal the Fraction reference's, and each block's _halves
    # diagonal is entry by entry in the square class of the reference's
    # even and odd halves, diagonalized over Q.  Nothing here reads
    # .invariants: factoring a large target has no budget yet (ROADMAP
    # item 1).
    rng = random.Random(211)
    seen = {m: 0 for m in range(6)}
    with_d = 0
    for i in range(60):
        comps = [_rational_component(rng, (i + k) % 6) for k in range(1 + i % 2)]
        alg = EtaleAlgebra(tuple(comps))
        for comp in comps:
            seen[0 if comp.is_quad else comp.fixed_degree] += 1
            with_d += comp.D > 1
        for _ in range(2):
            alpha = random_symmetric_unit(alg, rng, height=3, halves=True)
            result = trace_form(alg, alpha)
            want = [[Fraction(0)] * alg.rank for _ in range(alg.rank)]
            offset = 0
            for comp, part in zip(comps, alpha.parts):
                block = fraction_component_gram(comp, part)
                for u, row in enumerate(block):
                    want[offset + u][offset : offset + len(row)] = row
                offset += comp.degree
            assert result.gram == tuple(map(tuple, want)), alpha
            assert result.space.diagonal == fraction_diagonalize(want), alpha
        for comp in comps:
            m = comp.fixed_degree
            trace = oracle._Trace(comp, ())
            for height in (1, 2):
                vec = _random_vector(rng, m, height)
                gram = fraction_component_gram(comp, symmetric_part(vec))
                reference = [
                    *fraction_diagonalize([row[0::2] for row in gram[0::2]]),
                    *fraction_diagonalize([row[1::2] for row in gram[1::2]]),
                ]
                got = oracle._halves(trace, vec)[0]
                assert len(got) == len(reference) == 2 * m
                assert all(
                    _is_rational_square(a / r) for a, r in zip(got, reference)
                ), (vec, got, reference)
    assert min(seen.values()) >= 10 and with_d >= 20, (seen, with_d)


def test_certificate_compares_signature_det_class_and_bits(unit_corpus):
    # Over the places of both forms' entries, the certificate agrees with the
    # factored invariant comparison: on the trace form itself, and after a
    # change of the det class, of the signature, or of the Hasse support.
    outcomes = set()
    for _, _, _, result in unit_corpus[:40]:
        space = result.space
        diagonal = list(space.diagonal)
        for scaled in (
            diagonal,
            [3 * diagonal[0], *diagonal[1:]],
            [-diagonal[0], -diagonal[1], *diagonal[2:]],
            [7 * diagonal[0], 7 * diagonal[1], *diagonal[2:]],
        ):
            target = QuadraticSpace.of(scaled)
            entries = [*space.diagonal, *target.diagonal]
            primes = {p for _, exponents in factor_rationals(entries) for p in exponents}
            same = target.invariants == space.invariants
            places = places_over(primes)
            assert oracle._certifies(space, target.invariants, places) == same
            outcomes.add(same)
    assert outcomes == {True, False}


def test_a_lying_screen_is_caught_by_the_certificate(monkeypatch):
    # <6, 6> needs alpha = 3 in Q(i); at height 2 no element realizes it.  If
    # the known-place screen passed every block, alpha = 1 would reach the
    # certificate, whose Hasse bits at 2 and 3 disagree with the target's.
    alg = algebra(quad(-1))
    target = diag(6, 6)
    assert not search_realizing_element(alg, target, 2).found
    assert search_realizing_element(alg, target, 3).found
    residual = target.invariants.hasse_support ^ alg.pairwise_det_support
    monkeypatch.setattr(oracle._Block, "known_support", property(lambda b: residual))
    with pytest.raises(AuditError, match="but its trace form does not"):
        search_realizing_element(alg, target, 2)


def test_late_primes_reject_a_candidate_that_passes_the_known_places():
    # In Q(i), alpha = c gives <2c, 2c>, whose bit at an odd p is v_p(c) mod 2
    # when p = 3 mod 4.  For the target <-6, -6> the known places are 2, 3
    # and infinity, and c = -231 = -3 * 7 * 11 has the target's bits there,
    # but bits at 7 and 11 as well: only the late screen rejects it.
    alg = algebra(quad(-1))
    target = diag(-6, -6)
    residual = target.invariants.hasse_support ^ alg.pairwise_det_support
    (stream,) = oracle._streams(alg, 231, oracle._known_primes(alg, residual))
    first = stream[0]
    assert first.vec == (-231,)
    assert first.known_support == residual
    assert first.late_support == {Place(7), Place(11)}
    element, form = _reference_search(alg, target, 231)
    result = search_realizing_element(alg, target, 231)
    assert result.element == element
    assert result.form.gram == form.gram


_HANG_F = [5, 3, "3/2", 4, "5/2", 1]
_HANG_THETA = [-1, -4, "-2/3", 1, 2]


def test_degree_five_oracle_ends_within_the_limit(tmp_path):
    # The component of f = [5, 3, 3/2, 4, 5/2, 1], theta = [-1, -4, -2/3, 1,
    # 2], with the trace form of alpha = 1 as the target: its Gram entries
    # reach 40 digits.  At height 1 both commands must end well inside 30 s.
    spec = general([Fraction(c) for c in _HANG_F], [Fraction(c) for c in _HANG_THETA])
    alg = algebra(spec)
    target = trace_form(alg, make_element(alg, [1]))
    doc = {
        "algebra": [{"type": "general", "f": _HANG_F, "theta": _HANG_THETA}],
        "form": {"gram": [[str(c) for c in row] for row in target.gram]},
    }
    path = tmp_path / "degree-five.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    src = Path(oracle.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(command):
        return subprocess.run(
            [sys.executable, "-m", "torusembed", command, str(path), "--height", "1"]
            + ["--json"],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )

    found = run("oracle")
    assert found.returncode == 0, found.stderr
    report = json.loads(found.stdout)["oracle"]
    assert report["found"]
    element = make_element(
        alg, [symmetric_part([Fraction(c) for c in report["element"][0][::2]])]
    )
    assert trace_form(alg, element).invariants == target.invariants
    # The engine leaves this input inconclusive, so a found element is the
    # documented audit failure.
    audited = run("decide")
    assert audited.returncode == 70, audited.stderr
    assert "internal audit failure" in audited.stdout
