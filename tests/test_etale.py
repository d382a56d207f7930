"""Etale algebras with involution: validation, invariants, splitting."""

import itertools
import random
import time
from fractions import Fraction
from math import lcm

import pytest

from torusembed import etale
from torusembed.arith import integers
from torusembed.arith.integers import factor_rational, is_probable_prime
from torusembed.arith.places import INFINITY, Place
from torusembed.arith.polyfp import factor_mod_p, fp_pow_mod
from torusembed.arith.polyq import (
    PolyQ,
    integer_kernel,
    is_irreducible,
    power_sums,
    resultant_in_y,
)
from torusembed.arith.sturm import isolate_real_roots
from torusembed.engine import check_local, construct_baseline
from torusembed.errors import ComponentValidationError, NeedAnnotations
from torusembed.etale import (
    INDETERMINATE,
    NONSPLIT,
    SPLIT,
    GeneralSpec,
    build_algebra,
    build_component,
)
from torusembed.oracle import make_element, trace_form

from helpers import (
    algebra,
    base_field,
    diag,
    fraction_resultant_in_y,
    general,
    quad,
    random_general_spec,
    rational_tarski_query,
    real_root_count,
    reduce_mod_p,
    squarefree_part,
    sylvester_discriminant,
    sylvester_resultant,
)

V2, V3, V5 = (Place(p) for p in (2, 3, 5))


def primes_up_to(limit: int):
    return [p for p in range(2, limit) if is_probable_prime(p)]


# ---------------------------------------------------------------- validation


def test_quad_spec_validation():
    for d in (0, 1, 4, 12, -4):
        with pytest.raises(ComponentValidationError):
            build_component(quad(d))
    build_component(quad(-15))  # squarefree composite is fine


def test_general_spec_validation():
    with pytest.raises(ComponentValidationError):
        build_component(general([-1, 0, 1], [0, 1]))  # f reducible
    with pytest.raises(ComponentValidationError):
        build_component(general([-2, 0, 1], [1]))  # theta = 1: not a field
    with pytest.raises(ComponentValidationError):
        build_component(general([-2, 0, 1], [0, 0, 1]))  # theta = y^2 = 2: square
    with pytest.raises(ComponentValidationError):
        build_component(general([-2, 0, 1], [0]))  # theta = 0
    with pytest.raises(ComponentValidationError):
        build_component(general([5], [0, 1]))  # constant f
    # Degree cap: deg h = 2 * deg f must stay within the factoring range.
    with pytest.raises(ComponentValidationError):
        build_component(general([-2, 0, 0, 0, 0, 0, 0, 1], [0, 1]))


def test_component_invariants_quad():
    c = build_component(quad(-1))
    assert c.degree == 2
    assert c.h.coeffs == (1, 0, 1)
    assert (c.disc_class.rep, c.det_class.rep) == (-1, 1)
    assert c.real_profile == (1, 0, 0)
    assert c.exactness_gaps == frozenset()
    c5 = build_component(quad(5))
    assert (c5.disc_class.rep, c5.det_class.rep) == (5, -5)
    assert c5.real_profile == (0, 1, 0)
    assert c5.unramified_weight == 1


def test_component_invariants_general():
    c = build_component(general([-2, 0, 1], [0, 1]))  # h = x^4 - 2
    assert c.h.coeffs == (-2, 0, 0, 0, 1)
    assert (c.disc_class.rep, c.det_class.rep) == (-2, -2)
    assert c.real_profile == (1, 1, 0)
    assert c.unramified_weight == 1
    assert c.exactness_gaps == frozenset()

    cm = build_component(general([-2, 0, 1], [-2, 1]))  # h = x^4 + 4x^2 + 2
    assert cm.h.coeffs == (2, 0, 4, 0, 1)
    assert (cm.disc_class.rep, cm.det_class.rep) == (2, 2)
    assert cm.real_profile == (2, 0, 0)
    assert cm.unramified_weight == 0

    un = build_component(general([-2, 0, 1], [2, 1]))  # h = x^4 - 4x^2 + 2
    assert un.h.coeffs == (2, 0, -4, 0, 1)
    assert un.real_profile == (0, 2, 0)
    assert un.unramified_weight == 2

    cx = build_component(general([1, 0, 1], [0, 1]))  # F = Q(i), h = x^4 + 1
    assert cx.h.coeffs == (1, 0, 0, 0, 1)
    assert cx.real_profile == (0, 0, 1)
    assert cx.unramified_weight == 2


def test_component_h_is_even_and_disc_matches_h():
    specs = [
        quad(-1),
        quad(7),
        general([-2, 0, 1], [0, 1]),
        general([-2, 0, 1], [-2, 1]),
        general([-5, 0, 1], [0, 1]),
        general([1, 0, 1], [0, 1]),
        general([-3, 0, 1], [-2, 1]),
    ]
    for spec in specs:
        c = build_component(spec)
        assert all(x == 0 for i, x in enumerate(c.h.coeffs) if i % 2 == 1)
        assert c.disc_class.rep == squarefree_part(sylvester_discriminant(c.h))
        half = c.degree // 2
        expected_det = c.disc_class.rep if half % 2 == 0 else -c.disc_class.rep
        assert c.det_class.rep == squarefree_part(expected_det)
        ram, unram, cx = c.real_profile
        assert ram + unram + 2 * cx == c.fixed_degree
        assert c.unramified_weight == unram + 2 * cx
        assert c.unramified_place_count == unram + cx


def test_h_is_the_resultant_of_f_and_x2_minus_theta():
    # h(x) = Res_y(f(y), x^2 - theta(y)); h has degree 2m, so its values at
    # 2m + 1 points, from the univariate resultant, pin it down.
    rng = random.Random(41)
    for _ in range(60):
        c = build_component(random_general_spec(rng))
        f, theta = base_field(c)
        m = c.fixed_degree
        assert c.h.degree == 2 * m and c.h.lc == 1
        for x0 in range(2 * m + 1):
            expected = sylvester_resultant(f, PolyQ.constant(x0 * x0) - theta)
            assert c.h.evaluate(x0) == expected, (f.coeffs, theta.coeffs, x0)


def test_real_counts_match_isolation_and_trace_signature():
    # real_count and ramified_count come from Hermite's form.  The references
    # are the isolated real roots of f and the signature (r, s) of the trace
    # form of alpha = 1, which is (2 * ramified + w, w).  The first 40 cases
    # have deg f <= 4, the rest reach deg f = 5; theta has any lower degree.
    rng = random.Random(7)
    seen = set()
    for i in range(60):
        spec = random_general_spec(rng) if i < 40 else random_general_spec(rng, 5)
        c = build_component(spec)
        assert c.real_count == len(isolate_real_roots(spec.f)), spec
        alg = build_algebra([spec])
        # The signature from the signs of the diagonal: the full invariants
        # would factor its entries, which can be large at degree 10.
        diagonal = trace_form(alg, make_element(alg, [1])).space.diagonal
        r = sum(a > 0 for a in diagonal)
        s = len(diagonal) - r
        assert c.ramified_count == (r - s) // 2 and (r - s) % 2 == 0, spec
        seen.add((c.fixed_degree, c.real_count, c.ramified_count))
    assert {m for m, _, _ in seen} == {1, 2, 3, 4, 5}
    assert len({(real, ram) for _, real, ram in seen}) >= 6


def test_real_counts_and_gaps_match_the_sturm_and_sylvester_references():
    # Components with deg f = 1..6, denominators in f and theta, and theta
    # of full degree m - 1 two times in three.  The references: the isolated
    # real roots of f, the Tarski query of theta over Q, and the gap set from
    # the primes of f's and theta's denominators, the Sylvester discriminant
    # of f and the norm Res(f, theta), less 2.
    rng = random.Random(53)
    seen = set()
    built = 0
    while built < 90:
        m = 1 + built % 6
        f = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(m)]
        top = m if built % 3 else rng.randint(1, m)
        theta = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 5))) for _ in range(top)]
        theta[-1] = theta[-1] or Fraction(1, 2)
        try:
            c = build_component(general(f + [1], theta))
        except ComponentValidationError:
            continue
        built += 1
        cf, ctheta = base_field(c)
        real = len(isolate_real_roots(cf))
        assert c.real_count == real, (f, theta)
        assert c.ramified_count == (real - rational_tarski_query(cf, ctheta)) // 2
        primes: set[int] = set()
        for x in (
            lcm(*(a.denominator for a in f)),
            sylvester_discriminant(cf),
            lcm(*(a.denominator for a in theta)),
            sylvester_resultant(cf, ctheta),
        ):
            primes.update(factor_rational(x)[1])
        assert c.exactness_gaps == frozenset(primes - {2}), (f, theta)
        seen.add((m, c.real_count, c.ramified_count))
    assert {m for m, _, _ in seen} == set(range(1, 7))
    assert len({(real, ram) for _, real, ram in seen}) >= 10


def _square_at_every_factor(f: PolyQ, theta: PolyQ, p: int) -> bool:
    """Euler's criterion modulo each irreducible factor of f mod p: the
    per-prime reference for the block rule kept in ``square_at``."""
    theta_p = reduce_mod_p(theta, p)
    return all(
        fp_pow_mod(theta_p, (p ** (len(phi) - 1) - 1) // 2, phi, p) == [1]
        for phi, _ in factor_mod_p(reduce_mod_p(f, p), p)
    )


def test_integer_kernel_matches_the_fraction_references():
    # f and theta are integerized once, as g = c^m f(z/c) and theta = W/D.
    # No corpus or golden document has c != 1 or d != 1 (the lcms of f's and
    # theta's denominators), so this test is what reaches them.  Components
    # have deg f = 1..6 and theta of full degree two times in three.  The
    # references, all over Q: h at m + 1 values of x^2 is the Sylvester
    # resultant Res_y(f, x^2 - theta); the power sums are Newton's identities
    # on chi's Fractions; the real and ramified counts are Tarski queries of
    # 1 and theta; the gap set comes from the primes of the denominators,
    # disc(f) and Res(f, theta); and square_at, after the primes below 60
    # are asked, agrees with Euler's criterion modulo each factor of f.
    rng = random.Random(71)
    built = with_c = with_d = 0
    while built < 60:
        m = 1 + built % 6
        f = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))) for _ in range(m)]
        top = m if built % 3 else rng.randint(1, m)
        theta = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 5))) for _ in range(top)]
        theta[-1] = theta[-1] or Fraction(1, 3)
        try:
            c = build_component(general(f + [1], theta))
        except ComponentValidationError:
            continue
        built += 1
        cf, ctheta = base_field(c)
        f_den = lcm(*(a.denominator for a in cf.coeffs))
        theta_den = lcm(*(a.denominator for a in ctheta.coeffs))
        with_c += f_den > 1
        with_d += theta_den > 1
        for x in range(m + 1):
            want = sylvester_resultant(cf, PolyQ.of([x * x]) - ctheta)
            assert c.h.evaluate(x) == want, (f, theta, x)
        # The kernel's t_k / D^k are the power sums of chi's roots, and
        # 2 * t_k / D^k those of h's roots at even powers.
        chi = fraction_resultant_in_y(cf, ctheta).coeffs[::2]
        sums = [q for s in power_sums(chi, 3 * m - 1) for q in (2 * s, 0)][:-1]
        got = [q for k, x in enumerate(c.t) for q in (Fraction(2 * x, c.D**k), 0)]
        assert got[:-1] == sums, (f, theta)
        real = real_root_count(cf)
        tarski = rational_tarski_query(cf, ctheta)
        assert (c.real_count, c.ramified_count) == (real, (real - tarski) // 2)
        primes: set[int] = set()
        for n in (f_den, sylvester_discriminant(cf), theta_den,
                  sylvester_resultant(cf, ctheta)):
            primes.update(factor_rational(n)[1])
        assert c.exactness_gaps == frozenset(primes - {2}), (f, theta)
        for p in primes_up_to(60):
            if p != 2 and p not in primes:
                etale.component_split_at(c, p)
        for p, square in c.square_at.items():
            assert square == _square_at_every_factor(cf, ctheta, p), (f, theta, p)
    assert with_c >= 40 and with_d >= 40


def test_selftest_block_rule_answers_match_the_reference():
    # selftest pins the block rule on f = y^2 - 1/2 and theta = y/3 (c = 2,
    # D = 6) at 7, 11 and 17; Euler's criterion modulo each factor of f
    # gives the same answers.
    f, theta = PolyQ.of((Fraction(-1, 2), 0, 1)), PolyQ.of((0, Fraction(1, 3)))
    c = build_component(GeneralSpec(f, theta))
    assert (c.g, c.W, c.D) == ([-2, 0, 1], [0, 1], 6)
    for p, square in ((7, False), (11, True), (17, True)):
        assert _square_at_every_factor(f, theta, p) is square, p
        assert etale.component_split_at(c, p) is (SPLIT if square else NONSPLIT), p

def test_general_component_tests_f_only_when_h_is_reducible(monkeypatch):
    # A valid component is checked through chi, as the integer chi_T of
    # D * theta from the resultant's Newton loop, and a good prime where
    # theta is a non-square; h is factored only when theta is a square at
    # every prime tried, and f only to name an error.
    calls = []
    real_is_irreducible = etale.is_irreducible
    real_is_monic_irreducible = etale.is_monic_irreducible

    def counting(g):
        calls.append(g)
        return real_is_irreducible(g)

    def counting_monic(g, s):
        calls.append(g)
        return real_is_monic_irreducible(g, s)

    def chi_T(f, theta):
        g, _, W, _, s = integer_kernel(f, theta)
        return resultant_in_y(g, W, s)

    rng = random.Random(11)
    specs = [random_general_spec(rng) for _ in range(20)]
    monkeypatch.setattr(etale, "is_irreducible", counting)
    monkeypatch.setattr(etale, "is_monic_irreducible", counting_monic)
    for spec in specs:
        calls.clear()
        c = build_component(spec)
        assert calls == [chi_T(*base_field(c))], spec
    # Each message for its own input, in the old precedence: a reducible f
    # is named even when theta is also 0 mod f.
    f2 = [-2, 0, 1]
    cases = [
        ([-1, 0, 1], [0, 1], "f is reducible", ["chi", "f"]),
        ([-1, 0, 1], [-1, 0, 1], "f is reducible", ["f"]),
        (f2, [0], "theta must be nonzero", ["f"]),
        (f2, [-2, 0, 1], "theta must be nonzero", ["f"]),
        (f2, [1], "does not generate a field", ["chi", "f"]),
        # theta = 3 is a non-square but rational, so chi = (x - 3)^2.
        (f2, [3], "does not generate a field", ["chi", "f"]),
        # theta = (1 + y)^2 = 3 + 2y generates F (chi = x^2 - 6x + 1) and is
        # a square at every prime, so only h decides.
        (f2, [3, 2], "does not generate a field", ["chi", "h"]),
    ]
    for f_coeffs, theta_coeffs, message, names in cases:
        f = PolyQ.of(f_coeffs)
        theta = PolyQ.of(theta_coeffs) % f
        h = fraction_resultant_in_y(f, theta)
        polys = {"f": f, "h": h, "chi": chi_T(f, theta)}
        calls.clear()
        with pytest.raises(ComponentValidationError, match=message):
            build_component(general(f_coeffs, theta_coeffs))
        assert calls == [polys[n] for n in names], (f_coeffs, theta_coeffs)
    assert polys["chi"] == [1, -6, 1]


def _reference_validation(f: PolyQ, theta: PolyQ) -> str | None:
    """Validation by h alone: None when h is irreducible, else the message
    naming why, with a reducible f named first."""
    theta = theta % f
    if is_irreducible(fraction_resultant_in_y(f, theta)):
        return None
    if not is_irreducible(f):
        return "f is reducible"
    if theta.is_zero:
        return "theta must be nonzero"
    return "does not generate a field"


def test_field_check_matches_irreducibility_of_h():
    # Seeded random specs: a component is accepted exactly when h = chi(x^2)
    # is irreducible, and otherwise fails with the message of that rule.
    rng = random.Random(23)

    def small(n):
        return [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(n)]

    kinds = {}
    square_generators = 0  # square theta with chi irreducible: h decides
    for _ in range(300):
        m = rng.randint(1, 4)
        if m >= 2 and rng.random() < 0.2:  # reducible f
            k = rng.randint(1, m - 1)
            f = PolyQ.of(small(k) + [1]) * PolyQ.of(small(m - k) + [1])
        else:
            f = PolyQ.of(small(m) + [1])
        kind = rng.choice(("random", "random", "zero", "rational", "square"))
        if kind == "zero":
            theta = f * PolyQ.of(small(2))
        elif kind == "rational":
            theta = PolyQ.of(small(1))
        elif kind == "square":
            beta = PolyQ.of(small(m))
            theta = beta * beta
        else:
            theta = PolyQ.of(small(m))
        expected = _reference_validation(f, theta)
        kinds[kind, expected] = kinds.get((kind, expected), 0) + 1
        if kind == "square" and not (theta % f).is_zero:
            chi = fraction_resultant_in_y(f, theta % f).coeffs[::2]
            square_generators += is_irreducible(PolyQ(chi))
        if expected is None:
            build_component(GeneralSpec(f, theta))
        else:
            with pytest.raises(ComponentValidationError, match=expected):
                build_component(GeneralSpec(f, theta))
    assert {e for _, e in kinds} == {
        None,
        "f is reducible",
        "theta must be nonzero",
        "does not generate a field",
    }
    assert square_generators >= 10
    assert kinds.get(("rational", "does not generate a field"), 0) >= 10


def test_degree_five_disc_class_needs_no_large_factoring(monkeypatch):
    # disc(h) has 87 digits here; its class comes from the norm Res(f, theta),
    # whose primes the gap set already holds, so nothing large is factored.
    real_factor = integers.factor_integer

    def small_only(n):
        assert len(str(abs(n))) <= 20, n
        return real_factor(n)

    monkeypatch.setattr(integers, "factor_integer", small_only)
    monkeypatch.setattr(etale, "factor_integer", small_only)
    f = [1, 0, 2, Fraction(-5, 2), -2, 1]
    theta = [1, Fraction(1, 3), 1, 3, -3]
    start = time.perf_counter()
    c = build_component(general(f, theta))
    assert time.perf_counter() - start < 1.0
    assert c.disc_class.rep == 597993
    assert len(str(sylvester_discriminant(c.h).numerator)) == 87


def test_disc_h_is_the_norm_times_a_square():
    # disc(chi(x^2)) = 4^m * Res(f, theta) * disc(chi)^2, exactly, and the
    # norm Res(f, theta) = (-1)^m * chi(0) for monic f.
    rng = random.Random(29)
    degrees = set()
    for _ in range(60):
        c = build_component(random_general_spec(rng, 5))
        f, theta = base_field(c)
        m = c.fixed_degree
        chi = PolyQ(c.h.coeffs[::2])
        norm = sylvester_resultant(f, theta)
        assert norm == (-1) ** m * chi.coeff(0), (f, theta)
        expected = 4**m * norm * sylvester_discriminant(chi) ** 2
        assert sylvester_discriminant(c.h) == expected, (f, theta)
        degrees.add((m, theta.degree))
    assert {(m, m - 1) for m in range(1, 6)} <= degrees


def test_block_rule_splitting_against_factor_counts():
    # At a prime where f and h stay squarefree, every place above p splits
    # iff h has twice as many irreducible factors mod p as f; random fields
    # of degree up to 5 give blocks holding several factors.
    rng = random.Random(5)
    checked = multi = 0
    for i in range(12):
        spec = random_general_spec(rng) if i < 6 else random_general_spec(rng, 5)
        c = build_component(spec)
        alg = build_algebra([spec])
        disc_f, disc_h = sylvester_discriminant(spec.f), sylvester_discriminant(c.h)
        bad = disc_f.numerator * disc_h.numerator
        for p in primes_up_to(60):
            if p == 2 or p in c.exactness_gaps or bad % p == 0:
                continue
            f_factors = factor_mod_p(reduce_mod_p(spec.f, p), p)
            h_factors = factor_mod_p(reduce_mod_p(c.h, p), p)
            status = alg.component_split(0, Place(p))
            assert (status is SPLIT) == (len(h_factors) == 2 * len(f_factors)), (spec, p)
            degrees = [len(g) - 1 for g, _ in f_factors]
            multi += len(degrees) > len(set(degrees))
            checked += 1
    assert checked >= 100 and multi >= 20


def test_quad_component_factors_d_once(monkeypatch):
    # The squarefree check factors d; the real place is read off the sign of
    # d, with no root search that factors d again.
    seen = []
    real_factor = integers.factor_integer

    def counting_factor(n):
        seen.append(n)
        return real_factor(n)

    monkeypatch.setattr(integers, "factor_integer", counting_factor)
    monkeypatch.setattr(etale, "factor_integer", counting_factor)
    d = -7 * (10**6 + 3)
    c = build_component(quad(d))
    assert seen == [d]
    assert c.real_profile == (1, 0, 0)


def test_quad_component_root_needs_no_squarefree_part(monkeypatch):
    # F = Q has one real place, ramified exactly when d < 0: no squarefree
    # part and no Sturm chain.
    def refuse(self):
        raise AssertionError("squarefree_part called for a linear f")

    monkeypatch.setattr(PolyQ, "squarefree_part", refuse)
    for d in [k for k in range(-40, 41) if k not in (0, 1)] + [-(10**9 + 7)]:
        if squarefree_part(d) != d:
            continue
        c = build_component(quad(d))
        assert c.real_profile == ((0, 1, 0) if d > 0 else (1, 0, 0))


def test_exactness_gaps():
    assert build_component(general([-5, 0, 1], [0, 1])).exactness_gaps == frozenset(
        {5}
    )
    assert build_component(general([-3, 0, 1], [-2, 1])).exactness_gaps == frozenset(
        {3}
    )
    assert build_component(general([-2, 0, 1], [0, 3])).exactness_gaps == frozenset(
        {3}
    )
    assert build_component(quad(105)).exactness_gaps == frozenset()


# ----------------------------------------------------------------- splitting


def test_quad_splitting_matches_legendre_behaviour():
    for d in (-1, -3, 5, 17, -7, 10):
        c = build_component(quad(d))
        alg = algebra(quad(d))
        for p in primes_up_to(60):
            status = alg.component_split(0, Place(p))
            assert status is not INDETERMINATE
            if p == 2:
                expected = d % 8 == 1
            elif d % p == 0:
                expected = False  # ramified
            else:
                expected = pow(d % p, (p - 1) // 2, p) == 1
            assert (status is SPLIT) == expected, (d, p)


def test_degree_one_general_twin_matches_quad():
    """A general component with a degree-one base polynomial is the same
    field as the corresponding quad component and must agree everywhere."""
    for d in (-1, -3, 5, 2, -7):
        twin = build_component(general([-1, 1], [d]))
        reference = build_component(quad(d))
        assert twin.h.coeffs == reference.h.coeffs
        assert twin.disc_class == reference.disc_class
        assert twin.det_class == reference.det_class
        assert twin.real_profile == reference.real_profile
        talg = algebra(general([-1, 1], [d]))
        ralg = algebra(quad(d))
        for p in primes_up_to(60):
            if p == 2 or p in twin.exactness_gaps:
                continue
            got = talg.component_split(0, Place(p))
            want = ralg.component_split(0, Place(p))
            assert got is not INDETERMINATE
            assert got == want, (d, p)
        assert talg.component_split(0, INFINITY) == ralg.component_split(0, INFINITY)


def test_quad_components_are_built_in_closed_form(monkeypatch):
    # h = x^2 - d and the trivial kernel (W = d, D = 1, t = (1, d)) need no
    # integer kernel, no resultant and no Newton's identities; the
    # degree-one general twin, which runs all three, shows the counter is
    # live and that the results agree.
    calls: list[str] = []
    for name in ("integer_kernel", "resultant_in_y", "power_sums"):
        original = getattr(etale, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(etale, name, counting)
    for d in (-1, -3, 5, 2, -7, 6):
        calls.clear()
        component = build_component(quad(d))
        assert calls == []
        twin = build_component(general([-1, 1], [d]))
        assert calls == ["integer_kernel", "resultant_in_y", "power_sums"]
        assert component.h == twin.h
        assert (component.W, component.D, component.t) == (twin.W, twin.D, twin.t)
    calls.clear()
    algebra(quad(-1), quad(2), quad(-15))
    assert calls == []


def test_general_splitting_against_factor_count_oracle():
    """At a prime where both f and h stay squarefree, the component splits
    iff h has exactly twice as many irreducible factors as f."""
    specs = [
        general([-2, 0, 1], [0, 1]),
        general([-2, 0, 1], [2, 1]),
        general([-2, 0, 1], [-2, 1]),
        general([-5, 0, 1], [0, 1]),
        general([1, 0, 1], [0, 1]),
        general([-3, 0, 1], [-2, 1]),
    ]
    checked = 0
    for spec in specs:
        c = build_component(spec)
        alg = build_algebra([spec])
        disc_f = sylvester_discriminant(spec.f)
        disc_h = sylvester_discriminant(c.h)
        for p in primes_up_to(80):
            if p == 2 or p in c.exactness_gaps:
                continue
            if disc_f.numerator % p == 0 or disc_h.numerator % p == 0:
                continue
            fp = reduce_mod_p(spec.f, p)
            hp = reduce_mod_p(c.h, p)
            f_factors = sum(e for _, e in factor_mod_p(fp, p))
            h_factors = sum(e for _, e in factor_mod_p(hp, p))
            status = alg.component_split(0, Place(p))
            assert status is not INDETERMINATE
            assert (status is SPLIT) == (h_factors == 2 * f_factors), (spec, p)
            checked += 1
    assert checked >= 120


def test_split_at_infinity_is_ramification_free():
    assert algebra(quad(5)).component_split(0, INFINITY) is SPLIT
    assert algebra(quad(-1)).component_split(0, INFINITY) is NONSPLIT
    assert algebra(general([-2, 0, 1], [0, 1])).component_split(0, INFINITY) is NONSPLIT
    assert algebra(general([-2, 0, 1], [2, 1])).component_split(0, INFINITY) is SPLIT
    assert algebra(general([1, 0, 1], [0, 1])).component_split(0, INFINITY) is SPLIT


def test_general_component_is_indeterminate_at_two_and_gaps():
    alg = algebra(general([-5, 0, 1], [0, 1]))
    assert alg.component_split(0, V2) is INDETERMINATE
    assert alg.component_split(0, V5) is INDETERMINATE
    assert alg.component_split(0, V3) is not INDETERMINATE
    noted = algebra(
        general([-5, 0, 1], [0, 1]),
        annotations={(0, 2): "nonsplit", (0, 5): "split"},
    )
    assert noted.component_split(0, V2) is NONSPLIT
    assert noted.component_split(0, V5) is SPLIT


def test_annotation_validation():
    with pytest.raises(ComponentValidationError):
        algebra(quad(-1), annotations={(0, 2): "nonsplit"})  # quads are exact
    with pytest.raises(ComponentValidationError):
        algebra(
            general([-2, 0, 1], [0, 1]), annotations={(0, 3): "split"}
        )  # 3 is decided exactly
    with pytest.raises(ComponentValidationError):
        algebra(general([-2, 0, 1], [0, 1]), annotations={(1, 2): "split"})
    with pytest.raises(ComponentValidationError):
        algebra(general([-2, 0, 1], [0, 1]), annotations={(0, 2): "maybe"})
    algebra(general([-2, 0, 1], [0, 1]), annotations={(0, 2): "nonsplit"})


def test_algebra_level_invariants():
    alg = algebra(quad(-3), quad(-1))
    assert alg.rank == 4 and alg.rank // 2 == 2
    assert alg.disc_class.rep == 3
    assert alg.is_cm
    assert max(c.fixed_degree for c in alg.components) == 1
    assert alg.ramified_real_count == 2
    assert alg.unramified_real_weight == 0

    mixed = algebra(quad(2), quad(-5))
    assert not mixed.is_cm
    assert mixed.disc_class.rep == -10
    assert mixed.unramified_real_weight == 1
    assert mixed.pairwise_det_support == frozenset({V2, V5})

    quartic = algebra(general([-2, 0, 1], [0, 1]))
    assert max(c.fixed_degree for c in quartic.components) >= 2
    assert quartic.unramified_real_weight == 1
    assert quartic.unramified_place_count == 1

    wide = algebra(general([1, 0, 1], [0, 1]))  # complex fixed field
    assert wide.unramified_real_weight == 2
    assert wide.unramified_place_count == 1


def test_algebra_split_conjunction():
    # check_local reads a place as split when every entry of its status row
    # is split, and as pending when none is non-split but some is
    # indeterminate.
    alg = algebra(quad(-1), general([-2, 0, 1], [0, 1]))
    # NonSplit (quad at 2) dominates the quartic's indeterminacy.
    assert alg.statuses(V2) == (NONSPLIT, INDETERMINATE)
    assert alg.statuses(V5) == (SPLIT, NONSPLIT)
    assert alg.statuses(INFINITY) == (NONSPLIT, NONSPLIT)
    # Split everywhere requires every component split.
    pair = algebra(quad(-1), quad(-3))
    assert pair.statuses(Place(13)) == (SPLIT, SPLIT)  # 1 mod 4 and 3
    assert pair.statuses(Place(5)) == (SPLIT, NONSPLIT)  # 5 = 2 mod 3
    # Indeterminate blocks an otherwise-split conjunction.
    blocked = algebra(quad(-1), general([-5, 0, 1], [0, 1]))
    assert blocked.statuses(V5) == (SPLIT, INDETERMINATE)
    # The first form deviates from the split one at 2 and infinity, the
    # second at 5 and infinity.
    assert check_local(alg, diag(1, 1, 1, 1, 1, 2)).pending == ()
    assert check_local(blocked, diag(1, 1, 1, 1, 2, 5)).pending == ((1, 5),)


def test_indeterminate_pairs_reported_per_component():
    # construct_baseline reports every indeterminate entry of a row.
    alg = algebra(general([-5, 0, 1], [0, 1]), general([-2, 0, 1], [0, 1]))
    form = diag(1, 1, 1, 1, 1, 1, -1, -1)
    for v, pairs in ((V5, ((0, 5),)), (V2, ((0, 2), (1, 2)))):
        with pytest.raises(NeedAnnotations) as exc:
            construct_baseline(alg, form, (v,))
        assert exc.value.pending == pairs
    assert alg.statuses(V3) == (SPLIT, SPLIT)
    construct_baseline(alg, form, (V3,))


def test_empty_algebra_rejected():
    with pytest.raises(ComponentValidationError):
        build_algebra([])


def test_quad_components_never_indeterminate():
    alg = algebra(quad(-1), quad(10), quad(-15))
    for i in range(3):
        for p in primes_up_to(40):
            assert alg.component_split(i, Place(p)) is not INDETERMINATE
        assert alg.component_split(i, INFINITY) is not INDETERMINATE
