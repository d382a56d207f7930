"""Rational and finite-field polynomials: arithmetic, resultants, factoring."""

import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from torusembed.arith.polyfp import (
    factor_mod_p,
    fp_derivative,
    fp_distinct_degree,
    fp_div_exact,
    fp_divmod,
    fp_gcd,
    fp_mul,
    fp_mulmod,
    fp_pow_mod,
    fp_reduce,
    fp_rem,
)
from torusembed.arith import polyq
from torusembed.arith.polyq import (
    MAX_IRREDUCIBILITY_DEGREE,
    PolyQ,
    integer_kernel,
    integerize,
    is_irreducible,
    is_monic_irreducible,
    power_sums,
    rational_roots,
    resultant_in_y,
)
from torusembed.arith.sturm import RealRoot, isolate_real_roots, root_bound
from torusembed.etale import _signature

from helpers import (
    fraction_resultant_in_y,
    hermite_pivots,
    is_irreducible_mod_p,
    random_general_spec,
    rational_tarski_query,
    real_root_count,
    sylvester_discriminant,
    sylvester_resultant,
)

P = PolyQ.of


def random_poly(rng: random.Random, degree: int, with_fractions: bool = True) -> PolyQ:
    while True:
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(degree + 1)]
        if with_fractions:
            coeffs = [c / rng.randint(1, 4) for c in coeffs]
        if coeffs[-1] != 0:
            return P(coeffs)


def hermite_discriminant(f: PolyQ) -> Fraction:
    """disc(f) for monic f from the last Hermite pivot c^(m(m-1)) disc(f)."""
    m = f.degree
    c = integerize(f)[1]
    return Fraction(hermite_pivots(f, P([1]))[-1], c ** (m * (m - 1)))


def hermite_signature(f: PolyQ, w: PolyQ) -> int:
    return _signature(hermite_pivots(f, w))


def test_poly_basic_arithmetic():
    f = P([1, 2, 3])
    g = P([0, 1])
    assert (f + g).coeffs == (1, 3, 3)
    assert (f - f).is_zero
    assert (f * g).coeffs == (0, 1, 2, 3)
    assert f.evaluate(Fraction(2)) == 17
    assert f.scale(Fraction(1, 3)).coeffs == (
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(1),
    )
    assert P([2, 4]).monic().coeffs == (Fraction(1, 2), 1)
    assert P([0, 0]).is_zero
    assert f.degree == 2 and P([5]).degree == 0 and PolyQ.zero().degree == -1


def test_poly_divmod_and_gcd_random():
    rng = random.Random(17)
    for _ in range(100):
        f = random_poly(rng, rng.randint(0, 6))
        g = random_poly(rng, rng.randint(0, 4))
        q, r = f.divmod(g)
        assert (q * g + r - f).is_zero
        assert r.is_zero or r.degree < g.degree
        h = random_poly(rng, rng.randint(0, 3))
        d = (f * h).gcd(g * h)
        assert (d % h.monic()).is_zero or h.degree == 0
        assert d.is_zero or d.lc == 1  # gcd is monic


def test_derivative_and_squarefree_part():
    f = P([-2, 0, 1]) * P([-2, 0, 1]) * P([1, 1])
    sf = f.squarefree_part()
    assert (sf % P([-2, 0, 1])).is_zero
    assert (sf % P([1, 1])).is_zero
    assert sf.degree == 3
    assert P([1, 2, 3]).derivative().coeffs == (2, 6)


def test_resultant_frozen_values():
    # The Sylvester determinant, the tests' reference for every resultant.
    assert sylvester_resultant(P([-2, 0, 1]), P([-3, 0, 1])) == 1
    assert sylvester_resultant(P([-3, 1]), P([1, 1, 1])) == 13  # g(3)
    assert sylvester_resultant(P([1, 0, 1]), P([1, 1])) == 2
    assert sylvester_resultant(P([5]), P([1, 1, 1])) == 25


def test_hermite_discriminant_matches_sylvester_oracle():
    # Monic f with rational coefficients: the last Hermite pivot is
    # c^(m(m-1)) * disc(f).  A repeated root makes the form singular.
    rng = random.Random(23)
    for _ in range(60):
        f = random_poly(rng, rng.randint(1, 5)).monic()
        if sylvester_discriminant(f) == 0:
            with pytest.raises(ValueError, match="degenerate form"):
                hermite_pivots(f, P([1]))
            continue
        assert hermite_discriminant(f) == sylvester_discriminant(f), f.coeffs
    with pytest.raises(ValueError, match="degenerate form"):
        hermite_pivots(P([-2, 0, 1]) * P([-2, 0, 1]) * P([1, 1]), P([1]))


def test_discriminant_frozen_values():
    for disc in (sylvester_discriminant, hermite_discriminant):
        assert disc(P([1, 0, 1])) == -4
        assert disc(P([0, -1, 0, 1])) == 4
        assert disc(P([-2, 0, 0, 0, 1])) == -2048
        assert disc(P([1, 0, 0, 0, 1])) == 256
        assert disc(P([2, 0, 4, 0, 1])) == 2048
        assert disc(P([-1, 0, 1])) == 4
        assert disc(P([Fraction(1, 2), 1])) == 1  # linear
        assert disc(P([Fraction(-1, 2), 0, 1])) == 2
    # c = 6: the last pivot is 6^2 * disc(y^2 + y/2 - 1/3) = 9 + 48.
    assert hermite_pivots(P([Fraction(-1, 3), Fraction(1, 2), 1]), P([1]))[-1] == 57


def test_integerize_clears_denominators():
    f = P([Fraction(1, 2), Fraction(2, 3), Fraction(1, 6)])
    coeffs, scale = integerize(f)
    assert coeffs == [3, 4, 1]
    assert scale == 6


def test_rational_roots():
    f = P([-3, 5, -1, 5, 2])  # (2x - 1)(x + 3)(x^2 + 1)
    assert rational_roots(f) == [Fraction(-3), Fraction(1, 2)]
    assert rational_roots(P([1, 0, 1])) == []
    assert rational_roots(P([3, 2])) == [Fraction(-3, 2)]
    assert rational_roots(P([-10**12 - 39, 1])) == [10**12 + 39]


def test_is_irreducible():
    assert is_irreducible(P([1, 0, 0, 0, 1]))  # x^4 + 1
    assert is_irreducible(P([2, 0, -4, 0, 1]))  # x^4 - 4x^2 + 2
    assert is_irreducible(P([1, 0, -1, 0, 1]))  # 12th cyclotomic
    assert not is_irreducible(P([4, 0, 0, 0, 1]))  # (x^2+2x+2)(x^2-2x+2)
    assert not is_irreducible(P([-1, 0, 0, 0, 1]))
    assert is_irreducible(P([-2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]))  # x^12 - 2
    assert not is_irreducible(P([1, 2, 1]))
    assert not is_irreducible(P([4, 0, -4, 0, 1]))  # (x^2 - 2)^2
    assert not is_irreducible(P([Fraction(1, 4), 0, -1, 0, 1]))  # (x^2 - 1/2)^2
    assert is_irreducible(P([7, 1]))
    assert MAX_IRREDUCIBILITY_DEGREE == 12
    with pytest.raises(ValueError):
        is_irreducible(P([1] + [0] * 12 + [1]))


def test_is_irreducible_lifts_and_recombines():
    # A product of two monic factors is reducible at every prime, so each
    # squarefree one of degree 3 or more with a nonzero constant term goes
    # through the mod-p factorization, Hensel lifting and the subset search;
    # a quadratic one is read off its square discriminant.
    rng = random.Random(29)
    for _ in range(200):
        a, b = ([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))] + [1]
                for _ in range(2))
        f = P(a) * P(b)
        assert not is_irreducible(f), (a, b)
    # Reducible modulo every prime but irreducible over Q: the lifted factors
    # must fail every subset up to half of them.
    assert is_irreducible(P([1, 0, -10, 0, 1]))  # sqrt(2) + sqrt(3)
    # sqrt(2) + sqrt(3) + sqrt(5)
    assert is_irreducible(P([576, 0, -960, 0, 352, 0, -40, 0, 1]))


def test_is_irreducible_reads_degree_sets_before_factoring(monkeypatch):
    # x^8 - 17x^6 + 39x^4 + 655x^2 + 625 (h of a component with a square
    # norm) is reducible modulo every prime, but its factor degrees are
    # (4, 4) mod 7 and (2, 6) mod 13, which share no proper sum, so no
    # factorization mod p is needed.  sqrt(2) + sqrt(3) has degrees (2, 2)
    # or (1, 1, 1, 1) at every prime, so it is still factored.
    def refuse(gp, p):
        raise AssertionError("factored mod p")

    monkeypatch.setattr(polyq, "factor_mod_p", refuse)
    assert is_irreducible(P([625, 0, 655, 0, 39, 0, -17, 0, 1]))
    with pytest.raises(AssertionError, match="factored mod p"):
        is_irreducible(P([1, 0, -10, 0, 1]))


def monic_irreducible(g: list[int]) -> bool:
    """is_monic_irreducible on an ascending monic integer list."""
    return is_monic_irreducible(g, power_sums(g, 2 * len(g) - 3))


def int_mul(a: list[int], b: list[int]) -> list[int]:
    return [int(c) for c in (P(a) * P(b)).coeffs]


def shifted(g: list[int], a: int) -> list[int]:
    """g(x + a), by Horner's rule."""
    out = P([])
    for c in reversed(g):
        out = out * P([a, 1]) + P([c])
    return [int(c) for c in out.coeffs]


def eisenstein(rng: random.Random, p: int, n: int) -> list[int]:
    """A monic degree-n polynomial that is Eisenstein at p."""
    lower = [p * rng.randint(-3, 3) for _ in range(n)]
    lower[0] = p * rng.choice([u for u in range(-6, 7) if u % p])
    return lower + [1]


def test_is_monic_irreducible_accepts_eisenstein_polynomials_and_shifts():
    # Eisenstein at p is irreducible, and so is every shift g(x + a).
    rng = random.Random(103)
    for _ in range(120):
        g = eisenstein(rng, rng.choice((2, 3, 5, 7)), rng.randint(2, 8))
        assert monic_irreducible(g), g
        for a in (rng.randint(-4, -1), rng.randint(1, 4)):
            assert monic_irreducible(shifted(g, a)), (g, a)


def test_is_monic_irreducible_decides_a_quadratic_by_its_discriminant(monkeypatch):
    # x^2 + bx + c is irreducible exactly when b^2 - 4c is not a square; no
    # quadratic is reduced mod any prime.
    def refuse(f, p):
        raise AssertionError("reduced mod p")

    monkeypatch.setattr(polyq, "fp_distinct_degree", refuse)
    kinds = Counter()
    for b in range(-7, 8):
        for c in range(-12, 13):
            disc = b * b - 4 * c
            square = disc >= 0 and isqrt(disc) ** 2 == disc
            assert monic_irreducible([c, b, 1]) is not square, (b, c)
            kinds["square" if square else "negative" if disc < 0 else "non-square"] += 1
    assert set(kinds) == {"square", "negative", "non-square"}


def test_is_monic_irreducible_tries_the_primes_prime_to_the_discriminant(monkeypatch):
    # A prime p is tried exactly when g mod p is squarefree, that is, when p
    # does not divide disc(g): the tried primes are the first odd ones prime
    # to it.  Polynomials Eisenstein at 3, 5 or 7 (p is ramified) and
    # products with a repeated root mod p, (x - a)(x - a - p) h(x), put p in
    # the discriminant.
    tried = []
    distinct_degree = polyq.fp_distinct_degree

    def spying(f, p):
        tried.append(p)
        return distinct_degree(f, p)

    monkeypatch.setattr(polyq, "fp_distinct_degree", spying)
    rng = random.Random(107)
    seen = Counter()
    for k in range(90):
        p = (3, 5, 7)[k % 3]
        if k % 2:
            g, want = eisenstein(rng, p, rng.randint(3, 6)), True
        else:
            a = rng.randint(1, 3)
            h = [rng.choice((-3, -2, -1, 1, 2, 3))]
            h += [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))] + [1]
            g, want = int_mul(int_mul([-a, 1], [-a - p, 1]), h), False
        disc = sylvester_discriminant(P(g))
        assert disc % p == 0
        if disc == 0:
            continue
        tried.clear()
        assert monic_irreducible(g) is want, g
        odd = [q for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43) if disc % q]
        assert tried == odd[: len(tried)] and 1 <= len(tried) <= 4, (g, tried)
        seen[p, want] += 1
    assert set(seen) == {(p, w) for p in (3, 5, 7) for w in (True, False)}


def test_resultant_in_y_eliminates_the_variable():
    # Res_y(f(y), x^2 - theta(y)) = chi(x^2) comes back as the integer chi_T
    # of T = D * theta.  For f = y^2 - 2, theta = y it gives f(x^2).
    def chi_T(f, theta):
        g, _, W, D, s = integer_kernel(f, theta)
        return resultant_in_y(g, W, s), D

    f = P([-2, 0, 1])
    assert chi_T(f, P([0, 1])) == ([-2, 0, 1], 1)
    # Constant theta: Res_y(f(y), x^2 - c) = (x^2 - c)^(deg f).
    assert chi_T(f, P([3])) == ([9, -6, 1], 1)
    # f = y^2 - 1/2 has c = 2 and g = z^2 - 2; theta = y/3 has D = 6, so
    # chi_T = 36 * chi(x/6) = x^2 - 2 for chi = x^2 - 1/18.
    assert chi_T(P([Fraction(-1, 2), 0, 1]), P([0, Fraction(1, 3)])) == ([-2, 0, 1], 6)


def test_resultant_in_y_matches_the_fraction_reference():
    # The integer traces give the same h as the Fraction reference, once
    # chi_T's coefficient of x^j is divided by D^(m-j), on valid
    # components of degree 1-5 with rational coefficients, on raw pairs with
    # theta unreduced or zero, and on the degree-5 component whose theta has
    # full degree and denominators in both f and theta.
    rng = random.Random(13)
    f5 = P([5, 3, Fraction(3, 2), 4, Fraction(5, 2), 1])
    theta5 = P([-1, -4, Fraction(-2, 3), 1, 2])
    pairs = [(f5, theta5)]
    for _ in range(60):
        spec = random_general_spec(rng, 5)
        pairs.append((spec.f, spec.theta % spec.f))
    for _ in range(100):
        m = rng.randint(1, 5)
        f = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))) for _ in range(m)]
        theta = [
            Fraction(rng.randint(-5, 5), rng.choice((1, 3, 6)))
            for _ in range(rng.randint(0, 2 * m))
        ]
        pairs.append((P(f + [1]), P(theta)))
    full = rational = 0
    for f, theta in pairs:
        want = fraction_resultant_in_y(f, theta)
        g, _, W, D, s = integer_kernel(f, theta)
        m = f.degree
        chi = [Fraction(a, D ** (m - j)) for j, a in enumerate(resultant_in_y(g, W, s))]
        assert list(want.coeffs[::2]) == chi, (f, theta)
        assert not any(want.coeffs[1::2]), (f, theta)
        full += theta.degree == f.degree - 1 and f.degree == 5
        rational += any(c.denominator > 1 for c in f.coeffs + theta.coeffs)
    assert full >= 10 and rational >= 100


def test_factor_mod_p_roundtrip_random():
    rng = random.Random(13)
    for _ in range(120):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        degree = rng.randint(1, 8)
        coeffs = [rng.randrange(p) for _ in range(degree)] + [
            rng.randrange(1, p)
        ]
        factors = factor_mod_p(coeffs, p)
        product = [coeffs[-1]]
        for g, e in factors:
            assert is_irreducible_mod_p(g, p)
            assert g[-1] == 1  # monic
            for _ in range(e):
                product = fp_mul(product, g, p)
        assert product == coeffs


def test_factor_mod_p_frozen_cases():
    factors = factor_mod_p([1, 0, 1], 5)
    assert sorted(g for g, _ in factors) == [[2, 1], [3, 1]]
    assert all(e == 1 for _, e in factors)
    (g, e), = factor_mod_p([1, 2, 1], 3)
    assert g == [1, 1] and e == 2
    assert is_irreducible_mod_p([1, 0, 1], 3)
    assert not is_irreducible_mod_p([1, 0, 1], 5)


# A naive F_p[x] reference on ascending lists: every operation reduces each
# coefficient as soon as it changes.


def naive_mul(a, b, p):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return fp_reduce(out, p)


def naive_divmod(a, b, p):
    rem, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    while len(rem) >= len(b):
        k, c = len(rem) - len(b), rem[-1] * inv % p
        q[k] = c
        for i, y in enumerate(b):
            rem[k + i] = (rem[k + i] - c * y) % p
        rem = fp_reduce(rem, p)
    return fp_reduce(q, p), rem


def naive_gcd(a, b, p):
    while b:
        a, b = b, naive_divmod(a, b, p)[1]
    return [c * pow(a[-1], -1, p) % p for c in a] if a else a


def naive_pow_mod(a, e, m, p):
    out = [1]
    for _ in range(e):
        out = naive_divmod(naive_mul(out, a, p), m, p)[1]
    return out if e else [1]


def random_fp(rng, p, degree):
    return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]


def test_fp_kernel_matches_a_naive_reference():
    rng = random.Random(71)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7, 13, 101, 10007))
        a = random_fp(rng, p, rng.randint(0, 12))
        b = random_fp(rng, p, rng.randint(0, 12))
        m = random_fp(rng, p, rng.randint(1, 8))
        if rng.random() < 0.5:
            m = [c * pow(m[-1], -1, p) % p for c in m]  # monic, as blocks are
        assert fp_mul(a, b, p) == naive_mul(a, b, p)
        assert fp_mulmod(a, b, m, p) == naive_divmod(naive_mul(a, b, p), m, p)[1]
        assert fp_rem(a, m, p) == naive_divmod(a, m, p)[1]
        assert fp_divmod(a, m, p) == naive_divmod(a, m, p)
        assert fp_div_exact(naive_mul(a, b, p), b, p) == a
        assert fp_gcd(a, b, p) == naive_gcd(a, b, p)
        c = random_fp(rng, p, rng.randint(1, 4))  # a common factor
        ac, bc = naive_mul(a, c, p), naive_mul(b, c, p)
        assert fp_gcd(ac, bc, p) == naive_gcd(ac, bc, p)
        e = rng.randrange(40)
        assert fp_pow_mod(a, e, m, p) == naive_pow_mod(a, e, m, p)
    # Zero inputs and a large exponent, against Fermat in F_p[x]/(x - c).
    assert fp_mulmod([], [1, 2], [0, 1], 5) == fp_rem([], [0, 1], 5) == []
    assert fp_gcd([], [], 7) == [] and fp_gcd([], [3, 3], 7) == [1, 1]
    assert fp_pow_mod([2, 1], 10007**3 - 1, [3, 1], 10007) == [1]


def test_distinct_degree_blocks_match_the_factorization():
    rng = random.Random(73)
    for _ in range(150):
        p = rng.choice((3, 5, 7, 11, 101))
        degree = rng.randint(1, 10)
        f = fp_reduce([rng.randrange(p) for _ in range(degree)] + [1], p)
        if len(fp_gcd(f, fp_derivative(f, p), p)) != 1:
            continue
        blocks = fp_distinct_degree(f, p)
        product = [1]
        for block, _ in blocks:
            product = fp_mul(product, block, p)
        assert product == f
        degrees: dict[int, int] = {}
        for g, e in factor_mod_p(f, p):
            assert e == 1
            d = len(g) - 1
            degrees[d] = degrees.get(d, 0) + d
        assert {k: len(block) - 1 for block, k in blocks} == degrees
        assert [k for _, k in blocks] == sorted(degrees)


def square_at_every_factor(e: list[int], block: list[int], k: int, p: int) -> bool:
    """The block rule: e^((p^k - 1)/2) is 1 modulo the whole block."""
    return fp_pow_mod(e, (p**k - 1) // 2, block, p) == [1]


def test_ff_is_square_in_f9():
    [(modulus, k)] = fp_distinct_degree([1, 0, 1], 3)  # F_9 = F_3[x]/(x^2+1)
    assert k == 2
    assert square_at_every_factor([2], modulus, k, 3)  # -1 has order 2
    assert square_at_every_factor([0, 1], modulus, k, 3)  # x has order 4
    assert not square_at_every_factor([1, 1], modulus, k, 3)  # x+1 generates
    # Consistency with the prime field: squares mod 7 are {1, 2, 4}.
    [(m7, k)] = fp_distinct_degree([3, 1], 7)
    for a, expected in ((1, True), (2, True), (3, False), (4, True), (5, False)):
        assert square_at_every_factor([a], m7, k, 7) == expected
    # A block of several factors: x is a square at the roots 1, 2 and 4 of
    # (x - 1)(x - 2)(x - 4) mod 7, but not at the root 3 of (x - 1)(x - 3).
    [(block, k)] = fp_distinct_degree(fp_reduce([-8, 14, -7, 1], 7), 7)
    assert (len(block) - 1, k) == (3, 1)
    assert square_at_every_factor([0, 1], block, k, 7)
    [(block, k)] = fp_distinct_degree(fp_reduce([3, -4, 1], 7), 7)
    assert not square_at_every_factor([0, 1], block, k, 7)


def test_sturm_real_root_counts():
    assert real_root_count(P([0, -1, 0, 1])) == 3
    assert real_root_count(P([1, 0, 1])) == 0
    assert real_root_count(P([-2, 0, 1])) == 2
    assert real_root_count(P([-2, 0, 0, 0, 1])) == 2
    assert real_root_count(P([2, 0, 4, 0, 1])) == 0
    assert real_root_count(P([2, 0, -4, 0, 1])) == 4


def test_isolate_and_refine_real_roots():
    f = P([-2, 0, 1]) * P([-3, 0, 1])
    roots = isolate_real_roots(f)
    assert len(roots) == 4
    bound = root_bound(f)
    expected = [-(3**0.5), -(2**0.5), 2**0.5, 3**0.5]
    for r, want in zip(roots, expected, strict=True):
        assert -bound < r.lo < want < r.hi < bound
        while r.hi - r.lo > Fraction(1, 10**6):
            r.refine_once()
            assert r.lo < want < r.hi
        assert f.evaluate(r.lo) * f.evaluate(r.hi) < 0


def test_real_root_sign_of():
    # (f, w, sum of sign w(x) over the real roots x of f, whether w vanishes
    # at a root of f, which makes Hermite's form singular).
    f = P([-2, 0, 1])
    cases = [
        (f, P([1]), 2, False),
        (f, P([0, 1]), 0, False),  # -1 at -sqrt(2), +1 at sqrt(2)
        (f, P([-2, 0, 1]), 0, True),  # vanishes at both roots
        (f, P([5]), 2, False),
        (f, P([-2, 1]), -2, False),  # y - 2 is negative at both roots
        (f, P([-1, 1]), 0, False),  # y - 1: -1, then +1
        (f * P([-1, 1]), P([0, 1]), 1, False),  # adds the root 1
        (f * P([-1, 1]), P([-1, 1]), 0, True),  # vanishes at the root 1
    ]
    for f, w, query, singular in cases:
        assert rational_tarski_query(f, w) == query, (f, w)
        if singular:
            with pytest.raises(ValueError, match="degenerate form"):
                hermite_pivots(f, w)
        else:
            assert hermite_signature(f, w) == query, (f, w)


def test_integer_tarski_query_matches_the_rational_sequence():
    # The integer Tarski query is the signature of Hermite's form.  f is
    # squarefree, never monic until Hermite's form is taken, with rational
    # coefficients and a leading coefficient of either sign; w of either
    # sign and any degree, half of the time sharing a factor (so roots) with
    # f.  A common root makes the form singular.
    rng = random.Random(19)
    seen = set()
    for _ in range(300):
        f1 = random_poly(rng, rng.randint(1, 3))
        f2 = random_poly(rng, rng.randint(0, 3))
        f = (f1 * f2).squarefree_part().scale(Fraction(rng.choice((-3, -1, 2, 5)), 7))
        w = random_poly(rng, rng.randint(0, f.degree + 2))
        shares = rng.random() < 0.5
        if shares:
            w = w * f1
        if f.gcd(w).degree > 0:
            with pytest.raises(ValueError, match="degenerate form"):
                hermite_pivots(f.monic(), w)
        else:
            want = rational_tarski_query(f, w)
            assert hermite_signature(f.monic(), w) == want, (f, w)
        seen.add((f.lc < 0, w.lc < 0, w.degree >= f.degree, shares))
    assert len(seen) == 16
