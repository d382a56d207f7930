"""Quadratic spaces over Q: diagonalization, invariants, hyperbolicity."""

import random
from fractions import Fraction

import pytest

from torusembed.arith import integers
from torusembed.arith.places import INFINITY, Place
from torusembed.arith.symbols import hilbert_symbol, symbol_support
from torusembed.qform import (
    QuadraticSpace,
    diagonalize_gram,
    equivalent_over_q,
    hyperbolic_deviation_set,
    hyperbolic_hasse_support,
    hyperbolic_space,
    is_locally_hyperbolic,
    signature_hasse_bit,
)

V2, V3, V5 = (Place.finite(p) for p in (2, 3, 5))
PLACES = [V2, V3, V5, Place.finite(7), Place.finite(11), INFINITY]


def random_space(rng: random.Random, dim: int) -> QuadraticSpace:
    return QuadraticSpace.of(
        [Fraction(rng.choice([x for x in range(-9, 10) if x])) for _ in range(dim)]
    )


def congruent_gram(space: QuadraticSpace, rng: random.Random):
    """A^T G A for a random unimodular A built from shear operations."""
    n = space.dim
    rows = [
        [space.diagonal[i] if i == j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-2, 2))
        # Column operation col_j += c * col_i, then the matching row operation.
        for r in range(n):
            rows[r][j] += c * rows[r][i]
        for col in range(n):
            rows[j][col] += c * rows[i][col]
    return rows


def test_invariants_frozen_small_forms():
    inv = QuadraticSpace.of([1, 1]).invariants
    assert (inv.dim, inv.det.rep, inv.disc.rep) == (2, 1, -1)
    assert inv.hasse_support == frozenset()
    assert inv.signature == (2, 0)

    inv = QuadraticSpace.of([1, -1]).invariants
    assert (inv.det.rep, inv.disc.rep, inv.signature) == (-1, 1, (1, 1))
    assert inv.hasse_support == frozenset()

    inv = QuadraticSpace.of([2, 6]).invariants
    assert (inv.det.rep, inv.disc.rep) == (3, -3)
    assert inv.hasse_support == frozenset({V2, V3})
    assert inv.signature == (2, 0)

    inv = QuadraticSpace.of([1, 1, 1, 1]).invariants
    assert (inv.det.rep, inv.disc.rep, inv.signature) == (1, 1, (4, 0))
    assert inv.hasse_support == frozenset()


def test_diagonalize_gram_handles_zero_diagonal():
    diag = diagonalize_gram([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    space = QuadraticSpace.of(diag)
    assert equivalent_over_q(space, QuadraticSpace.of([1, -1]))


def test_from_gram_matches_diagonal_presentation():
    rng = random.Random(29)
    for _ in range(40):
        space = random_space(rng, rng.randint(1, 5))
        twisted = QuadraticSpace.from_gram(congruent_gram(space, rng))
        assert twisted.invariants == space.invariants
        assert equivalent_over_q(twisted, space)


def test_gram_validation():
    with pytest.raises(ValueError):
        QuadraticSpace.of([1, 0])
    with pytest.raises(ValueError):
        QuadraticSpace.from_gram([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        QuadraticSpace.from_gram([[1, 2], [3, 4]])  # not symmetric
    assert QuadraticSpace.of([]).dim == 0  # empty is rejected at the I/O layer


def test_local_hasse_bits_match_pairwise_symbols():
    rng = random.Random(31)
    for _ in range(60):
        space = random_space(rng, rng.randint(1, 4))
        d = space.diagonal
        for v in PLACES:
            expected = 0
            for i in range(len(d)):
                for j in range(i + 1, len(d)):
                    expected ^= hilbert_symbol(d[i], d[j], v)
            assert space.local_hasse_bit(v) == expected


def test_hasse_orthogonal_sum_law():
    rng = random.Random(37)
    for _ in range(60):
        q1 = random_space(rng, rng.randint(1, 3))
        q2 = random_space(rng, rng.randint(1, 3))
        total = QuadraticSpace.of(q1.diagonal + q2.diagonal)
        expected = (
            q1.invariants.hasse_support
            ^ q2.invariants.hasse_support
            ^ symbol_support(q1.det_value, q2.det_value)
        )
        assert total.invariants.hasse_support == expected


def test_hyperbolic_space_invariants():
    h4 = hyperbolic_space(4)
    assert equivalent_over_q(h4, QuadraticSpace.of([1, -1, 1, -1]))
    assert h4.invariants.signature == (2, 2)
    assert h4.invariants.disc.rep == 1
    assert hyperbolic_space(2).invariants.hasse_support == frozenset()
    assert h4.invariants.hasse_support == frozenset({V2, INFINITY})
    with pytest.raises(ValueError):
        hyperbolic_space(3)


def test_hyperbolic_hasse_support_closed_form():
    for dim in range(2, 25, 2):
        expected = hyperbolic_space(dim).invariants.hasse_support
        assert hyperbolic_hasse_support(dim) == expected
    for dim in (1, 3, 7):
        with pytest.raises(ValueError):
            hyperbolic_hasse_support(dim)


def test_equivalence_is_invariant_equality():
    assert equivalent_over_q(
        QuadraticSpace.of([2, 2]), QuadraticSpace.of([1, 1])
    )  # 2(x^2+y^2) represents the same classes
    assert not equivalent_over_q(
        QuadraticSpace.of([1, 1]), QuadraticSpace.of([1, -1])
    )
    assert not equivalent_over_q(
        QuadraticSpace.of([1, 7]), QuadraticSpace.of([1, 1])
    )
    # Same det and signature but different Hasse data: <1,1,1,1> vs <2,2,2,2>?
    # Those are equivalent; a genuine Hasse split needs <3,3> vs <1,9>~<1,1>.
    assert not equivalent_over_q(
        QuadraticSpace.of([3, 3]), QuadraticSpace.of([1, 9])
    )


def test_hyperbolic_deviation_sets():
    assert hyperbolic_deviation_set(QuadraticSpace.of([1, 1, 1, 1])) == frozenset(
        {V2, INFINITY}
    )
    assert hyperbolic_deviation_set(QuadraticSpace.of([1, 1, 1, 3])) == frozenset(
        {V2, INFINITY}
    )
    assert hyperbolic_deviation_set(hyperbolic_space(6)) == frozenset()
    assert hyperbolic_deviation_set(QuadraticSpace.of([1, -1])) == frozenset()


def test_is_locally_hyperbolic():
    h = QuadraticSpace.of([1, -1, 1, -1])
    for v in PLACES:
        assert is_locally_hyperbolic(h, v)
    assert is_locally_hyperbolic(QuadraticSpace.of([1, 1, -1, -1]), V3)
    assert not is_locally_hyperbolic(QuadraticSpace.of([1, 1, 1, 1]), INFINITY)
    assert not is_locally_hyperbolic(QuadraticSpace.of([1, 3]), V3)
    # <2,10,1,5> has the wrong Hasse bit at 5 despite trivial discriminant.
    q = QuadraticSpace.of([2, 10, 1, 5])
    assert q.invariants.disc.rep == 1
    assert not is_locally_hyperbolic(q, V5)


def test_signature_hasse_bit_table():
    expected = {(4, 0): 0, (3, 1): 0, (2, 2): 1, (1, 3): 1, (0, 4): 0, (1, 1): 0}
    for sig, bit in expected.items():
        assert signature_hasse_bit(sig) == bit, sig
    for r in range(5):
        for s in range(5):
            assert signature_hasse_bit((r, s)) == (s * (s - 1) // 2) % 2


def test_invariants_are_congruence_invariant_under_scaling_by_squares():
    rng = random.Random(41)
    for _ in range(40):
        space = random_space(rng, rng.randint(1, 4))
        scaled = QuadraticSpace.of(
            [c * rng.choice([1, 4, 9, Fraction(1, 4)]) for c in space.diagonal]
        )
        assert scaled.invariants == space.invariants


def test_invariants_factor_each_entry_not_the_determinant(monkeypatch):
    # Entries k * (10^9 + 7)(10^9 + 9): factoring their 230-digit product as
    # one number takes seconds; factoring entry by entry, after dividing out
    # the primes already found, never sees an argument longer than an entry.
    p, q = 10**9 + 7, 10**9 + 9
    space = QuadraticSpace.of([k * p * q for k in range(1, 13)])
    seen = []
    real_factor = integers.factor_integer

    def counting_factor(n):
        seen.append(n)
        return real_factor(n)

    monkeypatch.setattr(integers, "factor_integer", counting_factor)
    inv = space.invariants
    largest = max(len(str(abs(a.numerator))) for a in space.diagonal)
    assert seen and max(len(str(abs(n))) for n in seen) <= largest

    # 12! is 2^10 3^5 5^2 7 11, so det and disc lie in the class of 231.
    assert (inv.det.rep, inv.disc.rep, inv.signature) == (231, 231, (12, 0))
    assert inv.hasse_support == frozenset(
        Place.finite(v) for v in (2, 5, 11, 10**9 + 9)
    )
    places = [Place.finite(v) for v in (2, 3, 5, 7, 11, p, q)] + [INFINITY]
    assert inv.hasse_support == {v for v in places if space.local_hasse_bit(v)}
