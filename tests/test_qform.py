"""Quadratic spaces over Q: diagonalization, invariants, hyperbolicity."""

import random
from fractions import Fraction
from math import prod

import pytest

from torusembed.arith import integers
from torusembed.arith.places import INFINITY, Place
from torusembed.arith.symbols import hilbert_symbol
from torusembed.qform import (
    QuadraticSpace,
    diagonalize_gram,
    hyperbolic_deviation_set,
    hyperbolic_hasse_support,
    signature_hasse_bit,
)

from helpers import (
    equivalent_over_q,
    fraction_diagonalize,
    is_locally_hyperbolic,
    symbol_support,
)

V2, V3, V5 = (Place(p) for p in (2, 3, 5))
PLACES = [V2, V3, V5, Place(7), Place(11), INFINITY]


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


def test_diagonal_entries_are_ints_exactly_when_integral():
    space = QuadraticSpace.of([2, Fraction(4, 2), Fraction(1, 3), "-10/2", True])
    assert space.diagonal == (2, 2, Fraction(1, 3), -5, 1)
    assert [type(a) for a in space.diagonal] == [int, int, Fraction, int, int]
    assert QuadraticSpace.from_gram([[2, 1], [1, 2]]).diagonal == (2, Fraction(3, 2))
    assert type(QuadraticSpace.from_gram([[2, 2], [2, 4]]).diagonal[1]) is int


def test_diagonalize_gram_handles_zero_diagonal():
    diag = diagonalize_gram([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    space = QuadraticSpace.of(diag)
    assert equivalent_over_q(space, QuadraticSpace.of([1, -1]))


def random_symmetric(rng: random.Random, n: int) -> list[list[Fraction]]:
    """A symmetric rational matrix whose diagonal is often partly or wholly
    zero, and which is sometimes made singular."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            v = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 10)))
            m[i][j] = m[j][i] = v
    zeros = rng.choice(("none", "some", "all"))
    for i in range(n):
        if zeros == "all" or (zeros == "some" and rng.random() < 0.5):
            m[i][i] = Fraction(0)
    if n > 1 and rng.random() < 0.2:
        # Repeat a row and its column: the matrix becomes singular.
        a, b = rng.sample(range(n), 2)
        m[b] = list(m[a])
        for row in m:
            row[b] = row[a]
    return m


def outcome(fn, gram):
    try:
        return fn(gram)
    except ValueError as exc:
        return str(exc)


def test_fraction_free_diagonalization_matches_rational_elimination():
    rng = random.Random(61)
    branches: list[str] = []
    errors = set()
    kinds = set()
    for _ in range(400):
        gram = random_symmetric(rng, rng.randint(1, 12))
        want = outcome(lambda g: fraction_diagonalize(g, branches), gram)
        got = outcome(diagonalize_gram, gram)
        assert got == want, gram
        if isinstance(want, str):
            errors.add(want)
        else:
            # An entry is an int exactly when it is integral.
            assert all(type(a) is (int if a.denominator == 1 else Fraction) for a in got)
            kinds.update(type(a) for a in got)
    # Both ways of making a zero pivot nonzero ran, and singular input
    # failed in both.
    assert {"swap", "sum"} <= set(branches)
    assert errors == {"degenerate form"}
    assert kinds == {int, Fraction}
    # Degenerate, non-square and asymmetric input raise the same text.
    for gram in (
        [[0, 0], [0, 0]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[1, 2], [2, 4]],
        [[1, 2], [3]],
        [[1, 2, 3], [2, 1, 3]],
        [[1, Fraction(1, 2)], [Fraction(1, 3), 1]],
        [["1/2", 1], [1, "1/2"]],
    ):
        assert outcome(diagonalize_gram, gram) == outcome(fraction_diagonalize, gram)
    assert diagonalize_gram([]) == fraction_diagonalize([]) == ()


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
        det1 = prod(q1.diagonal, start=Fraction(1))
        det2 = prod(q2.diagonal, start=Fraction(1))
        expected = (
            q1.invariants.hasse_support
            ^ q2.invariants.hasse_support
            ^ symbol_support(det1, det2)
        )
        assert total.invariants.hasse_support == expected


def test_hyperbolic_space_invariants():
    h4 = QuadraticSpace.of((1, -1) * 2)
    assert equivalent_over_q(h4, QuadraticSpace.of([-1, 1, -1, 1]))
    assert h4.invariants.signature == (2, 2)
    assert h4.invariants.disc.rep == 1
    assert QuadraticSpace.of((1, -1)).invariants.hasse_support == frozenset()
    assert h4.invariants.hasse_support == frozenset({V2, INFINITY})


def test_hyperbolic_hasse_support_closed_form():
    for dim in range(2, 25, 2):
        expected = QuadraticSpace.of((1, -1) * (dim // 2)).invariants.hasse_support
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
    assert hyperbolic_deviation_set(QuadraticSpace.of((1, -1) * 3)) == frozenset()
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
    # one number takes seconds.  The entries are factored together, but each
    # cofactor stays its own part: p * q reaches the splitting stage once,
    # and no argument to it or to factor_integer is longer than an entry.
    p, q = 10**9 + 7, 10**9 + 9
    space = QuadraticSpace.of([k * p * q for k in range(1, 13)])
    seen = []
    parts = []
    real_factor = integers.factor_integer
    real_split = integers._split_cofactors

    def counting_factor(n):
        seen.append(n)
        return real_factor(n)

    def counting_split(cofactors):
        parts.extend(cofactors)
        return real_split(cofactors)

    monkeypatch.setattr(integers, "factor_integer", counting_factor)
    monkeypatch.setattr(integers, "_split_cofactors", counting_split)
    inv = space.invariants
    largest = max(len(str(abs(a.numerator))) for a in space.diagonal)
    assert parts.count(p * q) == 1
    assert max(len(str(abs(n))) for n in seen + parts) <= largest

    # 12! is 2^10 3^5 5^2 7 11, so det and disc lie in the class of 231.
    assert (inv.det.rep, inv.disc.rep, inv.signature) == (231, 231, (12, 0))
    assert inv.hasse_support == frozenset(
        Place(v) for v in (2, 5, 11, 10**9 + 9)
    )
    places = [Place(v) for v in (2, 3, 5, 7, 11, p, q)] + [INFINITY]
    assert inv.hasse_support == {v for v in places if space.local_hasse_bit(v)}
