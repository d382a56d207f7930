"""Integer arithmetic: primality, factorization, squarefree parts."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusembed.arith import integers
from torusembed.arith.integers import (
    SquareClass,
    _is_strong_lucas_probable_prime,
    divisors,
    factor_integer,
    factor_rationals,
    is_probable_prime,
    iter_primes,
)

from helpers import squarefree_part, trial_division_factor_integer


def sieve(limit: int) -> list[int]:
    flags = [True] * limit
    flags[0] = flags[1] = False
    for n in range(2, int(limit**0.5) + 1):
        if flags[n]:
            for m in range(n * n, limit, n):
                flags[m] = False
    return [n for n, f in enumerate(flags) if f]


def test_is_probable_prime_matches_sieve():
    primes = set(sieve(2000))
    for n in range(2000):
        assert is_probable_prime(n) == (n in primes), n


def test_is_probable_prime_on_carmichael_and_large_values():
    for n in (561, 1105, 1729, 2465, 6601):  # Carmichael numbers
        assert not is_probable_prime(n)
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(2**67 - 1)
    assert is_probable_prime(10**18 + 9)


# The least strong pseudoprimes to all prime bases up to 37 and up to 41.
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981  # 1287836182261 * 2575672364521


def test_is_probable_prime_rejects_strong_pseudoprimes_to_the_bases_up_to_37():
    # Both pass Miller-Rabin to every base up to 37; the strong Lucas test
    # rejects them.
    assert not is_probable_prime(PSI_12)
    assert not is_probable_prime(PSI_13)
    for e in (89, 107, 127, 521):  # Mersenne primes above the bound
        assert is_probable_prime(2**e - 1)
    assert not is_probable_prime((2**89 - 1) * (2**107 - 1))
    assert not is_probable_prime((2**89 - 1) ** 2)


def test_strong_lucas_pseudoprimes_are_the_known_ones():
    # Selfridge's method A: the odd composites below 30000 that pass are
    # exactly the strong Lucas pseudoprimes of OEIS A217255, and every odd
    # prime passes.
    primes = set(sieve(30000))
    passing = [
        n for n in range(3, 30000, 2) if _is_strong_lucas_probable_prime(n)
    ]
    assert [n for n in passing if n not in primes] == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199
    ]
    assert primes - {2} <= set(passing)


def test_factor_integer_splits_a_strong_pseudoprime():
    assert factor_integer(PSI_13) == (1, [(1287836182261, 1), (2575672364521, 1)])


def test_iter_primes_prefix():
    assert list(itertools.islice(iter_primes(), 10)) == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]


def test_factor_integer_shapes():
    assert factor_integer(-360) == (-1, [(2, 3), (3, 2), (5, 1)])
    assert factor_integer(1) == (1, [])
    assert factor_integer(-1) == (-1, [])
    assert factor_integer(97) == (1, [(97, 1)])
    # Repeated primes from the gcd stage, on both sides of the head/tail split.
    assert factor_integer(-(101**3) * 9973**2 * 10007) == (
        -1,
        [(101, 3), (9973, 2), (10007, 1)],
    )
    assert factor_integer(97**2 * 101**6) == (1, [(97, 2), (101, 6)])


def test_factor_integer_semiprimes():
    assert factor_integer(101 * 103) == (1, [(101, 1), (103, 1)])
    sign, factors = factor_integer(2**32 + 1)
    assert sign == 1
    assert factors == [(641, 1), (6700417, 1)]


def _prime_between(rng, lo, hi):
    """A random prime in (lo, hi), checked by trial division."""
    while True:
        n = rng.randrange(lo + 1, hi) | 1
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            return n


def test_factor_integer_two_primes_beyond_trial_division():
    # Every piece below TRIAL_DIVISION_BOUND**2 = 10^8 is prime, because
    # trial division has removed the primes below 10^4.
    rng = random.Random(15)
    for _ in range(30):
        lo = 10 ** rng.randint(4, 7)
        p, q = sorted(_prime_between(rng, lo, min(10 * lo, 10**8)) for _ in range(2))
        assert factor_integer(p * q) == (1, [(p, 1), (q, 1)] if p < q else [(p, 2)])
        assert factor_integer(p * p) == (1, [(p, 2)])
        assert factor_integer(-q * q) == (-1, [(q, 2)])
    # Products of two primes above 10^4 are above 10^8 and still get split.
    assert factor_integer(10007 * 10009 * 10037) == (
        1,
        [(10007, 1), (10009, 1), (10037, 1)],
    )


def test_factor_integer_random_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 10**9)
        sign, factors = factor_integer(n)
        product = sign
        for p, e in factors:
            assert is_probable_prime(p)
            product *= p**e
        assert product == n
        assert factors == sorted(factors)


def _differential_cases() -> list[int]:
    """Integers on every path through the small-prime stages, plus random ones."""
    rng = random.Random(17)
    edge = (97, 101, 9973, 10007)  # the head/tail split and the trial bound
    cases = [1, -1, 2, -2, 96, 97 * 97, 100, 10**8, 10**8 + 7]
    for p in (2, 3, 97, 101, 103, 9967, 9973, 10007, 65537):
        cases += [p**e for e in range(1, 7)] + [-p, -(p**3)]
    cases += [a * b for a in edge for b in edge]
    cases += [101 * 103, 9973**2, 101**3 * 9973**2 * 10007, 2**5 * 97**2 * 101]
    tail = integers._TAIL_PRIMES
    for _ in range(40):
        a, b = rng.choice(tail), rng.choice(tail)
        cases += [a * b, -a * b * rng.randint(1, 10**4), a**2 * b]
    big = [10**9 + 7, 10**9 + 9, 2**61 - 1]
    for p in (101, 9973):
        # One tail prime above a cofactor that is prime above 10^8, and above
        # one that rho has to split.
        cases += [p * q for q in big] + [p * 10007 * 10009, p**2 * big[0] * big[1]]
    for _ in range(20):
        # The big-integers shape: 2 * p * q * d with 6-8 digit primes.
        p, q, d = (
            _prime_between(rng, 10**k, 10 ** (k + 1)) for k in rng.choices((5, 6, 7), k=3)
        )
        cases += [2 * p * q * d, -2 * p * q, p * d * rng.choice(tail)]
    cases += [rng.randint(2, 10**12) * rng.choice((1, -1)) for _ in range(300)]
    return cases


def test_factor_integer_matches_trial_division_reference():
    for n in _differential_cases():
        assert factor_integer(n) == trial_division_factor_integer(n), n


def _rational_lists() -> list[list[Fraction]]:
    """Seeded lists of rationals whose cofactors above 10^4 share large
    primes across entries, hold squares of primes above 10^4, three primes,
    or sit near 10^8, with small primes, denominators and signs mixed in."""
    rng = random.Random(23)
    lists = []
    for _ in range(60):
        pool = [_prime_between(rng, 10**k, 10 ** (k + 1)) for k in rng.choices((4, 5, 6, 7), k=4)]
        near = _prime_between(rng, 10**8 - 10**5, 10**8)  # its square is just below 10^16
        shapes = [
            lambda: pool[0] * pool[1],  # a semiprime sharing primes with others
            lambda: pool[0] * pool[2] * pool[3],  # three primes
            lambda: pool[rng.randrange(4)] ** 2,  # a square above 10^4
            lambda: near * rng.choice((1, pool[1], 10007)),  # near 10^8
            lambda: pool[3] * rng.choice((10007, 10009)),
            lambda: rng.randint(1, 10**6),
        ]
        values = []
        for _ in range(rng.randint(1, 6)):
            num = rng.choice(shapes)() * rng.randint(1, 300) * rng.choice((1, -1))
            den = rng.choice((1, 1, 2, 9, 10007, pool[2], pool[1] * pool[3]))
            values.append(Fraction(num, den))
        lists.append(values)
    return lists


def _reference_factors(value: Fraction) -> tuple[int, dict[int, int]]:
    expected = dict(trial_division_factor_integer(value.numerator)[1])
    for p, e in trial_division_factor_integer(value.denominator)[1]:
        expected[p] = expected.get(p, 0) - e
    return (1 if value > 0 else -1), expected


def test_factor_rationals_matches_per_value_factoring():
    # The batch gives each value what factor_rationals gives it in a list of
    # its own, and what the trial-division reference gives its numerator and
    # denominator.
    for values in _rational_lists():
        for value, got in zip(values, factor_rationals(values), strict=True):
            assert got == factor_rationals([value])[0], value
            assert got == _reference_factors(value), value
    assert factor_rationals([]) == []
    with pytest.raises(ValueError):
        factor_rationals([3, 0])


def test_known_primes_keep_cofactors_from_the_splitting_stage(monkeypatch):
    # p q needs rho and r s needs p-1 (see the two tests below); knowing p
    # and r leaves the primes q and s, so the stage never runs.  Unknown,
    # both semiprimes reach it together, once.
    calls = []
    real = integers._split_cofactors

    def spying(parts):
        calls.append(sorted(parts))
        return real(parts)

    monkeypatch.setattr(integers, "_split_cofactors", spying)
    p, q, r, s = 1000037, 1000969, 1000033, 1000159
    values = [Fraction(p * q), Fraction(-5, r * s), Fraction(-7 * 10007, 12)]
    expected = [_reference_factors(x) for x in values]
    assert factor_rationals(values, known=[p, r]) == expected
    assert calls == []
    assert factor_rationals(values) == expected
    assert calls == [sorted([p * q, r * s])]
    # A known prime that divides no value, or one below 10^4, changes nothing.
    for known in ([p, r, 10**9 + 7], [10**9 + 7], [2, 3, 9973], [2, 101, p, r]):
        assert factor_rationals(values, known=known) == expected, known
    # A value with the known prime as its denominator reveals it to the
    # gcds anyway: the stage never runs, known or not.
    calls.clear()
    values = [Fraction(p * q), Fraction(5, p)]
    expected = [_reference_factors(x) for x in values]
    assert factor_rationals(values, known=[p]) == expected
    assert factor_rationals(values) == expected
    assert calls == []


def _spy_on_rho(monkeypatch) -> list[list[int]]:
    runs = []
    real = integers._brent

    def recording(parts, primes, rng):
        runs.append(list(parts))
        return real(parts, primes, rng)

    monkeypatch.setattr(integers, "_brent", recording)
    return runs


def test_rho_splits_what_p_minus_1_cannot(monkeypatch):
    # p - 1 = 2^2 29 37 233 and q - 1 = 2^3 3 179 233: both are 1000-smooth,
    # and the order of 2 mod each has 233 as its largest prime, so the p-1
    # pass catches both primes at the same prime power and rho has to
    # separate them.
    runs = _spy_on_rho(monkeypatch)
    p, q = 1000037, 1000969
    assert factor_integer(p * q) == (1, [(p, 1), (q, 1)])
    assert runs == [[p * q]]


def test_p_minus_1_splits_when_one_prime_is_smooth(monkeypatch):
    # p - 1 = 2^5 3 11 947 is 1000-smooth and q - 1 = 2 3 166693 is not, so
    # the p-1 pass alone splits p * q.
    runs = _spy_on_rho(monkeypatch)
    p, q = 1000033, 1000159
    assert factor_integer(p * q) == (1, [(p, 1), (q, 1)])
    assert runs == []


def test_one_rho_sequence_serves_every_part(monkeypatch):
    # Each prime here has a p - 1 that is not 1000-smooth (2 * prime,
    # 2^3 3^2 7 109^2 167, 2 3 166693, 2 3 13 12821, 2 500501, 2^2 251257).
    # The gcd of t * u with 5 * u splits that pair before any sequence runs;
    # one sequence modulo the product of the other two semiprimes splits both.
    runs = _spy_on_rho(monkeypatch)
    p, q, r, s, t, u = 10**9 + 7, 10**9 + 9, 1000159, 1000039, 1001003, 1005029
    assert factor_rationals([p * q, -r * s, Fraction(3, t * u), 5 * u]) == [
        (1, {p: 1, q: 1}),
        (-1, {r: 1, s: 1}),
        (1, {3: 1, t: -1, u: -1}),
        (1, {5: 1, u: 1}),
    ]
    assert len(runs) == 1 and sorted(runs[0]) == sorted([p * q, r * s])


def test_a_stuck_part_restarts_with_a_fresh_c(monkeypatch):
    # Drawing y = 2 and c = n - 2 makes 2 a fixed point of y -> y^2 + c mod
    # n, so both primes collide at the first step and stepping back finds n
    # whole: the part is stuck, and a second sequence with the next draws
    # from the same stream splits it.
    p, q = 10**9 + 7, 10**9 + 9
    n = p * q

    class FixedFirst(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.draws = [2, n - 2]

        def randrange(self, *args):
            return self.draws.pop(0) if self.draws else super().randrange(*args)

    monkeypatch.setattr(integers.random, "Random", FixedFirst)
    runs = _spy_on_rho(monkeypatch)
    assert factor_integer(n) == (1, [(p, 1), (q, 1)])
    assert runs == [[n], [n]]


def test_spread_files_primes_and_steps_back_composite_gcds():
    # g = p r s: the part p q splits into two primes; r s shares a composite
    # gcd with g, so step_back decides it (whole: stuck; or one prime);
    # t u is untouched.
    p, q, r, s, t, u = 10007, 10009, 10037, 10039, 10061, 10067
    g = p * r * s

    primes = set()
    kept, stuck = integers._spread(g, [p * q, r * s, t * u], primes, lambda x: x)
    assert (sorted(primes), kept, stuck) == ([p, q], [t * u], [r * s])
    primes = set()
    kept, stuck = integers._spread(g, [p * q, r * s, t * u], primes, lambda x: r)
    assert (sorted(primes), kept, stuck) == ([p, q, r, s], [t * u], [])
    # A square's two pieces are one prime, filed once.
    primes = set()
    assert integers._spread(p, [p * p * q * r], primes, None) == ([q * r], [])
    assert primes == {p}


def test_factor_integer_walks_tail_primes_only_up_to_sqrt_of_the_gcd(monkeypatch):
    # Once p^2 exceeds what is left of the gcd, that rest is a prime: the walk
    # stops there instead of dividing by every tail prime up to it.
    seen = []

    class Recording(tuple):
        def __iter__(self):
            for p in tuple.__iter__(self):
                seen.append(p)
                yield p

    monkeypatch.setattr(integers, "_TAIL_PRIMES", Recording(integers._TAIL_PRIMES))
    assert factor_integer(101 * 9973**2 * (10**9 + 7)) == (
        1,
        [(101, 1), (9973, 2), (10**9 + 7, 1)],
    )
    assert seen == [101, 103, 107]
    seen.clear()
    assert factor_integer(9973 * 10007 * 10009) == (
        1,
        [(9973, 1), (10007, 1), (10009, 1)],
    )
    assert seen == [101, 103]


FACTOR_POOL = (2, 3, 97, 101, 103, 9973, 10007, 10**9 + 7)
small_products = st.lists(st.sampled_from(FACTOR_POOL), max_size=5).map(math.prod)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(small_products, st.integers(1, 10**12)),
    st.one_of(small_products, st.integers(1, 10**12)),
    st.sampled_from((1, -1)),
)
def test_factor_integer_of_a_product_adds_exponents(a, b, sign):
    exponents = dict(factor_integer(a)[1])
    for p, e in factor_integer(b)[1]:
        exponents[p] = exponents.get(p, 0) + e
    assert factor_integer(sign * a * b) == (sign, sorted(exponents.items()))


def test_divisors():
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert divisors(1) == [1]


def test_squarefree_part_integers():
    assert squarefree_part(1) == 1
    assert squarefree_part(18) == 2
    assert squarefree_part(-18) == -2
    assert squarefree_part(4) == 1
    assert squarefree_part(-2048) == -2
    with pytest.raises(ValueError):
        squarefree_part(0)


def test_squarefree_part_fractions():
    assert squarefree_part(Fraction(1, 2)) == 2
    assert squarefree_part(Fraction(-4, 9)) == -1
    assert squarefree_part(Fraction(12, 5)) == 15
    assert squarefree_part(Fraction(9, 25)) == 1


def test_squarefree_part_is_idempotent_and_square_equivalent():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 10**6) * rng.choice((-1, 1))
        s = squarefree_part(n)
        assert squarefree_part(s) == s
        quotient = Fraction(n, s)
        assert quotient > 0
        root = int(round(float(quotient) ** 0.5))
        assert Fraction(root * root) == quotient


def test_square_class_algebra():
    assert SquareClass.of(8) == SquareClass.of(2)
    assert SquareClass.of(8).rep == 2
    assert (SquareClass.of(2) * SquareClass.of(-18)).rep == -1
    assert SquareClass.of(Fraction(-1, 3)).rep == -3
    assert SquareClass.of(9).rep == 1
    assert SquareClass.of(-9).rep != 1
    assert str(SquareClass.of(50)) == "2"


PRIMES = (2, 3, 5, 7, 11, 9973, 10007, 65537, 999983)
exponent_vectors = st.lists(
    st.integers(min_value=-3, max_value=3), min_size=len(PRIMES), max_size=len(PRIMES)
)


def rational(sign: int, exponents: list[int]) -> Fraction:
    x = Fraction(sign)
    for p, e in zip(PRIMES, exponents):
        x *= Fraction(p) ** e
    return x


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, -1)), exponent_vectors, st.sampled_from((1, -1)), exponent_vectors)
def test_square_class_product_matches_class_of_product(sa, ea, sb, eb):
    a, b = rational(sa, ea), rational(sb, eb)
    product = SquareClass.of(a) * SquareClass.of(b)
    assert product == SquareClass.of(a * b)
    assert product.rep == squarefree_part(a * b)
    odd = {p for p, x, y in zip(PRIMES, ea, eb) if (x + y) % 2}
    assert product.primes == odd
    assert product.rep == sa * sb * math.prod(odd)
