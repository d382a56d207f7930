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
