"""Hilbert symbols, local squares, and support computations."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusembed.arith.places import INFINITY, Place
from torusembed.arith.symbols import (
    candidate_places,
    hasse_bit,
    hilbert_symbol,
    is_local_square,
    legendre_symbol,
    p_valuation,
    symbol_support,
)

from torusembed.etale import QuadSpec, build_algebra

from bruteforce import brute_hilbert_bit

V2, V3, V5, V7 = (Place.finite(p) for p in (2, 3, 5, 7))


def test_legendre_symbol_small_cases():
    assert legendre_symbol(2, 7) == 1
    assert legendre_symbol(3, 7) == -1
    assert legendre_symbol(0, 5) == 0
    assert legendre_symbol(14, 7) == 0
    assert legendre_symbol(-1, 13) == 1
    assert legendre_symbol(-1, 19) == -1


def test_legendre_symbol_is_multiplicative():
    rng = random.Random(3)
    for _ in range(100):
        p = rng.choice((3, 5, 7, 11, 13, 97))
        a, b = rng.randint(1, 500), rng.randint(1, 500)
        if a % p and b % p:
            assert legendre_symbol(a * b, p) == legendre_symbol(
                a, p
            ) * legendre_symbol(b, p)


def test_p_valuation():
    assert p_valuation(Fraction(12, 5), 3) == (1, Fraction(4, 5))
    assert p_valuation(Fraction(12, 5), 5) == (-1, Fraction(12, 1))
    assert p_valuation(48, 2) == (4, Fraction(3))
    assert p_valuation(7, 3) == (0, Fraction(7))


def test_hilbert_symbol_frozen_values():
    assert hilbert_symbol(-1, -1, INFINITY) == 1
    assert hilbert_symbol(-1, -1, V2) == 1
    assert hilbert_symbol(-1, -1, V3) == 0
    assert hilbert_symbol(2, 5, V5) == 1
    assert hilbert_symbol(5, 5, V5) == 0
    assert hilbert_symbol(2, 3, V2) == 1
    assert hilbert_symbol(2, 7, V2) == 0
    assert hilbert_symbol(Fraction(1, 2), 7, V2) == 0


def test_hilbert_symbol_against_brute_force_grid():
    values = [-10, -7, -5, -3, -2, -1, 1, 2, 3, 5, 6, 10]
    for a in values:
        for b in values:
            for place, p in ((V2, 2), (V3, 3), (V5, 5), (V7, 7), (INFINITY, None)):
                assert hilbert_symbol(a, b, place) == brute_hilbert_bit(a, b, p), (
                    a,
                    b,
                    p,
                )


def test_hilbert_symbol_laws_random():
    rng = random.Random(7)
    places = [V2, V3, V5, V7, Place.finite(13), INFINITY]
    for _ in range(300):
        a = Fraction(rng.randint(-60, 60) or 1, rng.randint(1, 12))
        b = Fraction(rng.randint(-60, 60) or 1, rng.randint(1, 12))
        c = Fraction(rng.randint(-60, 60) or 1, rng.randint(1, 12))
        v = rng.choice(places)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert (
            hilbert_symbol(a * b, c, v)
            == (hilbert_symbol(a, c, v) + hilbert_symbol(b, c, v)) % 2
        )
        assert hilbert_symbol(a, -a, v) == 0
        if a != 1:
            assert hilbert_symbol(a, 1 - a, v) == 0
        assert hilbert_symbol(a, a * a, v) == 0


def test_product_formula_random():
    rng = random.Random(13)
    for _ in range(300):
        a = rng.randint(-200, 200) or 3
        b = rng.randint(-200, 200) or 5
        total = sum(hilbert_symbol(a, b, v) for v in candidate_places((a, b)))
        assert total % 2 == 0, (a, b)


def test_is_local_square():
    assert is_local_square(17, V2)
    assert not is_local_square(3, V2)
    assert not is_local_square(2, V2)
    assert is_local_square(2, V7)
    assert not is_local_square(2, V5)
    assert is_local_square(Fraction(9, 25), V3)
    assert is_local_square(-4, V5)  # -1 is a square mod 5
    assert not is_local_square(-4, INFINITY)
    assert is_local_square(Fraction(1, 4), INFINITY)


def test_candidate_places_cover_support():
    places = candidate_places((12, -35))
    assert V2 in places and INFINITY in places
    assert V3 in places and V5 in places and V7 in places


def test_symbol_support_frozen_and_even():
    assert symbol_support(-1, -1) == frozenset({V2, INFINITY})
    assert symbol_support(1, 977) == frozenset()
    assert symbol_support(-2, 5) == frozenset({V2, V5})
    rng = random.Random(5)
    for _ in range(200):
        a = rng.randint(-100, 100) or 7
        b = rng.randint(-100, 100) or 11
        support = symbol_support(a, b)
        assert len(support) % 2 == 0
        for v in support:
            assert hilbert_symbol(a, b, v) == 1
        for v in set(candidate_places((a, b))) - support:
            assert hilbert_symbol(a, b, v) == 0


def test_place_basics():
    assert Place.finite(2) == V2
    assert INFINITY.is_infinite
    assert not V3.is_infinite
    assert str(INFINITY) == "inf"
    assert str(V7) == "7"
    with pytest.raises(ValueError):
        Place.finite(4)
    ordered = sorted([INFINITY, V5, V2], key=Place.sort_key)
    assert ordered == [V2, V5, INFINITY]


# ------------------------------------------------ one-pass Hasse bit kernel

PRIME7 = 1_000_003
KERNEL_PLACES = (INFINITY, V2, V3, V5, Place.finite(PRIME7))

# Numerators and denominators carry powers of 2, 3 and a 7-digit prime, times
# a small cofactor that varies the unit parts.
_carrier = st.builds(
    lambda a, b, c, k: 2**a * 3**b * PRIME7**c * k,
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(1, 60),
)
_rationals = st.builds(
    lambda sign, num, den: Fraction(sign * num, den),
    st.sampled_from((1, -1)),
    _carrier,
    _carrier,
)
_squarefree = st.builds(
    lambda sign, primes: sign * prod(primes),
    st.sampled_from((1, -1)),
    st.sets(st.sampled_from((2, 3, 5, 7, PRIME7))),
).filter(lambda d: d != 1)


def pairwise_symbol_sum(entries, v):
    bit = 0
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            bit ^= hilbert_symbol(entries[i], entries[j], v)
    return bit


@settings(max_examples=200, deadline=None)
@given(st.lists(_rationals, max_size=12))
def test_hasse_bit_is_the_pairwise_symbol_sum(entries):
    for v in KERNEL_PLACES:
        assert hasse_bit(entries, v) == pairwise_symbol_sum(entries, v)


@settings(max_examples=60, deadline=None)
@given(st.lists(_squarefree, min_size=3, max_size=3))
def test_pairwise_det_bit_is_the_pairwise_symbol_sum(ds):
    alg = build_algebra([QuadSpec(d) for d in ds])
    reps = [c.det_class.rep for c in alg.components]
    for v in KERNEL_PLACES:
        assert alg.pairwise_det_bit(v) == pairwise_symbol_sum(reps, v)


def test_hasse_bit_rejects_zero():
    with pytest.raises(ValueError):
        hasse_bit([1, 0], V3)
