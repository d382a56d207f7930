"""Legendre and Hilbert symbols over the completions of Q.

Hilbert symbols use the additive convention: 0 means the quaternion algebra
(a, b) splits over Q_v (the conic ax^2 + by^2 = z^2 has a point), 1 means it
does not.
"""

from __future__ import annotations

from fractions import Fraction

from torusembed.arith.integers import factor_rational
from torusembed.arith.places import INFINITY, Place, sorted_places


def legendre_symbol(a: int, p: int) -> int:
    """The Legendre symbol (a/p) in {-1, 0, 1} for an odd prime p."""
    if p == 2 or p < 3:
        raise ValueError("legendre_symbol requires an odd prime")
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def p_valuation(x: Fraction | int, p: int) -> tuple[int, Fraction]:
    """(v, u) with x = p^v * u and u a p-adic unit."""
    fr = Fraction(x)
    if fr == 0:
        raise ValueError("zero has no valuation decomposition")
    num, den = fr.numerator, fr.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _unit_residue(u: Fraction, m: int) -> int:
    """u mod m for a rational u whose denominator is invertible mod m."""
    return u.numerator * pow(u.denominator, -1, m) % m


def hilbert_symbol(a: Fraction | int, b: Fraction | int, place: Place) -> int:
    """Additive Hilbert symbol of (a, b) at a place of Q, in {0, 1}."""
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero entries")
    if place.is_infinite:
        return 1 if (a < 0 and b < 0) else 0
    p = place.p
    alpha, u = p_valuation(a, p)
    beta, w = p_valuation(b, p)
    if p == 2:
        um = _unit_residue(u, 8)
        wm = _unit_residue(w, 8)
        eps_u = (um - 1) // 2 % 2
        eps_w = (wm - 1) // 2 % 2
        om_u = (um * um - 1) // 8 % 2
        om_w = (wm * wm - 1) // 8 % 2
        return (eps_u * eps_w + alpha * om_w + beta * om_u) % 2
    eps_p = (p - 1) // 2 % 2
    ru = 1 if legendre_symbol(_unit_residue(u, p), p) == -1 else 0
    rw = 1 if legendre_symbol(_unit_residue(w, p), p) == -1 else 0
    return (alpha * beta * eps_p + beta * ru + alpha * rw) % 2


def is_local_square(x: Fraction | int, place: Place) -> bool:
    """Whether nonzero x is a square in the completion at ``place``."""
    fr = Fraction(x)
    if fr == 0:
        raise ValueError("zero is not classified")
    if place.is_infinite:
        return fr > 0
    p = place.p
    v, u = p_valuation(fr, p)
    if v % 2:
        return False
    if p == 2:
        return _unit_residue(u, 8) == 1
    return legendre_symbol(_unit_residue(u, p), p) == 1


def places_over(primes) -> list[Place]:
    """The given primes' places plus 2 and the real place.

    Sorted: finite places ascending, then the real place.
    """
    return sorted_places([*(Place(p) for p in {2, *primes}), INFINITY])


def candidate_places(values) -> list[Place]:
    """The real place, 2, and every prime dividing a numerator/denominator.

    Any Hilbert symbol built from ``values`` is trivial outside this list.
    """
    primes: set[int] = set()
    for x in values:
        primes.update(factor_rational(x, primes)[1])
    return places_over(primes)


def symbol_support(a: Fraction | int, b: Fraction | int) -> frozenset[Place]:
    """The (finite, even-sized) set of places where (a, b) is nontrivial."""
    return frozenset(
        v for v in candidate_places((a, b)) if hilbert_symbol(a, b, v) == 1
    )
