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


def hasse_bit(entries, place: Place) -> int:
    """Additive Hasse invariant of the diagonal form <a_1, ..., a_n> at a place:
    the sum over i < j of hilbert_symbol(a_i, a_j, place), mod 2.

    One pass over the numerators and denominators, building no Fraction.
    With alpha_i the parity of v(a_i), A = sum(alpha_i) and u_i the unit part:
    at infinity the bit is C(k, 2) for k negative entries; at odd p it is
    ((p-1)/2)*C(A, 2) + sum r_i*(A - alpha_i) with r_i = 1 for a nonresidue
    u_i; at 2 it is C(E, 2) + sum alpha_i*(W - omega_i) with E and W the sums
    of eps_i = (u_i-1)/2 and omega_i = (u_i^2-1)/8.  r and omega are
    characters of the units, so each sum over i collapses to one character
    value of a product of unit parts.
    """
    if place.is_infinite:
        k = sum(1 for a in entries if a < 0)
        return k * (k - 1) // 2 % 2
    p = place.p
    m = 8 if p == 2 else p
    odd = 0  # A: entries of odd valuation
    eps = 0  # E: entries whose unit part is 3 mod 4 (used at p = 2)
    unit_all = 1  # product of all unit parts mod m
    unit_odd = 1  # product of the odd-valuation entries' unit parts mod m
    for a in entries:
        num, den = a.numerator, a.denominator
        if num == 0:
            raise ValueError("hasse bit requires nonzero entries")
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v += 1
        # num * den = u * den^2: the same residue character as the unit part.
        u = num * den % m
        unit_all = unit_all * u % m
        if v & 1:
            odd += 1
            unit_odd = unit_odd * u % m
        eps += u & 2 == 2
    if p == 2:
        # omega(u) = 1 exactly for u = 3, 5 mod 8.
        char_all = unit_all in (3, 5)
        char_odd = unit_odd in (3, 5)
        pairs = eps * (eps - 1) // 2
    else:
        char_all = pow(unit_all, (p - 1) // 2, p) != 1
        char_odd = pow(unit_odd, (p - 1) // 2, p) != 1
        pairs = (p - 1) // 2 * (odd * (odd - 1) // 2)
    return (pairs + odd * char_all + char_odd) % 2


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
