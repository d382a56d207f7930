"""Real roots by Sturm sequences: isolation, the reference for Hermite's form.

The program counts real roots, and the signs of a polynomial at them, with
``polyq.hermite_pivots``.  ``isolate_real_roots`` is the reference those
counts are tested against: it walks the Sturm sequence of f and f' over Q
(Basu, Pollack and Roy, *Algorithms in Real Algebraic Geometry*, ch. 2).  It
splits off rational roots first, so bisection midpoints are never roots of
the remaining (irrational-root) factor and every Sturm count is unambiguous.
"""

from __future__ import annotations

from fractions import Fraction

from torusembed.arith.polyq import PolyQ, rational_roots


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _signed_remainders(a: PolyQ, b: PolyQ) -> list[PolyQ]:
    """a, b, -rem(a, b), ... up to the last nonzero term."""
    chain = [a]
    while not b.is_zero:
        chain.append(b)
        a, b = b, -(a % b)
    return chain


def _variations_at(chain: list[PolyQ], x: Fraction) -> int:
    """Sign changes along the chain's values at x, zeros skipped."""
    signs = [s for s in (_sign(g.evaluate(x)) for g in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _count_between(chain: list[PolyQ], a: Fraction, b: Fraction) -> int:
    """Roots of chain[0] in (a, b); endpoints must not be roots."""
    return _variations_at(chain, a) - _variations_at(chain, b)


def root_bound(f: PolyQ) -> Fraction:
    """Cauchy bound: every real root lies strictly inside (-bound, bound)."""
    return 1 + max((abs(c / f.lc) for c in f.coeffs[:-1]), default=Fraction(0))


class RealRoot:
    """One real algebraic number, isolated exactly.

    ``exact`` roots are rationals with lo == hi == value.  Otherwise ``poly``
    is squarefree with no rational roots, has exactly one root in the open
    interval (lo, hi), and lo/hi are never roots of ``poly``.
    """

    def __init__(self, poly: PolyQ, lo: Fraction, hi: Fraction, exact: bool) -> None:
        self.poly = poly
        self.lo = lo
        self.hi = hi
        self.exact = exact

    def refine_once(self) -> None:
        if self.exact:
            return
        mid = (self.lo + self.hi) / 2
        if _sign(self.poly.evaluate(self.lo)) != _sign(self.poly.evaluate(mid)):
            self.hi = mid
        else:
            self.lo = mid


def isolate_real_roots(f: PolyQ) -> list[RealRoot]:
    """All distinct real roots of nonzero f, ascending, each isolated."""
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    sf = f.squarefree_part()
    if sf.degree < 1:
        return []
    rats = rational_roots(sf)
    g = sf
    for r in rats:
        g = g // PolyQ.of((-r, 1))
    roots = [RealRoot(PolyQ.of((-r, 1)), r, r, True) for r in rats]
    irrational: list[RealRoot] = []
    if g.degree >= 1:
        chain = _signed_remainders(g, g.derivative())
        bound = root_bound(g)
        stack = [(-bound, bound, _count_between(chain, -bound, bound))]
        while stack:
            a, b, cnt = stack.pop()
            if cnt == 0:
                continue
            if cnt == 1:
                irrational.append(RealRoot(g, a, b, False))
                continue
            mid = (a + b) / 2
            left = _count_between(chain, a, mid)
            stack.append((a, mid, left))
            stack.append((mid, b, cnt - left))
        # Shrink each irrational interval until it excludes every rational
        # root, so that sorting mixed exact/inexact roots is unambiguous.
        for rr in irrational:
            for r in rats:
                while rr.lo < r < rr.hi:
                    rr.refine_once()
    out = roots + irrational
    out.sort(key=lambda rr: (rr.lo, rr.hi))
    return out
