"""Exact real-root isolation and sign determination via Sturm sequences.

Rational roots are split off first, so bisection midpoints are never roots of
the remaining (irrational-root) factor and every Sturm count is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from torusembed.arith.polyq import PolyQ, rational_roots


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def sturm_chain(f: PolyQ) -> list[PolyQ]:
    """Sturm sequence f, f', -(rem), ... of a squarefree polynomial."""
    chain = [f, f.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        chain.append(-(chain[-2] % chain[-1]))
    if chain[-1].is_zero:
        chain.pop()
    return chain


def _variations(signs) -> int:
    prev = 0
    count = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _variations_at(chain: list[PolyQ], x: Fraction) -> int:
    return _variations(_sign(g.evaluate(x)) for g in chain)


def _variations_at_inf(chain: list[PolyQ], direction: int) -> int:
    """Sign variations at +infinity (direction=+1) or -infinity (-1)."""
    return _variations(_sign(g.lc) * direction**g.degree for g in chain)


def _count_between(chain: list[PolyQ], a: Fraction, b: Fraction) -> int:
    """Roots of chain[0] in (a, b); endpoints must not be roots."""
    return _variations_at(chain, a) - _variations_at(chain, b)


def root_bound(f: PolyQ) -> Fraction:
    """Cauchy bound: every real root lies strictly inside (-bound, bound)."""
    return 1 + max((abs(c / f.lc) for c in f.coeffs[:-1]), default=Fraction(0))


def real_root_count(f: PolyQ) -> int:
    """Number of distinct real roots of nonzero f."""
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    sf = f.squarefree_part()
    if sf.degree < 1:
        return 0
    chain = sturm_chain(sf)
    return _variations_at_inf(chain, -1) - _variations_at_inf(chain, +1)


@dataclass
class RealRoot:
    """One real algebraic number, isolated exactly.

    ``exact`` roots are rationals with lo == hi == value.  Otherwise ``poly``
    is squarefree with no rational roots, has exactly one root in the open
    interval (lo, hi), and lo/hi are never roots of ``poly``.
    """

    poly: PolyQ
    lo: Fraction
    hi: Fraction
    exact: bool

    def approx(self) -> float:
        return float((self.lo + self.hi) / 2)

    def refine_once(self) -> None:
        if self.exact:
            return
        mid = (self.lo + self.hi) / 2
        if _sign(self.poly.evaluate(self.lo)) != _sign(self.poly.evaluate(mid)):
            self.hi = mid
        else:
            self.lo = mid

    def refine(self, width: Fraction) -> None:
        while self.hi - self.lo > width:
            self.refine_once()

    def sign_of(self, g: PolyQ) -> int:
        """Exact sign of g at this root."""
        if g.is_zero:
            return 0
        if self.exact:
            return _sign(g.evaluate(self.lo))
        r = g % self.poly
        if r.is_zero:
            return 0
        common = self.poly.gcd(r)
        if common.degree > 0:
            # The root is a zero of g exactly if it is a zero of the gcd.
            chain = sturm_chain(common)
            if _count_between(chain, self.lo, self.hi) > 0:
                return 0
        rsf = r.squarefree_part()
        chain_r = sturm_chain(rsf)
        while True:
            if (
                rsf.evaluate(self.lo) != 0
                and rsf.evaluate(self.hi) != 0
                and _count_between(chain_r, self.lo, self.hi) == 0
            ):
                return _sign(r.evaluate(self.hi))
            self.refine_once()


def isolate_real_roots(f: PolyQ) -> list[RealRoot]:
    """All distinct real roots of nonzero f, ascending, each isolated."""
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    if f.degree == 1:
        r = -f.coeffs[0] / f.coeffs[1]
        return [RealRoot(PolyQ.of((-r, 1)), r, r, True)]
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
        chain = sturm_chain(g)
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
