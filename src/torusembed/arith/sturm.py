"""Real roots by signed remainder sequences: Tarski queries and isolation.

``tarski_query(f, g)``, the sum of sign g(x) over the real roots x of f, is
read off the signed remainder sequence of f and f'g mod f at -oo and +oo
(Basu, Pollack and Roy, *Algorithms in Real Algebraic Geometry*, ch. 2).
Only the signs of leading coefficients matter there, so the sequence is
computed over Z: each remainder is replaced by a positive multiple with
coprime coefficients, which leaves every sign variation unchanged.
``isolate_real_roots``, the reference the queries are tested against, keeps
the sequence over Q.  It splits off rational roots first, so bisection
midpoints are never roots of the remaining (irrational-root) factor and every
Sturm count is unambiguous.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from torusembed.arith.polyfp import _raw_mul, _strip
from torusembed.arith.polyq import PolyQ, integerize, rational_roots


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _signed_remainders(a: PolyQ, b: PolyQ) -> list[PolyQ]:
    """a, b, -rem(a, b), ... up to the last nonzero term."""
    chain = [a]
    while not b.is_zero:
        chain.append(b)
        a, b = b, -(a % b)
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


def _variations_at_inf(chain: list[list[int]], direction: int) -> int:
    """Sign variations at +infinity (direction=+1) or -infinity (-1) of a
    chain of integer coefficient lists."""
    return _variations(_sign(g[-1]) * direction ** (len(g) - 1) for g in chain)


def _count_between(chain: list[PolyQ], a: Fraction, b: Fraction) -> int:
    """Roots of chain[0] in (a, b); endpoints must not be roots."""
    return _variations_at(chain, a) - _variations_at(chain, b)


def root_bound(f: PolyQ) -> Fraction:
    """Cauchy bound: every real root lies strictly inside (-bound, bound)."""
    return 1 + max((abs(c / f.lc) for c in f.coeffs[:-1]), default=Fraction(0))


def _positive_rem(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of a mod b over Z, with coprime coefficients.

    Each reduction step scales the remainder by |lc(b)| instead of dividing
    by lc(b), so every coefficient stays an integer and every sign is kept.
    """
    rem = list(a)
    db = len(b) - 1
    lb, sb = abs(b[-1]), _sign(b[-1])
    while rem and len(rem) - 1 >= db:
        k = len(rem) - 1 - db
        c = rem[-1] * sb
        rem = [lb * r for r in rem]
        for i, bc in enumerate(b):
            rem[k + i] -= c * bc
        _strip(rem)
    content = gcd(*rem)
    return [r // content for r in rem] if content > 1 else rem


def tarski_query(f: PolyQ, g: PolyQ) -> int:
    """Sum of sign g(x) over the distinct real roots x of squarefree f."""
    a = integerize(f)[0]
    da = [i * c for i, c in enumerate(a)][1:]
    b = _positive_rem(_raw_mul(da, integerize(g)[0]), a)
    chain = [a]
    while b:
        chain.append(b)
        a, b = b, [-c for c in _positive_rem(a, b)]
    return _variations_at_inf(chain, -1) - _variations_at_inf(chain, +1)


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
