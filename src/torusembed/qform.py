"""Quadratic spaces over Q.

Diagonalization by symmetric congruence and the complete invariant tuple
(dimension, determinant class, discriminant class, Hasse support, signature):
by the local-global principle, two forms are equivalent over Q iff their
invariant tuples agree.

A Gram matrix is diagonalized fraction-free: Bareiss elimination
(``arith.polyq.bareiss_pivots``) runs over the integers on the matrix scaled
by L, the lcm of its denominators, and each diagonal entry is a pivot over L
times the previous pivot.  When no pivot is zero these are the ratios D_k / D_(k-1) of
the leading principal minors D_k (Bareiss, Math. Comp. 22, 1968).

A diagonal entry that is an integer is an ``int``; a ``Fraction`` holds
only a value that is not.  Every reader of a diagonal (``hasse_bit``,
``factor_rationals``, the report) takes both.

The Hasse invariant is represented by its support: the finite set of places
where the pairwise symbol sum is odd.  Away from 2, infinity, and primes
dividing a diagonal entry, every symbol is trivial, so the support is
computable from finitely many candidate places.  ``hasse_support`` reads the
bits at a given place set: a form's own invariants take the places over the
primes of its entries, and the element search bounds its blocks' places
without factoring them.  The bit at one place comes from
``arith.symbols.hasse_bit`` in one pass over the entries: it counts the
entries of odd valuation and reads residue characters of their unit parts,
so no pairwise symbol is evaluated; ``hilbert_symbol`` stays the per-pair
reference it is tested against.  The split form's support has a closed form,
``hyperbolic_hasse_support``.

The Hasse invariants of an orthogonal sum satisfy
s(q + q') = s(q) + s(q') + (det q, det q'), so the sum's support is the XOR
of the summands' supports and ``pairwise_det_support`` of their determinants.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence

from torusembed.arith.integers import SquareClass, factor_rationals
from torusembed.arith.places import INFINITY, TWO, Place
from torusembed.arith.polyq import bareiss_pivots
from torusembed.arith.symbols import hasse_bit, places_over
from torusembed.record import Record


class QFInvariants(Record):
    """Complete invariant tuple of a rational quadratic form."""

    def __init__(
        self,
        dim: int,
        det: SquareClass,
        disc: SquareClass,
        hasse_support: frozenset[Place],
        signature: tuple[int, int],
    ) -> None:
        self.dim = dim
        self.det = det
        self.disc = disc
        self.hasse_support = hasse_support
        self.signature = signature


def diagonalize_gram(gram) -> tuple[int | Fraction, ...]:
    """Diagonal entries of a form congruent to the symmetric matrix ``gram``.

    The matrix is scaled by L, the lcm of its denominators, and eliminated
    by ``bareiss_pivots``; the k-th diagonal entry is a_k / (L * a_(k-1)) for
    the pivots a_k (a_0 = 1), an ``int`` when that divides exactly.  The
    scaled matrix has the rational one's zero pattern, so the pivot choices
    are those of rational elimination.  Raises ValueError ("degenerate
    form") when the matrix is singular.
    """
    # Integers and Fractions already carry numerator and denominator.
    m = [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
         for row in gram]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("gram matrix must be square")
    scale = lcm(*(v.denominator for row in m for v in row))
    b = [[v.numerator * (scale // v.denominator) for v in row] for row in m]
    for i in range(n):
        for j in range(i):
            if b[i][j] != b[j][i]:
                raise ValueError("gram matrix must be symmetric")
    pivots = bareiss_pivots(b)
    out: list[int | Fraction] = []
    for prev, a in zip([1, *pivots], pivots):
        d = scale * prev
        q, r = divmod(a, d)
        out.append(Fraction(a, d) if r else q)
    return tuple(out)


def hasse_support(entries, places) -> frozenset[Place]:
    """The places among ``places`` where the diagonal form ``entries`` has
    Hasse bit 1.  The caller bounds the support: every place outside
    ``places`` must have bit 0."""
    return frozenset(v for v in places if hasse_bit(entries, v))


class QuadraticSpace:
    """A nondegenerate quadratic form over Q in diagonal presentation."""

    def __init__(self, diagonal: tuple[int | Fraction, ...]) -> None:
        self.diagonal = diagonal
        self.dim = len(diagonal)

    @classmethod
    def of(cls, entries) -> "QuadraticSpace":
        diag = tuple(a if type(a) is int else _rational(a) for a in entries)
        if any(a == 0 for a in diag):
            raise ValueError("degenerate form")
        return cls(diag)

    @classmethod
    def from_gram(cls, rows) -> "QuadraticSpace":
        return cls(diagonalize_gram(rows))

    def local_hasse_bit(self, v: Place) -> int:
        """Additive Hasse invariant at v: the sum over i < j of the symbols
        (a_i, a_j)_v mod 2, computed by ``hasse_bit`` in one pass over the
        diagonal (valuation parities and unit-residue characters)."""
        return hasse_bit(self.diagonal, v)

    @cached_property
    def invariants(self) -> QFInvariants:
        # Factor the distinct entries together, once each; every invariant
        # is read off the exponents.
        distinct = list(dict.fromkeys(self.diagonal))
        factored = dict(zip(distinct, factor_rationals(distinct)))
        primes = {p for _, exponents in factored.values() for p in exponents}
        total: dict[int, int] = {}
        for a in self.diagonal:
            for p, e in factored[a][1].items():
                total[p] = total.get(p, 0) + e
        m = self.dim
        r = sum(1 for a in self.diagonal if a > 0)
        det = SquareClass.from_factors(-1 if (m - r) % 2 else 1, total)
        support = hasse_support(self.diagonal, places_over(primes))
        return QFInvariants(m, det, _disc(det, m), support, (r, m - r))

    def __str__(self) -> str:
        return "<" + ", ".join(str(a) for a in self.diagonal) + ">"


def _rational(a) -> int | Fraction:
    """A rational entry as an ``int`` when it is an integer."""
    if not isinstance(a, Fraction):
        a = Fraction(a)
    return a.numerator if a.denominator == 1 else a


def _disc(det: SquareClass, dim: int) -> SquareClass:
    """Discriminant class (-1)^(dim*(dim-1)/2) * det."""
    return SquareClass.of(-1 if (dim * (dim - 1) // 2) % 2 else 1) * det


def pairwise_det_support(dets: Sequence[SquareClass]) -> frozenset[Place]:
    """Places where the sum over i < j of the symbols (det_i, det_j) is odd.

    Every symbol is trivial at odd primes dividing no det, so the support lies
    in ``places_over`` the dets' primes.
    """
    if len(dets) < 2:
        return frozenset()
    reps = [d.rep for d in dets]
    primes = set().union(*(d.primes for d in dets))
    return hasse_support(reps, places_over(primes))


def hyperbolic_hasse_support(dim: int) -> frozenset[Place]:
    """Hasse support of the split form of the given even dimension 2n.

    Its only nontrivial pairwise symbols are the C(n, 2) copies of (-1, -1),
    which is nontrivial exactly at 2 and infinity.
    """
    if dim < 0 or dim % 2:
        raise ValueError("hyperbolic spaces have even dimension")
    n = dim // 2
    return frozenset({TWO, INFINITY}) if n * (n - 1) // 2 % 2 else frozenset()


def hyperbolic_deviation_set(q: QuadraticSpace) -> frozenset[Place]:
    """Places where the Hasse bit of q differs from the split form's bit."""
    if q.dim % 2:
        raise ValueError("dimension must be even")
    return q.invariants.hasse_support ^ hyperbolic_hasse_support(q.dim)


def signature_hasse_bit(signature: tuple[int, int]) -> int:
    """Hasse bit at the real place of a form with the given signature."""
    s = signature[1]
    return (s * (s - 1) // 2) % 2
