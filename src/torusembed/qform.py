"""Quadratic spaces over Q.

Diagonalization by symmetric congruence, the complete invariant tuple
(dimension, determinant class, discriminant class, Hasse support, signature),
local hyperbolicity tests, and equivalence over Q by the local-global
principle (two forms are equivalent iff their invariant tuples agree).

The Hasse invariant is represented by its support: the finite set of places
where the pairwise symbol sum is odd.  Away from 2, infinity, and primes
dividing a diagonal entry, every symbol is trivial, so the support is
computable from finitely many candidate places.  The bit at one place comes
from ``arith.symbols.hasse_bit`` in one pass over the entries: it counts the
entries of odd valuation and reads residue characters of their unit parts,
so no pairwise symbol is evaluated; ``hilbert_symbol`` stays the per-pair
reference it is tested against.  The split form's support has a closed form,
``hyperbolic_hasse_support``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod

from torusembed.arith.integers import SquareClass, factor_rational
from torusembed.arith.places import INFINITY, TWO, Place
from torusembed.arith.symbols import hasse_bit, is_local_square, places_over


@dataclass(frozen=True)
class QFInvariants:
    """Complete invariant tuple of a rational quadratic form."""

    dim: int
    det: SquareClass
    disc: SquareClass
    hasse_support: frozenset[Place]
    signature: tuple[int, int]


def diagonalize_gram(gram) -> tuple[Fraction, ...]:
    """Diagonal entries of a form congruent to the symmetric matrix ``gram``.

    Symmetric row/column elimination; when every remaining diagonal entry is
    zero, a basis change x -> x + y manufactures a pivot.  Raises ValueError
    ("degenerate form") when the matrix is singular.
    """
    m = [[Fraction(v) for v in row] for row in gram]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("gram matrix must be square")
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise ValueError("gram matrix must be symmetric")
    diag: list[Fraction] = []
    for k in range(n):
        if m[k][k] == 0:
            pivot = next((l for l in range(k + 1, n) if m[l][l] != 0), None)
            if pivot is not None:
                m[k], m[pivot] = m[pivot], m[k]
                for row in m:
                    row[k], row[pivot] = row[pivot], row[k]
            else:
                off = next((l for l in range(k + 1, n) if m[k][l] != 0), None)
                if off is None:
                    raise ValueError("degenerate form")
                for j in range(n):
                    m[k][j] += m[off][j]
                for i in range(n):
                    m[i][k] += m[i][off]
        a = m[k][k]
        if a == 0:
            raise ValueError("degenerate form")
        diag.append(a)
        for i in range(k + 1, n):
            c = m[i][k] / a
            if c == 0:
                continue
            for j in range(n):
                m[i][j] -= c * m[k][j]
            for j in range(n):
                m[j][i] -= c * m[j][k]
    return tuple(diag)


@dataclass(frozen=True)
class QuadraticSpace:
    """A nondegenerate quadratic form over Q in diagonal presentation."""

    diagonal: tuple[Fraction, ...]
    gram: tuple[tuple[Fraction, ...], ...] | None = None

    @classmethod
    def of(cls, entries) -> "QuadraticSpace":
        diag = tuple(Fraction(a) for a in entries)
        if any(a == 0 for a in diag):
            raise ValueError("degenerate form")
        return cls(diag)

    @classmethod
    def from_gram(cls, rows) -> "QuadraticSpace":
        gram = tuple(tuple(Fraction(v) for v in row) for row in rows)
        return cls(diagonalize_gram(gram), gram)

    @property
    def dim(self) -> int:
        return len(self.diagonal)

    @property
    def det_value(self) -> Fraction:
        return prod(self.diagonal, start=Fraction(1))

    def local_hasse_bit(self, v: Place) -> int:
        """Additive Hasse invariant at v: the sum over i < j of the symbols
        (a_i, a_j)_v mod 2, computed by ``hasse_bit`` in one pass over the
        diagonal (valuation parities and unit-residue characters)."""
        return hasse_bit(self.diagonal, v)

    @cached_property
    def invariants(self) -> QFInvariants:
        # Factor each distinct entry once, after dividing out the primes of
        # the entries before it; every invariant is read off the exponents.
        primes: set[int] = set()
        factored: dict[Fraction, dict[int, int]] = {}
        total: dict[int, int] = {}
        for a in self.diagonal:
            if a not in factored:
                factored[a] = factor_rational(a, primes)[1]
                primes.update(factored[a])
            for p, e in factored[a].items():
                total[p] = total.get(p, 0) + e
        m = self.dim
        r = sum(1 for a in self.diagonal if a > 0)
        det = SquareClass.from_factors(-1 if (m - r) % 2 else 1, total)
        disc_sign = -1 if (m * (m - 1) // 2) % 2 else 1
        disc = SquareClass.of(disc_sign) * det
        support = frozenset(
            v for v in places_over(primes) if self.local_hasse_bit(v)
        )
        return QFInvariants(m, det, disc, support, (r, m - r))

    def __str__(self) -> str:
        return "<" + ", ".join(str(a) for a in self.diagonal) + ">"


def hyperbolic_space(dim: int) -> QuadraticSpace:
    """The split form <1, -1, 1, -1, ...> of the given even dimension."""
    if dim < 0 or dim % 2:
        raise ValueError("hyperbolic spaces have even dimension")
    return QuadraticSpace.of((1, -1) * (dim // 2))


def hyperbolic_hasse_support(dim: int) -> frozenset[Place]:
    """Hasse support of the split form of the given even dimension 2n.

    Its only nontrivial pairwise symbols are the C(n, 2) copies of (-1, -1),
    which is nontrivial exactly at 2 and infinity.
    """
    if dim < 0 or dim % 2:
        raise ValueError("hyperbolic spaces have even dimension")
    n = dim // 2
    return frozenset({TWO, INFINITY}) if n * (n - 1) // 2 % 2 else frozenset()


def equivalent_over_q(q1: QuadraticSpace, q2: QuadraticSpace) -> bool:
    """Equivalence over Q: equality of the complete invariant tuples."""
    return q1.invariants == q2.invariants


def hyperbolic_deviation_set(q: QuadraticSpace) -> frozenset[Place]:
    """Places where the Hasse bit of q differs from the split form's bit."""
    if q.dim % 2:
        raise ValueError("dimension must be even")
    return q.invariants.hasse_support ^ hyperbolic_hasse_support(q.dim)


def is_locally_hyperbolic(q: QuadraticSpace, v: Place) -> bool:
    """Whether q becomes the split form of its dimension over the completion at v."""
    if q.dim % 2:
        raise ValueError("dimension must be even")
    n = q.dim // 2
    if v.is_infinite:
        return q.invariants.signature == (n, n)
    det_shift = q.invariants.det.rep * (-1 if n % 2 else 1)
    if not is_local_square(Fraction(det_shift), v):
        return False
    return q.local_hasse_bit(v) == (v in hyperbolic_hasse_support(q.dim))


def signature_hasse_bit(signature: tuple[int, int]) -> int:
    """Hasse bit at the real place of a form with the given signature."""
    s = signature[1]
    return (s * (s - 1) // 2) % 2
