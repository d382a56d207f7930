"""Ground-truth side of the decision procedure.

Given an etale algebra ``E`` with involution (built in :mod:`torusembed.etale`)
and an invertible element ``alpha`` fixed by the involution, the bilinear form

    q_alpha(x, y) = Tr_{E/Q}(alpha * x * sigma(y))

is an exact rational quadratic form on the underlying 2n-dimensional vector
space.  This module computes these forms symbolically, enumerates candidate
elements ``alpha`` up to a coefficient height, and searches for an element
whose trace form is rationally equivalent to a target form.  A successful
search is an unconditional realizability certificate, independent of the
local-data engine in :mod:`torusembed.engine`; a failed bounded search proves
nothing.

The Gram matrix of q_alpha is block diagonal, one block per component, and a
candidate is a choice of one part per component.  The search therefore walks
each component's parts once and computes a block's data the first time a
candidate uses it.  A block is its integer coefficient vector: with
x = a + b*sqrt(theta) (a, b in F) the form is
Tr_{F/Q}(2*alpha*a^2) + Tr_{F/Q}(-2*alpha*theta*b^2), two Hankel halves built
over Z from the component's power sums (the odd power sums of the even h are
0), each diagonalized fraction-free.  A block's determinant class never
varies: the Gram matrix has determinant N_{K/Q}(alpha) * det(q_1), and
N_{K/Q}(alpha) = N_{F/Q}(alpha)^2 for a fixed alpha, so it is the component's
``det_class``.  A target with another determinant class is therefore
exhausted without a candidate.

The search never factors a Gram entry.  At an odd prime outside the
component's gap set that divides neither its discriminant class nor
N_{F/Q}(alpha), both halves are unimodular, so the block's Hasse bit there is
0 (O'Meara, section 92).  A candidate is screened by its signature, then by
the XOR of its blocks' bits at the places known without any norm: 2,
infinity, every component's gap and discriminant primes, and the primes of
the target's support and of the pairwise determinant support; the XOR must
be the target's support XOR that pairwise support.  Only a candidate that
passes both gets the primes of each block's
N_{F/Q}(alpha) = det E_alpha / det E_1 outside the known set, a ratio of
pivots the elimination already has, and its blocks' bits there must cancel.
The full trace form of a candidate that passes is still computed, for the
report, and compared with the target on the same places (the determinant
class by a rational-square test), so every match is certified by its own
trace form.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import isqrt, prod
from typing import Sequence

from .arith.integers import SquareClass, factor_rationals
from .arith.places import Place
from .arith.polyq import PolyQ, bareiss_pivots, hankel, integerize
from .arith.symbols import places_over
from .errors import AuditError
from .etale import Component, EtaleAlgebra
from .qform import QFInvariants, QuadraticSpace, hasse_support
from .record import Record


class AlgebraElement(Record):
    """An element of the product algebra, one polynomial part per component.

    Part ``i`` is a polynomial in the generator of ``K_i = Q[y]/(h_i)``,
    always kept reduced mod ``h_i``.  Elements fixed by the involution use
    only even powers of the generator.
    """

    def __init__(self, parts: tuple[PolyQ, ...]) -> None:
        self.parts = parts

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.parts) + ")"


def make_element(algebra: EtaleAlgebra, parts: Sequence) -> AlgebraElement:
    """Build an element from one entry per component.

    Entries may be :class:`PolyQ`, integers, or :class:`Fraction`; each is
    reduced mod the component's defining polynomial.
    """
    comps = algebra.components
    if len(parts) != len(comps):
        raise ValueError(
            f"expected {len(comps)} parts, got {len(parts)}"
        )
    reduced = []
    for comp, part in zip(comps, parts):
        poly = part if isinstance(part, PolyQ) else PolyQ.constant(part)
        reduced.append(poly % comp.h)
    return AlgebraElement(tuple(reduced))


def _scaled_sums(comp: Component) -> tuple[int, list[int]]:
    """(L, [L * s_n]) for n = 0 .. 3m-2, where s_n = 2 * t_n / D^n =
    2 * Tr_F(theta^n) is the power sum p_(2n) of h's roots and L = D^(3m-2)."""
    top = len(comp.t) - 1
    return comp.D**top, [2 * x * comp.D ** (top - n) for n, x in enumerate(comp.t)]


def _component_gram(comp: Component, part: PolyQ) -> list[list[Fraction]]:
    """Gram block of q_alpha restricted to one component, over the monomial
    basis 1, y, ..., y^(d-1), of a part reduced mod h: with p_w = Tr(y^w),
        B[u][v] = Tr(part * y^u * sigma(y^v)) = (-1)^v * sum_k c_2k * p_(2k+u+v),
    which is (-1)^v * H_((u+v)/2) / (L * den) for even u + v and 0 for odd,
    with part = vec(y^2) / den over Z and H the Hankel vector of vec."""
    scale, sums = _scaled_sums(comp)
    coeffs, den = integerize(part)
    m = comp.fixed_degree
    h = hankel(coeffs[::2], sums, 2 * m)
    q = [x for n in h for x in (Fraction(n, scale * den), Fraction(0))]
    return [[-q[u + v] if v % 2 else q[u + v] for v in range(2 * m)] for u in range(2 * m)]


class TraceFormResult:
    """The exact trace form of one element: Gram matrix over the monomial
    basis plus its diagonalization and invariants."""

    def __init__(
        self, gram: tuple[tuple[Fraction, ...], ...], space: QuadraticSpace
    ) -> None:
        self.gram = gram
        self.space = space

    @property
    def invariants(self):
        return self.space.invariants


def trace_form(algebra: EtaleAlgebra, alpha: AlgebraElement) -> TraceFormResult:
    """The quadratic form x -> Tr(alpha * x * sigma(x)) on the algebra.

    ``alpha`` must be fixed by the involution, so no part has an odd power,
    and invertible.  Every component is a field, so a part is a unit exactly
    when it is nonzero mod the component's ``h``.  The Gram matrix is block
    diagonal across components because cross-component products vanish.
    """
    comps = algebra.components
    if len(alpha.parts) != len(comps):
        raise ValueError("element does not match the algebra's components")
    if any(any(part.coeffs[1::2]) for part in alpha.parts):
        raise ValueError("element is not fixed by the involution")
    reduced = [part % comp.h for comp, part in zip(comps, alpha.parts)]
    if any(part.is_zero for part in reduced):
        raise ValueError("singular trace form: element is not a unit")
    size = algebra.rank
    rows = [[Fraction(0)] * size for _ in range(size)]
    offset = 0
    for comp, part in zip(comps, reduced):
        block = _component_gram(comp, part)
        d = comp.degree
        for u in range(d):
            for v in range(d):
                rows[offset + u][offset + v] = block[u][v]
        offset += d
    gram = tuple(tuple(r) for r in rows)
    return TraceFormResult(gram=gram, space=QuadraticSpace.from_gram(rows))


class _Trace:
    """One component's trace data for one search, and the known places.

    With s_n = 2 * Tr_F(theta^n) = p_(2n), a block's Gram matrix splits over
    the bases {y^(2i)} and {y^(2i+1)} into the Hankel halves
    E[i][j] = sum_k c_k * s_(k+i+j) and O[i][j] = -sum_k c_k * s_(k+i+j+1),
    because the odd power sums of the even h vanish; ``scaled_sums`` holds
    the s_n over Z.  ``known`` is the set of places every block is compared
    on first.
    """

    def __init__(self, component: Component, known: tuple[Place, ...]) -> None:
        self.component = component
        self.known = known
        self.scaled_sums = _scaled_sums(component)

    @cached_property
    def known_primes(self) -> frozenset[int]:
        return frozenset(v.p for v in self.known if not v.is_infinite)

    @cached_property
    def unit_det(self) -> int:
        """det(L * E_1), the even half of the trace form of alpha = 1."""
        return _halves(self, (1,) + (0,) * (self.component.fixed_degree - 1))[1]


def _halves(trace: _Trace, vec: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Integer representatives of the diagonal of E + O (an orthogonal sum)
    for the part with even-power coefficients ``vec``, each in the square
    class of its entry, and det(L * E).

    Both halves are eliminated fraction-free over Z; with pivots a_k of
    L * E (or L * O), the k-th diagonal entry a_k / (L * a_(k-1)) is in the
    class of L * a_(k-1) * a_k.
    """
    scale, sums = trace.scaled_sums
    m = len(vec)
    h = hankel(vec, sums, 2 * m)
    even = bareiss_pivots([h[i : i + m] for i in range(m)])
    odd = bareiss_pivots([[-x for x in h[i + 1 : i + 1 + m]] for i in range(m)])
    diagonal = tuple(
        scale * prev * a
        for pivots in (even, odd)
        for prev, a in zip([1, *pivots], pivots)
    )
    return diagonal, even[-1]


class _Block:
    """One component's part of a candidate, as its integer coefficient
    vector.  Its data are computed on first use and kept for every candidate
    sharing it; its ``PolyQ`` part is built only when asked for, and its
    norm is factored only for a candidate that passed every cheaper screen.
    """

    def __init__(self, trace: _Trace, vec: tuple[int, ...]) -> None:
        self.trace = trace
        self.vec = vec

    @cached_property
    def part(self) -> PolyQ:
        """The even-power polynomial sum_i vec_i * y^(2i)."""
        return PolyQ.of([x for c in self.vec for x in (c, 0)][:-1])

    @cached_property
    def halves(self) -> tuple[tuple[int, ...], int]:
        return _halves(self.trace, self.vec)

    @cached_property
    def positives(self) -> int:
        return sum(1 for a in self.halves[0] if a > 0)

    @cached_property
    def known_support(self) -> frozenset[Place]:
        return hasse_support(self.halves[0], self.trace.known)

    @cached_property
    def late_places(self) -> tuple[Place, ...]:
        """The places of the primes of N_{F/Q}(alpha) outside the known set."""
        trace = self.trace
        norm = Fraction(self.halves[1], trace.unit_det)
        exponents = factor_rationals([norm], trace.known_primes)[0][1]
        return tuple(Place(p) for p in exponents if p not in trace.known_primes)

    @cached_property
    def late_support(self) -> frozenset[Place]:
        return hasse_support(self.halves[0], self.late_places)


def _streams(
    algebra: EtaleAlgebra, height: int, primes: frozenset[int]
) -> list[list[_Block]]:
    """Per component, its involution-fixed unit parts whose even-power
    coefficients are integers in [-height, height], in vector order; the
    known places are those over ``primes``.

    Every nonzero vector gives a unit: its part is a nonzero polynomial of
    degree below ``deg h``, and ``h`` is irreducible because every component
    is validated as a field, so the part is coprime to ``h``.  No gcd is
    needed; ``trace_form`` still rejects a part that is 0 mod ``h``.
    """
    if height < 1:
        raise ValueError("height must be at least 1")
    known = tuple(places_over(primes))
    streams = []
    for comp in algebra.components:
        trace = _Trace(comp, known)
        vectors = itertools.product(range(-height, height + 1), repeat=comp.fixed_degree)
        streams.append([_Block(trace, vec) for vec in vectors if any(vec)])
    return streams


class SearchResult:
    """Outcome of a bounded realizability search."""

    def __init__(
        self,
        element: AlgebraElement | None,
        form: TraceFormResult | None,
        height: int,
    ) -> None:
        self.element = element
        self.form = form
        self.height = height

    @property
    def found(self) -> bool:
        return self.element is not None


def search_realizing_element(
    algebra: EtaleAlgebra, target: QuadraticSpace, height: int
) -> SearchResult:
    """First enumerated element whose trace form is equivalent to ``target``.

    Every candidate's determinant class is the algebra's, so a target with
    another one is exhausted at once.  Candidates are screened by their
    blocks: the signature, then the Hasse bits at the known places K (2,
    infinity, every component's gap and discriminant primes, and the primes
    of the target's support and of the pairwise determinant support), then
    the bits at the primes of each block's N(alpha) outside K, which must
    cancel.  A candidate that passes is confirmed by its full trace form,
    compared with the target on the same places, which is the one returned.
    An exhausted search is a bounded outcome only: it never proves that no
    realizing element exists.
    """
    if target.dim != algebra.rank:
        raise ValueError(
            f"form dimension {target.dim} does not match algebra rank {algebra.rank}"
        )
    want = target.invariants
    residual = want.hasse_support ^ algebra.pairwise_det_support
    streams = _streams(algebra, height, _known_primes(algebra, residual))
    dets = (c.det_class for c in algebra.components)
    if prod(dets, start=SquareClass.of(1)) != want.det:
        return SearchResult(element=None, form=None, height=height)
    for blocks in itertools.product(*streams):
        if sum(b.positives for b in blocks) != want.signature[0]:
            continue
        support = frozenset()
        for b in blocks:
            support ^= b.known_support
        if support != residual:
            continue
        late = frozenset()
        for b in blocks:
            late ^= b.late_support
        if late:
            continue
        candidate = AlgebraElement(tuple(b.part for b in blocks))
        result = trace_form(algebra, candidate)
        places = set(blocks[0].trace.known).union(*(b.late_places for b in blocks))
        if not _certifies(result.space, want, places):
            raise AuditError(
                f"the block invariants of {candidate} match the target but its "
                "trace form does not"
            )
        return SearchResult(element=candidate, form=result, height=height)
    return SearchResult(element=None, form=None, height=height)


def _known_primes(algebra: EtaleAlgebra, residual: frozenset[Place]) -> frozenset[int]:
    """The primes the known places lie over, besides 2: every component's
    gap and discriminant primes, and the primes of ``residual``."""
    primes = {v.p for v in residual if not v.is_infinite}
    for comp in algebra.components:
        primes |= comp.exactness_gaps | comp.disc_class.primes
    return frozenset(primes)


def _certifies(space: QuadraticSpace, want: QFInvariants, places) -> bool:
    """Whether ``space`` has the invariants ``want``, given that both Hasse
    supports lie in ``places``: the signature, the determinant class by a
    rational-square test, and the Hasse bits at those places."""
    diagonal = space.diagonal
    r = sum(1 for a in diagonal if a > 0)
    ratio = prod(diagonal, start=Fraction(want.det.rep))
    return (
        (r, len(diagonal) - r) == want.signature
        and ratio > 0
        and all(isqrt(n) ** 2 == n for n in (ratio.numerator, ratio.denominator))
        and hasse_support(diagonal, places) == want.hasse_support
    )
