"""Etale algebras with involution over Q.

An algebra is a product of components K = F(sqrt(theta)): F is a number field
given by a monic irreducible polynomial f, and theta is a nonzero element of F
given as a polynomial in the generator of F.  The involution fixes F and
negates sqrt(theta).  The quadratic-over-Q shorthand (K = Q(sqrt(d))) is
normalized internally to f = y - d and the constant theta = d, but keeps an
exact splitting rule at every prime.

A general component's arithmetic over Q comes from one integer kernel, built
once: f and theta become g(z) = c^m f(z/c) and theta = W(z)/D over Z, with
the power sums of g's roots by Newton's identities.  The traces of W^k mod g
give chi_T, the characteristic polynomial of D*theta; with chi that of theta,
h(x) = chi(x^2) = Res_y(f(y), x^2 - theta(y)) is the minimal polynomial of
sqrt(theta).  chi_T's power sums test chi's irreducibility and give those of
h's roots, p_w = Tr_{K/Q}(sqrt(theta)^w), which are 2*Tr_{F/Q}(theta^(w/2))
for even w and 0 for odd w, and which give every trace-form Gram block.
A component keeps this kernel, not f and theta: g, W, D and chi_T's power
sums t, with h for the report.  A quad component keeps the trivial kernel
g = y - d, W = d, D = 1 and t = (1, d), so readers take one path.

A general component is a field exactly when h is irreducible, that is, when
chi is irreducible (theta generates F) and theta is not a square in F.  The
second condition is settled by one good prime (an odd prime outside the gap
set below) where theta is a non-square modulo a distinct-degree block of
f mod p, read as D*W modulo the matching block of g mod p; h itself is
factored only if theta is a square at the first few good primes.

Each component also carries discriminant and determinant square classes, the
counts of its real places (ramified = theta negative there), and a
prime-splitting oracle.  The counts come from the power sums of g's roots too:
Hermite's form Tr_{F/Q}(w * y^(i+j)) has signature sum sign w(x) over the real
roots x of f, for w = 1 and w = theta (W over Z).  The discriminant class is that of the
norm Res(f, theta) = (-1)^m * chi(0), since disc(h) = 4^m * Res(f, theta) *
disc(chi)^2.  For general components the splitting is read off the
distinct-degree blocks of g mod p by the same rule, exactly at odd primes away
from a finite documented gap set (primes dividing the data's discriminants and
norm, plus 2); at the gap primes the oracle abstains unless the user supplies
an annotation.  The block rule is the only splitting answer that costs more
than O(1), so each component keeps its answers in ``Component.square_at``: the
field check's primes and every prime the engine asks about, each evaluated
once.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import islice

from torusembed.arith.integers import (
    SquareClass,
    factor_integer,
    factor_rational,
    iter_primes,
)
from torusembed.arith.places import Place
from torusembed.arith.polyfp import fp_distinct_degree, fp_mulmod, fp_pow_mod, fp_reduce
from torusembed.arith.polyq import (
    MAX_IRREDUCIBILITY_DEGREE,
    PolyQ,
    hankel_pivots,
    integer_kernel,
    is_irreducible,
    is_monic_irreducible,
    power_sums,
    resultant_in_y,
)
from torusembed.arith.symbols import legendre_symbol
from torusembed.errors import ComponentValidationError
from torusembed.qform import pairwise_det_support
from torusembed.record import Record


class SplitStatus(Enum):
    """Result of a splitting query: split, nonsplit, or an abstention.

    The values are the wire format of a splitting annotation, which accepts
    the first two.  A status is read by identity with ``SPLIT``,
    ``NONSPLIT`` or ``INDETERMINATE``."""

    SPLIT = "split"
    NONSPLIT = "nonsplit"
    INDETERMINATE = "indeterminate"


SPLIT, NONSPLIT, INDETERMINATE = SplitStatus


class QuadSpec(Record):
    """Component K = Q(sqrt(d)) for squarefree d not in {0, 1}."""

    def __init__(self, d: int) -> None:
        self.d = d


class GeneralSpec(Record):
    """Component K = F(sqrt(theta)): F = Q[y]/(f), theta a polynomial in y."""

    def __init__(self, f: PolyQ, theta: PolyQ) -> None:
        self.f = f
        self.theta = theta


class Component:
    """A validated field component: its integer kernel g, W, D, t, and h."""

    def __init__(
        self,
        spec: QuadSpec | GeneralSpec,
        g: list[int],
        W: list[int],
        D: int,
        t: list[int],
        h: PolyQ,
        degree: int,
        disc_class: SquareClass,
        det_class: SquareClass,
        real_count: int,
        ramified_count: int,
        exactness_gaps: frozenset[int],
        square_at: dict[int, bool],
    ) -> None:
        self.spec = spec
        self.g = g
        self.W = W
        self.D = D
        self.t = t
        self.h = h
        self.degree = degree
        self.disc_class = disc_class
        self.det_class = det_class
        self.real_count = real_count
        self.ramified_count = ramified_count
        self.exactness_gaps = exactness_gaps
        # The block rule's answer (theta a square above p) at the good primes
        # asked so far, by the field check and by component_split_at.
        self.square_at = square_at

    @property
    def is_quad(self) -> bool:
        return isinstance(self.spec, QuadSpec)

    @property
    def fixed_degree(self) -> int:
        return len(self.g) - 1

    @property
    def unramified_real_count(self) -> int:
        return self.real_count - self.ramified_count

    @property
    def complex_pair_count(self) -> int:
        return (self.fixed_degree - self.real_count) // 2

    @property
    def real_profile(self) -> tuple[int, int, int]:
        return (
            self.ramified_count,
            self.unramified_real_count,
            self.complex_pair_count,
        )

    @property
    def unramified_weight(self) -> int:
        """Degree-weighted count of unramified infinite places of F."""
        return self.unramified_real_count + 2 * self.complex_pair_count

    @property
    def unramified_place_count(self) -> int:
        """Raw count of unramified infinite places (complex places count once)."""
        return self.unramified_real_count + self.complex_pair_count


_NOT_FULL_DEGREE = (
    "not a field component: sqrt(theta) does not generate a field of the full degree"
)


def build_component(spec: QuadSpec | GeneralSpec) -> Component:
    """Validate a component description and compute its derived data."""
    if isinstance(spec, QuadSpec):
        d = spec.d
        if d in (0, 1):
            raise ComponentValidationError(
                f"d = {d} does not define a quadratic field"
            )
        sign, facs = factor_integer(d)
        if any(e > 1 for _, e in facs):
            raise ComponentValidationError(f"d = {d} must be squarefree")
        # The trivial kernel of f = y - d and theta = d: g = f, W = d, D = 1,
        # and chi_T = x - d, whose root d has the power sums 1, d.
        g, W, D, t = [-d, 1], [d], 1, [1, d]
        h = PolyQ.of((-d, 0, 1))
        # disc(h) = 4d lies in the class of d.
        disc_class = SquareClass.from_factors(sign, dict(facs))
        gaps: frozenset[int] = frozenset()
        square_at: dict[int, bool] = {}
        # F = Q has one real place, ramified exactly when d < 0.
        real_count, ramified_count = 1, int(d < 0)
    else:
        f, theta = spec.f, spec.theta
        if f.degree < 1:
            raise ComponentValidationError("f must have degree at least 1")
        if f.lc != 1:
            raise ComponentValidationError("f must be monic")
        if 2 * f.degree > MAX_IRREDUCIBILITY_DEGREE:
            raise ComponentValidationError(
                f"unsupported degree: [K:Q] = {2 * f.degree} exceeds "
                f"{MAX_IRREDUCIBILITY_DEGREE}"
            )
        theta = theta % f
        m = f.degree
        # One integer kernel: g = c^m f(z/c), theta = W(z)/D at z = c*y, the
        # power sums s of g's roots, and chi_T, the characteristic polynomial
        # of D*theta, whose power sums t_k = D^k s_k(chi) serve both chi's
        # irreducibility test and h's power sums.
        g, c, W, D, s = integer_kernel(f, theta)
        chi_T = resultant_in_y(g, W, s)
        t = power_sums(chi_T, 3 * m - 1)
        # h = chi(x^2) is monic of degree 2m; it is the minimal polynomial of
        # sqrt(theta) over Q exactly when K is a field, that is, when theta
        # generates F (chi irreducible, which needs f irreducible and theta
        # nonzero) and theta is not a square in F.  f is tested only to name
        # why chi is not irreducible.
        if theta.is_zero or not is_monic_irreducible(chi_T, t):
            if not is_irreducible(f):
                raise ComponentValidationError("not a field component: f is reducible")
            if theta.is_zero:
                raise ComponentValidationError("theta must be nonzero in F")
            raise ComponentValidationError(_NOT_FULL_DEGREE)
        zero = Fraction(0)
        h = PolyQ(tuple(q for j, a in enumerate(chi_T)
                        for q in (Fraction(a, D ** (m - j)), zero))[:-1])
        # chi is irreducible, so Hermite's form of g is nonsingular for W = 1
        # and W; for W = 1 its last pivot is disc(g) = c^(m(m-1)) * disc(f).
        ones = hankel_pivots([1], s, m)
        # The gap set: odd primes of c (the lcm of f's denominators), disc(f),
        # D (theta's denominators, with c) and the norm Res(f, theta) =
        # (-1)^m * chi(0), each factored after dividing out those found.
        norm = (-1) ** m * h.coeffs[0]
        bad: set[int] = set()
        for x in (c, ones[-1], D, norm):
            bad.update(factor_rational(x, bad)[1])
        # A square root of theta in F would reduce to one at every good
        # prime, where f stays squarefree and theta a unit: a good prime
        # where theta is a non-square modulo one block proves that K is a
        # field.  Only if none of the first few primes does is h factored.
        # The answers are kept for component_split_at.
        good = (p for p in iter_primes() if p != 2 and p not in bad)
        square_at = {}
        for p in islice(good, 8):
            square_at[p] = _is_square_at(g, W, D, p)
            if not square_at[p]:
                break
        if all(square_at.values()) and not is_irreducible(h):
            raise ComponentValidationError(_NOT_FULL_DEGREE)
        # disc(h) = 4^m * Res(f, theta) * disc(chi)^2 is in the class of the
        # norm, whose primes are all in the gap set already.
        disc_class = SquareClass.from_factors(*factor_rational(norm, bad))
        gaps = frozenset(bad - {2})
        # Ramified real places are the roots of f where theta < 0.
        real_count = _signature(ones)
        ramified_count = (real_count - _signature(hankel_pivots(W, s, m))) // 2

    det_sign = -1 if (h.degree // 2) % 2 else 1
    det_class = SquareClass.of(det_sign) * disc_class

    return Component(
        spec=spec,
        g=g,
        W=W,
        D=D,
        t=t,
        h=h,
        degree=h.degree,
        disc_class=disc_class,
        det_class=det_class,
        real_count=real_count,
        ramified_count=ramified_count,
        exactness_gaps=gaps,
        square_at=square_at,
    )


def _signature(pivots: list[int]) -> int:
    """Signature of the form congruent to the pivot ratios a_k / a_(k-1)."""
    return sum(1 if prev * a > 0 else -1 for prev, a in zip([1, *pivots], pivots))


def _is_square_at(g: list[int], W: list[int], D: int, p: int) -> bool:
    """Whether theta = W(z)/D is a square at every place of F above the good
    prime p.  c and D are units mod p, so z = c*y maps the blocks of f mod p
    onto those of g, and theta * D^2 = D * W(z).  So with T = D * W,
    r = T^((p^k - 1)/2) is 1 or -1 modulo each degree-k factor of g, and 1
    where theta is a square; by the Chinese remainder theorem r is 1 modulo
    the block exactly when it is 1 modulo every factor.
    """
    T = fp_reduce([D * w for w in W], p)
    for block, k in fp_distinct_degree(fp_reduce(g, p), p):
        r = fp_pow_mod(T, (p**k - 1) // 2, block, p)
        assert fp_mulmod(r, r, block, p) == [1], "theta is a unit at good primes"
        if r != [1]:
            return False
    return True


def component_split_at(
    c: Component, p: int, annotation: str | None = None
) -> SplitStatus:
    """Whether every place of F above p splits in K.

    Quadratic-over-Q components are decided exactly at every prime.  General
    components are decided exactly at odd primes outside the component's gap
    set, by the block rule kept in ``c.square_at``; at 2 and at gap primes the
    supplied annotation is used, and the oracle abstains when there is none.
    """
    if c.is_quad:
        d = c.spec.d
        if p == 2:
            return SPLIT if d % 8 == 1 else NONSPLIT
        return SPLIT if legendre_symbol(d, p) == 1 else NONSPLIT
    if p == 2 or p in c.exactness_gaps:
        return SplitStatus(annotation) if annotation else INDETERMINATE
    square = c.square_at.get(p)
    if square is None:
        square = c.square_at[p] = _is_square_at(c.g, c.W, c.D, p)
    return SPLIT if square else NONSPLIT


class EtaleAlgebra:
    """A product of validated components, with their splitting annotations,
    whose keys the constructor checks against the components."""

    def __init__(
        self,
        components: tuple[Component, ...],
        annotations: dict[tuple[int, int], str] | None = None,
    ) -> None:
        if not components:
            raise ComponentValidationError("an algebra needs at least one component")
        ann = dict(annotations or {})
        for (i, p), status in sorted(ann.items()):
            if not 0 <= i < len(components):
                raise ComponentValidationError(f"annotation for unknown component {i}")
            if status not in (SPLIT.value, NONSPLIT.value):
                raise ComponentValidationError(
                    f"annotation status must be '{SPLIT.value}' or '{NONSPLIT.value}'"
                )
            c = components[i]
            if c.is_quad:
                raise ComponentValidationError(
                    f"component {i} is decided exactly at every prime; "
                    f"annotation at {p} not allowed"
                )
            if p != 2 and p not in c.exactness_gaps:
                raise ComponentValidationError(
                    f"component {i} is decided exactly at {p}; annotation not allowed"
                )
        self.components = components
        self.annotations = ann

    @property
    def rank(self) -> int:
        return sum(c.degree for c in self.components)

    @property
    def disc_class(self) -> SquareClass:
        out = SquareClass.of(1)
        for c in self.components:
            out = out * c.disc_class
        return out

    @property
    def unramified_real_weight(self) -> int:
        """Degree-weighted count of unramified infinite places of the fixed algebra."""
        return sum(c.unramified_weight for c in self.components)

    @property
    def unramified_place_count(self) -> int:
        """Raw (unweighted) count of unramified infinite places."""
        return sum(c.unramified_place_count for c in self.components)

    @property
    def ramified_real_count(self) -> int:
        return sum(c.ramified_count for c in self.components)

    @property
    def is_cm(self) -> bool:
        """All fixed fields totally real and theta totally negative."""
        return self.unramified_real_weight == 0

    def component_split(self, i: int, v: Place) -> SplitStatus:
        """Whether component i splits at v; at infinity, split iff theta is
        positive at every real embedding of F."""
        c = self.components[i]
        if v.is_infinite:
            return SPLIT if c.ramified_count == 0 else NONSPLIT
        return component_split_at(c, v.p, self.annotations.get((i, v.p)))

    def statuses(self, v: Place) -> tuple[SplitStatus, ...]:
        """The status row at v: each component's splitting status, in order."""
        return tuple(self.component_split(i, v) for i in range(len(self.components)))

    @cached_property
    def pairwise_det_support(self) -> frozenset[Place]:
        """Places where the pairwise determinant-class symbol sum is odd."""
        return pairwise_det_support([c.det_class for c in self.components])


def build_algebra(
    specs, annotations: dict[tuple[int, int], str] | None = None
) -> EtaleAlgebra:
    """Validate all component specs and the annotation keys."""
    return EtaleAlgebra(tuple(build_component(s) for s in specs), annotations)
