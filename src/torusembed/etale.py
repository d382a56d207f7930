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
A component keeps this kernel, not f and theta: g, W, D, chi_T and its power
sums t.  h's coefficients are read from chi_T and D when the report asks for
them, as ints when D = 1; the polynomial h is built only for the oracle's
reductions and the square-norm fallback below.  A quad component keeps the
trivial kernel g = y - d, W = d, D = 1, chi_T = x - d and t = (1, d), so
readers take one path.

A general component is a field exactly when h is irreducible, that is, when
chi is irreducible (theta generates F) and theta is not a square in F.  If
theta = beta^2 in F, its norm N(theta) = N(beta)^2 is a rational square, so
only a square norm needs more: it asks the first few good primes (below) for
one where theta is a non-square, and h is factored only if none is found.

Each component also carries discriminant and determinant square classes, the
counts of its real places (ramified = theta negative there), and a
prime-splitting oracle.  These counts, and the algebra's sums of them, are
stored when each is built.  They come from the power sums of g's roots too:
Hermite's form Tr_{F/Q}(w * y^(i+j)) has signature sum sign w(x) over the real
roots x of f, for w = 1 and w = theta (W over Z).  The discriminant class is that of the
norm Res(f, theta) = (-1)^m * chi(0), since disc(h) = 4^m * Res(f, theta) *
disc(chi)^2.  For general components the splitting is exact at good primes:
odd primes away from a finite documented gap set (primes dividing the data's
discriminants and norm).  There the norm's Legendre symbol is (-1)^r, r the
places above p where theta is a non-square; at +1, theta is a square above p
exactly when D*W is a square modulo each distinct-degree block of g mod p
but the last one that is one place, which the even r settles (the block
rule, evaluated once per prime).  At 2 and at the gap primes the oracle
abstains unless the user supplies an annotation.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import islice

from torusembed.arith.integers import (
    SquareClass,
    factor_integer,
    factor_rationals,
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
from torusembed.errors import ComponentValidationError, echo
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
    """A validated field component: its integer kernel g, W, D, chi_T and t,
    and the counts of F's infinite places, all stored when it is built."""

    def __init__(
        self,
        spec: QuadSpec | GeneralSpec,
        g: list[int],
        W: list[int],
        D: int,
        chi_T: list[int],
        t: list[int],
        disc_class: SquareClass,
        det_class: SquareClass,
        real_count: int,
        ramified_count: int,
        exactness_gaps: frozenset[int],
    ) -> None:
        self.spec = spec
        self.is_quad = isinstance(spec, QuadSpec)
        self.g = g
        self.W = W
        self.D = D
        self.chi_T = chi_T
        self.t = t
        self.disc_class = disc_class
        self.det_class = det_class
        self.real_count = real_count
        self.ramified_count = ramified_count
        self.exactness_gaps = exactness_gaps
        self.fixed_degree = len(g) - 1  # [F:Q]
        self.degree = 2 * self.fixed_degree  # [K:Q]
        unramified = real_count - ramified_count
        complex_pairs = (self.fixed_degree - real_count) // 2
        self.real_profile = (ramified_count, unramified, complex_pairs)
        # Degree-weighted count of unramified infinite places of F.
        self.unramified_weight = unramified + 2 * complex_pairs
        # Raw count of unramified infinite places (complex places count once).
        self.unramified_place_count = unramified + complex_pairs
        # Block-rule answers (theta a square above p) of component_split_at.
        self.square_at: dict[int, bool] = {}

    def h_coeffs(self) -> list[int | Fraction]:
        """h(x) = chi(x^2), ascending: chi's coefficient of x^j is
        chi_T[j] / D^(m-j), with zeros between; all ints when D = 1."""
        chi_T, D = self.chi_T, self.D
        m = len(chi_T) - 1
        out: list[int | Fraction] = [0] * (2 * m + 1)
        out[::2] = chi_T if D == 1 else [
            Fraction(a, D ** (m - j)) for j, a in enumerate(chi_T)
        ]
        return out

    @cached_property
    def h(self) -> PolyQ:
        """The minimal polynomial of sqrt(theta) over Q."""
        return PolyQ.of(self.h_coeffs())


_NOT_FULL_DEGREE = (
    "not a field component: sqrt(theta) does not generate a field of the full degree"
)
_CERTIFICATE_PRIMES = 8  # good primes to try before a square-norm h is factored


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
            raise ComponentValidationError(f"d = {echo(d)} must be squarefree")
        # The trivial kernel of f = y - d and theta = d: g = f, W = d, D = 1,
        # and chi_T = x - d, whose root d has the power sums 1, d.
        g, W, D, chi_T, t = [-d, 1], [d], 1, [-d, 1], [1, d]
        # disc(h) = 4d lies in the class of d.
        disc_class = SquareClass.from_factors(sign, dict(facs))
        gaps: frozenset[int] = frozenset()
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
        if theta.degree >= f.degree:
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
        # chi is irreducible, so Hermite's form of g is nonsingular for W = 1
        # and W; for W = 1 its last pivot is disc(g) = c^(m(m-1)) * disc(f).
        ones = hankel_pivots([1], s, m)
        # The gap set: odd primes of c (the lcm of f's denominators), disc(f),
        # D (theta's denominators, with c) and the norm Res(f, theta) =
        # (-1)^m * chi(0) = (-1)^m * chi_T(0) / D^m, factored together.
        norm = (-1) ** m * chi_T[0]
        if D != 1:
            norm = Fraction(norm, D**m)
        factored = factor_rationals((c, ones[-1], D, norm))
        bad = {p for _, exponents in factored for p in exponents}
        # disc(h) = 4^m * Res(f, theta) * disc(chi)^2 is in the class of the
        # norm.
        disc_class = SquareClass.from_factors(*factored[-1])
        gaps = frozenset(bad - {2})
        # Ramified real places are the roots of f where theta < 0.
        real_count = _signature(ones)
        ramified_count = (real_count - _signature(hankel_pivots(W, s, m))) // 2

    det_sign = -1 if (len(g) - 1) % 2 else 1  # (-1)^m, m = [F:Q]
    det_class = SquareClass.of(det_sign) * disc_class

    component = Component(
        spec=spec,
        g=g,
        W=W,
        D=D,
        chi_T=chi_T,
        t=t,
        disc_class=disc_class,
        det_class=det_class,
        real_count=real_count,
        ramified_count=ramified_count,
        exactness_gaps=gaps,
    )
    # theta = beta^2 would make the norm N(beta)^2 a rational square; for a
    # square norm, a good prime where theta is a non-square proves K a field.
    if disc_class.rep == 1:
        good = (p for p in iter_primes() if p != 2 and p not in gaps)
        squares = (component_split_at(component, p) is SPLIT for p in good)
        if all(islice(squares, _CERTIFICATE_PRIMES)) and not is_irreducible(component.h):
            raise ComponentValidationError(_NOT_FULL_DEGREE)
    return component


def _signature(pivots: list[int]) -> int:
    """Signature of the form congruent to the pivot ratios a_k / a_(k-1)."""
    return sum(1 if prev * a > 0 else -1 for prev, a in zip([1, *pivots], pivots))


def _is_square_at(g: list[int], W: list[int], D: int, p: int) -> bool:
    """Whether theta = W(z)/D is a square at every place of F above the good
    prime p, where the norm's symbol is +1.  c and D are units mod p, so z =
    c*y maps the blocks of f mod p onto those of g, and theta * D^2 = D * W(z).
    So with T = D * W, r = T^((p^k - 1)/2) is 1 or -1 modulo each degree-k
    factor of g, and 1 where theta is a square; by the Chinese remainder
    theorem r is 1 modulo the block exactly when it is 1 modulo every factor.
    The symbol makes the count of non-square places even, so the last block
    that is one place is a square once every other block is: it is not powered.
    """
    T = fp_reduce([D * w for w in W], p)
    blocks = fp_distinct_degree(fp_reduce(g, p), p)
    single = [i for i, (block, k) in enumerate(blocks) if len(block) - 1 == k]
    if single:
        del blocks[single[-1]]
    for block, k in blocks:
        r = fp_pow_mod(T, (p**k - 1) // 2, block, p)
        assert fp_mulmod(r, r, block, p) == [1], "theta is a unit at good primes"
        if r != [1]:
            return False
    return True


def component_split_at(
    c: Component, p: int, annotation: str | None = None
) -> SplitStatus:
    """Whether every place of F above p splits in K.

    Quadratic-over-Q components are decided exactly at every prime, general
    ones at odd primes outside their gap set: the norm's symbol settles -1,
    and the block rule, kept in ``c.square_at``, the rest; it runs only at
    +1, whose even parity it reads.  At 2 and at gap primes the supplied
    annotation is used, and the oracle abstains without.
    """
    if p == 2 and c.is_quad:
        return SPLIT if c.spec.d % 8 == 1 else NONSPLIT
    if p == 2 or p in c.exactness_gaps:
        return SplitStatus(annotation) if annotation else INDETERMINATE
    # (-1)^r, r the places above p where theta is a non-square; 0 where p | d.
    symbol = legendre_symbol(c.disc_class.rep, p)
    if c.is_quad or symbol == -1:
        return SPLIT if symbol == 1 else NONSPLIT
    square = c.square_at.get(p)
    if square is None:
        square = c.square_at[p] = _is_square_at(c.g, c.W, c.D, p)
    return SPLIT if square else NONSPLIT


class EtaleAlgebra:
    """A product of validated components, with their splitting annotations,
    whose keys the constructor checks against the components, and the rank,
    discriminant class and place counts the local conditions read, all
    stored when it is built."""

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
                    f"annotation at {echo(p)} not allowed"
                )
            if p != 2 and p not in c.exactness_gaps:
                raise ComponentValidationError(
                    f"component {i} is decided exactly at {echo(p)}; "
                    "annotation not allowed"
                )
        self.components = components
        self.annotations = ann
        self.rank = sum(c.degree for c in components)
        self.disc_class = SquareClass.of(1)
        for c in components:
            self.disc_class *= c.disc_class
        # Degree-weighted count of unramified infinite places of the fixed algebra.
        self.unramified_real_weight = sum(c.unramified_weight for c in components)
        # Raw (unweighted) count of unramified infinite places.
        self.unramified_place_count = sum(c.unramified_place_count for c in components)
        self.ramified_real_count = sum(c.ramified_count for c in components)
        # All fixed fields totally real and theta totally negative.
        self.is_cm = self.unramified_real_weight == 0

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


def build_algebra(specs) -> EtaleAlgebra:
    """Validate all component specs, for an algebra without annotations."""
    return EtaleAlgebra(tuple(build_component(s) for s in specs))
