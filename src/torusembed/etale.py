"""Etale algebras with involution over Q.

An algebra is a product of components K = F(sqrt(theta)): F is a number field
given by a monic irreducible polynomial f, and theta is a nonzero element of F
given as a polynomial in the generator of F.  The involution fixes F and
negates sqrt(theta).  The quadratic-over-Q shorthand (K = Q(sqrt(d))) is
normalized internally to f = y - d, theta = y, but keeps an exact splitting
rule at every prime.

Each component carries: the minimal polynomial h of sqrt(theta) over Q (an
even polynomial of degree 2*[F:Q]), discriminant and determinant square
classes, the profile of its real places (ramified = theta negative there),
and a prime-splitting oracle.  For general components the modular splitting
computation is exact at odd primes away from a finite documented gap set
(primes dividing the data's discriminants/resultants, plus 2); at the gap
primes the oracle abstains unless the user supplies an annotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from torusembed.arith.integers import SquareClass, factor_integer, factor_rational
from torusembed.arith.places import Place
from torusembed.arith.polyfp import factor_mod_p, ff_is_square
from torusembed.arith.polyq import (
    MAX_IRREDUCIBILITY_DEGREE,
    PolyQ,
    discriminant,
    is_irreducible,
    resultant,
    resultant_in_y,
)
from torusembed.arith.sturm import RealRoot, isolate_real_roots
from torusembed.arith.symbols import hasse_bit, legendre_symbol, places_over
from torusembed.errors import ComponentValidationError

SPLIT = "split"
NONSPLIT = "nonsplit"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SplitStatus:
    """Result of a splitting query: split, nonsplit, or an abstention."""

    kind: str
    reason: str | None = None

    @classmethod
    def split(cls) -> "SplitStatus":
        return cls(SPLIT)

    @classmethod
    def nonsplit(cls) -> "SplitStatus":
        return cls(NONSPLIT)

    @classmethod
    def indeterminate(cls, reason: str) -> "SplitStatus":
        return cls(INDETERMINATE, reason)

    @property
    def is_split(self) -> bool:
        return self.kind == SPLIT

    @property
    def is_nonsplit(self) -> bool:
        return self.kind == NONSPLIT

    @property
    def is_indeterminate(self) -> bool:
        return self.kind == INDETERMINATE


@dataclass(frozen=True)
class QuadSpec:
    """Component K = Q(sqrt(d)) for squarefree d not in {0, 1}."""

    d: int


@dataclass(frozen=True)
class GeneralSpec:
    """Component K = F(sqrt(theta)): F = Q[y]/(f), theta a polynomial in y."""

    f: PolyQ
    theta: PolyQ


@dataclass
class Component:
    """A validated field component of an etale algebra with involution."""

    spec: QuadSpec | GeneralSpec
    f: PolyQ
    theta: PolyQ
    h: PolyQ
    degree: int
    disc_class: SquareClass
    det_class: SquareClass
    real_roots: list[RealRoot]
    theta_signs: tuple[int, ...]
    exactness_gaps: frozenset[int]

    @property
    def is_quad(self) -> bool:
        return isinstance(self.spec, QuadSpec)

    @property
    def fixed_degree(self) -> int:
        return self.f.degree

    @property
    def ramified_count(self) -> int:
        return sum(1 for s in self.theta_signs if s < 0)

    @property
    def unramified_real_count(self) -> int:
        return sum(1 for s in self.theta_signs if s > 0)

    @property
    def complex_pair_count(self) -> int:
        return (self.fixed_degree - len(self.real_roots)) // 2

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


def _denominator_lcm(f: PolyQ) -> int:
    d = 1
    for c in f.coeffs:
        d = d * c.denominator // gcd(d, c.denominator)
    return d


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
        f = PolyQ.of((-d, 1))
        theta = PolyQ.of((d,))
        h = PolyQ.of((-d, 0, 1))
        # disc(h) = 4d lies in the class of d.
        disc_class = SquareClass.from_factors(sign, dict(facs))
        gaps: frozenset[int] = frozenset()
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
        if not is_irreducible(f):
            raise ComponentValidationError("not a field component: f is reducible")
        theta = theta % f
        if theta.is_zero:
            raise ComponentValidationError("theta must be nonzero in F")
        # h(x) = Res_y(f(y), x^2 - theta(y)), the minimal polynomial of
        # sqrt(theta) over Q exactly when K is a field.
        f_in_y = [PolyQ.constant(c) for c in f.coeffs]
        g_in_y = [PolyQ.of((-theta.coeff(0), 0, 1))]
        g_in_y += [PolyQ.constant(-theta.coeff(j)) for j in range(1, theta.degree + 1)]
        h = resultant_in_y(f_in_y, g_in_y)
        if h.degree != 2 * f.degree or h.lc != 1:
            raise ComponentValidationError("not a field component")
        if not is_irreducible(h):
            raise ComponentValidationError(
                "not a field component: sqrt(theta) does not generate a field "
                "of the full degree"
            )
        # The gap set: odd primes of the denominators, disc(f) and
        # Res(f, t*theta).  Each number is factored after dividing out the
        # primes already found, and so is disc(h).
        t = _denominator_lcm(theta)
        bad: set[int] = set()
        for x in (
            _denominator_lcm(f),
            discriminant(f),
            t,
            resultant(f, theta.scale(t)),
        ):
            bad.update(factor_rational(x, bad)[1])
        disc_class = SquareClass.from_factors(
            *factor_rational(discriminant(h), bad)
        )
        gaps = frozenset(bad - {2})
    assert all(h.coeff(j) == 0 for j in range(1, h.degree, 2)), "h must be even"

    det_sign = -1 if (h.degree // 2) % 2 else 1
    det_class = SquareClass.of(det_sign) * disc_class

    real_roots = isolate_real_roots(f)
    theta_signs = tuple(r.sign_of(theta) for r in real_roots)
    assert all(s != 0 for s in theta_signs), "theta cannot vanish at a root of f"

    return Component(
        spec=spec,
        f=f,
        theta=theta,
        h=h,
        degree=h.degree,
        disc_class=disc_class,
        det_class=det_class,
        real_roots=real_roots,
        theta_signs=theta_signs,
        exactness_gaps=gaps,
    )


def component_split_at(
    c: Component, p: int, annotation: str | None = None
) -> SplitStatus:
    """Whether every place of F above p splits in K.

    Quadratic-over-Q components are decided exactly at every prime.  General
    components are decided exactly at odd primes outside the component's gap
    set; at 2 and at gap primes the supplied annotation is used, and the
    oracle abstains when there is none.
    """
    if c.is_quad:
        d = c.spec.d
        if p == 2:
            return SplitStatus.split() if d % 8 == 1 else SplitStatus.nonsplit()
        if legendre_symbol(d, p) == 1:
            return SplitStatus.split()
        return SplitStatus.nonsplit()
    if p == 2 or p in c.exactness_gaps:
        if annotation == SPLIT:
            return SplitStatus.split()
        if annotation == NONSPLIT:
            return SplitStatus.nonsplit()
        why = "dyadic place" if p == 2 else "prime divides the component's bad data"
        return SplitStatus.indeterminate(why)
    fp = c.f.reduce_mod_p(p)
    theta_p = c.theta.reduce_mod_p(p)
    for g, _ in factor_mod_p(fp):
        e = theta_p % g
        assert not e.is_zero, "theta is a unit at exact primes"
        if not ff_is_square(e, g):
            return SplitStatus.nonsplit()
    return SplitStatus.split()


def component_split_at_infinity(c: Component) -> SplitStatus:
    """Split iff theta is positive at every real embedding of F."""
    return SplitStatus.split() if c.ramified_count == 0 else SplitStatus.nonsplit()


@dataclass
class EtaleAlgebra:
    """A validated product of components, with a memoized splitting oracle."""

    components: tuple[Component, ...]
    annotations: dict[tuple[int, int], str] = field(default_factory=dict)
    _split_memo: dict[tuple[int, Place], SplitStatus] = field(
        default_factory=dict, repr=False
    )

    @property
    def rank(self) -> int:
        return sum(c.degree for c in self.components)

    @property
    def half_rank(self) -> int:
        return self.rank // 2

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

    @property
    def has_nonrational_fixed_field(self) -> bool:
        return any(c.fixed_degree >= 2 for c in self.components)

    def component_split(self, i: int, v: Place) -> SplitStatus:
        key = (i, v)
        cached = self._split_memo.get(key)
        if cached is not None:
            return cached
        c = self.components[i]
        if v.is_infinite:
            status = component_split_at_infinity(c)
        else:
            status = component_split_at(c, v.p, self.annotations.get((i, v.p)))
        self._split_memo[key] = status
        return status

    def split_at(self, v: Place) -> SplitStatus:
        """Three-valued conjunction over the components."""
        indeterminate = None
        for i in range(len(self.components)):
            st = self.component_split(i, v)
            if st.is_nonsplit:
                return st
            if st.is_indeterminate and indeterminate is None:
                indeterminate = st
        return indeterminate or SplitStatus.split()

    def indeterminate_pairs_at(self, v: Place) -> list[tuple[int, int]]:
        """(component, prime) annotation keys that abstain at the finite place v."""
        if v.is_infinite:
            return []
        return [
            (i, v.p)
            for i in range(len(self.components))
            if self.component_split(i, v).is_indeterminate
        ]

    def pairwise_det_bit(self, v: Place) -> int:
        """Sum over i < j of the symbol of (det_i, det_j) at v, mod 2."""
        return hasse_bit([c.det_class.rep for c in self.components], v)

    def pairwise_det_support(self) -> frozenset[Place]:
        """Places where the pairwise determinant-class symbol sum is odd."""
        if len(self.components) < 2:
            return frozenset()
        primes = set().union(*(c.det_class.primes for c in self.components))
        return frozenset(
            v for v in places_over(primes) if self.pairwise_det_bit(v)
        )


def build_algebra(
    specs, annotations: dict[tuple[int, int], str] | None = None
) -> EtaleAlgebra:
    """Validate all component specs and the annotation keys."""
    specs = list(specs)
    if not specs:
        raise ComponentValidationError("an algebra needs at least one component")
    components = tuple(build_component(s) for s in specs)
    ann = dict(annotations or {})
    for (i, p), status in sorted(ann.items()):
        if not 0 <= i < len(components):
            raise ComponentValidationError(f"annotation for unknown component {i}")
        if status not in (SPLIT, NONSPLIT):
            raise ComponentValidationError(
                f"annotation status must be '{SPLIT}' or '{NONSPLIT}'"
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
    return EtaleAlgebra(components, ann)
