"""Shared builders for the test suite, and the reference functions that
only tests use."""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from fractions import Fraction
from math import gcd, prod

from torusembed.arith.integers import (
    _SMALL_PRIMES,
    _TRIAL_DIVISION_SQUARE,
    SquareClass,
    factor_integer,
    factor_rationals,
    is_probable_prime,
)
from torusembed.arith.places import Place
from torusembed.arith.polyfp import (
    fp_distinct_degree,
    fp_gcd,
    fp_pow_mod,
    fp_reduce,
    fp_rem,
)
from torusembed.arith.polyq import (
    PolyQ,
    hankel_pivots,
    integer_kernel,
    power_sums,
    resultant_in_y,
)
from torusembed.arith.symbols import (
    hilbert_symbol,
    legendre_symbol,
    p_valuation,
    places_over,
)
from torusembed.cli import main as cli_main
from torusembed.engine import WitnessGraph
from torusembed.errors import ComponentValidationError
from torusembed.etale import (
    NONSPLIT,
    SPLIT,
    Component,
    EtaleAlgebra,
    GeneralSpec,
    QuadSpec,
    SplitStatus,
    build_component,
)
from torusembed.oracle import AlgebraElement, _streams, make_element
from torusembed.qform import (
    QFInvariants,
    QuadraticSpace,
    hyperbolic_hasse_support,
    pairwise_det_support,
)


def P(*coeffs) -> PolyQ:
    return PolyQ.of(coeffs)


def quad(d: int) -> QuadSpec:
    return QuadSpec(d)


def general(f_coeffs, theta_coeffs) -> GeneralSpec:
    return GeneralSpec(f=PolyQ.of(f_coeffs), theta=PolyQ.of(theta_coeffs))


def algebra(*specs, annotations=None) -> EtaleAlgebra:
    return EtaleAlgebra(tuple(build_component(s) for s in specs), annotations)


def random_general_spec(rng: random.Random, max_degree: int = 4) -> GeneralSpec:
    """A valid general component: f monic of degree 1..max_degree and theta of
    lower degree, both with small rational coefficients."""
    while True:
        m = rng.randint(1, max_degree)
        f = [Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2))) for _ in range(m)]
        theta = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 3))) for _ in range(m)]
        spec = general(f + [1], theta)
        try:
            build_component(spec)
        except ComponentValidationError:
            continue
        return spec


def base_field(component: Component) -> tuple[PolyQ, PolyQ]:
    """(f, theta mod f) of a component, from its spec: (y - d, d) for a
    quad component.  A component itself keeps only its integer kernel."""
    spec = component.spec
    if isinstance(spec, QuadSpec):
        return P(-spec.d, 1), P(spec.d)
    return spec.f, spec.theta % spec.f


def eager_h(spec: QuadSpec | GeneralSpec) -> PolyQ:
    """Reference for a component's h, built from its spec as the build once
    built it for every component: x^2 - d for a quad component, else
    h(x) = chi(x^2) with chi's coefficient of x^j Fraction(chi_T[j], D^(m-j))
    for the integer kernel's chi_T and D."""
    if isinstance(spec, QuadSpec):
        return PolyQ.of((-spec.d, 0, 1))
    f = spec.f
    g, _, W, D, s = integer_kernel(f, spec.theta % f)
    chi_T = resultant_in_y(g, W, s)
    m = f.degree
    zero = Fraction(0)
    return PolyQ(tuple(q for j, a in enumerate(chi_T)
                       for q in (Fraction(a, D ** (m - j)), zero))[:-1])


def reduce_mod_p(poly: PolyQ, p: int) -> list[int]:
    """Image of poly in F_p[x] as a kernel list; every coefficient
    denominator must be prime to p.  The reference for the block rule's
    reduction of the integer kernel."""
    out = []
    for c in poly.coeffs:
        if c.denominator % p == 0:
            raise ValueError(f"coefficient denominator divisible by {p}")
        out.append(c.numerator * pow(c.denominator, -1, p))
    return fp_reduce(out, p)


def fraction_resultant_in_y(f: PolyQ, theta: PolyQ) -> PolyQ:
    """Reference for ``resultant_in_y`` in Fraction arithmetic: the traces
    Tr(theta^k) = sum_i [y^i](theta^k mod f) * Tr(y^i) from PolyQ products
    and remainders, turned into chi by Newton's identities; h = chi(x^2)."""
    m = f.degree
    s = power_sums(f.coeffs, m)
    t = [Fraction(m)]
    chi = [Fraction(0)] * m + [Fraction(1)]
    power = PolyQ.of((1,))
    for k in range(1, m + 1):
        power = (power * theta) % f
        t.append(sum((c * si for c, si in zip(power.coeffs, s)), Fraction(0)))
        chi[m - k] = -(t[k] + sum(chi[m - i] * t[k - i] for i in range(1, k))) / k
    return PolyQ.of([c for x in chi for c in (x, 0)][:-1])


def hermite_pivots(f: PolyQ, w: PolyQ) -> list[int]:
    """Bareiss pivots of Hermite's form of monic f of degree m, weighted by w.

    With c the lcm of f's denominators, the form is that of g = c^m f(z/c)
    weighted by W = c^e * d * w(z/c) (``integer_kernel``), whose signs at
    g's roots are w's at f's.  So its signature is the sum of sign w(x) over
    the real roots x of f, and for w = 1 the last pivot is
    c^(m(m-1)) disc(f).  Raises ValueError ("degenerate form") when f is not
    squarefree or w vanishes at a root of f.
    """
    _, _, W, _, s = integer_kernel(f, w)
    return hankel_pivots(W, s, f.degree)


def fraction_diagonalize(gram, branches: list[str] | None = None):
    """Symmetric elimination over Q, the reference for ``diagonalize_gram``.

    It pivots like the fraction-free elimination: a zero pivot is swapped
    for a later nonzero diagonal entry, and when there is none the basis
    change x -> x + y makes one.  Each such step appends "swap" or "sum" to
    ``branches``."""
    m = [[Fraction(v) for v in row] for row in gram]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("gram matrix must be square")
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise ValueError("gram matrix must be symmetric")
    out: list[Fraction] = []
    for k in range(n):
        if m[k][k] == 0:
            pivot = next((l for l in range(k + 1, n) if m[l][l] != 0), None)
            if pivot is not None:
                m[k], m[pivot] = m[pivot], m[k]
                for row in m:
                    row[k], row[pivot] = row[pivot], row[k]
                step = "swap"
            else:
                off = next((l for l in range(k + 1, n) if m[k][l] != 0), None)
                if off is None:
                    raise ValueError("degenerate form")
                for j in range(n):
                    m[k][j] += m[off][j]
                for i in range(n):
                    m[i][k] += m[i][off]
                step = "sum"
            if branches is not None:
                branches.append(step)
        a = m[k][k]
        if a == 0:
            raise ValueError("degenerate form")
        out.append(a)
        for i in range(k + 1, n):
            c = m[i][k] / a
            if c == 0:
                continue
            for j in range(n):
                m[i][j] -= c * m[k][j]
            for j in range(n):
                m[j][i] -= c * m[j][k]
    return tuple(out)


def diag(*entries) -> QuadraticSpace:
    return QuadraticSpace.of(entries)


def symmetric_part(values) -> PolyQ:
    """A polynomial with the given values at the even powers 1, x^2, x^4, ..."""
    coeffs: list[Fraction] = []
    for v in values:
        coeffs.append(Fraction(v))
        coeffs.append(Fraction(0))
    return PolyQ.of(coeffs[:-1] if coeffs else [])


def random_symmetric_unit(
    alg: EtaleAlgebra, rng: random.Random, height: int = 4, halves: bool = False
) -> AlgebraElement:
    """A random involution-fixed unit with coefficients in [-height, height]."""
    parts = []
    for comp in alg.components:
        while True:
            values = [
                Fraction(rng.randint(-height, height)) for _ in range(comp.fixed_degree)
            ]
            if halves and rng.random() < 0.3:
                k = rng.randrange(len(values))
                values[k] += Fraction(rng.choice((-1, 1)), 2)
            if any(values):
                break
        parts.append(symmetric_part(values))
    return make_element(alg, parts)


# --- elements: the involution, enumeration, and signs at real places ---


def sigma_apply(x: AlgebraElement) -> AlgebraElement:
    """Apply the involution: negate the odd-power coefficients of every part.

    Each defining polynomial ``h_i`` is even, so ``y -> -y`` is an algebra
    automorphism; applying it twice is the identity.
    """
    flipped = []
    for part in x.parts:
        coeffs = [(-c if i % 2 else c) for i, c in enumerate(part.coeffs)]
        flipped.append(PolyQ.of(coeffs))
    return AlgebraElement(tuple(flipped))


def enumerate_symmetric_units(alg: EtaleAlgebra, height: int):
    """All involution-fixed units whose even-power coefficients are integers
    in [-height, height], in the oracle's search order: component-wise
    lexicographic, with the first component varying slowest.  The zero
    vector is excluded per component; every other vector is a unit."""
    for blocks in itertools.product(*_streams(alg, height, frozenset())):
        yield AlgebraElement(tuple(b.part for b in blocks))


def fixed_field_image(component: Component, part: PolyQ) -> PolyQ:
    """Rewrite an even-power part as a polynomial in the fixed field.

    The fixed subfield of ``K_i`` is generated by the square of the
    generator, which satisfies the component's base polynomial ``f`` with
    root value ``theta``; substituting gives ``sum c_{2m} * theta^m mod f``.
    """
    if any(c != 0 for i, c in enumerate(part.coeffs) if i % 2):
        raise ValueError("element is not fixed by the involution")
    f, theta = base_field(component)
    result = PolyQ.zero()
    power = PolyQ.of((1,))
    for m in range(part.degree // 2 + 1):
        c = part.coeff(2 * m)
        if c:
            result = result + power.scale(c)
        power = (power * theta) % f
    return result


def ramified_sign_counts(alg: EtaleAlgebra, alpha: AlgebraElement) -> tuple[int, int]:
    """(positive, negative) counts of ``alpha`` over all ramified real
    embeddings of the algebra.  The trace form's signature is then
    (2*pos + w, 2*neg + w) with w the unramified real weight.

    With a the part's image in F and T(g) = rational_tarski_query(f, g), the
    roots where theta < 0 and a has sign e number (T(1) - T(theta) + e*T(a)
    - e*T(theta*a)) / 4, and T(1) - T(theta) = 2 * ramified_count.
    """
    pos = neg = 0
    for comp, part in zip(alg.components, alpha.parts):
        a = fixed_field_image(comp, part)
        if a.is_zero:
            raise ValueError("element vanishes at a real embedding")
        T = rational_tarski_query
        f, theta = base_field(comp)
        signed = T(f, a) - T(f, theta * a)
        pos += (2 * comp.ramified_count + signed) // 4
        neg += (2 * comp.ramified_count - signed) // 4
    return pos, neg


def witness(graph: WitnessGraph, i: int, j: int) -> Place | None:
    """The place on the edge between components i and j, or None."""
    a, b = min(i, j), max(i, j)
    for x, y, v in graph.edges:
        if (x, y) == (a, b):
            return v
    return None


# --- the standing example pair: locally fine but needing a large witness ---

DEMO_ANNOTATIONS = {(0, 2): "nonsplit", (1, 2): "split"}


def demo_algebra() -> EtaleAlgebra:
    """Two quartic components over the same real quadratic fixed field whose
    only common nonsplit prime is 5, past the deliberately small bound 3."""
    return algebra(
        general([-2, 0, 1], [0, 1]),
        general([-2, 0, 1], [2, 1]),
        annotations=dict(DEMO_ANNOTATIONS),
    )


def demo_form() -> QuadraticSpace:
    return diag(1, -1, 1, -1, 1, -1, -3, -3)


# --- references for the arithmetic kernels ---


def is_irreducible_mod_p(f: list[int], p: int) -> bool:
    """Frobenius-based irreducibility test for the kernel list f over F_p."""
    n = len(f) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    x = [0, 1]
    if fp_pow_mod(x, p**n, f, p) != fp_rem(x, f, p):
        return False
    for ell, _ in factor_integer(n)[1]:
        g = fp_pow_mod(x, p ** (n // ell), f, p) + [0, 0]
        g[1] -= 1
        if len(fp_gcd(f, fp_reduce(g, p), p)) != 1:
            return False
    return True


def block_rule_split_at(c: Component, p: int) -> SplitStatus:
    """``component_split_at`` of a general component at a good prime p with
    no norm screen: SPLIT exactly when theta = W(z)/D is a square modulo
    each distinct-degree block of g mod p, read as D * W.  The reference for
    the screen and for the field check's certificate."""
    T = fp_reduce([c.D * w for w in c.W], p)
    for block, k in fp_distinct_degree(fp_reduce(c.g, p), p):
        if fp_pow_mod(T, (p**k - 1) // 2, block, p) != [1]:
            return NONSPLIT
    return SPLIT


def good_primes(c: Component, count: int) -> list[int]:
    """The first ``count`` odd primes outside the component's gap set."""
    good = (p for p in itertools.count(3, 2) if p not in c.exactness_gaps)
    return list(itertools.islice(filter(is_probable_prime, good), count))


def _pollard_brent(n: int, rng: random.Random) -> int:
    """A nontrivial factor of an odd composite n (Brent's cycle variant),
    restarted with a fresh y and c until it splits n."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def trial_division_factor_integer(n: int) -> tuple[int, list[tuple[int, int]]]:
    """Reference for ``factor_integer``: trial division by every prime below
    10^4 in turn, ending as soon as p^2 exceeds the cofactor, then
    Pollard-Brent on each composite piece, restarting after every split:
    no p-1 pass and no shared sequence."""
    if n == 0:
        raise ValueError("cannot factor zero")
    sign = -1 if n < 0 else 1
    m = abs(n)
    counts: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > m:
            if m > 1:
                counts[m] = 1
                m = 1
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    if m > 1:
        seed = m ^ 0x5DEECE66D
        rng = None
        stack = [m]
        while stack:
            x = stack.pop()
            if x < _TRIAL_DIVISION_SQUARE or is_probable_prime(x):
                counts[x] = counts.get(x, 0) + 1
                continue
            if rng is None:
                rng = random.Random(seed)
            d = _pollard_brent(x, rng)
            stack.append(d)
            stack.append(x // d)
    return sign, sorted(counts.items())


def squarefree_part(x: int | Fraction) -> int:
    """The unique squarefree integer s with x = s * (nonzero rational square)."""
    return SquareClass.of(x).rep


def real_root_count(f: PolyQ) -> int:
    """Number of distinct real roots of nonzero f."""
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    return rational_tarski_query(f.squarefree_part(), PolyQ.of((1,)))


def rational_tarski_query(f: PolyQ, g: PolyQ) -> int:
    """Sum of sign g(x) over the distinct real roots x of squarefree f: the
    sign variations at -oo less those at +oo of the signed remainder
    sequence of f and f'g mod f over Q (Basu, Pollack and Roy, ch. 2).  The
    reference for the signatures of Hermite's form."""
    chain = [f]
    a, b = f, f.derivative() * g % f
    while not b.is_zero:
        chain.append(b)
        a, b = b, -(a % b)

    def variations(direction: int) -> int:
        signs = [(1 if c.lc > 0 else -1) * direction**c.degree for c in chain]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return variations(-1) - variations(+1)


def sylvester_resultant(f: PolyQ, g: PolyQ) -> Fraction:
    """Res(f, g): the determinant of the Sylvester matrix by Gaussian
    elimination over Q."""
    m, n = f.degree, g.degree
    if m == 0:
        return f.coeff(0) ** n
    if n == 0:
        return g.coeff(0) ** m
    size = m + n
    rows = []
    fc = list(reversed([f.coeff(i) for i in range(m + 1)]))
    gc = list(reversed([g.coeff(i) for i in range(n + 1)]))
    for i in range(n):
        rows.append([Fraction(0)] * i + fc + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + gc + [Fraction(0)] * (size - n - 1 - i))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [
                    a - factor * b for a, b in zip(rows[r], rows[col], strict=True)
                ]
    return det


def sylvester_discriminant(f: PolyQ) -> Fraction:
    """disc(f) = (-1)^(m(m-1)/2) Res(f, f') / lc(f) for deg f = m >= 1; 0
    when f has a repeated root."""
    m = f.degree
    if m < 1:
        raise ValueError("discriminant requires degree >= 1")
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    return sign * sylvester_resultant(f, f.derivative()) / f.lc


def candidate_places(values) -> list[Place]:
    """The real place, 2, and every prime dividing a numerator/denominator.

    Any Hilbert symbol built from ``values`` is trivial outside this list.
    """
    primes = {p for _, exponents in factor_rationals(values) for p in exponents}
    return places_over(primes)


def symbol_support(a: Fraction | int, b: Fraction | int) -> frozenset[Place]:
    """The (finite, even-sized) set of places where (a, b) is nontrivial."""
    return frozenset(
        v for v in candidate_places((a, b)) if hilbert_symbol(a, b, v) == 1
    )


def fraction_component_gram(comp: Component, part: PolyQ) -> list[list[Fraction]]:
    """Reference for the oracle's integer ``_component_gram``, in Fraction
    arithmetic: the Gram block of q_alpha on one component, over the
    monomial basis 1, y, ..., y^(d-1), of a part reduced mod h.  With the
    power sums p_(2k) = 2 * t_k / D^k of h's roots (the odd ones are 0),
        B[u][v] = Tr(part * y^u * sigma(y^v)) = (-1)^v * sum_k c_2k * p_(2k+u+v)."""
    d, D = comp.degree, comp.D
    p = [q for k, x in enumerate(comp.t) for q in (Fraction(2 * x, D**k), Fraction(0))]
    c = part.coeffs
    sums = [
        sum(c[k] * p[k + w] for k in range(0, len(c), 2)) for w in range(2 * d - 1)
    ]
    return [
        [(-sums[u + v] if v % 2 else sums[u + v]) for v in range(d)]
        for u in range(d)
    ]


def factored_block_invariants(comp, vec) -> QFInvariants:
    """Reference for the oracle's bounded block invariants: those of the
    Gram block of the part with even-power coefficients ``vec``, with every
    diagonal entry factored."""
    gram = fraction_component_gram(comp, symmetric_part(vec))
    return QuadraticSpace.from_gram(gram).invariants


def equivalent_over_q(q1: QuadraticSpace, q2: QuadraticSpace) -> bool:
    """Equivalence over Q: equality of the complete invariant tuples."""
    return q1.invariants == q2.invariants


def orthogonal_sum(blocks) -> QFInvariants:
    """Invariants of the orthogonal sum of forms with the given invariants:
    dimensions and signatures add, determinants multiply, and the Hasse
    support is the XOR of the summands' supports and the pairwise
    determinant symbols.  The reference for the oracle's block screen."""
    dim = sum(b.dim for b in blocks)
    det = prod((b.det for b in blocks), start=SquareClass.of(1))
    support = pairwise_det_support([b.det for b in blocks])
    for b in blocks:
        support ^= b.hasse_support
    positive = sum(b.signature[0] for b in blocks)
    disc = SquareClass.of(-1 if dim * (dim - 1) // 2 % 2 else 1) * det
    return QFInvariants(dim, det, disc, support, (positive, dim - positive))


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
    m = 8 if p == 2 else p
    residue = u.numerator * pow(u.denominator, -1, m) % m
    return residue == 1 if p == 2 else legendre_symbol(residue, p) == 1


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


def run_cli(argv: list[str], stdin_text: str | bytes | None = None):
    """Run the CLI in-process; returns (exit_code, stdout, stderr).  Text
    for standard input is encoded as UTF-8; bytes are fed as they are."""
    out, err = io.StringIO(), io.StringIO()
    stack = contextlib.ExitStack()
    with stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if stdin_text is not None:
            import sys

            old_stdin = sys.stdin
            if isinstance(stdin_text, str):
                stdin_text = stdin_text.encode("utf-8")
            sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_text), encoding="utf-8")
            stack.callback(lambda: setattr(sys, "stdin", old_stdin))
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()
