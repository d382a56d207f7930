"""Exact univariate polynomial arithmetic over Q.

Includes a component's integer trace kernel: ``integer_kernel`` integerizes
f and theta once and takes the power sums of the roots (Newton's
identities), from which ``resultant_in_y`` gives theta's characteristic
polynomial over Z and ``hankel_pivots`` the Bareiss pivots of Hermite's trace
form (real-root counts, signs at the real roots, the discriminant); ``hankel``
builds its Hankel vector and the oracle's.  Also rational roots, and
irreducibility over Q of a monic integer polynomial with its power sums: of
a quadratic by its discriminant, else by the factor degrees mod a few primes
prime to the discriminant, then by Hensel lifting a mod-p factorization and
trying factor recombinations (degrees up to 12 keep the subset search
trivial; Cohen, GTM 138, 3.5).
Integer polynomials are ascending int lists that share the ``polyfp``
kernel's ``_raw_mul`` and ``_strip``; the modular factors and their lifts are
kernel lists too.  A ``PolyQ`` is never reduced mod p: the modular readers
take the kernel's integer lists to ``polyfp.fp_reduce``.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations, zip_longest
from math import gcd, isqrt

from torusembed.arith.integers import divisors, iter_primes
from torusembed.arith.polyfp import (
    _raw_mul,
    _strip,
    factor_mod_p,
    fp_distinct_degree,
    fp_div_exact,
    fp_divmod,
    fp_mul,
    fp_mulmod,
    fp_reduce,
)
from torusembed.record import Record

MAX_IRREDUCIBILITY_DEGREE = 12


class PolyQ(Record):
    """Polynomial over Q, coefficients ascending, no trailing zeros."""

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        self.coeffs = coeffs

    @classmethod
    def of(cls, coeffs) -> "PolyQ":
        return cls._trusted([Fraction(c) for c in coeffs])

    @classmethod
    def _trusted(cls, cs: list[Fraction]) -> "PolyQ":
        """Wrap a list that already holds Fractions, stripping trailing zeros."""
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def zero(cls) -> "PolyQ":
        return cls(())

    @classmethod
    def constant(cls, c) -> "PolyQ":
        return cls.of((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "PolyQ") -> "PolyQ":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyQ._trusted(out)

    def __neg__(self) -> "PolyQ":
        return PolyQ(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        if self.is_zero or other.is_zero:
            return PolyQ.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyQ._trusted(out)

    def scale(self, c) -> "PolyQ":
        c = Fraction(c)
        return PolyQ._trusted([c * a for a in self.coeffs])

    def monic(self) -> "PolyQ":
        if self.is_zero:
            return self
        return self.scale(1 / self.lc)

    def divmod(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        q = [Fraction(0)] * max(len(rem) - d, 0)
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            c = rem[-1] / other.lc
            q[k] = c
            for i, oc in enumerate(other.coeffs):
                rem[k + i] -= c * oc
            while rem and rem[-1] == 0:
                rem.pop()
        return PolyQ._trusted(q), PolyQ._trusted(rem)

    def __mod__(self, other: "PolyQ") -> "PolyQ":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "PolyQ") -> "PolyQ":
        return self.divmod(other)[0]

    def gcd(self, other: "PolyQ") -> "PolyQ":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "PolyQ":
        return PolyQ._trusted([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def squarefree_part(self) -> "PolyQ":
        if self.degree < 1:
            return self.monic()
        return (self // self.gcd(self.derivative())).monic()

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(terms)


def integerize(f: PolyQ) -> tuple[list[int], int]:
    """(integer coefficient list, positive d) with f = (1/d) * those coefficients."""
    d = 1
    for c in f.coeffs:
        d = d * c.denominator // gcd(d, c.denominator)
    return [c.numerator * (d // c.denominator) for c in f.coeffs], d


def _ip_rem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of the integer polynomial a by the monic integer polynomial b."""
    rem = list(a)
    db = len(b) - 1
    while rem and len(rem) - 1 >= db:
        k = len(rem) - 1 - db
        c = rem[-1]
        for i, bc in enumerate(b):
            rem[k + i] -= c * bc
        _strip(rem)
    return rem


def power_sums(a, count: int) -> list:
    """s_0, ..., s_(count-1), s_k the sum of the k-th powers of the roots of
    the monic polynomial with ascending coefficients ``a`` (ints or
    Fractions), by Newton's identities."""
    m = len(a) - 1
    s = [m * a[m]]
    for k in range(1, count):
        acc = k * a[m - k] if k <= m else 0
        s.append(-acc - sum(a[m - i] * s[k - i] for i in range(1, min(k, m + 1))))
    return s


def bareiss_pivots(b: list[list[int]]) -> list[int]:
    """Pivots a_1, ..., a_n of symmetric fraction-free elimination of the
    symmetric integer matrix ``b``, which is consumed.

    Step k replaces the trailing block by (a * B[i][j] - B[i][k] * B[k][j]) /
    prev, an exact integer division, with a the pivot and prev the previous
    one.  The trailing block is then a times the Schur complement, so the
    form is congruent to the diagonal a_k / a_(k-1); without a basis change
    the pivots are the leading principal minors, and a_n is always det b.
    When the pivot is zero, a later nonzero diagonal entry is swapped in, and
    when every remaining diagonal entry is zero, a basis change x -> x + y
    manufactures a pivot.  Raises ValueError ("degenerate form") when the
    matrix is singular.
    """
    n = len(b)
    pivots: list[int] = []
    prev = 1
    # Only the trailing block b[k:][k:] is live at step k; it stays symmetric.
    for k in range(n):
        if b[k][k] == 0:
            pivot = next((l for l in range(k + 1, n) if b[l][l] != 0), None)
            if pivot is not None:
                b[k], b[pivot] = b[pivot], b[k]
                for row in b:
                    row[k], row[pivot] = row[pivot], row[k]
            else:
                off = next((l for l in range(k + 1, n) if b[k][l] != 0), None)
                if off is None:
                    raise ValueError("degenerate form")
                for j in range(k, n):
                    b[k][j] += b[off][j]
                for i in range(k, n):
                    b[i][k] += b[i][off]
        a = b[k][k]
        if a == 0:
            raise ValueError("degenerate form")
        pivots.append(a)
        row_k = b[k]
        for i in range(k + 1, n):
            row_i = b[i]
            c = row_i[k]
            for j in range(i, n):
                row_i[j] = b[j][i] = (a * row_i[j] - c * row_k[j]) // prev
        prev = a
    return pivots


def integer_kernel(
    f: PolyQ, theta: PolyQ
) -> tuple[list[int], int, list[int], int, list[int]]:
    """(g, c, W, D, s): monic f of degree m and theta, each integerized once.

    With c the lcm of f's denominators, g(z) = c^m f(z/c) is monic and
    integral, and its roots are c times f's.  With e = deg theta and d the
    lcm of theta's denominators, W(z) = c^e * d * theta(z/c) is integral:
    theta = W(z)/D at z = c*y for D = c^e * d, and W has theta's signs at
    g's roots.  s holds the power sums s_0, ..., s_(2m-2+e) of g's roots,
    enough for ``resultant_in_y`` and for Hermite's forms weighted by 1 and W.
    """
    A, c = integerize(f)
    B, d = integerize(theta)
    m, e = len(A) - 1, max(len(B) - 1, 0)
    g = _monicize(A)
    W = [b * c ** (e - i) for i, b in enumerate(B)]
    return g, c, W, c**e * d, power_sums(g, 2 * m - 1 + e)


def hankel(vec: Sequence[int], sums: list[int], count: int) -> list[int]:
    """The Hankel vector [sum_k vec_k * sums_(k+n)] for n < count; sums must
    reach index len(vec) + count - 2."""
    return [sum(c * sums[k + n] for k, c in enumerate(vec) if c) for n in range(count)]


def hankel_pivots(W: list[int], s: list[int], m: int) -> list[int]:
    """Bareiss pivots of Hermite's form of a monic integer g of degree m,
    weighted by the integer polynomial W, from the power sums s of g's roots.

    The form is the m x m Hankel matrix [sum_k W_k s_(k+i+j)] of
    Tr(W(z) z^(i+j)) on Q[z]/(g).  Its signature, the count of pivot ratios
    a_k / a_(k-1) > 0 less the count < 0, is the Tarski query: the sum of
    sign W(x) over the real roots x of g (Basu, Pollack and Roy, *Algorithms
    in Real Algebraic Geometry*, ch. 4).  For W = 1 the last pivot is its
    determinant disc(g).  Raises ValueError ("degenerate form") when g is
    not squarefree or W vanishes at a root of g.
    """
    h = hankel(W, s, 2 * m - 1)
    return bareiss_pivots([h[i : i + m] for i in range(m)])


def resultant_in_y(g: list[int], W: list[int], s: list[int]) -> list[int]:
    """Res_y(f(y), x^2 - theta(y)) over Z, from ``integer_kernel``'s g, W, s.

    The resultant is chi(x^2), chi the characteristic polynomial of theta on
    Q[y]/(f).  This returns the monic integer chi_T of T = W mod g on
    Z[z]/(g), whose coefficient of x^j is D^(m-j) times chi's.  The traces
    Tr(T^k) = sum_i [z^i](T^k mod g) * s_i, k = 1..m, are integers.  T is
    integral over Z, so Newton's identities turn them into chi_T with exact
    divisions.
    """
    m = len(g) - 1
    T = _ip_rem(W, g)
    t = [m]
    chi = [0] * m + [1]
    power = [1]
    for k in range(1, m + 1):
        power = _ip_rem(_raw_mul(power, T), g)
        t.append(sum(x * y for x, y in zip(power, s)))
        chi[m - k] = -(t[k] + sum(chi[m - i] * t[k - i] for i in range(1, k))) // k
    return chi


def rational_roots(f: PolyQ) -> list[Fraction]:
    """The distinct rational roots of nonzero f, ascending."""
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    if f.degree < 1:
        return []
    if f.degree == 1:
        return [-f.coeff(0) / f.coeff(1)]
    roots = set()
    A, _ = integerize(f)
    while A and A[0] == 0:
        A = A[1:]
        roots.add(Fraction(0))
    if len(A) > 1:
        c = 0
        for a in A:
            c = gcd(c, a)
        A = [a // c for a in A]
        for num in divisors(abs(A[0])):
            for den in divisors(abs(A[-1])):
                if gcd(num, den) != 1:
                    continue
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if f.evaluate(cand) == 0:
                        roots.add(cand)
    return sorted(roots)


# ---------------------------------------------------------------------------
# Irreducibility over Q: mod-p factorization, Hensel lifting, recombination.
# ---------------------------------------------------------------------------


def _fp_inverse(a: list[int], m: list[int], p: int) -> list[int]:
    """a^-1 modulo m over F_p, for a coprime to m, by the extended Euclidean
    algorithm on (m, a)."""
    r0, r1 = m, a
    t0, t1 = [], [1]
    while r1:
        q, r = fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, fp_reduce(
            [x - y for x, y in zip_longest(t0, _raw_mul(q, t1), fillvalue=0)], p
        )
    if len(r0) != 1:
        raise ValueError("polynomials are not coprime")
    return fp_mul(t0, [pow(r0[0], -1, p)], p)


def _hensel_pair(
    f: list[int], g: list[int], h: list[int], p: int, target: int
) -> tuple[list[int], list[int]]:
    """Lift f = g*h (mod p) with f, g, h monic to modulus p^target (linear steps).

    With f = G*H + m*e, the step G += m*u, u = e * h^-1 mod g over F_p,
    keeps G monic; H is then the exact quotient f / G modulo the new m."""
    t = _fp_inverse(h, g, p)
    G, H, m = g, h, p
    for _ in range(target - 1):
        e = [(a - b) // m for a, b in zip(f, _raw_mul(G, H))]
        G = list(G)
        for i, c in enumerate(fp_mulmod(t, e, g, p)):
            G[i] += m * c
        m *= p
        H = fp_div_exact(f, G, m)
    return G, H


def _lift_factors(
    f: list[int], factors: list[list[int]], p: int, target: int
) -> list[list[int]]:
    """Lift a mod-p factorization of monic integer f to factors mod p^target."""
    if len(factors) == 1:
        return [f]
    half = len(factors) // 2
    g = [1]
    for fac in factors[:half]:
        g = fp_mul(g, fac, p)
    h = fp_div_exact(fp_reduce(f, p), g, p)
    G, H = _hensel_pair(f, g, h, p, target)
    return (_lift_factors(G, factors[:half], p, target)
            + _lift_factors(H, factors[half:], p, target))


def _centered(a: list[int], m: int) -> list[int]:
    return _strip([c - m if c > m // 2 else c for c in [x % m for x in a]])


def _monicize(A: list[int]) -> list[int]:
    """lc^(n-1) * A(x/lc): monic, integer, same splitting behavior as A."""
    lc = A[-1]
    n = len(A) - 1
    return [A[i] * lc ** (n - 1 - i) for i in range(n)] + [1]


def is_irreducible(f: PolyQ) -> bool:
    """Whether f is irreducible over Q.  Supports degrees up to 12."""
    if f.degree <= 0:
        return False
    g = _monicize(integerize(f)[0])
    return is_monic_irreducible(g, power_sums(g, 2 * f.degree - 1))


def is_monic_irreducible(g: list[int], s: list[int]) -> bool:
    """Whether the monic integer g of degree 1..12 is irreducible over Q,
    given the power sums s_0, ..., s_(2n-2) of its roots, n = deg g.  The
    last pivot of Hermite's form is disc(g): a quadratic is irreducible
    exactly when that is not a square, and the primes tried are prime to it."""
    n = len(g) - 1
    if n > MAX_IRREDUCIBILITY_DEGREE:
        raise ValueError(f"unsupported degree {n} (max {MAX_IRREDUCIBILITY_DEGREE})")
    if n == 1:
        return True
    if g[0] == 0:
        return False
    # g is squarefree exactly when its Hermite form is nonsingular; g mod p
    # is squarefree exactly when p does not divide disc(g), so the loop ends.
    try:
        disc = hankel_pivots([1], s, n)[-1]
    except ValueError:
        return False
    if n == 2:
        return disc < 0 or isqrt(disc) ** 2 != disc

    # A factor over Q has a degree that the factors mod every good prime can
    # sum to (Musser's degree sets; bit d of ``degrees`` for degree d), so
    # g is irreducible once only 0 and n are left, as after one irreducible
    # reduction.  Otherwise keep the prime giving the fewest modular factors
    # (counted from the distinct-degree blocks) to minimize recombination.
    best: tuple[int, int, list[int]] | None = None
    degrees = (1 << (n + 1)) - 1
    tried = 0
    for p in iter_primes():
        if p == 2:
            continue
        if disc % p == 0:
            continue
        gp = fp_reduce(g, p)
        sums, count = 1, 0
        for b, k in fp_distinct_degree(gp, p):
            for _ in range((len(b) - 1) // k):
                sums |= sums << k
                count += 1
        degrees &= sums
        if degrees == 1 | 1 << n:
            return True
        if best is None or count < best[0]:
            best = (count, p, gp)
        tried += 1
        if tried >= 4:
            break
    assert best is not None
    _, p, gp = best
    facs = [fac for fac, _ in factor_mod_p(gp, p)]

    # Landau-Mignotte style bound on coefficients of any monic factor of g.
    bound = (2**n) * (isqrt(sum(x * x for x in g)) + 1)
    target = 1
    while p**target < 2 * bound + 1:
        target += 1
    lifted = _lift_factors(g, facs, p, target)
    m = p**target
    r = len(lifted)
    for size in range(1, r // 2 + 1):
        for subset in combinations(range(r), size):
            prod = [1]
            for i in subset:
                prod = fp_mul(prod, lifted[i], m)
            # A product of monic lifts is monic.
            if not _ip_rem(g, _centered(prod, m)):
                return False
    return True
