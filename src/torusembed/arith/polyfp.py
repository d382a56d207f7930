"""Dense univariate polynomial arithmetic over prime fields F_p.

One kernel of module-level functions on ascending int lists does the
arithmetic: a polynomial is the list of its coefficients in [0, p), constant
term first, with no trailing zeros.  Products are accumulated over the
integers and reduced with one ``% p`` per output coefficient, also inside
``fp_mulmod``, where the division by the modulus runs on the unreduced
product; ``fp_rem``, ``fp_divmod`` and ``fp_div_exact`` share one division
loop.  ``PolyFp`` is the value type the rest of the package and the tests
build; its methods are thin wrappers over the kernel.

Factorization is squarefree decomposition + distinct-degree + Cantor-Zassenhaus
equal-degree splitting (Cohen, GTM 138, 3.4); the distinct-degree blocks alone
count factors and decide splitting.  The random stream used by the splitting
step is local to the call and seeded from (p, input coefficients), so results
are reproducible across runs and platforms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from torusembed.arith.integers import factor_integer, is_probable_prime


def _strip(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def fp_reduce(coeffs, p: int) -> list[int]:
    """The kernel form of any integer coefficients: reduced mod p, stripped."""
    return _strip([c % p for c in coeffs])


def _raw_mul(a, b) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _divide(r: list[int], b, p: int) -> list[int]:
    """Divide the integer list r by nonzero b over F_p, in place.

    Returns the quotient and leaves r[:deg b] congruent mod p to the
    remainder; r's entries need not be reduced."""
    db = len(b) - 1
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    q = [0] * max(len(r) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + db] * inv % p
        if c:
            for j, y in enumerate(b, k):
                r[j] -= c * y
    return q


def fp_mul(a, b, p: int) -> list[int]:
    return [c % p for c in _raw_mul(a, b)]


def fp_mulmod(a, b, m, p: int) -> list[int]:
    """a * b mod m: the unreduced product, divided by m."""
    r = _raw_mul(a, b)
    _divide(r, m, p)
    return fp_reduce(r[: len(m) - 1], p)


def fp_rem(a, m, p: int) -> list[int]:
    r = list(a)
    _divide(r, m, p)
    return fp_reduce(r[: len(m) - 1], p)


def fp_divmod(a, b, p: int) -> tuple[list[int], list[int]]:
    r = list(a)
    q = _divide(r, b, p)
    return q, fp_reduce(r[: len(b) - 1], p)


def fp_div_exact(a, b, p: int) -> list[int]:
    """a / b for b dividing a: the quotient, with no remainder formed."""
    return _divide(list(a), b, p)


def fp_monic(a, p: int) -> list[int]:
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def fp_gcd(a, b, p: int) -> list[int]:
    """The monic gcd (empty when a and b are both zero)."""
    while b:
        a, b = b, fp_rem(a, b, p)
    return fp_monic(a, p)


def fp_pow_mod(a, e: int, m, p: int) -> list[int]:
    """a^e mod m by left-to-right square and multiply (1 for e = 0)."""
    if e == 0:
        return [1]
    base = r = fp_rem(a, m, p)
    for bit in bin(e)[3:]:
        r = fp_mulmod(r, r, m, p)
        if bit == "1":
            r = fp_mulmod(r, base, m, p)
    return r


def fp_derivative(a, p: int) -> list[int]:
    return fp_reduce([i * c for i, c in enumerate(a)][1:], p)


def fp_distinct_degree(f, p: int) -> list[tuple[list[int], int]]:
    """Split squarefree monic f into (block, k): each block the product of
    f's irreducible factors of degree k, in ascending k."""
    out = []
    h = [0, 1]
    i = 1
    rest = f
    while len(rest) - 1 >= 2 * i:
        # h = x^(p^i) mod rest; the factors of degree i divide x^(p^i) - x.
        h = fp_pow_mod(h, p, rest, p)
        hx = h + [0] * (2 - len(h))
        hx[1] = (hx[1] - 1) % p
        g = fp_gcd(rest, _strip(hx), p)
        if len(g) > 1:
            out.append((g, i))
            rest = fp_div_exact(rest, g, p)
            h = fp_rem(h, rest, p)
        i += 1
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


@dataclass(frozen=True)
class PolyFp:
    """Polynomial over F_p, coefficients ascending, no trailing zeros."""

    p: int
    coeffs: tuple[int, ...]

    @classmethod
    def of(cls, p: int, coeffs) -> "PolyFp":
        return cls(p, tuple(fp_reduce(coeffs, p)))

    @classmethod
    def zero(cls, p: int) -> "PolyFp":
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> "PolyFp":
        return cls.of(p, (1,))

    @classmethod
    def x(cls, p: int) -> "PolyFp":
        return cls.of(p, (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check(self, other: "PolyFp"):
        if self.p != other.p:
            raise ValueError("mixed characteristics")

    def _wrap(self, coeffs: list[int]) -> "PolyFp":
        return PolyFp(self.p, tuple(coeffs))

    def __add__(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyFp.of(self.p, out)

    def __neg__(self) -> "PolyFp":
        return PolyFp.of(self.p, [-c for c in self.coeffs])

    def __sub__(self, other: "PolyFp") -> "PolyFp":
        return self + (-other)

    def __mul__(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        return self._wrap(fp_mul(self.coeffs, other.coeffs, self.p))

    def scale(self, c: int) -> "PolyFp":
        return PolyFp.of(self.p, [c * a for a in self.coeffs])

    def monic(self) -> "PolyFp":
        return self._wrap(fp_monic(self.coeffs, self.p))

    def divmod(self, other: "PolyFp") -> tuple["PolyFp", "PolyFp"]:
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = fp_divmod(self.coeffs, other.coeffs, self.p)
        return self._wrap(q), self._wrap(r)

    def __mod__(self, other: "PolyFp") -> "PolyFp":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "PolyFp") -> "PolyFp":
        return self.divmod(other)[0]

    def gcd(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        return self._wrap(fp_gcd(self.coeffs, other.coeffs, self.p))

    def pow_mod(self, e: int, modulus: "PolyFp") -> "PolyFp":
        self._check(modulus)
        if modulus.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        return self._wrap(fp_pow_mod(self.coeffs, e, modulus.coeffs, self.p))

    def derivative(self) -> "PolyFp":
        return self._wrap(fp_derivative(self.coeffs, self.p))


def _seed_from(f: PolyFp) -> int:
    acc = f.p
    for c in f.coeffs:
        acc = (acc * 1_000_003 + c + 1) % (1 << 62)
    return acc


def _pth_root(f: PolyFp) -> PolyFp:
    # f = g(x^p) over F_p; Frobenius fixes F_p, so g takes every p-th coefficient.
    return PolyFp.of(f.p, f.coeffs[:: f.p])


def _squarefree_decomposition(f: PolyFp) -> list[tuple[PolyFp, int]]:
    """Monic f as a product of squarefree monic parts with multiplicities."""
    p = f.p
    out: list[tuple[PolyFp, int]] = []
    d = f.derivative()
    if d.is_zero:
        for g, m in _squarefree_decomposition(_pth_root(f)):
            out.append((g, m * p))
        return out
    c = f.gcd(d)
    w = (f // c).monic()
    i = 1
    while w.degree > 0:
        y = w.gcd(c)
        part = (w // y).monic()
        if part.degree > 0:
            out.append((part, i))
        w = y
        c = (c // y).monic()
        i += 1
    if c.degree > 0:
        for g, m in _squarefree_decomposition(_pth_root(c)):
            out.append((g, m * p))
    return out


def distinct_degree(f: PolyFp) -> list[tuple[PolyFp, int]]:
    """``fp_distinct_degree`` on a squarefree monic ``PolyFp``."""
    return [(f._wrap(g), k) for g, k in fp_distinct_degree(f.coeffs, f.p)]


def _equal_degree(f: PolyFp, d: int, rng: random.Random) -> list[PolyFp]:
    """Cantor-Zassenhaus split of squarefree monic f into irreducibles of degree d."""
    p = f.p
    if f.degree == d:
        return [f]
    n = f.degree
    while True:
        r = PolyFp.of(p, [rng.randrange(p) for _ in range(n)])
        if r.degree < 1:
            continue
        g = f.gcd(r)
        if 0 < g.degree < n:
            break
        if p == 2:
            # Trace map r + r^2 + r^4 + ... splits the Artin-Schreier classes.
            t = PolyFp.zero(p)
            s = r % f
            for _ in range(d):
                t = (t + s) % f
                s = s * s % f
            g = f.gcd(t)
        else:
            h = r.pow_mod((p**d - 1) // 2, f)
            g = f.gcd(h - PolyFp.one(p))
        if 0 < g.degree < n:
            break
    left = _equal_degree(g.monic(), d, rng)
    right = _equal_degree((f // g).monic(), d, rng)
    return left + right


def factor_mod_p(f: PolyFp) -> list[tuple[PolyFp, int]]:
    """Factor f into monic irreducibles with multiplicities.

    Factors are sorted by (degree, ascending coefficient tuple); the product of
    the factors times lc(f) re-expands to f.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if not is_probable_prime(f.p):
        raise ValueError(f"{f.p} is not prime")
    if f.degree < 1:
        return []
    rng = random.Random(_seed_from(f))
    monic = f.monic()
    out: list[tuple[PolyFp, int]] = []
    for part, mult in _squarefree_decomposition(monic):
        for block, d in distinct_degree(part):
            for irr in _equal_degree(block, d, rng):
                out.append((irr, mult))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def is_irreducible_mod_p(f: PolyFp) -> bool:
    """Frobenius-based irreducibility test for f over F_p."""
    n = f.degree
    if n < 1:
        return False
    if n == 1:
        return True
    p = f.p
    x = PolyFp.x(p)
    h = x.pow_mod(p**n, f)
    if h != x % f:
        return False
    for ell, _ in factor_integer(n)[1]:
        g = x.pow_mod(p ** (n // ell), f) - x
        if f.gcd(g).degree != 0:
            return False
    return True

