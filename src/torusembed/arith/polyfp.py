"""Dense univariate polynomial arithmetic over prime fields F_p.

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


@dataclass(frozen=True)
class PolyFp:
    """Polynomial over F_p, coefficients ascending, no trailing zeros."""

    p: int
    coeffs: tuple[int, ...]

    @classmethod
    def of(cls, p: int, coeffs) -> "PolyFp":
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(p, tuple(cs))

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

    def __add__(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return PolyFp.of(self.p, out)

    def __neg__(self) -> "PolyFp":
        return PolyFp.of(self.p, [-c for c in self.coeffs])

    def __sub__(self, other: "PolyFp") -> "PolyFp":
        return self + (-other)

    def __mul__(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        if self.is_zero or other.is_zero:
            return PolyFp.zero(self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % self.p
        return PolyFp.of(self.p, out)

    def scale(self, c: int) -> "PolyFp":
        return PolyFp.of(self.p, [c * a for a in self.coeffs])

    def monic(self) -> "PolyFp":
        if self.is_zero:
            return self
        inv = pow(self.lc, -1, self.p)
        return self.scale(inv)

    def divmod(self, other: "PolyFp") -> tuple["PolyFp", "PolyFp"]:
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        q = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        dinv = pow(other.lc, -1, p)
        d = other.degree
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            c = rem[-1] * dinv % p
            q[k] = c
            for i, oc in enumerate(other.coeffs):
                rem[k + i] = (rem[k + i] - c * oc) % p
            while rem and rem[-1] == 0:
                rem.pop()
        return PolyFp.of(p, q), PolyFp.of(p, rem)

    def __mod__(self, other: "PolyFp") -> "PolyFp":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "PolyFp") -> "PolyFp":
        return self.divmod(other)[0]

    def gcd(self, other: "PolyFp") -> "PolyFp":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def pow_mod(self, e: int, modulus: "PolyFp") -> "PolyFp":
        result = PolyFp.one(self.p)
        base = self % modulus
        while e:
            if e & 1:
                result = result * base % modulus
            base = base * base % modulus
            e >>= 1
        return result

    def derivative(self) -> "PolyFp":
        return PolyFp.of(self.p, [i * c for i, c in enumerate(self.coeffs)][1:])


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
    """Split squarefree monic f into (block, k): each block the product of
    f's irreducible factors of degree k, in ascending k."""
    p = f.p
    out = []
    h = PolyFp.x(p)
    x = PolyFp.x(p)
    i = 1
    rest = f
    while rest.degree >= 2 * i:
        h = h.pow_mod(p, rest)
        g = rest.gcd(h - x)
        if g.degree > 0:
            out.append((g, i))
            rest = (rest // g).monic()
            h = h % rest
        i += 1
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


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

