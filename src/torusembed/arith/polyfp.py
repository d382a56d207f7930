"""Dense univariate polynomial arithmetic over prime fields F_p.

One kernel of module-level functions on ascending int lists does the
arithmetic: a polynomial is the list of its coefficients in [0, p), constant
term first, with no trailing zeros.  Products are accumulated over the
integers and reduced with one ``% p`` per output coefficient, also inside
``fp_mulmod``, where the division by the modulus runs on the unreduced
product; ``fp_rem``, ``fp_divmod`` and ``fp_div_exact`` share one division
loop.  Every F_p[x] value in the package is such a list.  ``fp_mul`` and
``fp_div_exact`` by a monic divisor need no inverse, so Hensel lifting in
``polyq`` also uses them modulo p^k.

Factorization is squarefree decomposition + distinct-degree + Cantor-Zassenhaus
equal-degree splitting (Cohen, GTM 138, 3.4); the distinct-degree blocks alone
count factors and decide splitting.  The random stream used by the splitting
step is local to the call and seeded from (p, reduced coefficients), so results
are reproducible across runs and platforms.
"""

from __future__ import annotations

import random

from torusembed.arith.integers import is_probable_prime


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


def _seed_from(f, p: int) -> int:
    acc = p
    for c in f:
        acc = (acc * 1_000_003 + c + 1) % (1 << 62)
    return acc


def _squarefree_decomposition(f, p: int) -> list[tuple[list[int], int]]:
    """Monic f as a product of squarefree monic parts with multiplicities."""
    d = fp_derivative(f, p)
    if not d:
        # f = g(x^p) over F_p; Frobenius fixes F_p, so g takes every p-th coefficient.
        return [(g, m * p) for g, m in _squarefree_decomposition(f[::p], p)]
    out = []
    c = fp_gcd(f, d, p)
    w = fp_div_exact(f, c, p)
    i = 1
    while len(w) > 1:
        y = fp_gcd(w, c, p)
        part = fp_div_exact(w, y, p)
        if len(part) > 1:
            out.append((part, i))
        w = y
        c = fp_div_exact(c, y, p)
        i += 1
    if len(c) > 1:
        out += [(g, m * p) for g, m in _squarefree_decomposition(c[::p], p)]
    return out


def _equal_degree(f, d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus split of squarefree monic f into irreducibles of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        r = fp_reduce([rng.randrange(p) for _ in range(n)], p)
        if len(r) < 2:
            continue
        g = fp_gcd(f, r, p)
        if 0 < len(g) - 1 < n:
            break
        if p == 2:
            # Trace map r + r^2 + r^4 + ... splits the Artin-Schreier classes.
            t = [0] * n
            s = fp_rem(r, f, p)
            for _ in range(d):
                for i, c in enumerate(s):
                    t[i] += c
                s = fp_mulmod(s, s, f, p)
        else:
            # r^((p^d - 1)/2) is +1 or -1 at each factor; keep the +1 ones.
            t = fp_pow_mod(r, (p**d - 1) // 2, f, p)
            t[0] -= 1
        g = fp_gcd(f, fp_reduce(t, p), p)
        if 0 < len(g) - 1 < n:
            break
    rest = fp_div_exact(f, g, p)
    return _equal_degree(g, d, p, rng) + _equal_degree(rest, d, p, rng)


def factor_mod_p(f, p: int) -> list[tuple[list[int], int]]:
    """Factor integer coefficients f over F_p into monic irreducibles with
    multiplicities.

    Factors are sorted by (degree, coefficients); the product of the factors
    times the leading coefficient re-expands to ``fp_reduce(f, p)``.
    """
    f = fp_reduce(f, p)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    if len(f) < 2:
        return []
    rng = random.Random(_seed_from(f, p))
    out = [
        (irr, mult)
        for part, mult in _squarefree_decomposition(fp_monic(f, p), p)
        for block, d in fp_distinct_degree(part, p)
        for irr in _equal_degree(block, d, p, rng)
    ]
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out
