"""Integer arithmetic: primality, factorization, square classes.

Factorization has one entry, :func:`factor_rationals`, which factors a list
of rationals together; :func:`factor_integer` is its view of one integer.
It removes the primes below 10^4 in two stages: trial division by the 25
primes below 100, which stops as soon as p^2 exceeds what is left, and
otherwise one gcd with the product of the primes from 101 to 9973 (the
smooth-part idea of Bernstein, "How to find smooth parts of integers", 2004).
A cofactor below 10^8 is then prime.  The larger cofactors, after the
caller's known primes are divided out, are reduced by their gcds into
pairwise coprime parts and split together: Pollard p-1 stage 1 to 1000 over
their product, then one Brent rho sequence modulo the product of the parts
left, which keeps running after each split.  No work budget bounds that
stage yet.  The primality test is Miller-Rabin to the prime bases up to 37,
deterministic below 3.18e23, and Baillie-PSW above.
"""

from __future__ import annotations

import random
from bisect import bisect
from collections.abc import Callable, Iterable
from fractions import Fraction
from math import gcd, isqrt, prod

TRIAL_DIVISION_BOUND = 10_000


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(i for i, f in enumerate(flags) if f)


_SMALL_PRIMES = _sieve(TRIAL_DIVISION_BOUND)
_TRIAL_DIVISION_SQUARE = TRIAL_DIVISION_BOUND**2
# Trial division by the head primes (below 100); one gcd with the product of
# the tail primes (101 to 9973) finds which of those divide a larger cofactor.
_HEAD_PRIMES = _SMALL_PRIMES[:25]
_TAIL_PRIMES = _SMALL_PRIMES[25:]
_TAIL_PRODUCT = prod(_TAIL_PRIMES)

# Miller-Rabin to the prime bases up to 37 is deterministic below
# 318665857834031151167461 = 399165290221 * 798330580441, the least strong
# pseudoprime to all of them; from there on a strong Lucas test completes it
# to the Baillie-PSW test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BELOW = 318665857834031151167461


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed base set, deterministic below 3.18e23;
    above that, also a strong Lucas test (Baillie-PSW, with no known
    counterexample)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_DETERMINISTIC_BELOW or _is_strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of odd n > 1 with Selfridge's parameters (method A):
    D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4.
    With n + 1 = d * 2^s, n passes when U_d = 0 or V_(d*2^r) = 0 for some
    r < s, all mod n (Baillie and Wagstaff, Math. Comp. 35, 1980)."""
    if isqrt(n) ** 2 == n:
        return False  # no D would have (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_1 = 1, V_1 = P = 1; doubling: U_2k = U_k V_k, V_2k = V_k^2 - 2Q^k;
    # step: U_(k+1) = (U_k + V_k)/2, V_(k+1) = (D U_k + V_k)/2.
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = u + v, D * u + v
            u = (u + n if u % 2 else u) // 2 % n
            v = (v + n if v % 2 else v) // 2 % n
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


def iter_primes():
    """Yield 2, 3, 5, ... without bound."""
    yield from _SMALL_PRIMES
    n = _SMALL_PRIMES[-1] + 2
    while True:
        if is_probable_prime(n):
            yield n
        n += 2


# Pollard p-1 stage 1 raises a base to the largest power of each prime that
# is at most P1_BOUND, in ascending blocks: one pow per block, then one gcd.
# Each block keeps its prime powers, so a part caught whole by one block can
# be stepped back through them.
P1_BOUND = 1000


def _p1_block(low: int, high: int) -> tuple[int, tuple[int, ...]]:
    powers = []
    for p in _SMALL_PRIMES[bisect(_SMALL_PRIMES, low) : bisect(_SMALL_PRIMES, high)]:
        q = p
        while q * p <= P1_BOUND:
            q *= p
        powers.append(q)
    return prod(powers), tuple(powers)


_P1_BLOCKS = tuple(_p1_block(*b) for b in ((0, 100), (100, 250), (250, 500), (500, P1_BOUND)))
_RHO_BATCH = 128  # rho steps per gcd


def _is_prime_cofactor(n: int) -> bool:
    """Primality of n > 1 with no prime factor below TRIAL_DIVISION_BOUND: a
    cofactor below its square is prime."""
    return n < _TRIAL_DIVISION_SQUARE or is_probable_prime(n)


def _remove_small_primes(m: int) -> tuple[dict[int, int], int]:
    """Split m > 0 into its primes below 10^4, as {prime: exponent}, and the
    cofactor with no such prime.

    Trial division by the primes below 100 ends as soon as p^2 exceeds the
    cofactor, which is then 1 or a prime (counted here).  Past them, one gcd
    with the product of the primes from 101 to 9973 gives the tail primes
    that divide the cofactor, each then divided out with its full exponent.
    """
    counts: dict[int, int] = {}
    for p in _HEAD_PRIMES:
        if p * p > m:
            # No prime up to sqrt(m) divides m, so m is 1 or a prime.
            if m > 1:
                counts[m] = 1
            return counts, 1
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    # g is the squarefree product of the tail primes dividing m.
    g = gcd(m, _TAIL_PRODUCT)
    for p in _TAIL_PRIMES:
        if g == 1:
            break
        if p * p > g:
            p = g  # no tail prime up to sqrt(g) divides g, so g is a prime
        if g % p == 0:
            g //= p
            while m % p == 0:
                counts[p] = counts.get(p, 0) + 1
                m //= p
    return counts, m


def _spread(
    g: int, parts: list[int], primes: set[int], step_back: Callable[[int], int]
) -> tuple[list[int], list[int]]:
    """Split each part by its gcd with g, which divides their product.

    A part whose gcd with g is composite is split by ``step_back(part)``
    instead, a divisor found one step at a time; a part that it returns
    whole is stuck.  Prime pieces go to ``primes`` and are divided out of
    the others.  Returns the composite pieces and the stuck parts.
    """
    kept: list[int] = []
    stuck: list[int] = []
    for x in parts:
        d = gcd(x, g)
        if d > 1 and not _is_prime_cofactor(d):
            d = step_back(x)
        if d in (1, x):
            (kept if d == 1 else stuck).append(x)
            continue
        for y in (d, x // d):
            for p in primes:
                while y % p == 0:
                    y //= p
            if y > 1 and _is_prime_cofactor(y):
                primes.add(y)
            elif y > 1:
                kept.append(y)
    return kept, stuck


def _split_cofactors(parts: list[int]) -> set[int]:
    """The primes of composite parts with no prime factor below 10^4.

    Pollard p-1 stage 1 (Pollard, 1974) runs first, over the product of the
    parts.  Then one Brent rho sequence (Brent, 1980) runs modulo the product
    of the parts left, and keeps running after each split: every prime found
    leaves the modulus, so the sequence costs about as much as the hardest
    part, not the sum of all.  A part it cannot split (its primes collide at
    one step) restarts with a fresh c.  The random stream is seeded from the
    parts, so every run takes the same path.
    """
    primes: set[int] = set()
    n, a = prod(parts), 2
    for block, powers in _P1_BLOCKS:
        b = pow(a, block, n)
        g = gcd(b - 1, n)
        if g > 1:

            def p1_step_back(x, a=a, powers=powers):
                z = a % x
                for power in powers:
                    z = pow(z, power, x)
                    if (d := gcd(z - 1, x)) > 1:
                        return d
                return x

            kept, stuck = _spread(g, parts, primes, p1_step_back)
            parts = kept + stuck  # rho gets the stuck parts
            n = prod(parts)
        a = b % n
    if parts:
        rng = random.Random(n ^ 0x5DEECE66D)
        while parts:
            parts = _brent(parts, primes, rng)
    return primes


def _brent(parts: list[int], primes: set[int], rng: random.Random) -> list[int]:
    """Run one rho sequence y -> y^2 + c modulo the product of the parts
    until each is split or stuck (Brent's cycle search, batches of gcds);
    return the stuck parts."""
    n = prod(parts)
    y, c = rng.randrange(1, n), rng.randrange(1, n)
    stuck: list[int] = []
    r, q = 1, 1
    while parts:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and parts:
            ys = y
            for _ in range(min(_RHO_BATCH, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            k += _RHO_BATCH
            g = gcd(q, n)
            if g == 1:
                continue

            def rho_step_back(part, x=x, ys=ys):
                z = ys % part
                while (d := gcd(x - z, part)) == 1:
                    z = (z * z + c) % part
                return d

            parts, lost = _spread(g, parts, primes, rho_step_back)
            stuck += lost
            n, q = prod(parts), 1
        r *= 2
    return stuck


def factor_integer(n: int) -> tuple[int, list[tuple[int, int]]]:
    """Factor nonzero n as (sign, [(prime, exponent), ...]) with primes
    ascending: :func:`factor_rationals` of n alone."""
    sign, exponents = factor_rationals([n])[0]
    return sign, sorted(exponents.items())


def divisors(n: int) -> list[int]:
    """All positive divisors of nonzero n, ascending."""
    _, facs = factor_integer(n)
    out = [1]
    for p, e in facs:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def factor_rationals(
    values: Iterable[int | Fraction], known: Iterable[int] = ()
) -> list[tuple[int, dict[int, int]]]:
    """Factor nonzero rationals together, each as (sign, {prime: exponent})
    with negative exponents for the primes of its denominator.

    Each value's primes below 10^4 come out first.  The cofactors left are
    divided by the primes of ``known`` (which must be primes; those below
    10^4 are ignored), reduced by their gcds with each other and with the
    primes among them into pairwise coprime parts, and the composite parts
    go to the splitting stage in one call.  Each value's exponents of the
    large primes are then read by division.
    """
    out: list[tuple[int, dict[int, int]]] = []
    cofactors: list[tuple[dict[int, int], int, int]] = []
    for x in values:
        if not x:
            raise ValueError("cannot factor zero")
        exponents, m = _remove_small_primes(abs(x.numerator))
        if m > 1:
            cofactors.append((exponents, 1, m))
        if x.denominator > 1:
            # Numerator and denominator are coprime: every prime here is new.
            counts, m = _remove_small_primes(x.denominator)
            exponents.update((p, -e) for p, e in counts.items())
            if m > 1:
                cofactors.append((exponents, -1, m))
        out.append((-1 if x.numerator < 0 else 1, exponents))
    if cofactors:
        primes = {p for p in known if p > TRIAL_DIVISION_BOUND}
        parts: list[int] = []
        work = [m for _, _, m in cofactors]
        while work:
            m = work.pop()
            for p in primes:
                while m % p == 0:
                    m //= p
            if m == 1:
                continue
            for i, b in enumerate(parts):
                if (g := gcd(m, b)) > 1:
                    del parts[i]
                    work += (g, m // g, b // g)
                    break
            else:
                if _is_prime_cofactor(m):
                    primes.add(m)
                else:
                    parts.append(m)
        if parts:
            primes |= _split_cofactors(parts)
        large = sorted(primes)
        for exponents, unit, m in cofactors:
            for p in large:
                while m % p == 0:
                    exponents[p] = exponents.get(p, 0) + unit
                    m //= p
    return out


class SquareClass:
    """A rational square class, represented by its signed squarefree integer.

    ``primes`` holds the primes dividing ``rep``, so products of classes
    never factor anything.  Classes compare and hash by ``rep`` alone.
    """

    def __init__(self, rep: int, primes: frozenset[int]) -> None:
        self.rep = rep
        self.primes = primes

    def __eq__(self, other):
        if type(other) is not SquareClass:
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self) -> int:
        return hash((self.rep,))

    @classmethod
    def of(cls, x: int | Fraction) -> "SquareClass":
        if x == 1 or x == -1:
            return _UNIT_CLASSES[x]
        return cls.from_factors(*factor_rationals([x])[0])

    @classmethod
    def from_factors(cls, sign: int, exponents: dict[int, int]) -> "SquareClass":
        """The class of sign * prod(p**e), from the parities of the exponents."""
        primes = frozenset(p for p, e in exponents.items() if e % 2)
        return cls(prod(primes, start=sign), primes)

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        sign = 1 if (self.rep > 0) == (other.rep > 0) else -1
        primes = self.primes ^ other.primes
        return SquareClass(prod(primes, start=sign), primes)

    def __str__(self) -> str:
        return str(self.rep)


# The classes of 1 and -1, which every determinant sign and product starts from.
_UNIT_CLASSES = {1: SquareClass(1, frozenset()), -1: SquareClass(-1, frozenset())}
