"""Integer arithmetic: primality, factorization, square classes.

Factorization removes the primes below 10^4 in two stages: trial division by
the 25 primes below 100, which stops as soon as p^2 exceeds what is left, and
otherwise one gcd with the product of the primes from 101 to 9973 (the
smooth-part idea of Bernstein, "How to find smooth parts of integers", 2004).
A cofactor below 10^8 is then prime; a larger one is split by Pollard rho
(Brent variant), whatever its size: no work budget bounds rho yet.  The
primality test is Miller-Rabin to the prime bases up to 37, deterministic
below 3.18e23, and Baillie-PSW above.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
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


def _pollard_brent(n: int, rng: random.Random) -> int:
    """A nontrivial factor of an odd composite n (Brent's cycle variant)."""
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


def factor_integer(n: int) -> tuple[int, list[tuple[int, int]]]:
    """Factor nonzero n as (sign, [(prime, exponent), ...]) with primes ascending.

    Trial division by the primes below 100 ends as soon as p^2 exceeds the
    cofactor, which is then 1 or a prime.  Past them, one gcd with the
    product of the primes from 101 to 9973 gives the tail primes that divide
    the cofactor, each then divided out with its full exponent.  What is left
    has no prime factor below 10^4, so it is prime below 10^8; above, Pollard
    rho splits it with no bound on its work.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    sign = -1 if n < 0 else 1
    m = abs(n)
    counts: dict[int, int] = {}
    for p in _HEAD_PRIMES:
        if p * p > m:
            # No prime up to sqrt(m) divides m, so m is 1 or a prime.
            if m > 1:
                counts[m] = 1
                m = 1
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    else:
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
    if m > 1:
        # Every prime below TRIAL_DIVISION_BOUND is divided out, so a piece
        # below its square is prime.  The pseudo-random stream is local to
        # this call and seeded from the cofactor m, so repeated
        # factorizations are reproducible; it is built only when
        # Pollard-Brent first runs.
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


def divisors(n: int) -> list[int]:
    """All positive divisors of nonzero n, ascending."""
    _, facs = factor_integer(n)
    out = [1]
    for p, e in facs:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def factor_rational(
    x: int | Fraction, known: Iterable[int] = ()
) -> tuple[int, dict[int, int]]:
    """Factor nonzero x as (sign, {prime: exponent}).

    Primes of the denominator get negative exponents.  The primes in
    ``known`` are divided out first, so :func:`factor_integer` only sees the
    cofactor that is left.
    """
    fr = Fraction(x)
    if fr == 0:
        raise ValueError("cannot factor zero")
    exponents: dict[int, int] = {}
    for part, unit in ((abs(fr.numerator), 1), (fr.denominator, -1)):
        for p in known:
            while part % p == 0:
                exponents[p] = exponents.get(p, 0) + unit
                part //= p
        if part > 1:
            for p, e in factor_integer(part)[1]:
                exponents[p] = exponents.get(p, 0) + unit * e
    return (1 if fr > 0 else -1), exponents


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
        return cls.from_factors(*factor_rational(x))

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
