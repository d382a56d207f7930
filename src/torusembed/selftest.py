"""Embedded consistency suites that need only the standard library.

Eight fixed-input suites, each running one kernel once against known
answers: Hilbert symbols and Hasse bits, integer factorization (by p-1, by
rho, and of values sharing a prime), factorization mod p, irreducibility
over Q, real-root counts by isolation and the real places of pinned
components from Hermite's form, the block rule's splitting of a component
with denominators in f and theta and of a cubic one, the trace forms of two
pinned elements (their signatures and the discriminant identity), and six
decisions, two with a status indeterminate at 2.  The randomized and
brute-force checks, and the reference functions they compare against, live in
``tests/``.  ``torusembed selftest`` drives :func:`run_all`.  The suites
check with :func:`_check`, not ``assert``, so they still check under ``-O``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

from .arith.integers import factor_integer, factor_rationals, is_probable_prime
from .arith.places import INFINITY, Place
from .arith.polyfp import factor_mod_p
from .arith.polyq import PolyQ, is_irreducible
from .arith.sturm import isolate_real_roots
from .arith.symbols import hasse_bit, hilbert_symbol
from .engine import decide
from .etale import (
    NONSPLIT,
    SPLIT,
    GeneralSpec,
    QuadSpec,
    build_algebra,
    build_component,
    component_split_at,
)
from .oracle import make_element, trace_form
from .qform import QuadraticSpace


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def _suite_hilbert() -> None:
    # (a, b, place, bit): bit 1 means the symbol (a, b) is -1 there.
    known = [(-1, -1, None, 1), (-1, -1, 2, 1), (-1, -1, 3, 0), (2, 3, 2, 1),
             (2, 3, 3, 1), (5, 7, 5, 1), (5, 7, 7, 1), (3, 5, 7, 0)]
    for a, b, p, bit in known:
        v = INFINITY if p is None else Place(p)
        _check(hilbert_symbol(a, b, v) == bit, f"({a}, {b}) at {v}")
    entries = (-3, 2, 6, -10, 7)
    for v in (Place(2), Place(3), Place(5), Place(7), INFINITY):
        pairs = itertools.combinations(entries, 2)
        pairwise = sum(hilbert_symbol(a, b, v) for a, b in pairs)
        _check(hasse_bit(entries, v) == pairwise % 2, f"hasse bit at {v}")


def _suite_factor_integer() -> None:
    p, q = 10**9 + 7, 10**9 + 9
    _check(factor_integer(p * q) == (1, [(p, 1), (q, 1)]), "factors of pq")
    # Repeated primes from the gcd with the product of the primes 101..9973.
    n = -(101**3) * 9973**2 * 10007
    _check(factor_integer(n) == (-1, [(101, 3), (9973, 2), (10007, 1)]), f"factors of {n}")
    for n in (-360, 9_973, 2**61 - 1, -12 * p * q):
        sign, factors = factor_integer(n)
        _check(sign * prod(r**e for r, e in factors) == n, f"factors of {n}")
    # p-1 splits 1000033 * 1000159 (only 1000032 is 1000-smooth); rho has to
    # split 1000037 * 1000969, whose p - 1 both end in the prime 233.
    for p, q in ((1000033, 1000159), (1000037, 1000969)):
        _check(factor_integer(p * q) == (1, [(p, 1), (q, 1)]), f"factors of {p * q}")
    # Values sharing the prime 1000037, once squared, factored together.
    r = 1000037
    values = [6 * r * 1000969, Fraction(r * r, 35), -1000033 * r]
    expected = [(1, {2: 1, 3: 1, r: 1, 1000969: 1}), (1, {5: -1, 7: -1, r: 2}),
                (-1, {1000033: 1, r: 1})]
    _check(factor_rationals(values) == expected, "factors of values sharing a prime")
    # The least strong pseudoprimes to every prime base up to 37 and up to
    # 41, which only the strong Lucas half of Baillie-PSW rejects.
    for n in (399165290221 * 798330580441, 1287836182261 * 2575672364521):
        _check(is_probable_prime(n) is False, f"{n} is composite")


def _suite_factor_mod_p() -> None:
    # x^6 + x^5 + 5x^3 + 2x^2 + 3 = (x + 1)(x + 5)(x^4 + 2x^3 + 4x^2 + 6x + 2) mod 7
    factors = factor_mod_p([3, 0, 2, 5, 0, 1, 1], 7)
    expected = [([1, 1], 1), ([5, 1], 1), ([2, 6, 4, 2, 1], 1)]
    _check(factors == expected, f"factors mod 7: {factors}")


def _suite_irreducible() -> None:
    _check(is_irreducible(PolyQ.of((1, 0, 0, 0, 1))), "x^4 + 1 is irreducible")
    _check(not is_irreducible(PolyQ.of((6, 0, -5, 0, 1))), "(x^2 - 2)(x^2 - 3)")
    _check(not is_irreducible(PolyQ.of((4, 0, -4, 0, 1))), "(x^2 - 2)^2")
    _check(not is_irreducible(PolyQ.of((3, -4, 1))), "disc 4: (x - 1)(x - 3)")


def _suite_real_roots() -> None:
    # x^2 + 2, x^2 - 2, x^3 - x, (x - 1)(x - 2)(x - 3), x^4 - 2
    known = [((2, 0, 1), 0), ((-2, 0, 1), 2), ((0, -1, 0, 1), 3),
             ((-6, 11, -6, 1), 3), ((-2, 0, 0, 0, 1), 2)]
    for coeffs, count in known:
        f = PolyQ.of(coeffs)
        _check(len(isolate_real_roots(f)) == count, f"roots of {f}")
    # (f, theta, real places of F, those where theta < 0): Q(2^(1/4)) with
    # theta = y or -y - y^2, Q(sqrt(2)) with theta = 3 + y or y/3 - 1/2,
    # Q(sqrt(1/2)) with theta = y - 3/4, and Q(2^(1/3)), one real place,
    # with theta = -1 - y/2.
    fields = [((-2, 0, 0, 0, 1), (0, 1), 2, 1), ((-2, 0, 0, 0, 1), (0, -1, -1), 2, 2),
              ((-2, 0, 1), (3, 1), 2, 0), ((-2, 0, 1), ("-1/2", "1/3"), 2, 2),
              (("-1/2", 0, 1), ("-3/4", 1), 2, 2), ((-2, 0, 0, 1), (-1, "-1/2"), 1, 1)]
    for f, theta, real, ramified in fields:
        c = build_component(GeneralSpec(PolyQ.of(f), PolyQ.of(theta)))
        counts = (c.real_count, c.ramified_count)
        _check(counts == (real, ramified), f"real places of {f}, {theta}")


def _suite_block_rule() -> None:
    # F = Q(sqrt(1/2)), theta = y/3 (c = 2, D = 6): f splits mod 7, 17 and 89,
    # is inert mod 11, and theta is a non-square above 7 (norm symbol -1) and
    # at both places above 89 (symbol +1: only the block rule tells).
    c = build_component(GeneralSpec(PolyQ.of(("-1/2", 0, 1)), PolyQ.of((0, "1/3"))))
    for p, status in ((7, NONSPLIT), (11, SPLIT), (17, SPLIT), (89, NONSPLIT)):
        _check(component_split_at(c, p) is status, f"splitting of y/3 at {p}")
    # Q(2^(1/3)), theta = 1 + y: f = (y - 7)(y^2 + 7y + 5) mod 11, and (3/11) =
    # +1 for the norm 3, so only the linear block tells that theta is not square.
    c = build_component(GeneralSpec(PolyQ.of((-2, 0, 0, 1)), PolyQ.of((1, 1))))
    _check(component_split_at(c, 11) is NONSPLIT, "splitting of 1 + y at 11")


# Q(2^(1/4)) = Q(sqrt 2)(sqrt y), indeterminate at 2.
_SQRT2 = GeneralSpec(PolyQ.of((-2, 0, 1)), PolyQ.of((0, 1)))


def _suite_trace_identities() -> None:
    # Q(sqrt(-3)) x Q(2^(1/4)): per element, the parts and the signature of
    # its trace form; every trace form's discriminant is the algebra's.
    algebra = build_algebra([QuadSpec(-3), _SQRT2])
    known = [((-1, (-1, 0, -1)), (3, 3)), ((-1, (1, 0, 1)), (1, 5))]
    for (a, b), signature in known:
        alpha = make_element(algebra, [a, PolyQ.of(b)])
        inv = trace_form(algebra, alpha).invariants
        _check(inv.disc == algebra.disc_class, f"disc identity fails for {alpha}")
        _check(inv.signature == signature, f"signature of {alpha}")


def _suite_decide() -> None:
    Qi = build_algebra([QuadSpec(-1)])
    pair = build_algebra([QuadSpec(-1), QuadSpec(-3)])
    d1 = decide(Qi, QuadraticSpace.of([1, 1]))
    _check((d1.verdict, d1.fast_path, d1.parity) == ("realizable", "cm", (0,)), "<1, 1>")
    d2 = decide(Qi, QuadraticSpace.of([1, -1]))
    _check(d2.verdict == "locally_fails", "<1, -1> fails")
    _check(d2.local.failing_condition == "signature", "<1, -1> fails the signature")
    d3 = decide(pair, QuadraticSpace.of([1, 1, 1, 3]))
    _check(d3.verdict == "realizable" and sum(d3.parity) % 2 == 0, "<1, 1, 1, 3>")
    d4 = decide(pair, QuadraticSpace.of([1, 1, 1, 1]))
    _check(d4.verdict == "locally_fails", "<1, 1, 1, 1> fails")
    _check(d4.local.failing_condition == "disc", "<1, 1, 1, 1> fails the disc")
    # The status at 2 blocks check_local; beside Q(i) the star fast path
    # decides, and only the baseline is blocked.
    d5 = decide(build_algebra([_SQRT2]), QuadraticSpace.of([1, 1, 1, -2]))
    _check(d5.verdict == "inconclusive", "<1, 1, 1, -2> is inconclusive")
    _check(d5.needed_annotations == ((0, 2),), "<1, 1, 1, -2> needs (0, 2)")
    both = build_algebra([_SQRT2, QuadSpec(-1)])
    d6 = decide(both, trace_form(both, make_element(both, [1, 1])).space)
    _check((d6.verdict, d6.fast_path) == ("realizable", "star"), "alpha = (1, 1)")
    _check(d6.needed_annotations == ((0, 2),), "alpha = (1, 1) needs (0, 2)")


_SUITES = [
    ("hilbert symbols and hasse bits", _suite_hilbert),
    ("integer factorization", _suite_factor_integer),
    ("polynomial factorization mod p", _suite_factor_mod_p),
    ("irreducibility over Q", _suite_irreducible),
    ("real places and root isolation", _suite_real_roots),
    ("splitting by the block rule", _suite_block_rule),
    ("trace form identities", _suite_trace_identities),
    ("decision pipeline", _suite_decide),
]


def run_all(quiet: bool = False) -> int:
    """Run every suite; return 0 when all pass, 1 otherwise."""
    failures = 0
    for name, suite in _SUITES:
        try:
            suite()
            line = f"ok - {name}"
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            line = f"FAIL - {name}: {exc}"
        if not quiet:
            print(line)
    if not quiet:
        print(f"{len(_SUITES) - failures}/{len(_SUITES)} suites passed")
    return 0 if failures == 0 else 1
