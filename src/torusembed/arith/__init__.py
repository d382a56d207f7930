"""Exact arithmetic kernels: integers, places, symbols, polynomials, real roots."""

from torusembed.arith.integers import (
    SquareClass,
    divisors,
    factor_integer,
    is_probable_prime,
    iter_primes,
)
from torusembed.arith.places import Place
from torusembed.arith.symbols import (
    hasse_bit,
    hilbert_symbol,
    legendre_symbol,
)
from torusembed.arith.polyq import PolyQ, is_irreducible
from torusembed.arith.polyfp import factor_mod_p
from torusembed.arith.sturm import RealRoot, isolate_real_roots

__all__ = [
    "SquareClass",
    "divisors",
    "factor_integer",
    "is_probable_prime",
    "iter_primes",
    "Place",
    "hasse_bit",
    "hilbert_symbol",
    "legendre_symbol",
    "PolyQ",
    "is_irreducible",
    "factor_mod_p",
    "RealRoot",
    "isolate_real_roots",
]
