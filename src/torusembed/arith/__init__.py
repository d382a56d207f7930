"""Exact arithmetic kernels: integers, places, symbols, polynomials, real roots."""

from torusembed.arith.integers import (
    SquareClass,
    divisors,
    factor_integer,
    is_probable_prime,
    iter_primes,
    squarefree_part,
)
from torusembed.arith.places import Place
from torusembed.arith.symbols import (
    hasse_bit,
    hilbert_symbol,
    is_local_square,
    legendre_symbol,
    symbol_support,
)
from torusembed.arith.polyq import PolyQ, discriminant, is_irreducible, resultant
from torusembed.arith.polyfp import PolyFp, factor_mod_p, ff_is_square
from torusembed.arith.sturm import RealRoot, isolate_real_roots, real_root_count

__all__ = [
    "SquareClass",
    "divisors",
    "factor_integer",
    "is_probable_prime",
    "iter_primes",
    "squarefree_part",
    "Place",
    "hasse_bit",
    "hilbert_symbol",
    "is_local_square",
    "legendre_symbol",
    "symbol_support",
    "PolyQ",
    "discriminant",
    "is_irreducible",
    "resultant",
    "PolyFp",
    "factor_mod_p",
    "ff_is_square",
    "RealRoot",
    "isolate_real_roots",
    "real_root_count",
]
