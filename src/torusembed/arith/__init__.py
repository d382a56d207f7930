"""Exact arithmetic kernels: integers, places, symbols, polynomials, real roots.

Import each name from the submodule that defines it.  The package binds
only two names, each for a reader outside ``src/``: ``sturm``, so that
``import torusembed.cli`` loads every module the benchmark's tracer wraps
(no program path reads real-root isolation), and ``PolyQ``, which the
benchmark's tests import from the package.
"""

from torusembed.arith import sturm
from torusembed.arith.polyq import PolyQ
