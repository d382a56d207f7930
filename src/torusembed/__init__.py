"""torusembed: decide when a rational quadratic form is a trace form.

Given an etale algebra with involution ``E = K_1 x ... x K_r`` over Q (each
``K_i`` a quadratic extension of a number field ``F_i``) and a nondegenerate
quadratic form ``q`` of dimension equal to the rank of ``E``, this package
decides whether ``q`` is equivalent over Q to a twisted trace form
``x -> Tr(alpha * x * sigma(x))`` for some invertible ``alpha`` fixed by the
involution.  The decision runs on exact local data (discriminants, Hilbert
symbols, signatures, splitting of primes) and is cross-checked by an
independent bounded search that constructs realizing elements explicitly.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
