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

from .engine import (
    DEFAULT_PRIME_BOUND,
    BaselineCollection,
    DecisionReport,
    LocalCheckResult,
    WitnessGraph,
    bad_places,
    build_graph,
    check_local,
    construct_baseline,
    decide,
    parity_vector,
)
from .errors import (
    AuditError,
    ComponentValidationError,
    InputDocumentError,
    NeedAnnotations,
    TorusembedError,
)
from .etale import (
    Component,
    EtaleAlgebra,
    GeneralSpec,
    QuadSpec,
    SplitStatus,
    build_algebra,
    build_component,
)
from .oracle import (
    AlgebraElement,
    SearchResult,
    TraceFormResult,
    make_element,
    search_realizing_element,
    trace_form,
)
from .qform import (
    QFInvariants,
    QuadraticSpace,
    hyperbolic_deviation_set,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AlgebraElement",
    "AuditError",
    "BaselineCollection",
    "Component",
    "ComponentValidationError",
    "DEFAULT_PRIME_BOUND",
    "DecisionReport",
    "EtaleAlgebra",
    "GeneralSpec",
    "InputDocumentError",
    "LocalCheckResult",
    "NeedAnnotations",
    "QFInvariants",
    "QuadSpec",
    "QuadraticSpace",
    "SearchResult",
    "SplitStatus",
    "TorusembedError",
    "TraceFormResult",
    "WitnessGraph",
    "bad_places",
    "build_algebra",
    "build_component",
    "build_graph",
    "check_local",
    "construct_baseline",
    "decide",
    "hyperbolic_deviation_set",
    "make_element",
    "parity_vector",
    "search_realizing_element",
    "trace_form",
]
