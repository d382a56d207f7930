"""Problem-document parsing and report rendering.

The wire format is JSON.  A problem document looks like::

    {
      "algebra": [
        {"type": "quad", "d": -1},
        {"type": "general", "f": [-2, 0, 1], "theta": [0, 1]}
      ],
      "form": {"diagonal": [1, 1, 1, -2]},      // or {"gram": [[...], ...]}
      "options": {
        "prime_bound": 1000,
        "oracle_height": 0,
        "annotations": [
          {"component": 1, "prime": 2, "status": "nonsplit"}
        ]
      }
    }

Polynomials are coefficient lists in ascending order; rationals are integers
or strings ``"p/q"`` (never floats).  Reports mirror the input under an
``input`` key in normalized form, so rendering is deterministic and
byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Sequence

from . import __version__
from .arith import PolyQ
from .arith.places import Place
from .engine import DEFAULT_PRIME_BOUND, DecisionReport, LocalCheckResult
from .errors import AuditError, ComponentValidationError, InputDocumentError
from .etale import EtaleAlgebra, GeneralSpec, QuadSpec, build_algebra, build_component
from .oracle import SearchResult
from .qform import QuadraticSpace, signature_hasse_bit

__all__ = [
    "Problem",
    "parse_rational",
    "render_rational",
    "parse_problem",
    "build_inputs",
    "normalize_problem",
    "place_json",
    "render_decision_report",
    "render_local_report",
    "render_invariants_report",
    "render_oracle_report",
    "render_error",
]

_STATUSES = ("split", "nonsplit")


def parse_rational(value: Any, path: str) -> Fraction:
    """A rational from the wire format: an integer or a string ``"p/q"``."""
    if isinstance(value, bool):
        raise InputDocumentError(path, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputDocumentError(
                path, f"malformed rational string {value!r}"
            ) from None
    raise InputDocumentError(
        path, f"expected an integer or 'p/q' string, got {type(value).__name__}"
    )


def render_rational(value: Fraction) -> int | str:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _expect_object(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, dict):
        raise InputDocumentError(path, "expected an object")
    return value


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise InputDocumentError(path, "expected an array")
    return value


def _expect_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputDocumentError(path, "expected an integer")
    return value


def _reject_unknown_keys(obj: Mapping[str, Any], allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise InputDocumentError(path, f"unknown key(s): {', '.join(unknown)}")


def _parse_poly(value: Any, path: str) -> PolyQ:
    coeffs = _expect_list(value, path)
    if not coeffs:
        raise InputDocumentError(path, "polynomial needs at least one coefficient")
    return PolyQ.of(
        [parse_rational(c, f"{path}[{i}]") for i, c in enumerate(coeffs)]
    )


@dataclass(frozen=True)
class Problem:
    """A parsed, syntactically valid problem document."""

    component_specs: tuple[QuadSpec | GeneralSpec, ...]
    diagonal: tuple[Fraction, ...] | None
    gram: tuple[tuple[Fraction, ...], ...] | None
    prime_bound: int
    oracle_height: int
    annotations: dict[tuple[int, int], str]


def _parse_component(value: Any, path: str) -> QuadSpec | GeneralSpec:
    obj = _expect_object(value, path)
    kind = obj.get("type")
    if kind == "quad":
        _reject_unknown_keys(obj, {"type", "d"}, path)
        if "d" not in obj:
            raise InputDocumentError(path, "quad component needs field 'd'")
        return QuadSpec(_expect_int(obj["d"], f"{path}.d"))
    if kind == "general":
        _reject_unknown_keys(obj, {"type", "f", "theta"}, path)
        for key in ("f", "theta"):
            if key not in obj:
                raise InputDocumentError(path, f"general component needs field '{key}'")
        return GeneralSpec(
            f=_parse_poly(obj["f"], f"{path}.f"),
            theta=_parse_poly(obj["theta"], f"{path}.theta"),
        )
    raise InputDocumentError(
        f"{path}.type", "component type must be 'quad' or 'general'"
    )


def _parse_form(
    value: Any, path: str
) -> tuple[tuple[Fraction, ...] | None, tuple[tuple[Fraction, ...], ...] | None]:
    obj = _expect_object(value, path)
    _reject_unknown_keys(obj, {"diagonal", "gram"}, path)
    if ("diagonal" in obj) == ("gram" in obj):
        raise InputDocumentError(path, "exactly one of 'diagonal' or 'gram' required")
    if "diagonal" in obj:
        entries = _expect_list(obj["diagonal"], f"{path}.diagonal")
        if not entries:
            raise InputDocumentError(f"{path}.diagonal", "form must be nonempty")
        diag = tuple(
            parse_rational(c, f"{path}.diagonal[{i}]") for i, c in enumerate(entries)
        )
        return diag, None
    rows = _expect_list(obj["gram"], f"{path}.gram")
    if not rows:
        raise InputDocumentError(f"{path}.gram", "form must be nonempty")
    gram = []
    for i, row in enumerate(rows):
        entries = _expect_list(row, f"{path}.gram[{i}]")
        if len(entries) != len(rows):
            raise InputDocumentError(f"{path}.gram[{i}]", "gram matrix must be square")
        gram.append(
            tuple(
                parse_rational(c, f"{path}.gram[{i}][{j}]")
                for j, c in enumerate(entries)
            )
        )
    return None, tuple(gram)


def _parse_annotations(
    value: Any, path: str, component_count: int
) -> dict[tuple[int, int], str]:
    entries = _expect_list(value, path)
    annotations: dict[tuple[int, int], str] = {}
    for k, entry in enumerate(entries):
        epath = f"{path}[{k}]"
        obj = _expect_object(entry, epath)
        _reject_unknown_keys(obj, {"component", "prime", "status"}, epath)
        for key in ("component", "prime", "status"):
            if key not in obj:
                raise InputDocumentError(epath, f"annotation needs field '{key}'")
        i = _expect_int(obj["component"], f"{epath}.component")
        if not 0 <= i < component_count:
            raise InputDocumentError(
                f"{epath}.component", f"component index {i} out of range"
            )
        p = _expect_int(obj["prime"], f"{epath}.prime")
        if p < 2:
            raise InputDocumentError(f"{epath}.prime", "prime must be at least 2")
        status = obj["status"]
        if status not in _STATUSES:
            raise InputDocumentError(
                f"{epath}.status", "status must be 'split' or 'nonsplit'"
            )
        if (i, p) in annotations:
            raise InputDocumentError(
                epath, f"duplicate annotation for component {i}, prime {p}"
            )
        annotations[(i, p)] = status
    return annotations


def parse_problem(doc: Any) -> Problem:
    """Validate a decoded JSON document; errors carry a JSON path."""
    obj = _expect_object(doc, "$")
    _reject_unknown_keys(obj, {"algebra", "form", "options"}, "$")
    for key in ("algebra", "form"):
        if key not in obj:
            raise InputDocumentError("$", f"missing required key '{key}'")
    raw_components = _expect_list(obj["algebra"], "$.algebra")
    if not raw_components:
        raise InputDocumentError("$.algebra", "algebra needs at least one component")
    specs = tuple(
        _parse_component(c, f"$.algebra[{i}]") for i, c in enumerate(raw_components)
    )
    diagonal, gram = _parse_form(obj["form"], "$.form")

    prime_bound = DEFAULT_PRIME_BOUND
    oracle_height = 0
    annotations: dict[tuple[int, int], str] = {}
    if "options" in obj:
        opts = _expect_object(obj["options"], "$.options")
        _reject_unknown_keys(
            opts, {"prime_bound", "oracle_height", "annotations"}, "$.options"
        )
        if "prime_bound" in opts:
            prime_bound = _expect_int(opts["prime_bound"], "$.options.prime_bound")
            if prime_bound < 2:
                raise InputDocumentError(
                    "$.options.prime_bound", "prime_bound must be at least 2"
                )
        if "oracle_height" in opts:
            oracle_height = _expect_int(
                opts["oracle_height"], "$.options.oracle_height"
            )
            if oracle_height < 0:
                raise InputDocumentError(
                    "$.options.oracle_height", "oracle_height must be nonnegative"
                )
        if "annotations" in opts:
            annotations = _parse_annotations(
                opts["annotations"], "$.options.annotations", len(specs)
            )
    return Problem(
        component_specs=specs,
        diagonal=diagonal,
        gram=gram,
        prime_bound=prime_bound,
        oracle_height=oracle_height,
        annotations=annotations,
    )


def build_inputs(problem: Problem) -> tuple[EtaleAlgebra, QuadraticSpace]:
    """Semantic validation: build the algebra and the quadratic space."""
    try:
        algebra = build_algebra(problem.component_specs, problem.annotations)
    except ComponentValidationError as exc:
        # Re-attribute the failure: if a single component fails on its own,
        # the error belongs to $.algebra[i]; otherwise to the annotations.
        for i, spec in enumerate(problem.component_specs):
            try:
                build_component(spec)
            except ComponentValidationError as cexc:
                raise InputDocumentError(f"$.algebra[{i}]", str(cexc)) from None
        raise InputDocumentError("$.options.annotations", str(exc)) from None
    try:
        if problem.diagonal is not None:
            form = QuadraticSpace.of(problem.diagonal)
        else:
            form = QuadraticSpace.from_gram([list(r) for r in problem.gram or ()])
    except ValueError as exc:
        raise InputDocumentError("$.form", str(exc)) from None
    if form.dim != algebra.rank:
        raise InputDocumentError(
            "$.form",
            f"form dimension {form.dim} does not match algebra rank {algebra.rank}",
        )
    return algebra, form


def _render_spec(spec: QuadSpec | GeneralSpec) -> dict:
    if isinstance(spec, QuadSpec):
        return {"type": "quad", "d": spec.d}
    return {
        "type": "general",
        "f": [render_rational(c) for c in spec.f.coeffs],
        "theta": [render_rational(c) for c in spec.theta.coeffs],
    }


def normalize_problem(problem: Problem) -> dict:
    """The canonical echo of a problem document."""
    if problem.diagonal is not None:
        form: dict = {"diagonal": [render_rational(c) for c in problem.diagonal]}
    else:
        form = {
            "gram": [
                [render_rational(c) for c in row] for row in problem.gram or ()
            ]
        }
    return {
        "algebra": [_render_spec(s) for s in problem.component_specs],
        "form": form,
        "options": {
            "prime_bound": problem.prime_bound,
            "oracle_height": problem.oracle_height,
            "annotations": [
                {"component": i, "prime": p, "status": status}
                for (i, p), status in sorted(problem.annotations.items())
            ],
        },
    }


def place_json(v: Place) -> int | str:
    return "infinity" if v.is_infinite else v.p


def _places_json(places) -> list:
    return [place_json(v) for v in places]


def _pairs_json(pairs) -> list:
    return [[i, p] for i, p in pairs]


def _invariants_block(algebra: EtaleAlgebra, form: QuadraticSpace) -> dict:
    inv = form.invariants
    return {
        "form": {
            "dim": inv.dim,
            "det": inv.det.rep,
            "disc": inv.disc.rep,
            "hasse_support": _places_json(sorted(inv.hasse_support, key=Place.sort_key)),
            "signature": list(inv.signature),
        },
        "algebra": {
            "rank": algebra.rank,
            "disc": algebra.disc_class.rep,
            "unramified_real_weight": algebra.unramified_real_weight,
            "unramified_place_count": algebra.unramified_place_count,
            "ramified_real_count": algebra.ramified_real_count,
            "cm": algebra.is_cm,
            "pairwise_det_support": _places_json(
                sorted(algebra.pairwise_det_support(), key=Place.sort_key)
            ),
            "components": [
                {
                    "degree": c.degree,
                    "h": [render_rational(x) for x in c.h.coeffs],
                    "disc": c.disc_class.rep,
                    "det": c.det_class.rep,
                    "real_profile": list(c.real_profile),
                    "exactness_gaps": sorted(c.exactness_gaps),
                }
                for c in algebra.components
            ],
        },
    }


def _local_json(local: LocalCheckResult) -> dict:
    return {
        "disc_ok": local.disc_ok,
        "hyperbolicity_ok": local.hyperbolicity_ok,
        "signature_ok": local.signature_ok,
        "failing_place": (
            None if local.failing_place is None else place_json(local.failing_place)
        ),
        "failing_condition": local.failing_condition,
        "pending_annotations": _pairs_json(local.pending),
    }


def _oracle_json(result: SearchResult) -> dict:
    doc: dict = {"height": result.height, "found": result.found}
    if result.found and result.element is not None and result.form is not None:
        doc["element"] = [
            [render_rational(c) for c in part.coeffs] for part in result.element.parts
        ]
        doc["trace_form"] = {
            "gram": [
                [render_rational(c) for c in row] for row in result.form.gram
            ],
            "diagonal": [
                render_rational(c) for c in result.form.space.diagonal
            ],
        }
    else:
        doc["element"] = None
        doc["trace_form"] = None
    return doc


def _tool_block() -> dict:
    return {"name": "torusembed", "version": __version__}


def render_decision_report(
    problem: Problem,
    algebra: EtaleAlgebra,
    form: QuadraticSpace,
    report: DecisionReport,
    oracle_result: SearchResult | None,
) -> dict:
    baseline = None
    if report.baseline is not None:
        baseline = {
            "finite": [
                {"place": place_json(v), "bits": list(bits)}
                for v, bits in report.baseline.finite_bits
            ],
            "infinity": {
                "signatures": [list(sig) for sig in report.baseline.infinity_signatures],
                "bits": [
                    signature_hasse_bit(sig)
                    for sig in report.baseline.infinity_signatures
                ],
            },
        }
    graph = None
    if report.graph is not None:
        graph = {
            "vertex_count": report.graph.vertex_count,
            "edges": [
                {"i": i, "j": j, "witness": place_json(v)}
                for i, j, v in report.graph.edges
            ],
            "unresolved_pairs": [[i, j] for i, j in report.graph.unresolved],
        }
    fast_path: Any = report.fast_path
    if report.fast_path == "star":
        fast_path = {"star": report.star_vertex}
    return {
        "tool": _tool_block(),
        "input": normalize_problem(problem),
        "verdict": report.verdict,
        "bound": report.bound,
        "local": _local_json(report.local),
        "bad_places": (
            None if report.bad_places is None else _places_json(report.bad_places)
        ),
        "baseline": baseline,
        "parity": None if report.parity is None else list(report.parity),
        "graph": graph,
        "fast_path": fast_path,
        "needed_annotations": _pairs_json(report.needed_annotations),
        "notes": list(report.notes),
        "invariants": _invariants_block(algebra, form),
        "oracle": None if oracle_result is None else _oracle_json(oracle_result),
    }


def render_local_report(
    problem: Problem,
    algebra: EtaleAlgebra,
    form: QuadraticSpace,
    local: LocalCheckResult,
) -> dict:
    return {
        "tool": _tool_block(),
        "input": normalize_problem(problem),
        "local": _local_json(local),
        "invariants": _invariants_block(algebra, form),
    }


def render_invariants_report(
    problem: Problem, algebra: EtaleAlgebra, form: QuadraticSpace
) -> dict:
    return {
        "tool": _tool_block(),
        "input": normalize_problem(problem),
        "invariants": _invariants_block(algebra, form),
    }


def render_oracle_report(
    problem: Problem,
    algebra: EtaleAlgebra,
    form: QuadraticSpace,
    result: SearchResult,
) -> dict:
    return {
        "tool": _tool_block(),
        "input": normalize_problem(problem),
        "oracle": _oracle_json(result),
        "invariants": _invariants_block(algebra, form),
    }


def render_error(exc: InputDocumentError | AuditError) -> dict:
    """The error object that stands in for a document's report.  An audit
    failure concerns the whole document, so its path is ``$``."""
    if isinstance(exc, AuditError):
        return {"error": {"path": "$", "message": f"internal audit failure: {exc}"}}
    return {"error": {"path": exc.path, "message": exc.message}}
