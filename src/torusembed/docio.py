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
or strings ``"p/q"`` (never floats).  The document layer keeps a JSON integer
as the ``int`` it is, on the way in and in the echo; only a ``"p/q"`` string
becomes a ``Fraction`` here.  The forms keep integers too
(``QuadraticSpace.of``, ``diagonalize_gram``), and so do the report's ``h``
coefficients; only ``PolyQ.of`` (f, theta) turns every coefficient into a
``Fraction``.  An entry's JSON path is formatted only when the entry is
rejected.  ``check_option`` is the one range check of ``prime_bound`` and
``oracle_height``, whether they come from the document or from a
command-line flag.

Every command's report has one frame, ``render_report``: the tool, the input
echo in normalized form, the command's own sections, then the invariants.  So
rendering is deterministic and byte-identical across runs.  One writer,
``dump_json``, prints every report, batch and error object byte for byte as
``json.dumps(..., indent=2)`` would print them.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping

from . import __version__
from .arith.places import Place
from .arith.polyq import PolyQ
from .engine import DEFAULT_PRIME_BOUND, DecisionReport, LocalCheckResult
from .errors import AuditError, ComponentValidationError, InputDocumentError, echo
from .etale import (
    NONSPLIT,
    SPLIT,
    EtaleAlgebra,
    GeneralSpec,
    QuadSpec,
    build_component,
)
from .oracle import SearchResult
from .qform import QuadraticSpace, signature_hasse_bit


def parse_rational(value: Any, path: str) -> int | Fraction:
    """A rational from the wire format: an integer, returned as it is, or a
    string ``"p/q"``, returned as a ``Fraction``."""
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise InputDocumentError(path, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # ASCII digits only: Fraction alone also takes decimals, exponents,
        # spaces, underscores and other scripts' digits.
        if re.fullmatch(r"-?[0-9]+(/[0-9]+)?", value):
            try:
                return Fraction(value)
            except ZeroDivisionError:
                pass
            except ValueError:
                # The only other failure: a part past the interpreter's
                # digit limit for str -> int.
                raise InputDocumentError(path, "rational string too long") from None
        raise InputDocumentError(path, f"malformed rational string {echo(repr(value))}")
    raise InputDocumentError(
        path, f"expected an integer or 'p/q' string, got {type(value).__name__}"
    )


def render_rational(value: int | Fraction) -> int | str:
    """A rational as the wire format writes it: an ``int`` as it is, a
    ``Fraction`` as an integer or a reduced ``"p/q"`` string."""
    if type(value) is int:
        return value
    if value.denominator == 1:
        return int(value)
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise _digit_limit_error() from None


def _digit_limit_error() -> InputDocumentError:
    n = sys.get_int_max_str_digits()  # the interpreter's limit for int -> str
    return InputDocumentError("$", f"the report holds an integer over {n} digits long")


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
        raise InputDocumentError(path, f"unknown key(s): {echo(', '.join(unknown))}")


def _parse_rationals(values: list, path: str) -> tuple[int | Fraction, ...]:
    """The entries of the JSON array of rationals at ``path``.  An entry's
    own path is formatted only when that entry is rejected."""
    parsed = []
    for i, value in enumerate(values):
        if type(value) is not int:
            try:
                value = parse_rational(value, path)
            except InputDocumentError as exc:
                raise InputDocumentError(f"{path}[{i}]", exc.message) from None
        parsed.append(value)
    return tuple(parsed)


def _parse_poly(value: Any, path: str) -> PolyQ:
    coeffs = _expect_list(value, path)
    if not coeffs:
        raise InputDocumentError(path, "polynomial needs at least one coefficient")
    return PolyQ.of(_parse_rationals(coeffs, path))


class Problem:
    """A parsed, syntactically valid problem document.  The form's entries
    are kept as the wire gave them: an ``int`` for a JSON integer, a
    ``Fraction`` for a ``"p/q"`` string; ``build_inputs`` hands them to the
    math layer, which converts them."""

    def __init__(
        self,
        component_specs: tuple[QuadSpec | GeneralSpec, ...],
        diagonal: tuple[int | Fraction, ...] | None,
        gram: tuple[tuple[int | Fraction, ...], ...] | None,
        prime_bound: int,
        oracle_height: int,
        annotations: dict[tuple[int, int], str],
    ) -> None:
        self.component_specs = component_specs
        self.diagonal = diagonal
        self.gram = gram
        self.prime_bound = prime_bound
        self.oracle_height = oracle_height
        self.annotations = annotations


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
) -> tuple[
    tuple[int | Fraction, ...] | None, tuple[tuple[int | Fraction, ...], ...] | None
]:
    obj = _expect_object(value, path)
    _reject_unknown_keys(obj, {"diagonal", "gram"}, path)
    if ("diagonal" in obj) == ("gram" in obj):
        raise InputDocumentError(path, "exactly one of 'diagonal' or 'gram' required")
    if "diagonal" in obj:
        entries = _expect_list(obj["diagonal"], f"{path}.diagonal")
        if not entries:
            raise InputDocumentError(f"{path}.diagonal", "form must be nonempty")
        return _parse_rationals(entries, f"{path}.diagonal"), None
    rows = _expect_list(obj["gram"], f"{path}.gram")
    if not rows:
        raise InputDocumentError(f"{path}.gram", "form must be nonempty")
    gram = []
    for i, row in enumerate(rows):
        row_path = f"{path}.gram[{i}]"
        entries = _expect_list(row, row_path)
        if len(entries) != len(rows):
            raise InputDocumentError(row_path, "gram matrix must be square")
        gram.append(_parse_rationals(entries, row_path))
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
                f"{epath}.component", f"component index {echo(i)} out of range"
            )
        p = _expect_int(obj["prime"], f"{epath}.prime")
        if p < 2:
            raise InputDocumentError(f"{epath}.prime", "prime must be at least 2")
        status = obj["status"]
        if status not in (SPLIT.value, NONSPLIT.value):
            raise InputDocumentError(
                f"{epath}.status",
                f"status must be '{SPLIT.value}' or '{NONSPLIT.value}'",
            )
        if (i, p) in annotations:
            raise InputDocumentError(
                epath, f"duplicate annotation for component {i}, prime {echo(p)}"
            )
        annotations[(i, p)] = status
    return annotations


# The witness walk visits every prime up to the bound; see README "Limits".
MAX_PRIME_BOUND = 100_000


def check_option(key: str, value: Any) -> int:
    """The value of option ``key``, from the document or a flag, checked:
    ``prime_bound`` is between 2 and ``MAX_PRIME_BOUND`` and
    ``oracle_height`` is nonnegative."""
    path = f"$.options.{key}"
    value = _expect_int(value, path)
    if key == "prime_bound" and value < 2:
        raise InputDocumentError(path, "prime_bound must be at least 2")
    if key == "prime_bound" and value > MAX_PRIME_BOUND:
        raise InputDocumentError(
            path, f"prime_bound must be at most {MAX_PRIME_BOUND}"
        )
    if key == "oracle_height" and value < 0:
        raise InputDocumentError(path, "oracle_height must be nonnegative")
    return value


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

    options = {"prime_bound": DEFAULT_PRIME_BOUND, "oracle_height": 0}
    annotations: dict[tuple[int, int], str] = {}
    if "options" in obj:
        opts = _expect_object(obj["options"], "$.options")
        _reject_unknown_keys(opts, {*options, "annotations"}, "$.options")
        for key in options:
            if key in opts:
                options[key] = check_option(key, opts[key])
        if "annotations" in opts:
            annotations = _parse_annotations(
                opts["annotations"], "$.options.annotations", len(specs)
            )
    return Problem(
        component_specs=specs,
        diagonal=diagonal,
        gram=gram,
        annotations=annotations,
        **options,
    )


def build_inputs(problem: Problem) -> tuple[EtaleAlgebra, QuadraticSpace]:
    """Semantic validation: build each component once, then the algebra,
    which checks the annotations, and the quadratic space."""
    components = []
    for i, spec in enumerate(problem.component_specs):
        try:
            components.append(build_component(spec))
        except ComponentValidationError as exc:
            raise InputDocumentError(f"$.algebra[{i}]", str(exc)) from None
    try:
        algebra = EtaleAlgebra(tuple(components), problem.annotations)
    except ComponentValidationError as exc:
        raise InputDocumentError("$.options.annotations", str(exc)) from None
    try:
        if problem.diagonal is not None:
            form = QuadraticSpace.of(problem.diagonal)
        else:
            form = QuadraticSpace.from_gram(problem.gram or ())
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
                sorted(algebra.pairwise_det_support, key=Place.sort_key)
            ),
            "components": [
                {
                    "degree": c.degree,
                    "h": [render_rational(x) for x in c.h_coeffs()],
                    "disc": c.disc_class.rep,
                    "det": c.det_class.rep,
                    "real_profile": list(c.real_profile),
                    "exactness_gaps": sorted(c.exactness_gaps),
                }
                for c in algebra.components
            ],
        },
    }


def local_json(local: LocalCheckResult) -> dict:
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


def oracle_json(result: SearchResult) -> dict:
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


def render_report(
    problem: Problem, algebra: EtaleAlgebra, form: QuadraticSpace, sections: dict
) -> dict:
    """The report frame of every command: the tool, the input echo, the
    command's own ``sections`` in their order, then the invariants."""
    return {
        "tool": {"name": "torusembed", "version": __version__},
        "input": normalize_problem(problem),
        **sections,
        "invariants": _invariants_block(algebra, form),
    }


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
    sections = {
        "verdict": report.verdict,
        "bound": report.bound,
        "local": local_json(report.local),
        "bad_places": (
            None if report.bad_places is None else _places_json(report.bad_places)
        ),
        "baseline": baseline,
        "parity": None if report.parity is None else list(report.parity),
        "graph": graph,
        "fast_path": fast_path,
        "needed_annotations": _pairs_json(report.needed_annotations),
        "notes": list(report.notes),
    }
    # The decision report lists the oracle after the invariants.
    rendered = render_report(problem, algebra, form, sections)
    rendered["oracle"] = None if oracle_result is None else oracle_json(oracle_result)
    return rendered


def render_error(exc: InputDocumentError | AuditError) -> dict:
    """The error object that stands in for a document's report.  An audit
    failure concerns the whole document, so its path is ``$``."""
    if isinstance(exc, AuditError):
        return {"error": {"path": "$", "message": f"internal audit failure: {exc}"}}
    return {"error": {"path": exc.path, "message": exc.message}}


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def dump_json(payload: Any, newline: str = "\n") -> str:
    """``payload`` as ``json.dumps(payload, indent=2)`` prints it, byte for
    byte, without ``json``'s pure-Python indenting encoder.  ``newline``
    starts each further line: ``"\\n  "`` prints it as an item of a list.

    A report holds only dicts with str keys, lists, tuples, str, bool, int and
    None.  Anything else raises ``TypeError``: also a float, an int subclass
    other than bool and a non-str key, which ``json.dumps`` would accept.  An
    int past the digit limit raises ``InputDocumentError``."""
    out: list[str] = []
    try:
        _write_json(payload, newline, out)
    except ValueError:
        raise _digit_limit_error() from None
    return "".join(out)


def _write_json(value: Any, newline: str, out: list[str]) -> None:
    kind = type(value)
    if kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        # encode_basestring_ascii raises TypeError for a key that is no str.
        for key, item in value.items():
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                out.append(f"{sep}{encode_basestring_ascii(key)}: ")
                _write_json(item, inner, out)
            else:  # most values are scalars: write them without a call
                out.append(f"{sep}{encode_basestring_ascii(key)}: {scalar(item)}")
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        try:
            items = [_SCALARS[type(item)](item) for item in value]
        except KeyError:  # not all scalars
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _write_json(item, inner, out)
                sep = "," + inner
            out.append(newline + "]")
        else:
            out.append(f"[{inner}{(',' + inner).join(items)}{newline}]")
    elif kind in _SCALARS:
        out.append(_SCALARS[kind](value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
