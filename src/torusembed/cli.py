"""Command-line interface.

Commands
--------
decide      run the full decision pipeline (optionally cross-checked by the
            element search when an oracle height is set)
local       run only the local realizability checks
invariants  print the invariants of the form and the algebra
oracle      run only the bounded element search
selftest    run the embedded consistency suites

Each command (except selftest) reads one JSON problem document, or an array
of documents for batch mode, from a file path or standard input (``-``).
The machine-readable report goes to standard output; a short human summary
and timing go to standard error unless ``--json`` or ``--quiet`` is given.

Exit codes: decide maps verdicts to 0 (realizable), 1 (locally fails),
2 (not realizable up to the bound), 3 (inconclusive); local uses 0/1/3 for
pass/fail/indeterminate; oracle uses 0/1 for found/not found; 4 means a
malformed input document and 70 an internal audit failure.  Both errors are
rendered in place of the document's report as an error object.  Batch mode
exits with the maximum code over the documents, and an empty batch with 0.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any

from .docio import (
    build_inputs,
    parse_problem,
    render_decision_report,
    render_error,
    render_invariants_report,
    render_local_report,
    render_oracle_report,
)
from .engine import (
    VERDICT_INCONCLUSIVE,
    VERDICT_LOCALLY_FAILS,
    VERDICT_NOT_REALIZABLE_UP_TO_BOUND,
    VERDICT_REALIZABLE,
    check_local,
    decide,
)
from .errors import AuditError, InputDocumentError, format_pairs
from .oracle import search_realizing_element

EXIT_INPUT_ERROR = 4
EXIT_AUDIT_ERROR = 70

_VERDICT_EXIT = {
    VERDICT_REALIZABLE: 0,
    VERDICT_LOCALLY_FAILS: 1,
    VERDICT_NOT_REALIZABLE_UP_TO_BOUND: 2,
    VERDICT_INCONCLUSIVE: 3,
}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputDocumentError("$", f"cannot read {path}: {exc.strerror}") from None


def _load_documents(path: str) -> tuple[list[Any], bool]:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputDocumentError("$", f"invalid JSON: {exc.msg} (line {exc.lineno})")
    except ValueError:
        # The decoder's only other ValueError: an integer literal longer than
        # the interpreter's digit limit.
        raise InputDocumentError(
            "$", "invalid JSON: integer literal too long"
        ) from None
    except RecursionError:
        raise InputDocumentError("$", "invalid JSON: nesting too deep") from None
    if isinstance(data, list):
        return data, True
    return [data], False


def _effective_bound(args: argparse.Namespace, problem) -> int:
    if args.bound is None:
        return problem.prime_bound
    if args.bound < 2:
        raise InputDocumentError(
            "$.options.prime_bound", "prime_bound must be at least 2"
        )
    return args.bound


def _effective_height(args: argparse.Namespace, problem) -> int:
    if args.height is None:
        return problem.oracle_height
    if args.height < 0:
        raise InputDocumentError(
            "$.options.oracle_height", "oracle_height must be nonnegative"
        )
    return args.height


def _decide_one(doc: Any, args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    problem = parse_problem(doc)
    bound = _effective_bound(args, problem)
    height = _effective_height(args, problem)
    algebra, form = build_inputs(problem)
    report = decide(algebra, form, bound)
    oracle_result = None
    summary = []
    if report.verdict == VERDICT_LOCALLY_FAILS:
        local = report.local
        where = (
            f" at {local.failing_place}" if local.failing_place is not None else ""
        )
        summary.append(
            f"verdict: locally_fails ({local.failing_condition} condition{where})"
        )
    elif report.verdict == VERDICT_INCONCLUSIVE:
        summary.append(
            "verdict: inconclusive; annotations needed: "
            + format_pairs(report.needed_annotations)
        )
    elif report.verdict == VERDICT_NOT_REALIZABLE_UP_TO_BOUND:
        summary.append(f"verdict: not_realizable_up_to_bound (bound {report.bound})")
    else:
        extra = f" (fast path: {report.fast_path})" if report.fast_path else ""
        summary.append(f"verdict: realizable{extra}")
    if height > 0:
        oracle_result = search_realizing_element(algebra, form, height)
        if oracle_result.found:
            if report.verdict != VERDICT_REALIZABLE:
                raise AuditError(
                    "the element search found a realizing element but the "
                    f"engine verdict is {report.verdict}"
                )
            summary.append(f"oracle: realizing element found (height {height})")
        else:
            summary.append(f"oracle: no element found up to height {height}")
    rendered = render_decision_report(problem, algebra, form, report, oracle_result)
    return _VERDICT_EXIT[report.verdict], rendered, summary


def _local_one(doc: Any, args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    problem = parse_problem(doc)
    algebra, form = build_inputs(problem)
    local = check_local(algebra, form)
    if local.passed:
        code, text = 0, "local checks: pass"
    elif local.failed:
        where = (
            f" at {local.failing_place}" if local.failing_place is not None else ""
        )
        code, text = 1, f"local checks: fail ({local.failing_condition}{where})"
    else:
        code = 3
        text = "local checks: indeterminate; annotations needed: " + format_pairs(
            local.pending
        )
    return code, render_local_report(problem, algebra, form, local), [text]


def _invariants_one(doc: Any, args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    problem = parse_problem(doc)
    algebra, form = build_inputs(problem)
    inv = form.invariants
    text = (
        f"form: dim {inv.dim}, det {inv.det.rep}, disc {inv.disc.rep}, "
        f"signature {inv.signature}; algebra: rank {algebra.rank}, "
        f"disc {algebra.disc_class.rep}"
    )
    return 0, render_invariants_report(problem, algebra, form), [text]


def _oracle_one(doc: Any, args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    problem = parse_problem(doc)
    height = args.height if args.height is not None else problem.oracle_height
    if height <= 0:
        raise InputDocumentError(
            "$.options.oracle_height",
            "oracle search needs a positive height (set --height or oracle_height)",
        )
    algebra, form = build_inputs(problem)
    result = search_realizing_element(algebra, form, height)
    if result.found:
        code, text = 0, f"oracle: realizing element found (height {height})"
    else:
        code, text = 1, f"oracle: no element found up to height {height}"
    return code, render_oracle_report(problem, algebra, form, result), [text]


_HANDLERS = {
    "decide": _decide_one,
    "local": _local_one,
    "invariants": _invariants_one,
    "oracle": _oracle_one,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusembed",
        description="Decide realizability of quadratic forms as trace forms "
        "of etale algebras with involution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "path",
            nargs="?",
            default="-",
            help="problem document path, or - for standard input (default)",
        )
        p.add_argument(
            "--json",
            action="store_true",
            help="machine output only (suppress the human summary)",
        )
        p.add_argument(
            "--quiet", action="store_true", help="suppress the human summary"
        )

    p_decide = sub.add_parser("decide", help="run the full decision pipeline")
    add_io_flags(p_decide)
    p_decide.add_argument(
        "--bound", type=int, help="witness search bound (overrides the document)"
    )
    p_decide.add_argument(
        "--height",
        type=int,
        help="oracle search height; 0 disables (overrides the document)",
    )

    p_local = sub.add_parser("local", help="run only the local checks")
    add_io_flags(p_local)

    p_inv = sub.add_parser("invariants", help="print form and algebra invariants")
    add_io_flags(p_inv)

    p_oracle = sub.add_parser("oracle", help="run only the element search")
    add_io_flags(p_oracle)
    p_oracle.add_argument(
        "--height", type=int, help="search height (overrides the document)"
    )

    p_self = sub.add_parser("selftest", help="run the embedded consistency suites")
    p_self.add_argument(
        "--quiet", action="store_true", help="suppress per-suite output"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "selftest":
        from .selftest import run_all

        return run_all(quiet=args.quiet)

    handler = _HANDLERS[args.command]
    chatty = not (args.json or args.quiet)
    started = time.perf_counter()
    try:
        documents, batch = _load_documents(args.path)
    except InputDocumentError as exc:
        print(json.dumps(render_error(exc), indent=2))
        if chatty:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    codes: list[int] = []
    outputs: list[dict] = []
    for k, doc in enumerate(documents):
        try:
            code, rendered, summary = handler(doc, args)
        except InputDocumentError as exc:
            code, rendered = EXIT_INPUT_ERROR, render_error(exc)
            summary = [f"error: {exc}"]
        except AuditError as exc:
            code, rendered = EXIT_AUDIT_ERROR, render_error(exc)
            summary = [rendered["error"]["message"]]
        codes.append(code)
        outputs.append(rendered)
        if chatty:
            prefix = f"[{k}] " if batch else ""
            for line in summary:
                print(prefix + line, file=sys.stderr)

    payload: Any = outputs if batch else outputs[0]
    print(json.dumps(payload, indent=2))
    if chatty:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        print(f"elapsed: {elapsed_ms:.1f} ms", file=sys.stderr)
    return max(codes, default=0)


if __name__ == "__main__":
    sys.exit(main())
