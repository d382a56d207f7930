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
Every document takes one path: a shared prologue (parse, check the flag
overrides, build the inputs, check the oracle's cost), the command's own
work, and the report frame ``docio.render_report``.  The machine-readable
report goes to standard output; a short human summary and timing go to
standard error unless ``--json`` (or its alias ``--quiet``) is given.

Exit codes: decide maps verdicts to 0 (realizable), 1 (locally fails),
2 (not realizable up to the bound), 3 (inconclusive); local uses 0/1/3 for
pass/fail/indeterminate; oracle uses 0/1 for found/not found; 4 means a
malformed input document or a report integer too long to print, 64 a usage
error, and 70 an internal audit failure; 4 and 70 print an error object in
place of the report.  A batch exits with its maximum code, an empty one with 0.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from math import prod
from typing import Any

from .docio import (
    build_inputs,
    check_option,
    dump_json,
    local_json,
    oracle_json,
    parse_problem,
    render_decision_report,
    render_error,
    render_report,
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

# The most candidates an oracle search from the command line may enumerate.
# A search over H = height visits prod((2H+1)^(deg f_i) - 1) elements;
# search_realizing_element itself takes any height.
MAX_ORACLE_CANDIDATES = 10_000

_VERDICT_EXIT = {
    VERDICT_REALIZABLE: 0,
    VERDICT_LOCALLY_FAILS: 1,
    VERDICT_NOT_REALIZABLE_UP_TO_BOUND: 2,
    VERDICT_INCONCLUSIVE: 3,
}


def _read_text(path: str) -> str:
    """The bytes of the file, or of standard input for ``-``, as strict UTF-8."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except OSError as exc:
        raise InputDocumentError("$", f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputDocumentError("$", f"input is not UTF-8 (byte {exc.start})") from None


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


def _check_oracle_cost(algebra, height: int) -> None:
    """Reject a search height whose candidate count exceeds the limit."""
    count = prod((2 * height + 1) ** c.fixed_degree - 1 for c in algebra.components)
    if count > MAX_ORACLE_CANDIDATES:
        raise InputDocumentError(
            "$.options.oracle_height",
            f"oracle search over {count} candidates exceeds the limit of "
            f"{MAX_ORACLE_CANDIDATES}",
        )


def _prologue(doc: Any, args: argparse.Namespace) -> tuple:
    """Every command's first steps: parse the document, apply and check the
    flag overrides, build the inputs, and check the oracle's cost.  Returns
    ``(problem, algebra, form, bound, height)``."""
    problem = parse_problem(doc)
    bound = getattr(args, "bound", None)
    height = getattr(args, "height", 0)  # local and invariants search nothing
    bound = problem.prime_bound if bound is None else bound
    height = problem.oracle_height if height is None else height
    if args.command == "oracle" and height <= 0:
        raise InputDocumentError(
            "$.options.oracle_height",
            "oracle search needs a positive height (set --height or oracle_height)",
        )
    bound = check_option("prime_bound", bound)
    height = check_option("oracle_height", height)
    algebra, form = build_inputs(problem)
    _check_oracle_cost(algebra, height)
    return problem, algebra, form, bound, height


def _at(local) -> str:
    return "" if local.failing_place is None else f" at {local.failing_place}"


def _oracle_line(result) -> str:
    if result.found:
        return f"oracle: realizing element found (height {result.height})"
    return f"oracle: no element found up to height {result.height}"


def _decide_one(doc: Any, args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    problem, algebra, form, bound, height = _prologue(doc, args)
    report = decide(algebra, form, bound)
    local = report.local
    if report.verdict == VERDICT_LOCALLY_FAILS:
        text = f"locally_fails ({local.failing_condition} condition{_at(local)})"
    elif report.verdict == VERDICT_INCONCLUSIVE:
        text = "inconclusive; annotations needed: " + format_pairs(
            report.needed_annotations
        )
    elif report.verdict == VERDICT_NOT_REALIZABLE_UP_TO_BOUND:
        text = f"not_realizable_up_to_bound (bound {report.bound})"
    else:
        extra = f" (fast path: {report.fast_path})" if report.fast_path else ""
        text = f"realizable{extra}"
    summary = ["verdict: " + text]
    oracle_result = None
    if height > 0:
        oracle_result = search_realizing_element(algebra, form, height)
        if oracle_result.found and report.verdict != VERDICT_REALIZABLE:
            raise AuditError(
                "the element search found a realizing element but the "
                f"engine verdict is {report.verdict}"
            )
        summary.append(_oracle_line(oracle_result))
    rendered = render_decision_report(problem, algebra, form, report, oracle_result)
    return _VERDICT_EXIT[report.verdict], rendered, summary


def _local_one(doc: Any, args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    problem, algebra, form, _, _ = _prologue(doc, args)
    local = check_local(algebra, form)
    if local.passed:
        code, text = 0, "pass"
    elif local.failed:
        code, text = 1, f"fail ({local.failing_condition}{_at(local)})"
    else:
        code = 3
        text = "indeterminate; annotations needed: " + format_pairs(local.pending)
    rendered = render_report(problem, algebra, form, {"local": local_json(local)})
    return code, rendered, ["local checks: " + text]


def _invariants_one(doc: Any, args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    problem, algebra, form, _, _ = _prologue(doc, args)
    inv = form.invariants
    text = (
        f"form: dim {inv.dim}, det {inv.det.rep}, disc {inv.disc.rep}, "
        f"signature {inv.signature}; algebra: rank {algebra.rank}, "
        f"disc {algebra.disc_class.rep}"
    )
    return 0, render_report(problem, algebra, form, {}), [text]


def _oracle_one(doc: Any, args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    problem, algebra, form, _, height = _prologue(doc, args)
    result = search_realizing_element(algebra, form, height)
    rendered = render_report(problem, algebra, form, {"oracle": oracle_json(result)})
    return int(not result.found), rendered, [_oracle_line(result)]


_HANDLERS = {
    "decide": _decide_one,
    "local": _local_one,
    "invariants": _invariants_one,
    "oracle": _oracle_one,
}


class _Parser(argparse.ArgumentParser):
    """A usage error exits 64 (``EX_USAGE``), not argparse's 2, which is the
    ``not_realizable_up_to_bound`` verdict.  Subparsers take this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged.
    parser = _Parser(
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
            "--quiet",
            dest="quiet",
            action="store_true",
            help="machine output only (suppress the human summary)",
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
    chatty = not args.quiet
    started = time.perf_counter()
    try:
        documents, batch = _load_documents(args.path)
    except InputDocumentError as exc:
        print(dump_json(render_error(exc)))
        if chatty:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    codes: list[int] = []
    texts: list[str] = []
    newline = "\n  " if batch else "\n"  # a batch's reports are list items
    for k, doc in enumerate(documents):
        try:
            code, rendered, summary = handler(doc, args)
            text = dump_json(rendered, newline)
        except InputDocumentError as exc:
            code, text = EXIT_INPUT_ERROR, dump_json(render_error(exc), newline)
            summary = [f"error: {exc}"]
        except AuditError as exc:
            code, rendered = EXIT_AUDIT_ERROR, render_error(exc)
            text, summary = dump_json(rendered, newline), [rendered["error"]["message"]]
        codes.append(code)
        texts.append(text)
        if chatty:
            prefix = f"[{k}] " if batch else ""
            for line in summary:
                print(prefix + line, file=sys.stderr)

    if batch:
        print("[" + newline + ("," + newline).join(texts) + "\n]" if texts else "[]")
    else:
        print(texts[0])
    if chatty:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        print(f"elapsed: {elapsed_ms:.1f} ms", file=sys.stderr)
    return max(codes, default=0)


if __name__ == "__main__":
    sys.exit(main())
