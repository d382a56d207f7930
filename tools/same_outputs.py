"""Check that two source trees give the same outputs on the benchmark corpus.

Usage, from the repository root:

    python3 tools/same_outputs.py OLD_SRC NEW_SRC [--count N]

Each ``*_SRC`` is a directory that holds the ``torusembed`` package (the
``src/`` of a checkout).  The documents of all four workloads are generated
by ``bench/corpus.py`` at seeds 1 and 2, ``bench/run.py``'s ``E2E_COUNT`` of
them per workload (at most N with ``--count``).  Every document is run through
``decide``, ``local`` and ``invariants``, and every ``oracle-search`` document
also through ``oracle``.  So do ``RATIONAL_COUNT`` documents generated here
(at most N with ``--count``), whose one ``general`` component has
denominators in f and theta, which no corpus document has; they also run
through ``oracle --height 2``, the height of their planted alpha, since only
they reach the oracle's sums with D != 1.  ``FIELD_CHECK_COUNT`` more
generated documents (at most N with ``--count``) reach the field check's
rejections, which no corpus document does, and ``FACTORING_COUNT`` more
(at most N with ``--count``) give the factoring stage entries that share
large primes, three-prime cofactors and squares of primes above 10^4, and
``LONG_WALK_COUNT`` more (at most N with ``--count``) walk every prime up to
a ``prime_bound`` of 2,000-20,000 with no witness, which no other document
does, each through ``decide``, ``local`` and ``invariants``: 13,316 runs in
all.  The runs keep the human summary, so standard error is compared too,
without its ``elapsed:`` timing line.  Each tree runs all of them in one child process,
as in-process ``torusembed.cli.main`` calls.  The tool exits 1 at the first run whose
stdout, stderr or exit code differs, and 0 when every run agrees.  It uses
only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.dont_write_bytecode = True  # leave bench/ as it is

import corpus  # noqa: E402
from run import E2E_COUNT  # noqa: E402

# Runs every argv of the JSON list in argv[1] and writes [code, stdout, stderr]
# triples to argv[2], stderr without its timing line, with the path of the cli
# module that ran them.
_CHILD = r"""
import contextlib, io, json, sys
from torusembed import cli
with open(sys.argv[1], encoding="utf-8") as fh:
    runs = json.load(fh)
out = []
for argv in runs:
    buf, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    lines = err.getvalue().splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith("elapsed: "))
    out.append([code, buf.getvalue(), kept])
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump({"module": cli.__file__, "runs": out}, fh)
"""


_PARTS = ("exit code", "stdout", "stderr")

RATIONAL_COUNT = 60


def rational_documents(count: int) -> list[tuple[dict, dict]]:
    """``count`` seeded documents, each one ``general`` component with
    denominators in f and theta, as (document, {}) operations.

    A field from ``corpus._general_component`` (deg f 2-5, integral) is
    rewritten in the generator y/a of F, so f(a*y)/a^m has denominators, and
    theta(a*y) is divided by the square b^2, so K does not change.  Odd
    documents carry the planted trace form of a random alpha, even ones a
    random diagonal form of the same rank.
    """
    rng = random.Random("rational-components")
    ops = []
    for k in range(count):
        m = 2 + k % 4
        f, theta = corpus._general_component(rng, m)
        a, b = rng.choice((2, 3)), rng.choice((2, 3, 5))
        f = [Fraction(c, a ** (m - i)) for i, c in enumerate(f)]
        theta = [Fraction(c * a**i, b * b) for i, c in enumerate(theta)]
        if k % 2:
            alpha = corpus._random_alpha(rng, m, 2)
            form = corpus._form(gram=corpus.trace_gram(f, theta, alpha))
        else:
            entries = [
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                for _ in range(2 * m)
            ]
            form = corpus._form(entries=entries)
        component = {
            "type": "general",
            "f": [corpus._rational(c) for c in f],
            "theta": [corpus._rational(c) for c in theta],
        }
        ops.append(({"algebra": [component], "form": form}, {}))
    return ops


FIELD_CHECK_COUNT = 40


def field_check_documents(count: int) -> list[tuple[dict, dict]]:
    """``count`` seeded documents, each one ``general`` component that the
    field check must judge, as (document, {}) operations.

    From a field ``(f, beta)`` of ``corpus._general_component`` (deg f 2-4),
    theta is beta^2 (a square: rejected), r * beta^2 for r in -1, 2, 3, 5
    (a square norm at even degree; accepted unless r is a square in F), or a
    rational r (it does not generate F: rejected).  Each carries a random
    diagonal form of rank 2 * deg f.
    """
    rng = random.Random("field-check")
    ops = []
    for k in range(count):
        m = 2 + (k // 6) % 3
        f, beta = corpus._general_component(rng, m)
        square = corpus._pmod_monic(corpus._pmul(beta, beta), f)
        kind = k % 6
        if kind == 5:
            theta = [rng.choice((-3, -1, 2, 3, 5))]
        else:
            r = (1, -1, 2, 3, 5)[kind]
            theta = [r * c for c in square]
        entries = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(2 * m)]
        component = corpus._general(f, theta)
        ops.append(({"algebra": [component], "form": corpus._form(entries=entries)}, {}))
    return ops


FACTORING_COUNT = 40


def factoring_documents(count: int) -> list[tuple[dict, dict]]:
    """``count`` seeded documents of 2-3 ``quad`` components whose form
    entries share large primes, as (document, {}) operations.

    Each document draws four primes of 5-7 digits, and each entry carries a
    cofactor built from them: three primes, the square of one, a square
    times another, or two.  So the entries share their large primes, and a
    cofactor above 10^8 can hold three primes or a square above 10^4, which
    no corpus document has.  Odd documents carry the planted trace form of a
    rational unit, entries 2a and -2ad per component as in ``big-integers``;
    even ones a diagonal form of signed fractions whose denominators hold
    the same primes.
    """
    rng = random.Random("factoring")
    ops = []
    for k in range(count):
        pool = [corpus._random_prime(rng, rng.choice((5, 6, 7))) for _ in range(4)]

        def cofactor() -> int:
            a, b, c = rng.sample(pool, 3)
            return rng.choice((a * b * c, a * a, a * a * b, a * b))

        ds: list[int] = []
        while len(ds) < 2 + k % 2:
            d = rng.choice((-1, 1)) * corpus._random_prime(rng, rng.choice((2, 5, 6)))
            if d not in ds:
                ds.append(d)
        entries: list[Fraction] = []
        for d in ds:
            if k % 2:
                alpha = rng.choice((-1, 1)) * rng.randint(1, 12) * cofactor()
                entries += [Fraction(2 * alpha), Fraction(-2 * alpha * d)]
            else:
                entries += [
                    Fraction(rng.choice((-1, 1)) * rng.randint(1, 30) * cofactor(),
                             rng.choice((1, 3, pool[0], pool[1] ** 2)))
                    for _ in range(2)
                ]
        doc = {"algebra": [corpus._quad(d) for d in ds], "form": corpus._form(entries)}
        ops.append((doc, {}))
    return ops


LONG_WALK_COUNT = 12
LONG_WALK_BOUNDS = (2000, 5000, 10000, 20000)


def long_walk_documents(count: int) -> list[tuple[dict, dict]]:
    """``count`` seeded documents of ``quad(d)`` beside one ``general``
    component whose pair no prime settles, as (document, {}) operations.

    With f = y^(2j) - d (j = 1, 2, 3 cycled, d in 2, 3, 5, 7) and theta =
    r * beta^2 (r in -1, 2, 3, 5, 7, not d), F contains sqrt(d), so every
    place of F above a good prime p with (d/p) = -1 has even degree, r is a
    square there, and the ``general`` component splits wherever ``quad(d)``
    does not.  r is not a square in F, whose one quadratic subfield is
    Q(sqrt(d)), so K is a field once beta^2 generates F: beta is drawn until
    beta^2 provably does and ``quad(d)`` is non-split at every gap prime, so
    the local checks never wait on an annotation and the walk reaches the
    document's ``prime_bound`` (``LONG_WALK_BOUNDS``, cycled).  The form is the planted
    trace form of a random alpha.  Odd documents also annotate the
    ``general`` component as split at 2 and at every gap prime; an
    annotation is taken as given, so these reach other verdicts.
    """
    rng = random.Random("long-walks")
    ops = []
    for k in range(count):
        j = 1 + k % 3
        while True:
            d = rng.choice((2, 3, 5, 7))
            r = rng.choice([r for r in (-1, 2, 3, 5, 7) if r != d])
            f = [-d] + [0] * (2 * j - 1) + [1]
            beta = [rng.randint(-2, 2) for _ in range(2 * j)]
            square = corpus._pmod_monic(corpus._pmul(beta, beta), f)
            theta = [r * c for c in square]
            gaps = corpus.gap_primes(f, theta)
            chi = [int(c) for c in corpus.charpoly(square, f)]
            if all(pow(d, (p - 1) // 2, p) != 1 for p in gaps) and (
                corpus.provably_irreducible(chi)
            ):
                break
        blocks = [
            corpus.trace_gram([-d, 1], [d], [rng.choice((-3, -2, -1, 1, 2, 3))]),
            corpus.trace_gram(f, theta, corpus._random_alpha(rng, 2 * j, 2)),
        ]
        options: dict = {"prime_bound": LONG_WALK_BOUNDS[k % len(LONG_WALK_BOUNDS)]}
        if k % 2:
            options["annotations"] = [
                {"component": 1, "prime": p, "status": "split"} for p in [2, *gaps]
            ]
        doc = {
            "algebra": [corpus._quad(d), corpus._general(f, theta)],
            "form": corpus._form(gram=corpus.block_diagonal(blocks)),
            "options": options,
        }
        ops.append((doc, {}))
    return ops


def corpus_runs(work: Path, count: int | None) -> list[list[str]]:
    """Write every generated document under ``work``; return the argv lists."""
    goldens = corpus.load_goldens(ROOT)
    runs = []
    for workload in corpus.WORKLOADS:
        n = E2E_COUNT[workload] if count is None else min(count, E2E_COUNT[workload])
        for seed in (1, 2):
            ops = corpus.generate(workload, seed, n, goldens)
            manifest = corpus.write_corpus(ops, work / f"{workload}-{seed}")
            for entry in manifest:
                for command in ("decide", "local", "invariants"):
                    runs.append([command, entry["path"]])
                if workload == "oracle-search":
                    runs.append(["oracle", entry["path"]])
    n = RATIONAL_COUNT if count is None else min(count, RATIONAL_COUNT)
    for entry in corpus.write_corpus(rational_documents(n), work / "rational"):
        for command in ("decide", "local", "invariants"):
            runs.append([command, entry["path"]])
        runs.append(["oracle", "--height", "2", entry["path"]])
    n = FIELD_CHECK_COUNT if count is None else min(count, FIELD_CHECK_COUNT)
    for entry in corpus.write_corpus(field_check_documents(n), work / "field-check"):
        for command in ("decide", "local", "invariants"):
            runs.append([command, entry["path"]])
    n = FACTORING_COUNT if count is None else min(count, FACTORING_COUNT)
    for entry in corpus.write_corpus(factoring_documents(n), work / "factoring"):
        for command in ("decide", "local", "invariants"):
            runs.append([command, entry["path"]])
    n = LONG_WALK_COUNT if count is None else min(count, LONG_WALK_COUNT)
    for entry in corpus.write_corpus(long_walk_documents(n), work / "long-walk"):
        for command in ("decide", "local", "invariants"):
            runs.append([command, entry["path"]])
    return runs


def run_side(src: Path, runs_file: Path, out_file: Path) -> list[list]:
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-c", _CHILD, str(runs_file), str(out_file)],
        env=env,
        check=True,
    )
    result = json.loads(out_file.read_text(encoding="utf-8"))
    module = Path(result["module"]).resolve()
    if src.resolve() not in module.parents:
        raise SystemExit(f"{src}: imported torusembed from {module} instead")
    return result["runs"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    ap.add_argument("--count", type=int, default=None, help="documents per workload")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        runs = corpus_runs(work / "docs", args.count)
        runs_file = work / "runs.json"
        runs_file.write_text(json.dumps(runs), encoding="utf-8")
        old = run_side(args.old_src, runs_file, work / "old.json")
        new = run_side(args.new_src, runs_file, work / "new.json")
        for argv_k, run_a, run_b in zip(runs, old, new, strict=True):
            if run_a != run_b:
                name = Path(argv_k[1]).relative_to(work / "docs")
                what = next(
                    w for w, a, b in zip(_PARTS, run_a, run_b, strict=True) if a != b
                )
                print(f"differs: {argv_k[0]} {name}: {what} ({run_a[0]} vs {run_b[0]})")
                return 1
    print(f"{len(runs)} runs: identical stdout, stderr and exit codes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
