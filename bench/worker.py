"""Run one workload's operations in this process and check every output.

One operation is one in-process ``torusembed.cli.main(["decide", path,
"--json"])`` call with standard output and error captured.  The load is a
closed loop with a single client and no think time.  Started by ``run.py``
as a fresh child process per workload; the result goes to ``--out``.

With ``--trace 0`` the loop runs for ``--seconds`` seconds of operation time
at reference speed (clock.py) and records the time of each operation.  With ``--trace 1`` it makes one untraced pass
and one traced pass over the whole corpus, so counts repeat exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import clock
import spans

VERDICT_EXIT = {
    "realizable": 0,
    "locally_fails": 1,
    "not_realizable_up_to_bound": 2,
    "inconclusive": 3,
}


def _check_report(report, expect: dict, goldens: dict[str, str]) -> str | None:
    """Why one decision report fails its expectations, or None."""
    if not isinstance(report, dict) or report.get("verdict") not in VERDICT_EXIT:
        return "report without a known verdict"
    verdict = report["verdict"]
    golden = expect.get("golden")
    if golden is not None:
        if json.dumps(report, indent=2) + "\n" != goldens[golden]:
            return f"report differs from golden {golden}"
        return None
    oracle = report.get("oracle") or {}
    if "candidates" in expect:
        if expect["planted"]:
            if verdict != "realizable" or oracle.get("found") is not True:
                return f"planted oracle form gave {verdict}, found={oracle.get('found')}"
        elif verdict != "locally_fails" or oracle.get("found") is not False:
            return f"discriminant-shifted form gave {verdict}, found={oracle.get('found')}"
    elif expect.get("planted") and verdict != "realizable":
        return f"planted quad-only form gave {verdict}"
    return None


def check_output(code, stdout: str, stderr: str, expect, goldens) -> str | None:
    """Why an operation failed, or None.  ``expect`` is a list for a batch."""
    if code not in (0, 1, 2, 3):
        return f"exit code {code}: {stderr.strip()[:200]}"
    if stderr:
        return f"unexpected standard error: {stderr.strip()[:200]}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "standard output is not JSON"
    if isinstance(expect, list):
        if not isinstance(payload, list) or len(payload) != len(expect):
            return "batch output does not match the batch"
        reports, expects = payload, expect
    else:
        if golden := expect.get("golden"):
            if stdout != goldens[golden]:
                return f"output differs from golden {golden}"
        reports, expects = [payload], [expect]
    for report, exp in zip(reports, expects):
        why = _check_report(report, exp, goldens)
        if why:
            return why
    if code != max(VERDICT_EXIT[r["verdict"]] for r in reports):
        return f"exit code {code} does not match the verdicts"
    return None


class Runner:
    """Runs operations, checks them, and remembers each output's digest so
    that every repeat of a document must be byte-identical.  Every run counts
    as attempted, warm-up and repeats included."""

    def __init__(self, cli, manifest: dict) -> None:
        self.cli = cli
        self.ops = manifest["ops"]
        self.goldens = manifest["goldens"]
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.verdicts: dict[str, int] = {}

    def run(self, k: int) -> tuple[float, int]:
        """Run operation k; return (seconds, documents)."""
        op = self.ops[k]
        out, err = io.StringIO(), io.StringIO()
        why = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(["decide", op["path"], "--json"])
        except Exception as exc:  # an operation that raises is a failed one
            code, why = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        stdout = out.getvalue()
        if why is None:
            why = check_output(code, stdout, err.getvalue(), op["expect"], self.goldens)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        first = k not in self.digests
        if why is None and self.digests.setdefault(k, digest) != digest:
            why = "output differs from an earlier run of the same document"
        self.attempted += 1
        if why is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op['path']}: {why}")
        elif first:
            payload = json.loads(stdout)
            for report in payload if isinstance(payload, list) else [payload]:
                self.verdicts[report["verdict"]] = self.verdicts.get(report["verdict"], 0) + 1
        docs = len(op["expect"]) if isinstance(op["expect"], list) else 1
        return elapsed, docs

    def full_pass(self) -> float:
        """Run every operation once; return the seconds at reference speed."""
        total = 0.0
        before = clock.calibrate()
        for k in range(len(self.ops)):
            elapsed, _ = self.run(k)
            after = clock.calibrate()
            total += clock.scaled(elapsed, before, after)
            before = after
        return total


def timed_loop(runner: Runner, seconds: float) -> dict:
    """Closed loop over the corpus (wrapping around) until the operations
    have taken ``seconds`` at reference speed (clock.py), or 1.5 times that
    in wall time; then repeat a few early operations to check determinism.

    The calibration kernel runs between operations, so each wall time is also
    given at reference speed.  Counting reference time keeps the number of
    operations, and so the percentile that ``latency_tail_ms`` reports, the
    same however fast the machine runs."""
    raw: list[float] = []
    latencies: list[float] = []
    calibrations: list[float] = []
    docs = 0
    runner.run(0)  # warm-up: first-call work outside the timed window
    before = clock.calibrate()
    deadline = time.perf_counter() + 1.5 * seconds
    k = 0
    measured = 0.0
    while measured < seconds and time.perf_counter() < deadline:
        elapsed, n = runner.run(k % len(runner.ops))
        after = clock.calibrate()
        raw.append(elapsed)
        latencies.append(clock.scaled(elapsed, before, after))
        measured += latencies[-1]
        calibrations.append(after)
        before = after
        docs += n
        k += 1
    for j in range(min(k, len(runner.ops), 8)):
        runner.run(j)
    return {
        "documents": docs,
        "raw_latencies_s": raw,
        "latencies_s": latencies,
        "calibration_s": {
            "fastest": min(calibrations),
            "median": statistics.median(calibrations),
        },
    }


def traced_passes(runner: Runner, spans_path: Path) -> dict:
    """One untraced and one traced full pass; per-layer metrics from the
    traced one.  The second pass also re-checks every output's bytes."""
    runner.run(0)  # warm-up: first-call work outside both passes
    plain_s = runner.full_pass()
    tracer = spans.Tracer()
    tracer.install()
    traced_s = runner.full_pass()
    summary = spans.summarize(tracer.spans)
    tracer.write(spans_path)
    ratio = plain_s / traced_s  # traced over untraced documents per second
    return {
        "missing_targets": tracer.missing,
        "summary": summary,
        "per_layer": spans.layer_metrics(summary, tracer.counters, ratio),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import torusembed.cli as cli

    src = (Path(args.root) / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"torusembed imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    runner = Runner(cli, manifest)
    if args.trace:
        result = traced_passes(runner, Path(args.manifest).with_name("spans.tsv"))
    else:
        result = timed_loop(runner, args.seconds)
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["failures"] = runner.failures
    result["verdicts"] = runner.verdicts
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
