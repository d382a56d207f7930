"""torusembed benchmark: one workload, one seed, one result line.

Usage, from the repository root:

    python3 bench/run.py --workload quad-batch --seed 1 --seconds 15 --trace 0

Generates the workload's documents from the seed (bench/corpus.py), then runs
them in a fresh child process (bench/worker.py) against the package in
``src/``.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced pass.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import clock
import corpus
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Operations generated per run.  A timed run wraps around its corpus when it
# is exhausted; a traced run makes exactly one pass over its corpus.
E2E_COUNT = {"quad-batch": 200, "number-fields": 1000, "big-integers": 400, "oracle-search": 400}
TRACE_COUNT = {"quad-batch": 80, "number-fields": 120, "big-integers": 48, "oracle-search": 64}

SETUP_SAMPLES = 20
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("docs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_seconds(samples: int) -> list[float]:
    """Wall times, at reference speed (clock.py), of fresh
    ``python -c "import torusembed.cli"`` processes.

    The wait blocks without a timeout, because ``subprocess`` polls a child
    that has a timeout with sleeps of up to 50 ms, which would quantize the
    measurement; a timer kills a child that hangs instead."""
    times = []
    # One CPU for this process and the children it starts while sampling,
    # so the calibration kernel runs where the import runs.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for _ in range(samples):
            times.append(_setup_sample())
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def _setup_sample() -> float:
    before = clock.calibrate()
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", "import torusembed.cli"], cwd=ROOT, env=_child_env()
    )
    watchdog = threading.Timer(60, child.kill)
    watchdog.start()
    try:
        code = child.wait()
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, child.args)
    return clock.scaled(wall, before, clock.calibrate())


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least 10 samples
    beyond it, i.e. the 11th-largest sample, at percentile 100*(n-10)/n."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_worker(manifest_path: Path, seconds: int, trace: int) -> dict:
    out = manifest_path.with_name("result.json")
    subprocess.run(
        [
            sys.executable,
            str(HERE / "worker.py"),
            "--manifest", str(manifest_path),
            "--root", str(ROOT),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--out", str(out),
        ],
        cwd=ROOT,
        env=_child_env(),
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return json.loads(out.read_text(encoding="utf-8"))


def end_to_end(result: dict, setup: list[float]) -> dict[str, float]:
    latencies, raw = result["latencies_s"], result["raw_latencies_s"]
    tail, percentile = tail_latency(latencies)
    cal = result["calibration_s"]
    print(
        f"latency_tail_ms is p{percentile:.2f} of {len(latencies)} operations; "
        f"setup_s is the median of {len(setup)} imports"
    )
    print(
        f"unscaled: {result['documents'] / sum(raw):.6g} docs/s, "
        f"p50 {statistics.median(raw) * 1000:.6g} ms, "
        f"tail {tail_latency(raw)[0] * 1000:.6g} ms; calibration fastest "
        f"{cal['fastest'] * 1000:.4f} ms, median {cal['median'] * 1000:.4f} ms, "
        f"reference {clock.REFERENCE_CALIBRATION_S * 1000:.4f} ms"
    )
    return {
        "docs_per_s": result["documents"] / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_tail_ms": tail * 1000.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def print_layer_shares(summary: dict[str, dict]) -> None:
    """Self-time share of each module, and the spans with the most time."""
    by_layer: dict[str, float] = {}
    for name, stats in summary.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + stats["self_ms"]
    total = sum(by_layer.values()) or 1.0
    shares = ", ".join(
        f"{layer} {100.0 * ms / total:.1f}%"
        for layer, ms in sorted(by_layer.items(), key=lambda kv: -kv[1])
    )
    print(f"self-time share by module: {shares}")
    top = sorted(summary.items(), key=lambda kv: -kv[1]["ms"])[:8]
    print("most time (ms): " + ", ".join(f"{name} {stats['ms']:.0f}" for name, stats in top))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "torusembed" / "cli.py").is_file():
        print(f"no torusembed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    goldens = corpus.load_goldens(ROOT)
    if not goldens:
        print(f"no golden reports under {ROOT / 'tests' / 'golden'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        count = (TRACE_COUNT if args.trace else E2E_COUNT)[args.workload]
        ops = corpus.generate(args.workload, args.seed, count, goldens)
        manifest = {
            "ops": corpus.write_corpus(ops, work / "docs"),
            "goldens": {g["name"]: g["report"] for g in goldens},
        }
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

        if args.trace:
            result = run_worker(manifest_path, args.seconds, 1)
            shutil.copyfile(
                work / "spans.tsv", ROOT / ".bench_work" / f"{args.workload}.spans.tsv"
            )
            print_layer_shares(result["summary"])
            units = dict(spans.PER_LAYER)
            values = result["per_layer"]
            if result["missing_targets"]:
                print("not found in the program: " + ", ".join(result["missing_targets"]))
        else:
            setup_seconds(2)  # compile and cache bytecode before sampling
            setup = setup_seconds(SETUP_SAMPLES // 2)
            result = run_worker(manifest_path, args.seconds, 0)
            setup += setup_seconds(SETUP_SAMPLES - len(setup))
            units = dict(END_TO_END)
            values = end_to_end(result, setup)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    print(f"verdicts: {json.dumps(result['verdicts'], sort_keys=True)}")
    print(f"fail_ratio = {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for why in result["failures"]:
        print(f"failed: {why}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
