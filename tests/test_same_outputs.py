"""Smoke test of tools/same_outputs.py: a tree agrees with itself, and a tree
whose cli prints something else is caught at its first document."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"


def run_tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *args, "--count", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_same_outputs_src_against_itself():
    src = str(ROOT / "src")
    done = run_tool(src, src)
    assert done.returncode == 0, done.stdout + done.stderr
    # One document per workload at each of seeds 1 and 2, each run through
    # decide, local and invariants, plus two oracle runs on oracle-search,
    # the four runs (decide, local, invariants, oracle) of one
    # rational-component document, and the three (decide, local,
    # invariants) of one field-check, one factoring and one long-walk
    # document.
    assert done.stdout.strip() == "39 runs: identical stdout, stderr and exit codes"


def test_same_outputs_stops_at_the_first_difference(tmp_path):
    package = tmp_path / "torusembed"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv):\n    print('{}')\n    return 0\n")
    done = run_tool(str(ROOT / "src"), str(tmp_path))
    assert done.returncode == 1
    assert done.stdout.startswith("differs: decide quad-batch-1/00000.json: ")
