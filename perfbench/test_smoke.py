"""Smoke test of the benchmark: each workload at its small size, with
every output check, plus the traced run.  Not part of the repository's
test suite; run it from the root of the repository with

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(run_py, *args):
    return subprocess.run([sys.executable, str(run_py), *args],
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [
    ("cull", 0), ("sketch-solve", 0), ("cli", 0), ("cull", 1),
])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(HERE / "run.py", "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_sources():
    """A directory with only BENCHMARK.json and the benchmark's files."""
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = run_bench(bare / HERE.name / "run.py", "--workload", "cull", "--seconds", "1")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
