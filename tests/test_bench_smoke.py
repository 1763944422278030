"""The benchmark harness on its tiny instances, so that it cannot rot."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".bench_runs"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_smoke_runs_every_workload_correctly(trace):
    # --trace 1 runs the layer mirror, which calls the persistence and
    # sampling functions directly; it leaves a spans file per workload
    before = set(RUNS_DIR.glob("*.spans.jsonl"))
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "all", "--seed",
             "1", "--seconds", "1", "--smoke", "--trace", trace],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
    finally:
        for path in set(RUNS_DIR.glob("*.spans.jsonl")) - before:
            path.unlink()
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert results, proc.stdout
    for result in results:
        assert result["correct"] is True, proc.stdout
        assert result["failed"] == 0, proc.stdout
