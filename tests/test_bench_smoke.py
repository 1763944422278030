"""The benchmark harness on its tiny instances, so that it cannot rot."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_runs_every_workload_correctly():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert results, proc.stdout
    for result in results:
        assert result["correct"] is True, proc.stdout
        assert result["failed"] == 0, proc.stdout
