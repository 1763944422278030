"""The benchmark's own test: smoke mode on tiny instances.

Runs every CLI command, check and span of every workload in a few
seconds, so the harness cannot rot unnoticed:

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "0.1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
    for name in ("walk.norm_drift", "equivalence.max_entry_violation",
                 "equivalence.max_column_sum_deviation",
                 "equivalence.max_propagation_residual"):
        if trace:
            assert result["metrics"][name]["value"] <= 1e-10


def test_without_program_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOAD_NAMES[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert workloads.generate(name, 7).config \
        == workloads.generate(name, 7).config
    assert workloads.generate(name, 7).config \
        != workloads.generate(name, 8).config


def test_torus_neighbors_match_port_order():
    nbrs = workloads.torus_neighbors((3, 4))
    # vertex 0 = (0, 0): +x, -x, +y, -y
    assert nbrs[0] == (4, 8, 1, 3)


def test_move_check_rejects_a_non_edge_and_a_zero_probability():
    from qrwalk import build_sequence
    from layers import setup

    work = workloads.generate("torus-grover", 1, smoke=True)
    space, coin, shift, interaction, psi0 = setup(work.config)
    seq = build_sequence(space, coin, shift, psi0, work.horizon)
    v0 = work.config["initial_state"][0]["vertex"]
    step = np.array([[v0, work.neighbors[v0][0]]] * 2)
    ok, _ = checks.check_moves(step, seq, work)
    assert ok
    far = next(v for v in range(work.num_vertices)
               if v != v0 and v not in work.neighbors[v0])
    ok, detail = checks.check_moves(np.array([[v0, far]]), seq, work)
    assert not ok
    assert "1 non-edges" in detail and "1 zero-probability" in detail


def test_tvd_check_rejects_a_wrong_marginal():
    paths = np.zeros((1000, 2), dtype=np.int64)
    assert checks.check_tvd(paths, np.array([1.0, 0.0]))[0]
    assert not checks.check_tvd(paths, np.array([0.5, 0.5]))[0]


def test_compare_verdicts():
    parent = {s: 10.0 + 0.1 * s for s in range(10)}
    faster = {s: v * 0.7 for s, v in parent.items()}
    slower = {s: v * 1.5 for s, v in parent.items()}
    noisy = {s: 10.0 * (1 + s % 2) for s in range(10)}
    assert compare.verdict(parent, faster, 0.1, True).startswith("gain")
    assert compare.verdict(parent, slower, 0.1, True).startswith("regression")
    assert compare.verdict(parent, parent, 0.1, True).startswith("within")
    assert compare.verdict(noisy, noisy, 0.1, True).startswith("unresolved")
