"""Output checks (a)-(d), run after every timed interval has closed.

Each check returns ``(ok, detail)``; the caller counts it as one operation
of the run. The checks read the files the CLI wrote, and compare them with
facts the benchmark derived itself from the workload description.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from qrwalk import grover_torus_dp
from qrwalk.persist import load_sequence

from workloads import Workload

PRECISION = 1e-10
#: Probability that check (c) fails on a correct program.
TVD_FAILURE_PROB = 1e-6


def check_report(eq_dir: Path) -> tuple[bool, str]:
    """(a) ``report.json`` passed and every residual is within 1e-10."""
    report = json.loads((eq_dir / "report.json").read_text())
    residuals = {key: report[key] for key in (
        "max_entry_violation", "max_column_sum_deviation",
        "max_propagation_residual")}
    ok = bool(report["passed"]) and all(v <= PRECISION
                                        for v in residuals.values())
    return ok, f"passed={report['passed']} {residuals}"


def read_paths(sample_dir: Path, work: Workload) -> np.ndarray:
    """Trajectory table ``traj_id,t,vertex,...`` as an (M, L+1) array of
    state indices; a K-walker label ``u1|u2`` has walker 0 most
    significant."""
    rows = []
    with (sample_dir / "trajectories.csv").open(newline="") as fh:
        lines = (line for line in fh if not line.startswith("#"))
        for row in csv.DictReader(lines):
            index = 0
            for part in row["vertex"].split("|"):
                index = index * work.num_vertices + int(part)
            rows.append((int(row["traj_id"]), int(row["t"]), index))
    table = np.array(rows, dtype=np.int64)
    paths = np.full((work.ensemble_size, work.horizon + 1), -1,
                    dtype=np.int64)
    paths[table[:, 0], table[:, 1]] = table[:, 2]
    if (paths < 0).any():
        raise ValueError("trajectory table misses (traj_id, t) rows")
    return paths


def _is_edge(work: Workload, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    n = work.num_vertices
    keys = np.array(sorted(u * n + v for u, nbrs in enumerate(work.neighbors)
                           for v in nbrs), dtype=np.int64)
    ok = np.ones(src.shape, dtype=bool)
    for _ in range(work.walkers):
        pair = (src % n) * n + dst % n
        pos = np.minimum(np.searchsorted(keys, pair), keys.size - 1)
        ok &= keys[pos] == pair
        src, dst = src // n, dst // n
    return ok


def check_moves(paths: np.ndarray, seq, work: Workload) -> tuple[bool, str]:
    """(b) Every move is a (product-)graph edge with P(t)[v, u] > 0."""
    bad_edges = int((~_is_edge(work, paths[:, :-1], paths[:, 1:])).sum())
    bad_probs = 0
    states = seq.num_states
    unit = np.zeros(states)
    for t in range(paths.shape[1] - 1):
        mat = seq.matrices[t]
        moves = np.unique(paths[:, t] * states + paths[:, t + 1])
        sources, starts = np.unique(moves // states, return_index=True)
        for u, targets in zip(sources, np.split(moves % states, starts[1:])):
            # P(t) applied to the unit vector at u is column u of P(t).
            unit[u] = 1.0
            column = mat.apply(unit)
            unit[u] = 0.0
            bad_probs += int((column[targets] <= 0.0).sum())
    moves = paths.shape[0] * (paths.shape[1] - 1)
    return (bad_edges == 0 and bad_probs == 0,
            f"{moves} moves, {bad_edges} non-edges, "
            f"{bad_probs} zero-probability")


def tvd_bound(support: int, size: int) -> float:
    """Bound on the TVD between M samples' histogram and their law.

    ``E[TVD] <= sqrt(S / M) / 2`` over a support of S states (Cauchy-Schwarz
    on the per-state standard deviations), and the TVD moves by at most
    1/M per sample, so McDiarmid's inequality adds
    ``sqrt(ln(1/delta) / (2M))`` for failure probability ``delta``.
    """
    return (0.5 * math.sqrt(support / size)
            + math.sqrt(math.log(1.0 / TVD_FAILURE_PROB) / (2.0 * size)))


def final_tvd(paths: np.ndarray, rho_final: np.ndarray) -> float:
    counts = np.bincount(paths[:, -1], minlength=rho_final.size)
    return 0.5 * float(np.abs(counts / paths.shape[0] - rho_final).sum())


def check_tvd(paths: np.ndarray, rho_final: np.ndarray) -> tuple[bool, str]:
    """(c) The t = L marginal is within the statistical TVD bound."""
    tvd = final_tvd(paths, rho_final)
    bound = tvd_bound(int((rho_final > 0).sum()), paths.shape[0])
    return tvd <= bound, f"tvd={tvd:.4g} bound={bound:.4g}"


def check_torus_dp(rho: np.ndarray, work: Workload) -> tuple[bool, str]:
    """(d) The persisted rho(0..T) matches the Grover torus recursion."""
    states = grover_torus_dp(work.torus_dims, work.dp_initial, work.horizon)
    expected = np.stack([s.rho.sum(axis=1) for s in states])
    err = float(np.abs(expected - rho).max())
    return err <= PRECISION, f"max |rho - dp| = {err:.3g}"


def run_checks(work: Workload, eq_dir: Path,
               sample_dir: Path) -> dict[str, tuple[bool, str]]:
    """Run every check that applies to ``work``; a check that raises fails."""
    results: dict[str, tuple[bool, str]] = {}

    def attempt(name, fn, *args):
        try:
            results[name] = fn(*args)
        except Exception as exc:  # a broken output must fail, not crash
            results[name] = (False, f"{type(exc).__name__}: {exc}")

    attempt("a_report", check_report, eq_dir)
    try:
        seq = load_sequence(eq_dir)
        paths = read_paths(sample_dir, work)
    except Exception as exc:
        detail = f"cannot read outputs: {type(exc).__name__}: {exc}"
        for name in ("b_moves", "c_tvd") + (
                ("d_torus_dp",) if work.dp_initial is not None else ()):
            results[name] = (False, detail)
        return results
    attempt("b_moves", check_moves, paths, seq, work)
    attempt("c_tvd", check_tvd, paths, seq.rho[-1])
    if work.dp_initial is not None:
        attempt("d_torus_dp", check_torus_dp, seq.rho, work)
    return results
