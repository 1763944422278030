"""Sampling walker trajectories from a transition-matrix sequence.

A trajectory starts from the initial vertex distribution and follows the
time-indexed columns of the sequence, so every sampled move is a graph
edge and the time-t marginal of the ensemble converges (law of large
numbers) to the walk's vertex distribution at t.

Randomness is fully determined by a master seed: ensembles split it into
per-trajectory streams (numpy ``SeedSequence.spawn``, PCG64 generators),
so parallel and serial sampling, or re-runs with the same seed, produce
identical ensembles. Each trajectory consumes exactly ``L + 1`` uniform
draws: one for the start vertex and one per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .equivalence import TransitionMatrix, TransitionMatrixSeq
from .errors import ConsistencyError, SamplingError, ValidationError
from .graphs import PortGraph, ProductGraph

__all__ = [
    "Trajectory",
    "TrajectoryEnsemble",
    "ConvergenceReport",
    "sample_trajectory",
    "sample_ensemble",
    "empirical_distribution",
    "total_variation",
    "convergence_report",
    "locality_fraction",
    "RNG_ALGORITHM",
]

RNG_ALGORITHM = "numpy-PCG64"


@dataclass(frozen=True)
class Trajectory:
    """One sampled vertex path tau(0..L)."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=np.int64)
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    def __len__(self) -> int:
        return int(self.vertices.size)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """M independent trajectories sampled under a single master seed."""

    paths: np.ndarray  # (M, L+1) state indices
    num_states: int
    master_seed: int | None = None
    sub_seeds: tuple[int, ...] = ()
    method: str = "scan"

    def __post_init__(self) -> None:
        p = np.asarray(self.paths, dtype=np.int64)
        p.flags.writeable = False
        object.__setattr__(self, "paths", p)

    @property
    def size(self) -> int:
        return int(self.paths.shape[0])

    @property
    def length(self) -> int:
        return int(self.paths.shape[1]) - 1

    def trajectory(self, i: int) -> Trajectory:
        return Trajectory(self.paths[i])


# ---------------------------------------------------------------------------
# categorical draws
# ---------------------------------------------------------------------------

def _scan_pick(cum: np.ndarray, u) -> np.ndarray:
    idx = np.searchsorted(cum, u, side="right")
    return np.minimum(idx, cum.size - 1)


def _alias_table(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker alias table (accept thresholds, alias indices)."""
    n = probs.size
    scaled = probs * n
    accept = np.ones(n)
    alias = np.arange(n)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s = small.pop()
        g = large.pop()
        accept[s] = scaled[s]
        alias[s] = g
        scaled[g] = scaled[g] - (1.0 - scaled[s])
        (small if scaled[g] < 1.0 else large).append(g)
    return accept, alias


def _alias_pick(accept: np.ndarray, alias: np.ndarray, u) -> np.ndarray:
    x = np.asarray(u) * accept.size
    i = np.minimum(x.astype(np.int64), accept.size - 1)
    frac = x - i
    return np.where(frac < accept[i], i, alias[i])


class _ColumnSampler:
    """Per-matrix cache of cumulative sums or alias tables."""

    def __init__(self, method: str) -> None:
        if method not in ("scan", "alias"):
            raise ValidationError(f"unknown sampling method {method!r}")
        self.method = method
        self._cache: dict[tuple[int, int], tuple] = {}

    def _column(self, mat: TransitionMatrix, u: int):
        key = (mat.time, u)
        hit = self._cache.get(key)
        if hit is None:
            try:
                targets, probs = mat.column(u)
            except ConsistencyError as exc:
                raise SamplingError(
                    f"{exc}; rebuild the sequence with full column "
                    "materialisation or a wider halo"
                ) from None
            if self.method == "scan":
                hit = (targets, np.cumsum(probs))
            else:
                hit = (targets, *_alias_table(probs))
            self._cache[key] = hit
        return hit

    def pick(self, mat: TransitionMatrix, u: int, uniforms) -> np.ndarray:
        col = self._column(mat, u)
        if self.method == "scan":
            targets, cum = col
            return targets[_scan_pick(cum, uniforms)]
        targets, accept, alias = col
        return targets[_alias_pick(accept, alias, uniforms)]


def _initial_pick(rho0: np.ndarray, uniforms) -> np.ndarray:
    support = np.flatnonzero(rho0 > 0.0)
    if support.size == 0:
        raise ValidationError("initial distribution has no support")
    cum = np.cumsum(rho0[support])
    return support[_scan_pick(cum, uniforms)]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _resolve_length(seq: TransitionMatrixSeq, length: int | None) -> int:
    if length is None:
        return seq.num_steps
    if length < 0 or length > seq.num_steps:
        raise ValidationError(
            f"length {length} not covered by a sequence of "
            f"{seq.num_steps} matrices"
        )
    return length


def sample_trajectory(
    seq: TransitionMatrixSeq,
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    length: int | None = None,
    method: str = "scan",
) -> Trajectory:
    """Sample one path: tau(0) ~ rho(0), tau(t+1) ~ column tau(t) of P(t).

    A linear scan over the sparse column costs O(d(tau(t))) per step;
    ``method="alias"`` swaps it for constant-time alias draws, worthwhile
    when many samples share large-degree columns.
    """
    length = _resolve_length(seq, length)
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    sampler = _ColumnSampler(method)
    path = np.empty(length + 1, dtype=np.int64)
    path[0] = _initial_pick(seq.rho[0], rng.random())
    for t in range(length):
        path[t + 1] = sampler.pick(seq.matrices[t], int(path[t]), rng.random())
    return Trajectory(path)


def sample_ensemble(
    seq: TransitionMatrixSeq,
    size: int,
    master_seed: int | np.random.SeedSequence | None = None,
    length: int | None = None,
    method: str = "scan",
) -> TrajectoryEnsemble:
    """Sample ``size`` independent trajectories with split seeds.

    Trajectory ``i`` is a pure function of the i-th spawned seed, so the
    ensemble content does not depend on evaluation order. The sampling is
    vectorised across trajectories per time step but consumes per-stream
    uniforms exactly like :func:`sample_trajectory`.
    """
    if size < 1:
        raise ValidationError("ensemble size must be >= 1")
    length = _resolve_length(seq, length)
    ss = master_seed if isinstance(master_seed, np.random.SeedSequence) \
        else np.random.SeedSequence(master_seed)
    children = ss.spawn(size)
    uniforms = np.empty((size, length + 1))
    for i, child in enumerate(children):
        uniforms[i] = np.random.default_rng(child).random(length + 1)

    sampler = _ColumnSampler(method)
    paths = np.empty((size, length + 1), dtype=np.int64)
    paths[:, 0] = _initial_pick(seq.rho[0], uniforms[:, 0])
    for t in range(length):
        cur = paths[:, t]
        for u in np.unique(cur):
            rows = np.flatnonzero(cur == u)
            paths[rows, t + 1] = sampler.pick(
                seq.matrices[t], int(u), uniforms[rows, t + 1]
            )
    seed_value = ss.entropy if isinstance(ss.entropy, int) else None
    return TrajectoryEnsemble(
        paths, num_states=seq.num_states, master_seed=seed_value,
        sub_seeds=tuple(c.spawn_key[-1] for c in children), method=method,
    )


# ---------------------------------------------------------------------------
# ensemble statistics
# ---------------------------------------------------------------------------

def empirical_distribution(ens: TrajectoryEnsemble, t: int) -> np.ndarray:
    """Fraction of trajectories visiting each state at instant t."""
    if not 0 <= t <= ens.length:
        raise IndexError(f"t={t} outside 0..{ens.length}")
    counts = np.bincount(ens.paths[:, t], minlength=ens.num_states)
    return counts / ens.size


def total_variation(p: Sequence[float], q: Sequence[float]) -> float:
    """Half the L1 distance between two probability vectors."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValidationError(
            f"distributions have different shapes {p.shape} vs {q.shape}"
        )
    return 0.5 * float(np.abs(p - q).sum())


@dataclass
class ConvergenceReport:
    """Total variation distance per (ensemble size, time)."""

    rows: list[tuple[int, int, float]] = field(default_factory=list)

    def tvd(self, size: int, t: int) -> float:
        for m, tt, d in self.rows:
            if m == size and tt == t:
                return d
        raise KeyError((size, t))

    def median_tvd(self, size: int) -> float:
        vals = [d for m, _, d in self.rows if m == size]
        if not vals:
            raise KeyError(size)
        return float(np.median(vals))


def convergence_report(
    seq: TransitionMatrixSeq,
    ensemble_sizes: Sequence[int],
    t_grid: Sequence[int],
    master_seed: int | np.random.SeedSequence | None = None,
    method: str = "scan",
) -> ConvergenceReport:
    """Tabulate TVD between ensemble marginals and the walk distribution.

    One independent ensemble is sampled per requested size (seeds split
    from the master); the distance is evaluated at each instant of the
    grid against the sequence's own rho(t).
    """
    t_grid = [int(t) for t in t_grid]
    for t in t_grid:
        if t < 0 or t > seq.num_steps:
            raise ValidationError(
                f"t={t} outside the sequence horizon {seq.num_steps}"
            )
    length = max(t_grid) if t_grid else 0
    ss = master_seed if isinstance(master_seed, np.random.SeedSequence) \
        else np.random.SeedSequence(master_seed)
    report = ConvergenceReport()
    for child, size in zip(ss.spawn(len(list(ensemble_sizes))), ensemble_sizes):
        ens = sample_ensemble(seq, int(size), child, length=length,
                              method=method)
        for t in t_grid:
            report.rows.append((
                int(size), t,
                total_variation(empirical_distribution(ens, t), seq.rho[t]),
            ))
    return report


def locality_fraction(
    ens: TrajectoryEnsemble, graph: PortGraph | ProductGraph
) -> float:
    """Fraction of consecutive pairs that are graph (tuple) edges."""
    if ens.length == 0:
        return 1.0
    return float(np.mean(graph.has_edges(ens.paths[:, :-1],
                                         ens.paths[:, 1:])))
