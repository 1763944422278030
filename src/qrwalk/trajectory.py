"""Sampling walker trajectories from a transition-matrix sequence.

A trajectory starts from the initial vertex distribution and follows the
time-indexed columns of the sequence, so every sampled move is a graph
edge and the time-t marginal of the ensemble converges (law of large
numbers) to the walk's vertex distribution at t.

Randomness is fully determined by a master seed, so re-runs with the same
seed produce identical ensembles. Each trajectory consumes exactly
``L + 1`` uniform draws: one for the start vertex and one per step. An
ensemble of M trajectories takes them from one PCG64 stream,
``default_rng(master_seed).random((M, L + 1))``: row i holds draws
``i * (L + 1)`` to ``(i + 1) * (L + 1) - 1`` of the stream, so trajectory i
does not depend on M, and ``Generator(PCG64(seed).advance(i * (L + 1)))``
draws it alone. It does depend on L. Each step is drawn for the whole
ensemble at once (:meth:`~qrwalk.equivalence.TransitionMatrix.draw`),
from the cumulative sums of P(t)'s columns made once per step, not once
per trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.random import default_rng

from .equivalence import TransitionMatrix, TransitionMatrixSeq
from .errors import ValidationError
from .graphs import PortGraph, ProductGraph
from .walk import check_budget

__all__ = [
    "TrajectoryEnsemble",
    "ConvergenceReport",
    "sample_ensemble",
    "empirical_distribution",
    "total_variation",
    "convergence_report",
    "locality_fraction",
    "RNG_ALGORITHM",
]

RNG_ALGORITHM = "numpy-PCG64"


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """M independent trajectories sampled under a single master seed;
    ``paths`` other than a 2-D integer array, or a state outside ``0 ..
    num_states - 1``, raises :class:`ValidationError`."""

    paths: np.ndarray  # (M, L+1) state indices
    num_states: int
    master_seed: int | None = None
    method: str = "scan"

    def __post_init__(self) -> None:
        p = np.asarray(self.paths)
        if p.ndim != 2 or p.dtype.kind not in "iu":
            raise ValidationError("paths must be a 2-D integer array, not "
                                  f"of shape {p.shape} and dtype {p.dtype}")
        p = p.astype(np.int64, copy=False)
        if p.size and not 0 <= p.min() <= p.max() < self.num_states:
            raise ValidationError(f"paths leave the {self.num_states} "
                                  "states of the space")
        p.flags.writeable = False
        object.__setattr__(self, "paths", p)

    @property
    def size(self) -> int:
        return int(self.paths.shape[0])

    @property
    def length(self) -> int:
        return int(self.paths.shape[1]) - 1


# ---------------------------------------------------------------------------
# categorical draws
# ---------------------------------------------------------------------------

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


def _alias_draw(mat: TransitionMatrix, states: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """The move out of each of ``states`` by an alias draw through ``mat``,
    with one table per visited column."""
    mat, pos = mat.find(states)
    start = mat.indptr[pos]
    deg = mat.indptr[pos + 1] - start
    cols, first, inv = np.unique(start, return_index=True,
                                 return_inverse=True)
    sizes = deg[first]
    tables = [_alias_table(mat.data[s:s + d])
              for s, d in zip(cols.tolist(), sizes.tolist())]
    accept = np.concatenate([a for a, _ in tables])
    alias = np.concatenate([b for _, b in tables])
    x = u * deg
    i = np.minimum(x.astype(np.int64), deg - 1)
    at = (np.cumsum(sizes) - sizes)[inv] + i
    return mat.indices[start + np.where(x - i < accept[at], i, alias[at])]


def _pick(rho: np.ndarray, uniforms) -> np.ndarray:
    """The state each of ``uniforms`` picks from the distribution ``rho``:
    the first state of its support whose cumulative mass exceeds the
    uniform, or the last one."""
    support = np.flatnonzero(rho > 0.0)
    if support.size == 0:
        raise ValidationError("a distribution to draw from has no support")
    idx = np.searchsorted(np.cumsum(rho[support]), uniforms, side="right")
    return support[np.minimum(idx, support.size - 1)]


def _draw(seq: TransitionMatrixSeq, uniforms: np.ndarray,
          method: str) -> np.ndarray:
    """Paths of the trajectories whose uniforms are the rows of
    ``uniforms``: column 0 draws tau(0) from rho(0), column t + 1 the move
    out of tau(t) through P(t), for all trajectories at once."""
    if method not in ("scan", "alias"):
        raise ValidationError(f"unknown sampling method {method!r}")
    paths = np.empty(uniforms.shape, dtype=np.int64)
    paths[:, 0] = _pick(seq.rho[0], uniforms[:, 0])
    for t, mat in enumerate(seq.matrices[:uniforms.shape[1] - 1]):
        states, u = paths[:, t], uniforms[:, t + 1]
        paths[:, t + 1] = (mat.draw(states, u) if method == "scan"
                           else _alias_draw(mat, states, u))
    return paths


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


def sample_ensemble(
    seq: TransitionMatrixSeq,
    size: int,
    master_seed: int | np.random.SeedSequence | None = None,
    length: int | None = None,
    method: str = "scan",
) -> TrajectoryEnsemble:
    """Sample ``size`` independent trajectories: tau(0) ~ rho(0),
    tau(t+1) ~ column tau(t) of P(t).

    The ``(size, L + 1)`` uniforms are ``default_rng(master_seed)``'s first
    ``size * (L + 1)`` draws in C order, so row ``i`` is draws
    ``i * (L + 1)`` to ``(i + 1) * (L + 1) - 1`` of one PCG64 stream:
    trajectory ``i`` does not depend on the ensemble size, is drawn alone
    by ``Generator(PCG64(master_seed).advance(i * (L + 1)))``, and changes
    with ``L``. Each step is drawn for all trajectories at once. A passed
    ``SeedSequence`` is not advanced: sampling twice from one sequence
    gives the same ensemble, so pass distinct children for independent
    ensembles. The ensemble records as ``master_seed`` the integer seed
    that redraws it, and None for a spawned child.

    The ``(size, L + 1)`` uniform and path buffers are checked against
    the memory budget (:func:`~qrwalk.walk.check_budget`) before anything
    is allocated. ``method`` is ``"scan"``, the draw the CLI uses, or
    ``"alias"``, which draws from a Walker alias table of each visited
    column. Scan draws each step by
    :meth:`~qrwalk.equivalence.TransitionMatrix.draw`, at
    O(S + nnz(P(t)) + M log2 dmax) per step for M trajectories over S
    states, not O(d) cumulative-sum work per trajectory.
    """
    if size < 1:
        raise ValidationError("ensemble size must be >= 1")
    length = _resolve_length(seq, length)
    check_budget(16 * size * (length + 1),
                 f"the uniforms and paths of {size} trajectories of length "
                 f"{length}")
    rng = default_rng(master_seed)
    paths = _draw(seq, rng.random((size, length + 1)), method)
    seed_seq = rng.bit_generator.seed_seq
    entropy = None if seed_seq.spawn_key else seed_seq.entropy
    return TrajectoryEnsemble(
        paths, num_states=seq.num_states,
        master_seed=entropy if isinstance(entropy, int) else None,
        method=method,
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
    sizes = [int(m) for m in ensemble_sizes]
    for child, size in zip(ss.spawn(len(sizes)), sizes):
        ens = sample_ensemble(seq, size, child, length=length)
        for t in t_grid:
            report.rows.append((
                size, t,
                total_variation(empirical_distribution(ens, t), seq.rho[t]),
            ))
    return report


def locality_fraction(
    ens: TrajectoryEnsemble, graph: PortGraph | ProductGraph
) -> float:
    """Fraction of consecutive pairs that are graph (tuple) edges.

    Each distinct move is looked up once
    (:meth:`~qrwalk.graphs.ProductGraph.distinct_moves`), in sorted order,
    and the counts of the moves that are edges are summed, which gives
    the float of the mean over all moves. When a move's key would
    overflow int64 (S**2 >= 2**63 states, only from a hand-made ensemble),
    the mean is taken over the moves one by one."""
    if ens.length == 0:
        return 1.0
    space = ProductGraph.of(graph)
    src, dst = ens.paths[:, :-1], ens.paths[:, 1:]
    moves = space.distinct_moves(src, dst)
    if moves is None:
        return float(np.mean(space.has_edges(src, dst)))
    src, dst, counts = moves
    return float(counts[space.has_edges(src, dst)].sum() / counts.sum())
