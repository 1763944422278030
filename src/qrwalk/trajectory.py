"""Sampling walker trajectories from a transition-matrix sequence.

A trajectory starts from the initial vertex distribution and follows the
time-indexed columns of the sequence, so every sampled move is a graph
edge and the time-t marginal of the ensemble converges (law of large
numbers) to the walk's vertex distribution at t.

Randomness is fully determined by a master seed: ensembles split it into
per-trajectory streams (numpy ``SeedSequence.spawn``, PCG64 generators),
so parallel and serial sampling, or re-runs with the same seed, produce
identical ensembles. Each trajectory consumes exactly ``L + 1`` uniform
draws: one for the start vertex and one per step. The streams of an
ensemble are computed in batch with array arithmetic, equal bit for bit
to ``spawn`` plus ``default_rng``, and each step is drawn for the whole
ensemble at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .equivalence import TransitionMatrixSeq
from .errors import ValidationError
from .graphs import PortGraph, ProductGraph
from .walk import check_budget

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
# per-trajectory streams
# ---------------------------------------------------------------------------

_M32 = 0xFFFF_FFFF
#: numpy ``SeedSequence`` hash constants (NEP 19): pool mixing, state output
#: and the pool-word mix.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
#: The PCG64 LCG multiplier (O'Neill 2014), high and low 64-bit words.
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _uint32_words(x) -> list[int]:
    """``SeedSequence``'s coercion of entropy to 32-bit words: an integer
    least significant word first, a sequence element by element."""
    if isinstance(x, (int, np.integer)):
        x = int(x)
        words = [x & _M32]
        while x := x >> 32:
            words.append(x & _M32)
        return words
    return [w for v in x for w in _uint32_words(v)]


class _HashMix:
    """``SeedSequence``'s multiply-xorshift hash of uint32 arrays; its
    multiplier advances with every call, whatever the value."""

    def __init__(self, init: int, mult: int) -> None:
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _M32
        value = value * np.uint32(self.const)
        return value ^ value >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ r >> np.uint32(16)


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _lcg_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """``state * MULT + inc`` modulo 2**128 on (high, low) uint64 words."""
    # lo * MULT_LO in full from 32-bit halves; the cross terms only wrap
    a0, a1 = lo & _M32, lo >> 32
    b0, b1 = _PCG_MULT_LO & _M32, _PCG_MULT_LO >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    prod_hi = (a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
               + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI)
    return _add128(prod_hi, mid << 32 | p00 & _M32, inc_hi, inc_lo)


def _spawned_uniforms(ss: np.random.SeedSequence, size: int,
                      n: int) -> np.ndarray:
    """``(size, n)`` uniforms whose row k is ``default_rng(child).random(n)``
    for the k-th child ``ss.spawn(size)`` would return.

    The children, their PCG64 generators and the draws are computed for
    all rows at once with uint32/uint64 array arithmetic, step for step as
    numpy does it: the child's entropy pool (the parent's entropy padded
    to the pool size, its spawn key and the child number, mixed), its
    ``generate_state(4, uint64)``, PCG64 seeding (``pcg_setseq_128``
    srandom) and the XSL-RR output as ``(x >> 11) * 2**-53``. ``ss``
    itself is left as it is.
    """
    first = ss.n_children_spawned
    if first + size > 1 << 32:
        raise ValidationError(
            "child numbers of a seed sequence must stay below 2**32")
    run = _uint32_words(ss.entropy)
    run += [0] * (ss.pool_size - len(run))
    words = [np.array([w], dtype=np.uint32)
             for w in run + _uint32_words(ss.spawn_key)]
    words.append(np.arange(first, first + size).astype(np.uint32))
    # SeedSequence.mix_entropy; the padded entropy fills the pool
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:ss.pool_size]]
    for src in range(len(pool)):
        for dst in range(len(pool)):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[len(pool):]:
        for dst in range(len(pool)):
            pool[dst] = _mix(pool[dst], hashmix(w))
    # generate_state(4, uint64): little-endian pairs of 8 uint32 words
    hashmix = _HashMix(_INIT_B, _MULT_B)
    half = [hashmix(pool[i % len(pool)]).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = (half[i] | half[i + 1] << 32
                                        for i in range(0, 8, 2))
    # srandom: inc = 2 * stream + 1, state = step(inc + seed)
    inc_hi, inc_lo = inc_hi << 1 | inc_lo >> 63, inc_lo << 1 | 1
    hi, lo = _lcg_step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo),
                       inc_hi, inc_lo)
    out = np.empty((n, size))
    for row in out:
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR: the xor of the halves rotated right by the top six bits
        x, rot = hi ^ lo, hi >> 58
        row[:] = (x >> rot | x << (-rot & 63)) >> 11
    out *= 2.0 ** -53
    return out.T


# ---------------------------------------------------------------------------
# categorical draws
# ---------------------------------------------------------------------------

#: Largest (trajectories x max degree) block a scan draw gathers at once.
_BLOCK_ENTRIES = 1 << 20


def _scan_picks(data: np.ndarray, start: np.ndarray, deg: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """Port of each trajectory's column: how many of the column's
    ``np.cumsum`` entries are at or below its uniform, clamped to the last
    port; blocks of trajectories are padded with zeros to the largest
    degree.

    ``np.cumsum(axis=1)`` adds each row in order, so every row is
    bit-identical to the cumulative sum of its column alone; the padding
    repeats the column's total, which leaves the clamped count unchanged.
    """
    width = int(deg.max())
    ports = np.arange(width)
    rows = max(1, _BLOCK_ENTRIES // width)
    pick = np.empty_like(start)
    for lo in range(0, start.size, rows):
        s, d = start[lo:lo + rows, None], deg[lo:lo + rows, None]
        probs = np.where(ports < d, data.take(s + ports, mode="clip"), 0.0)
        below = (np.cumsum(probs, axis=1) <= u[lo:lo + rows, None]).sum(1)
        pick[lo:lo + rows] = np.minimum(below, d[:, 0] - 1)
    return pick


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


def _alias_picks(data: np.ndarray, start: np.ndarray, deg: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """Port of each trajectory's column by an alias draw, with one table
    per visited column."""
    cols, first, inv = np.unique(start, return_index=True,
                                 return_inverse=True)
    sizes = deg[first]
    tables = [_alias_table(data[s:s + d])
              for s, d in zip(cols.tolist(), sizes.tolist())]
    accept = np.concatenate([a for a, _ in tables])
    alias = np.concatenate([b for _, b in tables])
    x = u * deg
    i = np.minimum(x.astype(np.int64), deg - 1)
    at = (np.cumsum(sizes) - sizes)[inv] + i
    return np.where(x - i < accept[at], i, alias[at])


def _initial_pick(rho0: np.ndarray, uniforms) -> np.ndarray:
    support = np.flatnonzero(rho0 > 0.0)
    if support.size == 0:
        raise ValidationError("initial distribution has no support")
    idx = np.searchsorted(np.cumsum(rho0[support]), uniforms, side="right")
    return support[np.minimum(idx, support.size - 1)]


def _draw(seq: TransitionMatrixSeq, uniforms: np.ndarray,
          method: str) -> np.ndarray:
    """Paths of the trajectories whose uniforms are the rows of
    ``uniforms``: column 0 draws tau(0) from rho(0), column t + 1 the move
    out of tau(t) through P(t), for all trajectories at once."""
    if method not in ("scan", "alias"):
        raise ValidationError(f"unknown sampling method {method!r}")
    pick = _scan_picks if method == "scan" else _alias_picks
    paths = np.empty(uniforms.shape, dtype=np.int64)
    paths[:, 0] = _initial_pick(seq.rho[0], uniforms[:, 0])
    for t in range(uniforms.shape[1] - 1):
        mat, pos = seq.matrices[t].find(paths[:, t])
        start = mat.indptr[pos]
        deg = mat.indptr[pos + 1] - start
        paths[:, t + 1] = mat.indices[
            start + pick(mat.data, start, deg, uniforms[:, t + 1])]
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


def sample_trajectory(
    seq: TransitionMatrixSeq,
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    length: int | None = None,
    method: str = "scan",
) -> Trajectory:
    """Sample one path: tau(0) ~ rho(0), tau(t+1) ~ column tau(t) of P(t).

    The path uses the generator's next ``L + 1`` uniforms. A scan draw
    costs O(d(tau(t))) per step; ``method="alias"`` draws from a Walker
    alias table of the column instead.
    """
    length = _resolve_length(seq, length)
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    return Trajectory(_draw(seq, rng.random((1, length + 1)), method)[0])


def sample_ensemble(
    seq: TransitionMatrixSeq,
    size: int,
    master_seed: int | np.random.SeedSequence | None = None,
    length: int | None = None,
    method: str = "scan",
) -> TrajectoryEnsemble:
    """Sample ``size`` independent trajectories with split seeds.

    Trajectory ``i`` is the path :func:`sample_trajectory` draws from the
    i-th child ``SeedSequence.spawn`` would return, so it does not depend
    on the ensemble size or evaluation order. The children's streams are
    computed in batch, equal to ``spawn`` plus ``default_rng`` draw for
    draw, and each step is drawn for all trajectories at once. A passed
    ``SeedSequence`` is not advanced (numpy keeps its child counter
    read-only): sampling twice from one sequence gives the same ensemble,
    so pass distinct children for independent ensembles.

    The ``(size, L + 1)`` uniform and path buffers are checked against
    the memory budget (:func:`~qrwalk.walk.check_budget`) before anything
    is allocated. ``method`` is ``"scan"``, the draw the CLI uses, or
    ``"alias"``, which draws from a Walker alias table of each visited
    column.
    """
    if size < 1:
        raise ValidationError("ensemble size must be >= 1")
    length = _resolve_length(seq, length)
    check_budget(16 * size * (length + 1),
                 f"the uniforms and paths of {size} trajectories of length "
                 f"{length}")
    ss = master_seed if isinstance(master_seed, np.random.SeedSequence) \
        else np.random.SeedSequence(master_seed)
    paths = _draw(seq, _spawned_uniforms(ss, size, length + 1), method)
    first = ss.n_children_spawned
    seed_value = ss.entropy if isinstance(ss.entropy, int) else None
    return TrajectoryEnsemble(
        paths, num_states=seq.num_states, master_seed=seed_value,
        sub_seeds=tuple(range(first, first + size)), method=method,
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
    for child, size in zip(ss.spawn(len(list(ensemble_sizes))), ensemble_sizes):
        ens = sample_ensemble(seq, int(size), child, length=length)
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
