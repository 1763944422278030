"""Non-homogeneous random-walk matrices equivalent to a coined walk.

Between two consecutive wavefunctions the vertex distribution evolves as
``rho(t+1) = P(t) rho(t)`` for the column-stochastic matrix

    p[v, u](t) = rho(v, c, t+1) / rho(u, t)   for rho(u, t) > 0, (u, v) an edge
    p[v, u](t) = 1 / d(u)                     for rho(u, t) = 0, (u, v) an edge
    p[v, u](t) = 0                            otherwise,

where ``c`` is the port of ``v`` fed by ``u`` under the shift actually in
use. Unitarity of the step operator makes every column a probability
distribution (entries bounded by the Cauchy-Schwarz inequality, sums equal
to the source vertex mass). The same construction runs on the product
graph of K >= 1 walkers, where states are vertex tuples.

P(t) stores only its ratio columns, the states with rho(u, t) above
:data:`ZERO_PROB`, for every K. Every other column is uniform, fixed by
the graph alone, and :meth:`TransitionMatrix.find` makes it for the
readers that need it (``column``, ``entry``, ``apply`` and the
sampler). So every state has a column. The store and the text export
hold the ratio columns only.

One walk step (a block-diagonal coin, then a basis permutation) costs
time linear in the state dimension for bounded degree, and emitting one
matrix is linear in the number of arcs leaving its ratio columns, made
as one 2-d block per tuple of the walkers' degrees
(:func:`matrix_from_masses`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConsistencyError, ValidationError
from .graphs import PortGraph, ProductGraph, _readonly
from .walk import (
    NORM_ATOL,
    CoinLike,
    InteractionLike,
    ShiftLike,
    WaveFunction,
    _light_cone,
    _per_walker,
    _slots,
    check_budget,
)

__all__ = [
    "TransitionMatrix",
    "TransitionMatrixSeq",
    "PropertyReport",
    "matrix_from_masses",
    "build_sequence",
    "verify_theorem_properties",
    "ZERO_PROB",
    "COLUMN_SUM_ERROR",
]


#: Vertex probabilities at or below this are treated as exactly zero when
#: choosing between the ratio and the uniform column convention.
ZERO_PROB = 1e-14
#: Column sums deviating from 1 by more than this raise instead of being
#: rescaled away; it signals non-unitary inputs.
COLUMN_SUM_ERROR = 1e-8
#: Bytes per move of the arrays :meth:`TransitionMatrix.draw` holds at once
#: for its pick, an upper bound: beyond the position map and the cumulative
#: sums, its tracemalloc peak was 48-54 bytes per move.
_PICK_BYTES = 56


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """One column-stochastic transition matrix P(t) over the states of
    ``graph``, its ratio columns stored in compressed sparse column (CSC)
    form.

    ``col_ids`` lists the stored source states in ascending order. Column
    ``col_ids[j]`` holds the targets ``indices[indptr[j]:indptr[j + 1]]``
    (ascending) with probabilities ``data[indptr[j]:indptr[j + 1]]``;
    entries that are exactly zero are not stored, and no stored column is
    empty. Every other state's column is uniform, ``1 / d(u)`` on its
    out-neighbours, and :meth:`find` makes it on demand. States are joint
    vertex-tuple indices of ``graph``, a port graph being one walker on
    it. The arrays are read-only.
    """

    time: int
    graph: ProductGraph
    col_ids: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    column_sum_error: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "graph", ProductGraph.of(self.graph))
        for name, dtype in (("col_ids", np.int64), ("indptr", np.int64),
                            ("indices", np.int64), ("data", np.float64)):
            arr = getattr(self, name)
            # a read-only array of the right type is kept as it is; any
            # other input is copied, so the caller cannot change the matrix
            if not (isinstance(arr, np.ndarray) and arr.dtype == dtype
                    and arr.ndim == 1 and not arr.flags.writeable):
                arr = _readonly(np.array(arr, dtype=dtype, ndmin=1))
            object.__setattr__(self, name, arr)
        ptr, n = self.indptr, self.num_states
        if not (ptr.shape == (self.col_ids.size + 1,) and ptr[0] == 0
                and ptr[-1] == self.indices.size == self.data.size
                and np.all(np.diff(ptr) > 0)
                and np.all(np.diff(self.col_ids) > 0)
                and all(a.size == 0 or (a.min() >= 0 and a.max() < n)
                        for a in (self.col_ids, self.indices))
                and np.all(self.data != 0.0)
                and np.isfinite(self.data).all()):
            raise ValidationError(
                f"P({self.time}) is not a CSC matrix over {n} states with "
                "ascending column ids, no empty columns and no stored zeros "
                "or non-finite values"
            )

    @property
    def num_states(self) -> int:
        return self.graph.num_states

    def find(self, states) -> tuple[TransitionMatrix, np.ndarray]:
        """A matrix with a column for each of ``states``, and the position
        of each state's column in its ``col_ids``.

        That matrix is ``self`` when every state has a stored column, else
        a copy that adds the uniform columns of the others: targets in
        ascending joint index, each with the value ``1.0 / d``. Its
        entries are checked against the memory budget
        (:func:`~qrwalk.walk.check_budget`) before anything is allocated.
        The store and the text export never call it: they hold the ratio
        columns only.
        """
        states = np.asarray(states, dtype=np.int64)
        pos = np.searchsorted(self.col_ids, states)
        found = pos < self.col_ids.size
        found[found] = self.col_ids[pos[found]] == states[found]
        if found.all():
            return self, pos
        pg = self.graph
        missing = np.zeros(pg.num_states, dtype=bool)
        missing[states[~found]] = True
        new = np.flatnonzero(missing)
        degrees = pg.out_degrees(new)
        size = int(degrees.sum()) + self.data.size
        check_budget(_arc_bytes(pg.num_walkers) * size,
                     f"the {size} entries of P({self.time}) with {new.size} "
                     "uniform columns")
        # the merged columns ascend by id: each new column lands after the
        # stored ones below it, and the entries follow their columns
        is_new = np.zeros(self.col_ids.size + new.size, dtype=bool)
        is_new[np.arange(new.size) + np.searchsorted(self.col_ids, new)] = True
        ids = np.empty(is_new.size, dtype=np.int64)
        lengths = np.empty_like(ids)
        ids[is_new], ids[~is_new] = new, self.col_ids
        lengths[is_new], lengths[~is_new] = degrees, np.diff(self.indptr)
        indptr = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        entry_is_new = np.repeat(is_new, lengths)
        targets = np.empty(size, dtype=np.int64)
        (heads,) = _csc_order([(rows, block) for rows, _, block
                               in pg.arc_blocks(new)], degrees)
        targets[entry_is_new] = heads
        targets[~entry_is_new] = self.indices
        probs = np.empty(size)
        probs[entry_is_new] = np.repeat(1.0 / degrees, degrees)
        probs[~entry_is_new] = self.data
        # read-only arrays are kept by the constructor, not copied
        mat = TransitionMatrix(
            self.time, pg, *map(_readonly, (ids, indptr, targets, probs)),
            column_sum_error=self.column_sum_error)
        return mat, np.searchsorted(mat.col_ids, states)

    def draw(self, states, uniforms) -> np.ndarray:
        """The move out of each of ``states`` for its uniform ``u`` in
        [0, 1): the target at port k of the state's column, k the count of
        the column's cumulative sums at or below ``u``, clamped to the last
        port d - 1.

        The cumulative sums of every column are made once per call, each
        bit for bit the ``np.cumsum`` of the column alone
        (:func:`_column_cumsums`). A dense position map finds each state's
        column, and ceil(log2 dmax) rounds of bisection over all states
        count its sums. Sums of non-negative entries never decrease, so
        the count, and with it every path, is that of a scan of each
        column on its own. A state without a stored column draws from its
        uniform column, which :meth:`find` makes only when some state
        lacks one. The position map, the sums and the pick's arrays are
        checked against the memory budget
        (:func:`~qrwalk.walk.check_budget`) before they are allocated.
        """
        states = np.asarray(states, dtype=np.int64)
        u = np.asarray(uniforms, dtype=np.float64)
        what = f"the draw of {states.size} moves through P({self.time})"
        check_budget(self._draw_bytes(states.size), what)
        pos = np.full(self.num_states, -1, dtype=np.int64)
        pos[self.col_ids] = np.arange(self.col_ids.size)
        j, mat = pos[states], self
        if (j < 0).any():
            mat, j = self.find(states)
            check_budget(mat._draw_bytes(states.size), what)
        cums = _column_cumsums(mat.indptr, mat.data)
        # ``at`` is the last sum known to be at or below u (none yet: the
        # entry before the column), ``end`` the last one searched, port d - 2
        at = mat.indptr[j] - 1
        end = mat.indptr[j + 1] - 2
        # the largest power of two not above the longest search, or 0
        step = 1 << int((end - at).max(initial=0)).bit_length() >> 1
        while step:
            probe = at + step
            at += step * ((probe <= end)
                          & (cums.take(probe, mode="clip") <= u))
            step >>= 1
        return mat.indices[at + 1]

    def _draw_bytes(self, size: int) -> int:
        """Bytes :meth:`draw` holds at once for ``size`` moves, an upper
        bound: 8 per state for the position map, 32 per entry for the sums
        and the blocks they are made from, :data:`_PICK_BYTES` per move."""
        return (8 * self.num_states + 32 * self.data.size
                + _PICK_BYTES * size)

    def column(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (targets, probabilities) views of source column u."""
        mat, (j,) = self.find([u])
        lo, hi = mat.indptr[j], mat.indptr[j + 1]
        return mat.indices[lo:hi], mat.data[lo:hi]

    def entry(self, v: int, u: int) -> float:
        targets, probs = self.column(u)
        pos = np.searchsorted(targets, v)
        if pos < targets.size and targets[pos] == v:
            return float(probs[pos])
        return 0.0

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Propagate a distribution: ``P(t) @ rho`` over the sources with
        mass above :data:`ZERO_PROB` only. A smaller, negative or NaN mass
        adds nothing, so this is ``P(t) @ rho`` only when every mass is 0
        or above ``ZERO_PROB``.
        """
        rho = np.asarray(rho, dtype=np.float64)
        if rho.shape != (self.num_states,):
            raise ValidationError(
                f"distribution has shape {rho.shape}, expected "
                f"({self.num_states},)"
            )
        mat, _ = self.find(np.flatnonzero(rho > ZERO_PROB))
        mass = rho[mat.col_ids]
        weights = np.repeat(np.where(mass > ZERO_PROB, mass, 0.0),
                            np.diff(mat.indptr)) * mat.data
        return np.bincount(mat.indices, weights=weights,
                           minlength=self.num_states)


@dataclass
class TransitionMatrixSeq:
    """Matrices P(0..T-1) with the distribution sequence rho(0..T) over
    the states of ``graph``, a port graph being one walker on it. Each
    rho(t) must be a distribution: finite, non-negative, and summing to 1
    within :data:`~qrwalk.walk.NORM_ATOL`."""

    matrices: list[TransitionMatrix]
    rho: np.ndarray  # (T+1, num_states)
    graph: ProductGraph

    def __post_init__(self) -> None:
        self.graph = ProductGraph.of(self.graph)
        self.rho = np.asarray(self.rho, dtype=np.float64)
        shape = (len(self.matrices) + 1, self.graph.num_states)
        if self.rho.shape != shape:
            raise ValidationError(
                f"rho has shape {self.rho.shape}, expected {shape}")
        if not np.isfinite(self.rho).all():
            raise ValidationError("rho holds a non-finite value")
        if (self.rho < 0.0).any():
            raise ValidationError("rho holds a negative mass")
        sums = self.rho.sum(axis=1)
        t = int(np.abs(sums - 1.0).argmax())
        if abs(sums[t] - 1.0) > NORM_ATOL:
            raise ValidationError(f"rho({t}) sums to {float(sums[t])!r}, "
                                  f"not 1 within {NORM_ATOL}")
        if any(m.graph != self.graph for m in self.matrices):
            raise ValidationError("the matrices live on a different graph")

    @property
    def num_steps(self) -> int:
        return len(self.matrices)

    @property
    def num_states(self) -> int:
        return self.graph.num_states

    @property
    def num_walkers(self) -> int:
        return self.graph.num_walkers

    @property
    def num_base_vertices(self) -> int:
        return self.graph.base.num_vertices


@dataclass
class PropertyReport:
    """Worst-case residuals of the three defining matrix properties.

    ``max_entry_violation`` measures how far any entry leaves [0, 1],
    ``max_column_sum_deviation`` how far any stored column sum is
    from 1, and ``max_propagation_residual`` the sup-norm of
    ``P(t) rho(t) - rho(t+1)`` over all steps. ``columns_checked``
    counts the stored (ratio) columns read; the uniform ones are exact by
    construction.
    """

    num_steps: int
    tolerance: float = 1e-10
    max_entry_violation: float = 0.0
    max_column_sum_deviation: float = 0.0
    max_propagation_residual: float = 0.0
    columns_checked: int = 0

    @property
    def passed(self) -> bool:
        return (
            self.max_entry_violation <= self.tolerance
            and self.max_column_sum_deviation <= self.tolerance
            and self.max_propagation_residual <= self.tolerance
        )

    def as_dict(self) -> dict:
        return {
            "num_steps": self.num_steps,
            "tolerance": self.tolerance,
            "max_entry_violation": self.max_entry_violation,
            "max_column_sum_deviation": self.max_column_sum_deviation,
            "max_propagation_residual": self.max_propagation_residual,
            "columns_checked": self.columns_checked,
            "passed": self.passed,
        }

    def __str__(self) -> str:
        d = self.as_dict()
        lines = [f"transition-matrix property report ({self.num_steps} steps, "
                 f"{self.columns_checked} columns)"]
        for key in ("max_entry_violation", "max_column_sum_deviation",
                    "max_propagation_residual"):
            ok = "ok" if d[key] <= self.tolerance else "VIOLATED"
            lines.append(f"  {key:28s} {d[key]:.3e}  [{ok}]")
        lines.append(f"  overall: {'pass' if self.passed else 'FAIL'} "
                     f"(tolerance {self.tolerance:g})")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _length_blocks(indptr: np.ndarray):
    """The non-empty CSC columns grouped by length: per length, the
    columns and the (columns x length) block of their entries' indices.
    Reducing a block along its rows rounds each row exactly like the
    column on its own."""
    lengths = np.diff(indptr)
    for length in np.unique(lengths[lengths > 0]):
        cols = np.flatnonzero(lengths == length)
        yield cols, indptr[cols, None] + np.arange(length)


def _column_sums(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Sum of every CSC column, as it sums on its own."""
    sums = np.zeros(indptr.size - 1)
    for cols, at in _length_blocks(indptr):
        sums[cols] = data[at].sum(axis=1)
    return sums


def _column_cumsums(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """``np.cumsum`` of every CSC column, entry by entry: each column is
    added in order from its first entry, bit for bit as on its own."""
    cums = np.empty_like(data)
    for _, at in _length_blocks(indptr):
        cums[at] = np.cumsum(data[at], axis=1)
    return cums


def _csc_order(blocks, lengths: np.ndarray) -> list[np.ndarray]:
    """The (m, L) arrays of the ``(rows, *arrays)`` blocks joined in
    column order: row j holds column ``rows[j]``'s L entries, column c has
    ``lengths[c]``. One block is only flattened."""
    if len(blocks) == 1:
        return [a.ravel() for a in blocks[0][1:]]
    starts = np.cumsum(lengths) - lengths
    out = [np.empty(int(lengths.sum()), dtype=a.dtype) for a in blocks[0][1:]]
    for rows, *arrays in blocks:
        at = starts[rows, None] + np.arange(arrays[0].shape[1])
        for whole, block in zip(out, arrays):
            whole[at] = block
    return out


def _arc_bytes(num_walkers: int) -> int:
    """Bytes per arc of the arc-wise arrays :func:`matrix_from_masses`
    holds at once, an upper bound: its tracemalloc peak was 44 and 82, 37
    and 60, and 27 and 45 bytes per arc for 1, 2 and 3 walkers, on a torus
    and on an irregular graph (several blocks, scattered). It also bounds
    :meth:`TransitionMatrix.find` per entry of the matrix it makes (29-73
    bytes)."""
    return 8 * (num_walkers + 11)


def matrix_from_masses(
    pg: ProductGraph,
    shifts: ShiftLike | Sequence[ShiftLike],
    rho_t: np.ndarray,
    p_next: np.ndarray,
    time: int = 0,
    axes: Sequence | None = None,
) -> TransitionMatrix:
    """The ratio columns of P(t), from the vertex (tuple) masses
    ``rho_t`` at t and the basis-state masses ``p_next`` at t + 1.

    ``p_next`` is over the whole joint basis, in basis order, or, with
    ``axes``, the box-local masses that the walk's light-cone loop
    (:func:`~qrwalk.walk._light_cone`) yields with them, of shape ``(a.size
    for a in axes)``. It is only read, so the loop's view of its spare
    buffer serves until the loop steps on.

    ``shifts`` is the shift of the step, shared or one per walker; a
    schedule ``t -> spec`` is resolved at ``time``. Each arc leaving a
    source with mass above :data:`ZERO_PROB` is pushed through it; the
    mass found there over the source mass is the entry for the arc's head
    tuple. Every shift is edge-local and the graph simple, so the arcs of
    one column reach distinct tuples and no entries merge. If a column's
    sum is off 1 by more than :data:`COLUMN_SUM_ERROR`, the lowest such
    column raises :class:`ConsistencyError` (the step was not unitary);
    otherwise every column is rescaled onto the simplex, and
    ``column_sum_error`` is the largest deviation. The other sources are
    not stored: their columns are uniform (:meth:`TransitionMatrix.find`).

    The sources whose walkers have the same degrees form one (m, L) block
    (:meth:`~qrwalk.graphs.ProductGraph.arc_blocks`), row j the arcs of
    its j-th source by ascending head tuple, their shifted basis indices
    and heads broadcast from each walker's head-sorted ports. The
    shifted indices, mapped to the slots of each walker's axis
    (:func:`~qrwalk.walk._slots`; the whole space is a box of whole axes
    in basis order) and composed over the box's shape, gather the masses
    at t + 1, which are divided and summed as a block; a row of a
    contiguous block sums with the bits of the column alone. A regular
    graph is one block, already in CSC order; several are scattered.

    The arc-wise arrays are checked against the memory budget
    (:func:`~qrwalk.walk.check_budget`) before they are allocated.
    """
    shifts = _per_walker(shifts, pg, time, "shift")
    if axes is None:
        axes, shape = [None] * pg.num_walkers, pg.basis_shape
    else:
        shape = [a.size for a in axes]
    p_next = np.ravel(p_next)
    cols = np.flatnonzero(rho_t > ZERO_PROB)
    degrees = pg.out_degrees(cols)
    num_arcs = int(degrees.sum())
    check_budget(_arc_bytes(pg.num_walkers) * num_arcs,
                 f"the {num_arcs} arcs leaving {cols.size} columns of "
                 f"P({time})")
    blocks, sums = [], np.empty(cols.size)
    for rows, ports, heads in pg.arc_blocks(cols):
        probs = p_next[pg.outer_index(
            [_slots(pg.base, a, s.permutation[p])
             for a, s, p in zip(axes, shifts, ports)], shape)]
        probs /= rho_t[cols[rows], None]
        # a row of a contiguous block sums as the column alone would
        sums[rows] = probs.sum(axis=1)
        blocks.append((rows, heads, probs))
    dev = np.abs(sums - 1.0)
    bad = np.flatnonzero(dev > COLUMN_SUM_ERROR)
    if bad.size:
        j = bad[0]
        raise ConsistencyError(
            f"column {pg.tuple_of(cols[j])} of P({time}) sums to "
            f"{float(sums[j])!r}; the step operator is not unitary"
        )

    # the blocks rescaled in place; exact zeros are dropped last
    counts = np.empty(cols.size, dtype=np.int64)
    for rows, _, probs in blocks:
        probs /= sums[rows, None]
        np.minimum(probs, 1.0, out=probs)
        counts[rows] = np.count_nonzero(probs, axis=1)
    targets, probs = _csc_order(blocks, degrees)
    keep = probs != 0.0
    if not keep.all():
        targets, probs = targets[keep], probs[keep]
    indptr = np.zeros(cols.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return TransitionMatrix(
        time, pg, *map(_readonly, (cols, indptr, targets, probs)),
        column_sum_error=float(dev.max(initial=0.0)))


def build_sequence(
    graph: PortGraph | ProductGraph,
    coin: CoinLike,
    shift: ShiftLike,
    psi0: WaveFunction,
    horizon: int,
    interaction: InteractionLike | None = None,
) -> TransitionMatrixSeq:
    """Evolve ``horizon`` steps and emit P(0..T-1) plus rho(0..T).
    ``graph`` is ``psi0``'s state space (a port graph: one walker).

    The walk's light-cone loop (:func:`~qrwalk.walk._light_cone`)
    yields the box-local masses of psi(t), the box's axes and rho(t) at
    each t; P(t) comes from rho(t) and the masses of psi(t + 1), read in
    the walk's spare buffer before the loop steps on. So no step makes
    an array over the whole joint basis but the walk's two state
    buffers."""
    pg = psi0.graph
    if ProductGraph.of(graph) != pg:
        raise ValidationError("graph does not match psi0")
    rhos, matrices = [], []
    for t, (masses, axes, rho) in enumerate(
            _light_cone(psi0, coin, shift, horizon, interaction)):
        if t:
            matrices.append(matrix_from_masses(pg, shift, rhos[-1], masses,
                                               time=t - 1, axes=axes))
        rhos.append(rho)
    return TransitionMatrixSeq(matrices, np.stack(rhos), pg)


def verify_theorem_properties(
    seq: TransitionMatrixSeq, tolerance: float = 1e-10
) -> PropertyReport:
    """Measure the three matrix properties over a built sequence.

    Reports worst-case residuals only and never raises. The builders
    check every column as they make it, so a sequence that fails here
    comes from a damaged store or a hand-built matrix.
    """
    report = PropertyReport(num_steps=seq.num_steps, tolerance=tolerance)
    for t, mat in enumerate(seq.matrices):
        report.max_entry_violation = max(
            report.max_entry_violation,
            float(np.max(np.maximum(mat.data - 1.0, -mat.data), initial=0.0)),
        )
        report.max_column_sum_deviation = max(
            report.max_column_sum_deviation,
            float(np.max(np.abs(_column_sums(mat.indptr, mat.data) - 1.0),
                         initial=0.0)),
        )
        report.columns_checked += int(mat.col_ids.size)
        residual = mat.apply(seq.rho[t]) - seq.rho[t + 1]
        report.max_propagation_residual = max(
            report.max_propagation_residual,
            float(np.max(np.abs(residual))) if residual.size else 0.0,
        )
    return report
