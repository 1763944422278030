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
the graph alone, and made on demand, so every state has a column; the
store and the text export hold the ratio columns only.

P(t) has one core. A sequence (:class:`TransitionMatrixSeq`) holds the
CSC arrays of all steps' stored columns end to end, as the store does,
under ascending keys ``t * S + u`` (state u of step t, S states); a lone
:class:`TransitionMatrix` is the one-step case, keyed by its column ids.
:func:`_check_columns` checks the arrays, :func:`_lookup` finds each
wanted key's column and merges in the uniform columns of the others, and
:func:`_propagate` sums ``P(t) rho(t)`` for every step in one pass.

One walk step (a block-diagonal coin, then a basis permutation) costs
time linear in the state dimension for bounded degree, and emitting one
matrix is linear in the number of arcs leaving its ratio columns, made
as one 2-d block per tuple of the walkers' degrees
(:func:`matrix_from_masses`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
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
#: The refusal of a malformed P(t), naming what a CSC matrix must be.
_NOT_CSC = ("P({}) is not a CSC matrix over {} states with ascending column "
            "ids, no empty columns and no stored zeros or non-finite values")
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
    it. The arrays are read-only. It is the one-step case of the core
    (module docstring); a source state outside ``0..S-1`` raises
    :class:`ValidationError`.
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
        _check_columns(np.array([0, self.col_ids.size]), *self._arrays,
                       self.num_states, self.time)

    @classmethod
    def _view(cls, time: int, graph: ProductGraph, col_ids: np.ndarray,
              indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
              column_sum_error: float) -> TransitionMatrix:
        """P(t) over read-only arrays that a :class:`TransitionMatrixSeq`
        has checked, made without checking them again."""
        mat = object.__new__(cls)
        vars(mat).update(time=time, graph=graph, col_ids=col_ids,
                         indptr=indptr, indices=indices, data=data,
                         column_sum_error=column_sum_error)
        return mat

    @property
    def num_states(self) -> int:
        return self.graph.num_states

    @property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        return self.col_ids, self.indptr, self.indices, self.data

    def find(self, states) -> tuple[TransitionMatrix, np.ndarray]:
        """A matrix with a column for each of ``states``, and the position
        of each state's column in its ``col_ids``: ``self`` when every state
        has a stored column, else a copy with the uniform columns of the
        others (:func:`_lookup`). The store never calls it."""
        own = self._arrays
        arrays, pos = _lookup(self.graph, own, states, self.num_states,
                              f"P({self.time})")
        if arrays is own:
            return self, pos
        # read-only arrays are kept by the constructor, not copied
        return TransitionMatrix(
            self.time, self.graph, *map(_readonly, arrays),
            column_sum_error=self.column_sum_error), pos

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
        _check_states(states, self.num_states, f"P({self.time})")
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
        mass above :data:`ZERO_PROB` only (:func:`_propagate`). A smaller,
        negative or NaN mass adds nothing, so this is ``P(t) @ rho`` only
        when every mass is 0 or above ``ZERO_PROB``.
        """
        rho = np.asarray(rho, dtype=np.float64)
        if rho.shape != (self.num_states,):
            raise ValidationError(f"distribution has shape {rho.shape}, "
                                  f"expected ({self.num_states},)")
        return _propagate(self.graph, self._arrays, rho, f"P({self.time})")


class TransitionMatrixSeq:
    """Matrices P(0..T-1) with the distribution sequence rho(0..T) over
    the states of ``graph``, a port graph being one walker on it, held in
    the layout of the store (:func:`~qrwalk.persist.save_sequence`).

    The CSC arrays of the stored (ratio) columns of all steps lie end to
    end: P(t) owns the columns ``step_ptr[t]`` to ``step_ptr[t + 1] - 1``,
    column j has the id ``col_ids[j]`` and the entries ``indptr[j]`` to
    ``indptr[j + 1] - 1`` of ``indices`` and ``data``, and ``indptr``
    spans all steps. The arrays are read-only, and :func:`_check_columns`
    checks them once. Each rho(t) must be a distribution: finite,
    non-negative, and summing to 1 within :data:`~qrwalk.walk.NORM_ATOL`.

    ``TransitionMatrixSeq(matrices, rho, graph)`` joins a list of P(t)
    once; :meth:`from_arrays` takes the arrays as they are.
    :attr:`matrices` views each step's slices as a
    :class:`TransitionMatrix`, made on first use and not checked again.
    """

    def __init__(self, matrices: Sequence[TransitionMatrix], rho,
                 graph: PortGraph | ProductGraph) -> None:
        graph = ProductGraph.of(graph)
        if any(m.graph != graph for m in matrices):
            raise ValidationError("the matrices live on a different graph")
        self._hold(rho, graph, *_joined([m._arrays for m in matrices]),
                   column_sum_errors=[m.column_sum_error for m in matrices])

    @classmethod
    def from_arrays(cls, rho, graph: PortGraph | ProductGraph,
                    step_ptr, col_ids, indptr, indices, data,
                    column_sum_errors: Sequence[float] | None = None
                    ) -> TransitionMatrixSeq:
        """The sequence of the store's arrays, kept as they are when they
        have the right types (read-only from then on), else copied. Each
        P(t) of :attr:`matrices` reports ``column_sum_errors[t]``, one per
        step (0.0 without them)."""
        seq = cls.__new__(cls)
        seq._hold(rho, ProductGraph.of(graph), step_ptr, col_ids, indptr,
                  indices, data, column_sum_errors=column_sum_errors)
        return seq

    def _hold(self, rho, graph: ProductGraph, *arrays,
              column_sum_errors) -> None:
        self.graph = graph
        (self.step_ptr, self.col_ids, self.indptr, self.indices,
         self.data) = arrays = [
            _readonly(np.array(a, dtype=dtype, ndmin=1, copy=None))
            for a, dtype in zip(arrays, [np.int64] * 4 + [np.float64])]
        _check_columns(*arrays, graph.num_states)
        errors = self._sum_errors = [0.0] * self.num_steps \
            if column_sum_errors is None else column_sum_errors
        if len(errors) != self.num_steps:
            raise ValidationError(f"{len(errors)} column sum errors for "
                                  f"{self.num_steps} steps")
        self.rho = np.asarray(rho, dtype=np.float64)
        shape = (self.num_steps + 1, graph.num_states)
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

    @cached_property
    def matrices(self) -> tuple[TransitionMatrix, ...]:
        """P(0..T-1), each a view of its step's slices of the checked
        arrays; only ``indptr`` is rebased to start at 0."""
        cut, ptr = self.step_ptr.tolist(), self.indptr
        views = []
        for t, (lo, hi) in enumerate(zip(cut[:-1], cut[1:])):
            a, b = int(ptr[lo]), int(ptr[hi])
            views.append(TransitionMatrix._view(
                t, self.graph, self.col_ids[lo:hi],
                _readonly(ptr[lo:hi + 1] - a), self.indices[a:b],
                self.data[a:b], self._sum_errors[t]))
        return tuple(views)

    @property
    def num_steps(self) -> int:
        return self.step_ptr.size - 1

    @property
    def num_states(self) -> int:
        return self.graph.num_states

    @property
    def num_walkers(self) -> int:
        return self.graph.num_walkers

    @property
    def num_base_vertices(self) -> int:
        return self.graph.base.num_vertices


def _joined(steps: Sequence[tuple[np.ndarray, ...]]) -> list[np.ndarray]:
    """The arrays ``step_ptr``, ``col_ids``, ``indptr`` (spanning all
    steps), ``indices`` and ``data`` of the steps' CSC arrays ``(col_ids,
    indptr, indices, data)``, end to end."""
    step_ptr = np.cumsum([0] + [ids.size for ids, *_ in steps],
                         dtype=np.int64)
    offsets = np.cumsum([0] + [data.size for *_, data in steps],
                        dtype=np.int64)
    indptr = np.concatenate([ptr[:-1] + off for (_, ptr, _, _), off
                             in zip(steps, offsets)] + [offsets[-1:]])
    ids, _, indices, data = (
        np.concatenate([np.empty(0, dtype)] + [step[i] for step in steps])
        for i, dtype in enumerate([np.int64] * 3 + [np.float64]))
    return [step_ptr, ids, indptr, indices, data]


def _check_columns(step_ptr: np.ndarray, col_ids: np.ndarray,
                   indptr: np.ndarray, indices: np.ndarray,
                   data: np.ndarray, num_states: int,
                   time: int | None = None) -> None:
    """Raise :class:`ValidationError` unless the joined CSC arrays split
    into steps by ``step_ptr``, each a CSC matrix (:data:`_NOT_CSC`) whose
    ids may fall where it begins. The error names the first failing P(t),
    t counted from ``time`` for a lone P(time), else from 0; a sequence
    calls a malformed ``step_ptr`` or ``indptr`` inconsistent step
    offsets. Each check is one pass over all steps; only a failure looks
    for its step."""
    cols = col_ids.size
    if not (step_ptr.size and step_ptr[0] == 0
            and (np.diff(step_ptr) >= 0).all() and step_ptr[-1] == cols
            and indptr.shape == (cols + 1,) and indptr[0] == 0
            and indptr[-1] == indices.size == data.size):
        raise ValidationError("inconsistent step offsets" if time is None
                              else _NOT_CSC.format(time, num_states))
    # ids may fall where a step begins: each pair of ids across a step
    # boundary, inside the columns, counts as rising
    rises = np.diff(col_ids) > 0
    rises[step_ptr[(step_ptr > 0) & (step_ptr < cols)] - 1] = True
    lengths = np.diff(indptr)
    in_range = [a.size == 0 or (a.min() >= 0 and a.max() < num_states)
                for a in (col_ids, indices)]
    if (all(in_range) and rises.all() and (lengths > 0).all()
            and (data != 0.0).all() and np.isfinite(data).all()):
        return
    steps = step_ptr.size - 1
    bad = (lengths <= 0) | (col_ids < 0) | (col_ids >= num_states)
    bad[1:] |= ~rises
    t = int(np.searchsorted(step_ptr, bad.argmax(), "right")) - 1 \
        if bad.any() else steps
    # the entries of the steps before t follow their columns' lengths
    bad = (indices < 0) | (indices >= num_states) | (data == 0.0) \
        | ~np.isfinite(data)
    e = int(bad.argmax()) if bad.any() else indices.size
    if e < (indices.size if t == steps else indptr[step_ptr[t]]):
        t = int(np.searchsorted(indptr[step_ptr[:t + 1]], e, "right")) - 1
    raise ValidationError(_NOT_CSC.format(t + (time or 0), num_states))


def _check_states(states: np.ndarray, size: int, name: str) -> None:
    """Raise :class:`ValidationError` naming the first of ``states``
    outside ``0..size-1``, the states of the matrices ``name`` names."""
    if states.size and (states.min() < 0 or states.max() >= size):
        bad = states[(states < 0) | (states >= size)][0]
        raise ValidationError(
            f"state {bad} is not one of the {size} states of {name}")


def _lookup(pg: ProductGraph, arrays: tuple, wanted, size: int,
            name: str) -> tuple[tuple, np.ndarray]:
    """The CSC arrays ``(keys, indptr, indices, data)`` with a column for
    each ``wanted`` key in ``0..size-1``, and each one's position: the
    stored ``arrays`` when they hold all, else with the uniform columns of
    the others merged in (:func:`_with_uniform`)."""
    wanted = np.asarray(wanted, dtype=np.int64)
    _check_states(wanted, size, name)
    keys = arrays[0]
    pos = np.searchsorted(keys, wanted)
    found = pos < keys.size
    found[found] = keys[pos[found]] == wanted[found]
    if found.all():
        return arrays, pos
    merged = _with_uniform(pg, arrays, np.unique(wanted[~found]), name)
    return merged, np.searchsorted(merged[0], wanted)


def _propagate(pg: ProductGraph, arrays: tuple, rho: np.ndarray,
               name: str) -> np.ndarray:
    """``P(t) rho(t)`` for every step t of :func:`_lookup`'s arrays, T * S
    masses end to end as in ``rho``: one ``np.bincount`` over (t, target)
    keys adds each step's entries in column order, from the sources with
    mass above :data:`ZERO_PROB` only; one with no stored column moves
    uniformly."""
    states = pg.num_states
    live = np.flatnonzero(rho > ZERO_PROB)
    (keys, indptr, indices, data), _ = _lookup(pg, arrays, live,
                                               rho.size, name)
    mass = rho[keys]
    lengths = np.diff(indptr)
    weights = np.repeat(np.where(mass > ZERO_PROB, mass, 0.0), lengths)
    weights *= data
    targets = np.repeat(keys - keys % states, lengths)
    targets += indices
    return np.bincount(targets, weights=weights, minlength=rho.size)


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
        return asdict(self) | {"passed": self.passed}

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
    for length in np.flatnonzero(np.bincount(lengths)[1:]) + 1:
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


def _with_uniform(pg: ProductGraph, arrays: tuple, new: np.ndarray,
                  name: str) -> tuple:
    """The CSC arrays ``(keys, indptr, indices, data)`` of :func:`_lookup`
    with the uniform columns of the ascending keys ``new``, none of them
    stored, merged in: targets in ascending joint index, each with the
    value ``1.0 / d``. The entries, of the matrices ``name`` names, are
    checked against the memory budget first."""
    keys, indptr, indices, data = arrays
    states = new % pg.num_states
    degrees = pg.out_degrees(states)
    size = int(degrees.sum()) + data.size
    check_budget(_arc_bytes(pg.num_walkers) * size,
                 f"the {size} entries of {name} with {new.size} uniform "
                 "columns")
    # the merged columns ascend by key: each new column lands after the
    # stored ones below it, and the entries follow their columns
    is_new = np.zeros(keys.size + new.size, dtype=bool)
    is_new[np.arange(new.size) + np.searchsorted(keys, new)] = True
    ids = np.empty(is_new.size, dtype=np.int64)
    lengths = np.empty_like(ids)
    ids[is_new], ids[~is_new] = new, keys
    lengths[is_new], lengths[~is_new] = degrees, np.diff(indptr)
    merged = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=merged[1:])
    entry_is_new = np.repeat(is_new, lengths)
    targets = np.empty(size, dtype=np.int64)
    (heads,) = _csc_order([(rows, block) for rows, _, block
                           in pg.arc_blocks(states)], degrees)
    targets[entry_is_new] = heads
    targets[~entry_is_new] = indices
    probs = np.empty(size)
    probs[entry_is_new] = np.repeat(1.0 / degrees, degrees)
    probs[~entry_is_new] = data
    return ids, merged, targets, probs


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
    arrays, error = _ratio_columns(pg, shifts, rho_t, p_next, time, axes)
    return TransitionMatrix(time, pg, *map(_readonly, arrays),
                            column_sum_error=error)


def _ratio_columns(pg: ProductGraph, shifts, rho_t: np.ndarray,
                   p_next: np.ndarray, time: int, axes: Sequence | None
                   ) -> tuple[list[np.ndarray], float]:
    """The CSC arrays ``(col_ids, indptr, indices, data)`` of
    :func:`matrix_from_masses` and its ``column_sum_error``, not yet
    checked as a :class:`TransitionMatrix`: :func:`build_sequence` checks
    all steps' arrays once, joined."""
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
    return [cols, indptr, targets, probs], float(dev.max(initial=0.0))


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
    each t; P(t)'s ratio columns come from rho(t) and the masses of
    psi(t + 1), read in the walk's spare buffer before the loop steps on.
    So no step makes an array over the whole joint basis but the walk's
    two state buffers. Once the loop has ended and its buffers are gone,
    the steps' columns are joined into the sequence's arrays and checked
    once (:class:`TransitionMatrixSeq`)."""
    pg = psi0.graph
    if ProductGraph.of(graph) != pg:
        raise ValidationError("graph does not match psi0")
    rhos, columns, errors = [], [], []
    for t, (masses, axes, rho) in enumerate(
            _light_cone(psi0, coin, shift, horizon, interaction)):
        if t:
            arrays, error = _ratio_columns(pg, shift, rhos[-1], masses,
                                           t - 1, axes)
            columns.append(arrays)
            errors.append(error)
        rhos.append(rho)
    masses = axes = None  # the last view of the walk's buffers
    joined = _joined(columns)
    columns.clear()  # one copy of P(t) from here on
    return TransitionMatrixSeq.from_arrays(np.stack(rhos), pg, *joined,
                                           column_sum_errors=errors)


def verify_theorem_properties(
    seq: TransitionMatrixSeq, tolerance: float = 1e-10
) -> PropertyReport:
    """Measure the three matrix properties over a built sequence.

    Reports worst-case residuals only and never raises. The builders
    check every column as they make it, so a sequence that fails here
    comes from a damaged store or a hand-built matrix.

    Each property is one pass over the sequence's joined arrays: the
    entry violation from the largest and the smallest entry, the column
    sums by :func:`_column_sums`, and the residuals of all steps by
    :func:`_residuals`. Each value has the bits a step-by-step pass
    gives, since each sum adds its step's entries in column order.
    """
    data = seq.data
    report = PropertyReport(num_steps=seq.num_steps, tolerance=tolerance,
                            columns_checked=int(seq.col_ids.size))
    if data.size:
        # subtracting 1 is monotone, so the largest x - 1 is max(x) - 1
        report.max_entry_violation = max(
            0.0, float(data.max()) - 1.0, -float(data.min()))
        report.max_column_sum_deviation = float(np.abs(
            _column_sums(seq.indptr, data) - 1.0).max())
    if seq.num_steps:
        residuals = _residuals(seq)
        report.max_propagation_residual = float(
            np.abs(residuals, out=residuals).max())
    return report


def _residuals(seq: TransitionMatrixSeq) -> np.ndarray:
    """``P(t) rho(t) - rho(t + 1)`` for every t, as one (T * S) array, by
    :func:`_propagate`. The sums, the mask of the sources with mass and
    the per-entry keys and weights are checked against the memory budget
    (:func:`~qrwalk.walk.check_budget`) first."""
    steps, states = seq.num_steps, seq.num_states
    check_budget(9 * steps * states + 24 * seq.data.size,
                 f"the propagation residuals of {steps} steps over "
                 f"{states} states")
    keys = np.repeat(np.arange(steps) * states, np.diff(seq.step_ptr)) \
        + seq.col_ids
    sums = _propagate(seq.graph, (keys, seq.indptr, seq.indices, seq.data),
                      seq.rho[:-1].reshape(-1), f"P(0..{steps - 1})")
    sums -= seq.rho[1:].reshape(-1)
    return sums
