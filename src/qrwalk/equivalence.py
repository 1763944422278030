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

P(t) holds the columns of one rule. One walker gets every vertex: the
paper's full matrix, at a cost linear in the arcs. K > 1 walkers have
|V|^K tuples, so P(t) holds only R(t): R(0) = {rho(0) > 0} and R(t+1) =
{rho(t+1) > 0} with the targets of P(t). Every state a trajectory from
rho(0) can stand on, and every source ``P(t) rho(t)`` reads, is in R(t).

One walk step (a block-diagonal coin, then a basis permutation) costs
time linear in the state dimension for bounded degree, and emitting one
matrix is linear in the number of arcs leaving its materialised columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConsistencyError, ValidationError
from .graphs import PortGraph, ProductGraph
from .walk import (
    CoinLike,
    InteractionLike,
    ShiftLike,
    ShiftSpec,
    WaveFunction,
    _per_walker,
    check_budget,
    evolve,
    vertex_distribution,
)

__all__ = [
    "TransitionMatrix",
    "TransitionMatrixSeq",
    "PropertyReport",
    "build_multiwalker_matrix",
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


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """One column-stochastic transition matrix P(t) in compressed sparse
    column (CSC) form, over the source columns that were materialised.

    ``col_ids`` lists the materialised source states in ascending order.
    Column ``col_ids[j]`` holds the targets
    ``indices[indptr[j]:indptr[j + 1]]`` (ascending) with probabilities
    ``data[indptr[j]:indptr[j + 1]]``; entries that are exactly zero are
    not stored, and no materialised column is empty. A source state absent
    from ``col_ids`` was not built. For K-walker chains states are joint
    vertex-tuple indices, and only the columns the module's rule names are
    materialised. The arrays are read-only.
    """

    time: int
    num_states: int
    col_ids: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    column_sum_error: float = 0.0

    def __post_init__(self) -> None:
        for name, dtype in (("col_ids", np.int64), ("indptr", np.int64),
                            ("indices", np.int64), ("data", np.float64)):
            arr = np.array(getattr(self, name), dtype=dtype, ndmin=1)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        ptr, n = self.indptr, self.num_states
        if not (ptr.shape == (self.col_ids.size + 1,) and ptr[0] == 0
                and ptr[-1] == self.indices.size == self.data.size
                and np.all(np.diff(ptr) > 0)
                and np.all(np.diff(self.col_ids) > 0)
                and all(a.size == 0 or (a.min() >= 0 and a.max() < n)
                        for a in (self.col_ids, self.indices))
                and np.all(self.data != 0.0)):
            raise ValidationError(
                f"P({self.time}) is not a CSC matrix over {n} states with "
                "ascending column ids, no empty columns and no stored zeros"
            )

    @property
    def sources(self) -> np.ndarray:
        """Source state of every stored entry."""
        return np.repeat(self.col_ids, np.diff(self.indptr))

    def column(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (targets, probabilities) views of source column u."""
        j = int(np.searchsorted(self.col_ids, u))
        if j == self.col_ids.size or self.col_ids[j] != u:
            raise ConsistencyError(
                f"column {u} of P({self.time}) was not materialised"
            )
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def entry(self, v: int, u: int) -> float:
        targets, probs = self.column(u)
        pos = np.searchsorted(targets, v)
        if pos < targets.size and targets[pos] == v:
            return float(probs[pos])
        return 0.0

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Propagate a distribution: returns P(t) @ rho.

        Sources with mass at or below :data:`ZERO_PROB` are skipped (their
        entries get weight zero, which adds nothing); every other source
        must have a materialised column.
        """
        rho = np.asarray(rho, dtype=np.float64)
        if rho.shape != (self.num_states,):
            raise ValidationError(
                f"distribution has shape {rho.shape}, expected "
                f"({self.num_states},)"
            )
        live = np.flatnonzero(rho > ZERO_PROB)
        built = np.isin(live, self.col_ids, assume_unique=True)
        if not built.all():
            self.column(int(live[~built][0]))  # raises ConsistencyError
        mass = rho[self.col_ids]
        weights = np.repeat(np.where(mass > ZERO_PROB, mass, 0.0),
                            np.diff(self.indptr)) * self.data
        return np.bincount(self.indices, weights=weights,
                           minlength=self.num_states)

    def toarray(self) -> np.ndarray:
        """Dense (num_states x num_states) array; missing columns are zero.
        Its ``8 * num_states**2`` bytes are checked against the memory
        budget first."""
        n = self.num_states
        check_budget(8 * n * n, f"a dense P({self.time}) over {n} states")
        a = np.zeros((n, n))
        a[self.indices, self.sources] = self.data
        return a


@dataclass
class TransitionMatrixSeq:
    """Matrices P(0..T-1) with the distribution sequence rho(0..T).

    The states are the ``num_walkers``-tuples of ``num_base_vertices``
    vertices, which defaults to the K-th root of the state count.
    """

    matrices: list[TransitionMatrix]
    rho: np.ndarray  # (T+1, num_states)
    num_walkers: int = 1
    num_base_vertices: int | None = None

    def __post_init__(self) -> None:
        self.rho = np.asarray(self.rho, dtype=np.float64)
        if self.rho.ndim != 2 or self.rho.shape[0] != len(self.matrices) + 1:
            raise ValidationError(
                f"rho has shape {self.rho.shape}, expected "
                f"({len(self.matrices) + 1}, num_states)"
            )
        self.num_base_vertices = ProductGraph.base_size(
            self.rho.shape[1], self.num_walkers, self.num_base_vertices)

    @property
    def num_steps(self) -> int:
        return len(self.matrices)

    @property
    def num_states(self) -> int:
        return int(self.rho.shape[1])


@dataclass
class PropertyReport:
    """Worst-case residuals of the three defining matrix properties.

    ``max_entry_violation`` measures how far any entry leaves [0, 1],
    ``max_column_sum_deviation`` how far any materialised column sum is
    from 1, and ``max_propagation_residual`` the sup-norm of
    ``P(t) rho(t) - rho(t+1)`` over all steps.
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

def _column_sums(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Sum of every CSC column.

    Columns are grouped by length and each group is summed as one
    (columns x length) block along its rows, which rounds exactly like
    summing each column on its own.
    """
    lengths = np.diff(indptr)
    sums = np.zeros(lengths.size)
    for length in np.unique(lengths[lengths > 0]):
        cols = np.flatnonzero(lengths == length)
        block = data[indptr[cols, None] + np.arange(length)]
        sums[cols] = block.sum(axis=1)
    return sums


def _arc_bytes(num_walkers: int) -> int:
    """Bytes per arc of the arc-wise arrays :func:`matrix_from_masses`
    holds at once, an upper bound: with every column on the ratio rule its
    tracemalloc peak was 83-93, 85-87 and 91-92 bytes per arc for 1, 2
    and 3 walkers, on tori and on irregular graphs."""
    return 8 * (num_walkers + 11)


def matrix_from_masses(
    pg: ProductGraph,
    shifts: ShiftLike | Sequence[ShiftLike],
    rho_t: np.ndarray,
    p_next: np.ndarray,
    wanted: np.ndarray,
    time: int = 0,
) -> TransitionMatrix:
    """Columns ``wanted`` of P(t) from the vertex (tuple) masses ``rho_t``
    at t and the basis-state masses ``p_next`` at t + 1.

    ``shifts`` is the shift of the step, shared or one per walker; a
    schedule ``t -> spec`` is resolved at ``time``. Each arc
    leaving a source with mass above :data:`ZERO_PROB` is pushed through
    it; the mass found there over the source mass is the entry for the
    arc's head tuple. Other sources get ``1/d`` on their product
    out-neighbours. Every shift is edge-local and the graph simple, so the
    arcs of one column reach distinct tuples and no entries merge. A ratio
    column whose sum is off 1 by more than :data:`COLUMN_SUM_ERROR` raises
    :class:`ConsistencyError` (the step was not unitary); the rest are
    rescaled onto the simplex.

    The arc-wise arrays are checked against the memory budget
    (:func:`~qrwalk.walk.check_budget`) before they are allocated.
    """
    base, k = pg.base, pg.num_walkers
    shifts = _per_walker(shifts, pg, time, "shift")
    wanted = np.asarray(wanted, dtype=np.int64)
    num_arcs = int(pg.out_degrees(wanted).sum())
    check_budget(_arc_bytes(k) * num_arcs,
                 f"the {num_arcs} arcs leaving {wanted.size} columns of "
                 f"P({time})")
    owner, ports = pg.arcs(wanted)
    ratio = rho_t[wanted] > ZERO_PROB
    on_ratio = ratio[owner]
    targets = np.ravel_multi_index(tuple(base.heads[ports]), pg.shape)

    probs = np.empty(owner.size)
    uniform = np.flatnonzero(~on_ratio)
    probs[uniform] = 1.0 / np.bincount(owner, minlength=wanted.size)[
        owner[uniform]]
    r = np.flatnonzero(on_ratio)
    joint = np.ravel_multi_index(
        tuple(s.permutation[p[r]] for s, p in zip(shifts, ports)),
        pg.basis_shape)
    probs[r] = p_next[joint] / rho_t[wanted[owner[r]]]

    # ``owner`` ascends, so sorting by (owner, target) keeps it in place
    order = np.argsort(owner * pg.num_states + targets)
    targets, probs = targets[order], probs[order]
    indptr = np.zeros(wanted.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=wanted.size), out=indptr[1:])

    sums = _column_sums(indptr, probs)
    dev = np.abs(sums[ratio] - 1.0)
    worst = float(dev.max()) if dev.size else 0.0
    bad = np.flatnonzero(ratio & (np.abs(sums - 1.0) > COLUMN_SUM_ERROR))
    if bad.size:
        j = bad[0]
        raise ConsistencyError(
            f"column {pg.tuple_of(wanted[j])} of P({time}) sums to "
            f"{float(sums[j])!r}; the step operator is not unitary"
        )
    probs = np.minimum(probs / np.where(ratio, sums, 1.0)[owner], 1.0)

    keep = probs != 0.0
    if not keep.all():
        owner, targets, probs = owner[keep], targets[keep], probs[keep]
        np.cumsum(np.bincount(owner, minlength=wanted.size), out=indptr[1:])
    return TransitionMatrix(time, pg.num_states, wanted, indptr, targets,
                            probs, column_sum_error=worst)


def _rule_columns(rho: np.ndarray, k: int,
                  targets: np.ndarray | None = None) -> np.ndarray:
    """The module's column rule for P(t), given the targets of P(t-1)."""
    if k == 1:
        return np.arange(rho.size)
    live = np.flatnonzero(rho > 0.0)
    return live if targets is None else np.union1d(live, targets)


def build_multiwalker_matrix(
    psi_t: WaveFunction,
    psi_next: WaveFunction,
    shifts: ShiftSpec | Sequence[ShiftSpec] | None = None,
    time: int = 0,
) -> TransitionMatrix:
    """Transition matrix over the vertex tuples of ``psi_t.graph``, the
    product graph of K >= 1 walkers that both states live on.

    ``shifts`` is the shift the evolution used (per walker or shared); it
    determines which port of a target vertex carries the amplitude that
    moved along each arc, and defaults to the flip-flop shift.
    The columns follow the module's rule for a first step: every vertex
    for one walker (the paper's full matrix, linear in the arcs), the
    tuples with ``rho_t > 0`` for K > 1 (all |V|^K would be exponential in
    K). The columns are checked and rescaled as in
    :func:`matrix_from_masses`.
    """
    pg = psi_t.graph
    if psi_next.graph != pg:
        raise ValidationError("states live on different graphs")
    rho_t = vertex_distribution(psi_t)
    return matrix_from_masses(
        pg, shifts if shifts is not None else ShiftSpec.flip_flop(pg.base),
        rho_t, np.abs(psi_next.amplitudes) ** 2,
        _rule_columns(rho_t, pg.num_walkers), time=time,
    )


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

    P(t) follows the module's column rule: every vertex for one walker
    (the paper's full matrix, linear in the arcs), and for K > 1 walkers
    the states with ``rho(t) > 0`` and the targets of P(t-1), so that the
    sampler and the verifier find every column they need.
    """
    pg = psi0.graph
    if ProductGraph.of(graph) != pg:
        raise ValidationError("graph does not match psi0")
    k = pg.num_walkers
    states = evolve(psi0, coin, shift, horizon, interaction)
    psi = next(states)
    rhos = [vertex_distribution(psi)]
    wanted = _rule_columns(rhos[0], k)
    matrices: list[TransitionMatrix] = []
    for t, psi_next in enumerate(states):
        matrices.append(matrix_from_masses(
            pg, shift, rhos[-1], np.abs(psi_next.amplitudes) ** 2, wanted,
            time=t))
        # psi(t) is released only once P(t) is built: releasing it first
        # made the two-walker benchmark about 5% slower (allocation order)
        psi = psi_next
        rhos.append(vertex_distribution(psi))
        wanted = _rule_columns(rhos[-1], k, matrices[-1].indices)
    return TransitionMatrixSeq(
        matrices, np.stack(rhos), num_walkers=k,
        num_base_vertices=pg.base.num_vertices,
    )


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
