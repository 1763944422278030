"""Two reference procedures for trajectory statistics.

* A rejection baseline: vertex sequences are drawn independently per
  instant from the walk's distributions and kept only when consecutive
  vertices form graph edges. Its accepted-sequence marginals follow a
  known exact formula (computed here by a forward-backward pass) and need
  not match the walk's distributions; the acceptance rate can also be
  exponentially small, which is the argument for sampling via the
  equivalent chain instead.

* A dynamic program for the Grover-coined, moving-shift walk on a
  D-dimensional torus with purely real initial amplitudes. The recursion
  advances signed amplitude tables a(v, c) with
  ``a'(eta(u, c), c) = sum_c' a(u, c') / D - a(u, c)`` at a per-step cost
  linear in the table size. It is kept as an independent oracle for the
  general engine (acceptance criterion 6), not as a faster path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .equivalence import TransitionMatrix, matrix_from_masses
from .errors import ApplicabilityError, ConsistencyError, ValidationError
from .graphs import PortGraph, ProductGraph, torus_graph
from .trajectory import _pick, total_variation
from .walk import ShiftSpec, check_budget

__all__ = [
    "RejectionReport",
    "rejection_sample",
    "exact_rejection_marginals",
    "TorusDPState",
    "grover_torus_dp",
    "grover_torus_matrix",
]


# ---------------------------------------------------------------------------
# rejection baseline
# ---------------------------------------------------------------------------

#: Sequences :func:`rejection_sample` draws and checks at a time.
REJECTION_BATCH = 100_000


@dataclass
class RejectionReport:
    """Outcome of rejection sampling vertex sequences against edges."""

    attempts: int
    accepted: int
    length: int
    num_vertices: int
    marginals: np.ndarray | None
    tvd_vs_rho: list[float] | None
    no_accepts: bool
    sequence_count: float
    path_count_estimate: float | None = None

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.attempts if self.attempts else 0.0

    def as_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "accepted": self.accepted,
            "acceptance_rate": self.acceptance_rate,
            "length": self.length,
            "num_vertices": self.num_vertices,
            "no_accepts": self.no_accepts,
            "marginals": None if self.marginals is None
            else [list(row) for row in self.marginals],
            "tvd_vs_rho": self.tvd_vs_rho,
            "sequence_count": self.sequence_count,
            "path_count_estimate": self.path_count_estimate,
        }


def rejection_sample(
    rho_seq: np.ndarray,
    graph: PortGraph,
    attempts: int,
    seed: int | np.random.Generator | None = None,
) -> RejectionReport:
    """Draw vertex sequences independently per instant and keep paths.

    Parameters
    ----------
    rho_seq:
        Array of shape (L, num_vertices); row ``t`` is the walk's vertex
        distribution at instant ``t``. Each sampled sequence draws one
        vertex per row and is accepted when all consecutive pairs are
        edges.
    attempts:
        Total number of sequences to draw, processed in batches of
        :data:`REJECTION_BATCH` so large runs stream instead of
        materialising everything. A batch's buffers (16 bytes per sequence
        and instant) are checked against the memory budget first.

    Returns a report with the acceptance rate, the per-instant marginal
    frequencies inside the accepted set, and their total variation
    distance from ``rho_seq``. Zero accepted sequences set ``no_accepts``
    rather than raising. For torus graphs the report carries the rough
    ``V * D**(L-1)`` path-count figure (D axes) next to the ``V**L``
    sequence count for comparison against the measured rate.
    """
    rho_seq = np.asarray(rho_seq, dtype=np.float64)
    if rho_seq.ndim != 2 or rho_seq.shape[1] != graph.num_vertices:
        raise ValidationError(
            f"rho_seq has shape {rho_seq.shape}, expected "
            f"(L, {graph.num_vertices})"
        )
    length = rho_seq.shape[0]
    if length < 1:
        raise ValidationError("need at least one distribution row")
    if attempts < 1:
        raise ValidationError("attempts must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    batch = min(REJECTION_BATCH, attempts)
    check_budget(16 * batch * length,
                 f"a batch of {batch} sequences of length {length}")

    counts = np.zeros((length, graph.num_vertices), dtype=np.int64)
    accepted = 0
    done = 0
    while done < attempts:
        batch = min(REJECTION_BATCH, attempts - done)
        u = rng.random((batch, length))
        seqs = np.empty((batch, length), dtype=np.int64)
        for t in range(length):
            seqs[:, t] = _pick(rho_seq[t], u[:, t])
        if length > 1:
            ok = graph.has_edges(seqs[:, :-1], seqs[:, 1:]).all(axis=1)
        else:
            ok = np.ones(batch, dtype=bool)
        kept = seqs[ok]
        accepted += int(kept.shape[0])
        for t in range(length):
            counts[t] += np.bincount(kept[:, t],
                                     minlength=graph.num_vertices)
        done += batch

    if accepted == 0:
        marginals = None
        tvds = None
    else:
        marginals = counts / accepted
        tvds = [total_variation(marginals[t], rho_seq[t])
                for t in range(length)]

    estimate = None
    if graph.torus_dims is not None:
        d_axes = len(graph.torus_dims)
        estimate = float(graph.num_vertices) * float(d_axes) ** (length - 1)
    return RejectionReport(
        attempts=attempts,
        accepted=accepted,
        length=length,
        num_vertices=graph.num_vertices,
        marginals=marginals,
        tvd_vs_rho=tvds,
        no_accepts=accepted == 0,
        sequence_count=float(graph.num_vertices) ** length,
        path_count_estimate=estimate,
    )


def exact_rejection_marginals(
    rho_seq: np.ndarray, graph: PortGraph
) -> tuple[np.ndarray | None, float]:
    """Exact accepted-sequence marginals by a forward-backward pass.

    Summing the product weights ``prod_t rho(tau_t, t)`` over all paths
    factorises over steps, so the path-restricted marginal at (v, t) is
    ``f_t(v) * b_t(v) / Z`` with forward masses ``f``, backward masses
    ``b`` and ``Z`` the total path probability. Returns ``(marginals,
    Z)``; marginals are None when no path has positive weight.
    """
    rho_seq = np.asarray(rho_seq, dtype=np.float64)
    if rho_seq.ndim != 2 or rho_seq.shape[1] != graph.num_vertices:
        raise ValidationError(
            f"rho_seq has shape {rho_seq.shape}, expected "
            f"(L, {graph.num_vertices})"
        )
    length = rho_seq.shape[0]
    heads, starts = graph.heads, graph.port_offsets[:-1]

    def neighbour_sum(x: np.ndarray) -> np.ndarray:
        # (A x)[v] for the adjacency matrix A, as a sum over v's arcs
        return np.add.reduceat(x[heads], starts)

    fwd = np.empty_like(rho_seq)
    fwd[0] = rho_seq[0]
    for t in range(1, length):
        fwd[t] = rho_seq[t] * neighbour_sum(fwd[t - 1])
    bwd = np.empty_like(rho_seq)
    bwd[length - 1] = 1.0
    for t in range(length - 2, -1, -1):
        bwd[t] = neighbour_sum(rho_seq[t + 1] * bwd[t + 1])
    total = float(fwd[length - 1].sum())
    if total <= 0.0:
        return None, 0.0
    return fwd * bwd / total, total


# ---------------------------------------------------------------------------
# Grover torus dynamic program
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusDPState:
    """Per-(vertex, port) probability table of the torus recursion.

    ``rho[v, c]`` is the state probability and ``sign[v, c]`` the sign of
    the underlying real amplitude; the recursion needs the sign because
    probabilities alone lose destructive interference. Valid only for the
    Grover coin, moving shift and real amplitudes.
    """

    dims: tuple[int, ...]
    time: int
    rho: np.ndarray
    sign: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=np.float64)
        sign = np.asarray(self.sign, dtype=np.int8)
        rho.flags.writeable = False
        sign.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "sign", sign)

    @property
    def amplitudes(self) -> np.ndarray:
        return self.sign * np.sqrt(self.rho)

    def vertex_distribution(self) -> np.ndarray:
        return self.rho.sum(axis=1)


def grover_torus_dp(
    dims: Sequence[int],
    initial: np.ndarray,
    horizon: int,
) -> list[TorusDPState]:
    """Evolve the real-amplitude Grover/moving-shift walk on a torus.

    Parameters
    ----------
    dims:
        Torus axis lengths (each >= 3); the port order is the generator's
        (+x, -x, +y, -y, ...), giving 2 * len(dims) ports per vertex.
    initial:
        Real amplitude table, flat or of shape (num_vertices, num_ports),
        normalised to unit squared sum. Complex input with any imaginary
        part is rejected: the recursion only tracks magnitudes and signs.
    horizon:
        Number of steps; returns the states for t = 0..horizon.

    Each step costs one sweep of the (num_vertices x num_ports) table,
    the same order as the generic :func:`~qrwalk.walk.step`. Measured on
    a 120 x 120 torus over 4 steps (the benchmark's ``torus-grover``
    workload; 2 shared vCPUs, one BLAS thread, best of 7), the recursion
    took 15 ms with its torus build, as long as 4 generic steps with the
    batched coin. It is kept as an oracle that does not use the engine's
    operators, not as a faster path.
    """
    dims = tuple(int(d) for d in dims)
    nbr = torus_graph(dims).heads.reshape(-1, 2 * len(dims))
    num_vertices, num_ports = nbr.shape
    d_axes = len(dims)

    raw = np.asarray(initial)
    if np.iscomplexobj(raw):
        if np.abs(raw.imag).max() > 0.0:
            raise ApplicabilityError(
                "torus recursion requires purely real initial amplitudes"
            )
        raw = raw.real
    amp = np.asarray(raw, dtype=np.float64).reshape(num_vertices, num_ports)
    norm2 = float((amp ** 2).sum())
    if abs(norm2 - 1.0) > 1e-10:
        raise ValidationError(
            f"initial amplitudes are not normalised: squared sum {norm2!r}"
        )
    if horizon < 0:
        raise ValidationError("horizon must be >= 0")

    def snapshot(t: int, a: np.ndarray) -> TorusDPState:
        return TorusDPState(dims=dims, time=t, rho=a ** 2,
                            sign=np.sign(a).astype(np.int8))

    states = [snapshot(0, amp)]
    for t in range(horizon):
        mixed = amp.sum(axis=1, keepdims=True) / d_axes - amp
        amp = np.empty_like(amp)
        amp[nbr, np.arange(num_ports)] = mixed
        total = float((amp ** 2).sum())
        if abs(total - 1.0) > 1e-10:
            raise ConsistencyError(
                f"probability table lost normalisation at t={t + 1}: "
                f"{total!r}"
            )
        states.append(snapshot(t + 1, amp))
    return states


def grover_torus_matrix(
    dp_t: TorusDPState,
    dp_next: TorusDPState,
) -> TransitionMatrix:
    """Transition matrix between consecutive recursion states.

    Entries are ``rho(v, c, t+1) / rho(u, t)`` where ``v = eta(u, c)``
    (the moving shift keeps the port label); it stores the columns of the
    vertices with mass, and the zero-mass ones are uniform ``1 / (2 D)``
    over the torus neighbours. The recursion's tables feed the same
    column builder as the general construction, through the moving-shift
    permutation.
    """
    if dp_t.dims != dp_next.dims:
        raise ValidationError("states live on different tori")
    if dp_next.time != dp_t.time + 1:
        raise ValidationError(
            f"states are not consecutive: t={dp_t.time} then {dp_next.time}"
        )
    g = torus_graph(dp_t.dims)
    return matrix_from_masses(
        ProductGraph(g, 1), ShiftSpec.moving(g),
        dp_t.vertex_distribution(), dp_next.rho.reshape(-1), time=dp_t.time,
    )
