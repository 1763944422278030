"""Property tests: the array builder of P(t) against the per-column
reference construction in ``_oracles``, on random graphs, coins, shifts
and states for one and two walkers."""

import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _oracles as oracle
from qrwalk import (
    CoinSpec,
    InteractionSpec,
    ProductGraph,
    ShiftSpec,
    TransitionMatrixSeq,
    ValidationError,
    WaveFunction,
    build_graph,
    build_multiwalker_matrix,
    cycle_graph,
    step,
    torus_graph,
    verify_theorem_properties,
    vertex_distribution,
)
from qrwalk.equivalence import ZERO_PROB
from qrwalk.persist import load_sequence, save_sequence

#: Merging arcs that meet at one vertex may add them in another order than
#: the reference does; allow this many units of double rounding.
MERGE_RTOL = 4 * np.finfo(np.float64).eps

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def random_graph(rng: np.random.Generator):
    """A small simple graph with shuffled port orders, or a cycle/torus
    (regular of degree 2 or 4, so the Hadamard coin and the moving shift
    apply)."""
    kind = rng.integers(0, 3)
    if kind == 0:
        return cycle_graph(int(rng.integers(3, 7)))
    if kind == 1:
        return torus_graph((3, int(rng.integers(3, 5))))
    n = int(rng.integers(3, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = {p for p in pairs if rng.random() < 0.5}
    edges |= {(v, v + 1) for v in range(n - 1)}  # no isolated vertex
    g = build_graph(sorted(edges))
    ordering = [list(rng.permutation(nbrs)) for nbrs in g.out_neighbors]
    return build_graph(sorted(edges), ordering=ordering)


def random_coin(g, rng, kind: int):
    if kind == 0 and all(int(d) in (2, 4) for d in g.degrees):
        return CoinSpec.hadamard(g)
    if kind <= 1:
        return CoinSpec.grover(g)
    return CoinSpec.random_unitary(g, rng)


def edge_respecting_shift(g, rng) -> ShiftSpec:
    """Arcs into each vertex land on its ports in a random order."""
    perm = np.empty(g.basis_dim, dtype=np.int64)
    heads = g.neighbor_of_basis
    for w in range(g.num_vertices):
        incoming = np.flatnonzero(heads == w)
        perm[incoming] = g.port_offsets[w] + rng.permutation(incoming.size)
    return ShiftSpec.from_permutation(g, perm)


def random_shift(g, rng, kind: int) -> ShiftSpec:
    if kind == 0:
        try:
            return ShiftSpec.moving(g)
        except ValidationError:
            pass
    if kind <= 1:
        return ShiftSpec.flip_flop(g)
    return edge_respecting_shift(g, rng)


def random_state(space, rng) -> WaveFunction:
    """Complex Gaussian amplitudes, with some vertices emptied so that
    zero-mass (uniform) columns occur."""
    g = space.base if isinstance(space, ProductGraph) else space
    k = space.num_walkers if isinstance(space, ProductGraph) else 1
    keep = rng.random(g.num_vertices) < 0.6
    keep[rng.integers(0, g.num_vertices)] = True
    mask = keep[g.vertex_of_basis]
    for _ in range(k - 1):
        mask = np.multiply.outer(mask, keep[g.vertex_of_basis])
    dim = g.basis_dim ** k
    amps = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * mask.ravel()
    return WaveFunction(space, amps / np.linalg.norm(amps))


def one_step(seed: int, walkers: int, shift_kind: int | None = None):
    rng = np.random.default_rng(seed)
    g = random_graph(rng)
    coin = random_coin(g, rng, int(rng.integers(0, 3)))
    shift = random_shift(g, rng, int(rng.integers(0, 3))
                         if shift_kind is None else shift_kind)
    space = ProductGraph(g, walkers) if walkers > 1 else g
    psi = random_state(space, rng)
    interaction = None
    if walkers > 1 and rng.random() < 0.5:
        interaction = InteractionSpec.coincidence_phase(space, rng.random())
    return g, shift, psi, step(psi, coin, shift, interaction)


def reference(g, walkers, shift, psi, psi_next, wanted):
    return oracle.reference_columns(
        g, walkers, [shift.permutation] * walkers, vertex_distribution(psi),
        np.abs(psi_next.amplitudes) ** 2, wanted, ZERO_PROB)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2]))
def test_builder_matches_per_column_reference(seed, walkers):
    g, shift, psi, psi_next = one_step(seed, walkers)
    mat = build_multiwalker_matrix(psi, psi_next, shifts=shift,
                                   columns="full")
    expected = reference(g, walkers, shift, psi, psi_next,
                         range(g.num_vertices ** walkers))
    assert mat.col_ids.tolist() == sorted(expected)
    for u, (targets, probs) in expected.items():
        got_targets, got_probs = mat.column(u)
        nonzero = probs != 0.0
        assert np.array_equal(got_targets, targets[nonzero])
        assert np.array_equal(got_probs, probs[nonzero])


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2]))
def test_residuals_and_round_trip(seed, walkers):
    g, shift, psi, psi_next = one_step(seed, walkers)
    mat = build_multiwalker_matrix(psi, psi_next, shifts=shift)
    seq = TransitionMatrixSeq(
        [mat], np.stack([vertex_distribution(psi),
                         vertex_distribution(psi_next)]),
        num_walkers=walkers, num_base_vertices=g.num_vertices)
    report = verify_theorem_properties(seq)
    assert report.max_entry_violation <= 1e-10
    assert report.max_column_sum_deviation <= 1e-10
    assert report.max_propagation_residual <= 1e-10
    with tempfile.TemporaryDirectory() as out:
        save_sequence(out, seq)
        loaded = load_sequence(out)
    assert np.array_equal(loaded.rho, seq.rho)
    for name in ("col_ids", "indptr", "indices", "data"):
        assert np.array_equal(getattr(loaded.matrices[0], name),
                              getattr(mat, name))


def merging_shift(g, rng) -> ShiftSpec:
    """Flip-flop, except that every arc leaving one vertex ``v`` returns
    to a port of ``v`` (the arcs that fed ``v`` take their old targets),
    so two or more arcs leaving ``v`` meet at one vertex."""
    perm = ShiftSpec.flip_flop(g).permutation.copy()
    v = rng.choice(np.flatnonzero(g.degrees >= 2))
    own = np.arange(g.port_offsets[v], g.port_offsets[v + 1])
    feeders = np.flatnonzero(np.isin(perm, own))
    perm[feeders], perm[own] = perm[own], rng.permutation(own)
    return ShiftSpec.from_permutation(g, perm, enforce_edges=False)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2]))
def test_arcs_meeting_at_one_vertex_are_merged(seed, walkers):
    rng = np.random.default_rng(seed)
    g, _, psi, _ = one_step(seed, walkers)
    shift = merging_shift(g, rng)
    psi_next = step(psi, CoinSpec.random_unitary(g, rng), shift)
    mat = build_multiwalker_matrix(psi, psi_next, shifts=shift,
                                   columns="full")
    expected = reference(g, walkers, shift, psi, psi_next,
                         range(g.num_vertices ** walkers))
    for u, (targets, probs) in expected.items():
        got_targets, got_probs = mat.column(u)
        nonzero = probs != 0.0
        assert np.array_equal(got_targets, targets[nonzero])
        np.testing.assert_allclose(got_probs, probs[nonzero],
                                   rtol=MERGE_RTOL, atol=0.0)
