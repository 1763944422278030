"""Property tests against the per-vertex and per-column references in
``_oracles``: the array-built graph core (validation, neighbour lists,
port maps, shifts, JSON and hash) on random edge lists and port orders,
the array builder of P(t) and the sampler on random graphs, coins,
shifts and states for up to three walkers, the port sums of
``vertex_masses`` against ``np.add.reduceat``, the sampler against the
exact law of its paths, the packed CSV writer against ``csv.writer``
on random tables, and the digit kernel and the state labels against
``str``."""

import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import _oracles as oracle
from qrwalk import (
    CoinSpec,
    GraphError,
    InteractionSpec,
    PortGraph,
    ProductGraph,
    ResourceLimitError,
    ShiftSpec,
    TrajectoryEnsemble,
    TransitionMatrix,
    TransitionMatrixSeq,
    ValidationError,
    WaveFunction,
    build_graph,
    build_sequence,
    complete_graph,
    cycle_graph,
    evolve,
    graph_from_json,
    graph_hash,
    locality_fraction,
    random_regular_graph,
    random_unitary_coin,
    sample_ensemble,
    step,
    torus_graph,
    verify_theorem_properties,
    vertex_distribution,
    vertex_masses,
)
from qrwalk import numtext, persist, walk
from qrwalk.equivalence import COLUMN_SUM_ERROR, ZERO_PROB, \
    matrix_from_masses
from qrwalk.errors import ConsistencyError
from qrwalk.numtext import _digits
from qrwalk.persist import (
    CodedColumn,
    Table,
    load_sequence,
    save_sequence,
    write_table,
)

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
#: The graph-core examples take about a millisecond each.
GRAPH_SETTINGS = settings(SETTINGS, max_examples=300)


def random_graph(rng: np.random.Generator, max_vertices: int = 12):
    """A small simple graph with shuffled port orders, or a cycle/torus
    (regular of degree 2 or 4, so the Hadamard coin and the moving shift
    apply). The tori have 9 or 12 vertices; below ``max_vertices = 9``
    none is drawn."""
    kind = rng.integers(0, 3)
    if kind == 1 and max_vertices < 9:
        kind = 2
    if kind == 0:
        return cycle_graph(int(rng.integers(3, 7)))
    if kind == 1:
        return torus_graph((3, int(rng.integers(3, 5))))
    return shuffled_graph(rng)


def shuffled_graph(rng: np.random.Generator, min_vertices: int = 3):
    """A random simple graph on ``min_vertices`` to 6 vertices, a path
    with random chords, with shuffled port orders."""
    n = int(rng.integers(min_vertices, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = {p for p in pairs if rng.random() < 0.5}
    edges |= {(v, v + 1) for v in range(n - 1)}  # no isolated vertex
    g = build_graph(sorted(edges))
    ordering = [list(rng.permutation(nbrs)) for nbrs in g.out_neighbors]
    return build_graph(sorted(edges), ordering=ordering)


def regular_graph(rng: np.random.Generator, max_vertices: int = 12):
    """A cycle, or the complete graph on 4 vertices with shuffled port
    orders: one degree class, so the builder makes one block."""
    if rng.random() < 0.5:
        return cycle_graph(int(rng.integers(3, 7)))
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    return build_graph(edges, ordering=[
        list(rng.permutation([w for w in range(4) if w != v]))
        for v in range(4)])


def classes_graph(rng: np.random.Generator, max_vertices: int = 12):
    """A :func:`shuffled_graph` with three or more degree classes, so
    that several walkers' states fall in many blocks."""
    while True:
        g = shuffled_graph(rng, min_vertices=4)
        if len(g.degree_classes) >= 3:
            return g


#: Graph draws by layout: any of :func:`random_graph`'s, regular only, or
#: with three or more degree classes.
LAYOUTS = {"drawn": random_graph, "regular": regular_graph,
           "classes": classes_graph}


def random_coin(g, rng, kind: int):
    if kind == 0 and all(int(d) in (2, 4) for d in g.degrees):
        return CoinSpec.hadamard(g)
    if kind <= 1:
        return CoinSpec.grover(g)
    return CoinSpec.random_unitary(g, rng)


def edge_respecting_shift(g, rng) -> ShiftSpec:
    """Arcs into each vertex land on its ports in a random order."""
    perm = np.empty(g.basis_dim, dtype=np.int64)
    heads = g.heads
    for w in range(g.num_vertices):
        incoming = np.flatnonzero(heads == w)
        perm[incoming] = g.port_offsets[w] + rng.permutation(incoming.size)
    return ShiftSpec(g, perm)


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


def one_step(seed: int, walkers: int, shift_kind: int | None = None,
             layout: str = "drawn"):
    """A random step of ``walkers`` walkers on a graph of ``layout``
    (:data:`LAYOUTS`): the base graph, the shifts (shared, or one per
    walker half of the time and always for the ``"classes"`` layout),
    psi(t) and psi(t + 1). Three walkers get at most 6 vertices, so
    (n d)^3 stays small."""
    rng = np.random.default_rng(seed)
    g = LAYOUTS[layout](rng, 6 if walkers == 3 else 12)
    shared = walkers == 1 or (layout != "classes" and rng.random() < 0.5)
    draws = 1 if shared else walkers
    coins = [random_coin(g, rng, int(rng.integers(0, 3)))
             for _ in range(draws)]
    shifts = [random_shift(g, rng, int(rng.integers(0, 3))
                           if shift_kind is None else shift_kind)
              for _ in range(draws)]
    coin, shift = (coins[0], shifts[0]) if shared else (coins, shifts)
    space = ProductGraph(g, walkers) if walkers > 1 else g
    psi = random_state(space, rng)
    interaction = None
    if walkers > 1 and rng.random() < 0.5:
        interaction = InteractionSpec.coincidence_phase(space, rng.random())
    return g, shift, psi, step(psi, coin, shift, interaction)


def per_walker(shift, walkers: int) -> list:
    return list(shift) if isinstance(shift, list) else [shift] * walkers


def reference(g, walkers, shift, rho_t, p_next, wanted):
    return oracle.reference_columns(
        g, walkers, [s.permutation for s in per_walker(shift, walkers)],
        rho_t, p_next, wanted, ZERO_PROB)


def assert_columns_match(mat, expected: dict) -> None:
    """``mat.column(u)`` is the reference column, its exact zeros left
    out, bit for bit, for every state u of ``expected``."""
    for u, (targets, probs) in expected.items():
        got_targets, got_probs = mat.column(u)
        nonzero = probs != 0.0
        assert got_targets.tolist() == targets[nonzero].tolist()
        assert got_probs.tobytes() == probs[nonzero].tobytes()


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2, 3]),
       layout=st.sampled_from(sorted(LAYOUTS)))
def test_builder_matches_per_column_reference(seed, walkers, layout):
    """P(t) stores the columns of the states above ZERO_PROB, and every
    column, stored or uniform, is the reference's; the residuals hold.
    Regular graphs make one block of columns; graphs with three or more
    degree classes make many, under per-walker shifts."""
    g, shift, psi, psi_next = one_step(seed, walkers, layout=layout)
    mat = matrix_from_masses(psi.graph, shift, vertex_distribution(psi),
                             np.abs(psi_next.amplitudes) ** 2)
    rho = np.stack([vertex_distribution(psi), vertex_distribution(psi_next)])
    assert mat.col_ids.tolist() \
        == np.flatnonzero(rho[0] > ZERO_PROB).tolist()
    assert_columns_match(mat, reference(
        g, walkers, shift, rho[0], np.abs(psi_next.amplitudes) ** 2,
        range(mat.num_states)))
    report = verify_theorem_properties(
        TransitionMatrixSeq([mat], rho, psi.graph))
    assert report.max_entry_violation <= 1e-10
    assert report.max_column_sum_deviation <= 1e-10
    assert report.max_propagation_residual <= 1e-10


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2, 3]),
       layout=st.sampled_from(sorted(LAYOUTS)))
def test_find_merges_the_uniform_columns_in_order(seed, walkers, layout):
    """``find`` adds the uniform columns of any states, repeated and in
    any order, to the stored ones: the ids ascend, each state's position
    is its column's, and every column is the reference's bit for bit,
    whether the new columns make one block or many."""
    g, shift, psi, psi_next = one_step(seed, walkers, layout=layout)
    mat = matrix_from_masses(psi.graph, shift, vertex_distribution(psi),
                             np.abs(psi_next.amplitudes) ** 2)
    rng = np.random.default_rng(seed)
    states = rng.integers(0, mat.num_states,
                          size=int(rng.integers(1, 2 * mat.num_states)))
    merged, pos = mat.find(states)
    assert merged.col_ids[pos].tolist() == states.tolist()
    assert merged.col_ids.tolist() \
        == sorted(set(mat.col_ids.tolist()) | set(states.tolist()))
    expected = reference(g, walkers, shift, vertex_distribution(psi),
                         np.abs(psi_next.amplitudes) ** 2,
                         merged.col_ids.tolist())
    for j, u in enumerate(merged.col_ids.tolist()):
        lo, hi = merged.indptr[j], merged.indptr[j + 1]
        targets, probs = expected[u]
        nonzero = probs != 0.0
        assert merged.indices[lo:hi].tolist() == targets[nonzero].tolist()
        assert merged.data[lo:hi].tobytes() == probs[nonzero].tobytes()


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([2, 3]))
def test_a_non_unitary_step_is_caught_in_every_block(seed, walkers):
    """Columns of two or three blocks (tuples of the walkers' degrees)
    made to sum off 1: within COLUMN_SUM_ERROR, ``column_sum_error`` is
    the largest deviation over all blocks; beyond it, the error names the
    lowest failing column, whichever block holds it."""
    g, shift, psi, psi_next = one_step(seed, walkers, layout="classes")
    pg, rho = psi.graph, vertex_distribution(psi)
    masses = np.abs(psi_next.amplitudes) ** 2
    cols = np.flatnonzero(rho > ZERO_PROB)
    degrees = np.stack([g.degrees[d] for d in np.unravel_index(cols,
                                                               pg.shape)])
    _, block = np.unique(degrees, axis=1, return_inverse=True)
    block = block.ravel()
    assume(block.max() > 0)
    rng = np.random.default_rng(seed)
    picks = rng.permutation(block.max() + 1)[:int(rng.integers(2, 4))]
    bad = [int(rng.choice(cols[block == b])) for b in picks]
    shifts = per_walker(shift, walkers)

    def fed(u):
        """The basis states at t + 1 that the arcs of column u reach."""
        return np.ravel_multi_index(np.ix_(*(
            s.permutation[g.port_offsets[v]:g.port_offsets[v + 1]]
            for s, v in zip(shifts, pg.tuple_of(u)))), pg.basis_shape)

    for scale in (rng.uniform(1e-9, 9e-9, len(bad)),
                  rng.uniform(1e-6, 1e-3, len(bad))):
        off = masses.copy()
        for u, eps in zip(bad, scale):
            off[fed(u)] *= 1.0 + eps
        if scale.max() < COLUMN_SUM_ERROR:
            mat = matrix_from_masses(pg, shift, rho, off)
            worst = max(abs((off[fed(u)] / rho[u]).sum() - 1.0)
                        for u in cols.tolist())
            assert abs(mat.column_sum_error - worst) <= 1e-14
            assert worst >= scale.max() / 2
        else:
            with pytest.raises(ConsistencyError, match=re.escape(
                    f"column {pg.tuple_of(min(bad))} of P(0) sums to")):
                matrix_from_masses(pg, shift, rho, off)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2]))
def test_residuals_and_round_trip(seed, walkers):
    g, shift, psi, psi_next = one_step(seed, walkers)
    mat = matrix_from_masses(psi.graph, shift, vertex_distribution(psi),
                             np.abs(psi_next.amplitudes) ** 2)
    seq = TransitionMatrixSeq(
        [mat], np.stack([vertex_distribution(psi),
                         vertex_distribution(psi_next)]), psi.graph)
    report = verify_theorem_properties(seq)
    assert report.max_entry_violation <= 1e-10
    assert report.max_column_sum_deviation <= 1e-10
    assert report.max_propagation_residual <= 1e-10
    assert_round_trip(seq, "csv")


def assert_round_trip(seq: TransitionMatrixSeq, fmt: str) -> None:
    """The store gives back the graph and the arrays of ``seq`` bit for
    bit, and the text export, parsed by the oracle, holds the same
    numbers: the stored columns, for any number of walkers."""
    with tempfile.TemporaryDirectory() as out:
        save_sequence(out, seq, fmt=fmt)
        loaded = load_sequence(out)
        rho, entries = oracle.table_sequence(out)
    assert loaded.graph == seq.graph
    assert loaded.rho.tobytes() == seq.rho.tobytes() == rho.tobytes()
    assert len(loaded.matrices) == len(seq.matrices)
    for a, b in zip(loaded.matrices, seq.matrices):
        for name in ("col_ids", "indptr", "indices", "data"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    exported = {}
    for t, m in enumerate(seq.matrices):
        for u in map(int, m.col_ids):
            exported.update({(t, u, int(v)): float(p)
                             for v, p in zip(*m.column(u))})
    assert entries == exported


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2]),
       fmt=st.sampled_from(["csv", "json"]))
def test_sequence_store_and_export_round_trip(seed, walkers, fmt):
    assert_round_trip(random_sequence(np.random.default_rng(seed), walkers),
                      fmt)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), fmt=st.sampled_from(["csv", "json"]))
def test_the_full_matrices_are_rebuilt_from_the_export(seed, fmt):
    """The paper's full P(t) of one walker follows from the export and
    the graph: each column the export does not list is ``1 / d(u)`` on
    the neighbours of u, bit for bit ``oracle.toarray`` of every step."""
    seq = random_sequence(np.random.default_rng(seed), 1)
    g = seq.graph.base
    with tempfile.TemporaryDirectory() as out:
        save_sequence(out, seq, fmt=fmt)
        _, entries = oracle.table_sequence(out)
    for t, m in enumerate(seq.matrices):
        full, listed = np.zeros((m.num_states, m.num_states)), set()
        for (s, u, v), p in entries.items():
            if s == t:
                full[v, u] = p
                listed.add(u)
        for u in set(range(m.num_states)) - listed:
            full[list(g.out_neighbors[u]), u] = 1.0 / g.degree(u)
        assert full.tobytes() == oracle.toarray(m).tobytes()


#: Masses a rho holds besides the drawn ones: exact zeros, the smallest
#: subnormal and a larger one, and the smallest normal.
EDGE_MASSES = [0.0, 5e-324, 1e-310, 2.0 ** -1022]


@SETTINGS
@given(data=st.data(), walkers=st.sampled_from([1, 2, 3]),
       fmt=st.sampled_from(["csv", "json"]))
def test_the_dense_rho_is_rebuilt_from_the_export(data, walkers, fmt):
    """The ``rho`` export lists the non-zero masses only, yet it and the
    ``states`` metadata give back the dense rho bit for bit: any
    non-negative rho with mass in every row, subnormals and exact zeros
    included, as every walk's rho has mass at every step."""
    base = data.draw(st.integers(1, 4))
    steps, states = data.draw(st.integers(1, 4)), base ** walkers
    rho = data.draw(hnp.arrays(np.float64, (steps, states), elements=(
        st.sampled_from(EDGE_MASSES) | st.floats(0.0, 1.0))))
    for t in range(steps):
        at = data.draw(st.integers(0, states - 1))
        rho[t, at] = data.draw(st.sampled_from(EDGE_MASSES[1:])
                               | st.floats(5e-324, 1.0))
    with tempfile.TemporaryDirectory() as out:
        write_table(Path(out) / "rho",
                    persist.rho_table(rho, walkers, base), fmt)
        assert len(oracle.read_table(Path(out) / "rho").rows) \
            == np.count_nonzero(rho)
        assert oracle.table_rho(out).tobytes() == rho.tobytes()


def schedule_doc(rng, kinds: list, horizon: int) -> tuple[dict, list]:
    """A ``{"schedule": ..., "default": ...}`` document over the
    ``(json, python)`` spec pairs in ``kinds``, its keys padded with
    zeros at random, and the pair it gives at each step."""
    default, *steps = (kinds[i] for i in
                       rng.integers(0, len(kinds), size=horizon + 1))
    listed = rng.random(horizon) < 0.5
    doc = {"default": default[0], "schedule": {
        str(t).zfill(int(rng.integers(1, 3))): steps[t][0]
        for t in np.flatnonzero(listed)}}
    return doc, [steps[t] if listed[t] else default
                 for t in range(horizon)]


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2]))
def test_json_schedules_walk_like_python_schedules(seed, walkers):
    """Coin and shift schedules, and for two walkers a coincidence-phase
    schedule, read from JSON give the masses, bit for bit, of the same
    ``t -> spec`` callables written in Python."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 6 if walkers == 2 else 12)
    space = ProductGraph(g, walkers)
    horizon = 4
    coins = [({"type": "grover"}, CoinSpec.grover(g)),
             ({"type": "identity"}, CoinSpec.identity(g))]
    if all(int(d) in (2, 4) for d in g.degrees):
        coins.append(({"type": "hadamard"}, CoinSpec.hadamard(g)))
    coin_seed = int(rng.integers(2**31))
    coins.append(({"type": "random-unitary", "seed": coin_seed},
                  CoinSpec.random_unitary(
                      g, np.random.default_rng(coin_seed))))
    shifts = [({"type": "flip-flop"}, ShiftSpec.flip_flop(g))]
    try:
        shifts.append(({"type": "moving"}, ShiftSpec.moving(g)))
    except ValidationError:  # no moving shift for this port order
        pass
    phi = float(rng.uniform(0, 2 * np.pi))
    phases = [({"type": "identity"}, InteractionSpec.identity(space)),
              ({"type": "coincidence-phase", "phi": phi},
               InteractionSpec.coincidence_phase(space, phi))]
    coin_doc, coin_at = schedule_doc(rng, coins, horizon)
    shift_doc, shift_at = schedule_doc(rng, shifts, horizon)
    phase_doc, phase_at = schedule_doc(rng, phases, horizon)
    psi = random_state(space, rng)
    json_phase = python_phase = None
    if walkers == 2:
        json_phase = persist.interaction_from_json(phase_doc, space)
        python_phase = lambda t: phase_at[t][1]  # noqa: E731
    from_json = evolve(psi, persist.coin_from_json(coin_doc, g),
                       persist.shift_from_json(shift_doc, g), horizon,
                       json_phase)
    in_python = evolve(psi, lambda t: coin_at[t][1],
                       lambda t: shift_at[t][1], horizon, python_phase)
    for (a, _), (b, _) in zip(from_json, in_python, strict=True):
        assert a.tobytes() == b.tobytes()


@GRAPH_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(range(3)))
def test_only_edge_local_shifts_build(seed, kind):
    """A random permutation, flip-flop with two arcs' targets swapped, or
    a random edge-local permutation: the constructor raises the oracle's
    message exactly when some arc lands off its head."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng)
    if kind == 0:
        perm = rng.permutation(g.basis_dim)
    elif kind == 1:
        perm = ShiftSpec.flip_flop(g).permutation.copy()
        a, b = rng.choice(g.basis_dim, size=2, replace=False)
        perm[[a, b]] = perm[[b, a]]
    else:
        perm = edge_respecting_shift(g, rng).permutation.copy()
    expected = oracle.reference_shift_error(g, perm.tolist())
    if expected is None:
        assert ShiftSpec(g, perm).permutation.tolist() == perm.tolist()
    else:
        with pytest.raises(ValidationError) as err:
            ShiftSpec(g, perm)
        assert str(err.value) == expected
    ShiftSpec.flip_flop(g)
    try:
        ShiftSpec.moving(g)
    except ValidationError as exc:  # no moving shift for this port order
        assert g.torus_dims is None and "moving shift" in str(exc)


# ---------------------------------------------------------------------------
# graph core
# ---------------------------------------------------------------------------

def random_edges(rng: np.random.Generator):
    """Edges of a random simple graph on 2..8 vertices without isolated
    vertices, in random order and orientation, with random explicit port
    orders (or ``"sorted"``)."""
    n = int(rng.integers(2, 9))
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.4}
    edges |= {(v, v + 1) for v in range(n - 1)}
    edges = [(v, u) if rng.random() < 0.5 else (u, v)
             for u, v in rng.permutation(sorted(edges)).tolist()]
    if rng.random() < 0.3:
        return edges, "sorted"
    nbrs = oracle.reference_build_graph(edges)
    return edges, [rng.permutation(x).tolist() for x in nbrs]


@GRAPH_SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_graph_core_matches_per_vertex_reference(seed):
    rng = np.random.default_rng(seed)
    edges, ordering = random_edges(rng)
    g = build_graph(edges, ordering=ordering)
    expected = oracle.reference_build_graph(edges, ordering)
    assert g.out_neighbors == expected
    assert g.heads.tolist() == [u for nbrs in expected for u in nbrs]
    # for the arc (v, c) -> u: sigma(v, u) is v's place in u's list
    assert all(g.sigma(v, u) == expected[u].index(v)
               and g.sigma_inv(u, v) == c
               for v, nbrs in enumerate(expected)
               for c, u in enumerate(nbrs))
    assert ShiftSpec.flip_flop(g).permutation.tolist() \
        == oracle.reference_flip_flop(expected)
    try:
        moving = oracle.reference_moving(expected)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            ShiftSpec.moving(g)
        assert str(got.value) == str(exc)
    else:
        assert ShiftSpec.moving(g).permutation.tolist() == moving
    assert graph_hash(g) == oracle.reference_graph_hash(expected)
    doc = oracle.graph_to_json(g)
    assert doc["edges"] == sorted(map(sorted, edges))
    assert doc["ordering"] == list(map(list, expected))
    assert graph_from_json(doc) == g


@GRAPH_SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_graph_hash_equals_the_json_reference(seed):
    # a random tree (so degree-1 vertices) plus random chords, on up to 40
    # vertices (so multi-digit heads), with random port orders
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 41))
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    edges |= {(u, v) for u, v in rng.integers(0, n, size=(n // 2, 2)).tolist()
              if u < v}
    nbrs = build_graph(sorted(edges)).out_neighbors
    g = build_graph(sorted(edges),
                    ordering=[rng.permutation(x).tolist() for x in nbrs])
    assert graph_hash(g) == oracle.reference_graph_hash(g.out_neighbors)


@pytest.mark.parametrize("n", [2, 9, 10, 11, 99, 100, 101, 1000])
def test_graph_hash_equals_the_json_reference_across_digit_counts(n):
    # sizes on either side of each new digit, irregular with random port
    # orders (a random tree plus chords); n = 1 has no graph, as a lone
    # vertex would be isolated
    rng = np.random.default_rng(n)
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    edges |= {(u, v) for u, v in rng.integers(0, n, size=(n, 2)).tolist()
              if u < v}
    nbrs = build_graph(sorted(edges)).out_neighbors
    g = build_graph(sorted(edges),
                    ordering=[rng.permutation(x).tolist() for x in nbrs])
    assert graph_hash(g) == oracle.reference_graph_hash(g.out_neighbors)
    ring = cycle_graph(max(n, 3))
    assert graph_hash(ring) \
        == oracle.reference_graph_hash(ring.out_neighbors)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_torus_matches_per_vertex_reference(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(rng.integers(3, 6, size=int(rng.integers(1, 4))).tolist())
    g = torus_graph(dims)
    assert g.out_neighbors == oracle.reference_torus_neighbors(dims)
    assert ShiftSpec.moving(g).permutation.tolist() \
        == oracle.reference_moving(g.out_neighbors)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_ensemble_mean_matches_per_instant_reference(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(rng.integers(3, 30, size=int(rng.integers(1, 4))).tolist())
    paths = rng.integers(0, int(np.prod(dims)),
                         size=(int(rng.integers(1, 500)),
                               int(rng.integers(1, 8))))
    table = persist.ensemble_mean_table(
        TrajectoryEnsemble(paths, int(np.prod(dims))), dims)
    got = [list(row) for row in table.rows]
    expected = oracle.reference_ensemble_mean(paths, dims)
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    assert [type(x) for x in got[0]] == [type(x) for x in expected[0]]


def raised(call) -> Exception:
    with pytest.raises((GraphError, ValidationError)) as info:
        call()
    return info.value


def inject_port_graph_fault(lists: list, rng, fault: str) -> None:
    n = len(lists)
    v = int(rng.integers(n))
    c = int(rng.integers(len(lists[v]))) if lists[v] else 0
    if fault == "duplicate" and lists[v]:
        lists[v].insert(c, lists[v][int(rng.integers(len(lists[v])))])
    elif fault == "self-loop" and lists[v]:
        lists[v][c] = v
    elif fault == "asymmetric":
        strangers = sorted(set(range(n)) - set(lists[v]) - {v})
        if strangers:
            lists[v].insert(c, int(rng.choice(strangers)))
        elif len(lists[v]) > 1:
            lists[v].pop(c)
    elif fault == "out-of-range" and lists[v]:
        lists[v][c] = int(rng.choice([-1, n, n + 3]))
    elif fault == "isolated":
        lists[v] = []


#: Each input carries one kind of fault, one to three times. The engine
#: checks kind by kind and the reference arc by arc, so both name the
#: first faulty vertex; symmetry, which the other faults also break, comes
#: last in both.
FAULTS = ["duplicate", "self-loop", "asymmetric", "out-of-range",
          "isolated"]


@GRAPH_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), fault=st.sampled_from(FAULTS),
       times=st.integers(1, 3))
def test_port_graph_faults_name_the_reference_vertex(seed, fault, times):
    rng = np.random.default_rng(seed)
    edges, ordering = random_edges(rng)
    lists = [list(x) for x in oracle.reference_build_graph(edges, ordering)]
    for _ in range(times):
        inject_port_graph_fault(lists, rng, fault)
    offsets = np.concatenate([[0], np.cumsum(list(map(len, lists)))])
    heads = [u for nbrs in lists for u in nbrs]
    try:
        oracle.reference_port_graph(lists)
    except GraphError as exc:
        got = raised(lambda: PortGraph(offsets, heads))
        assert (type(got), str(got)) == (GraphError, str(exc))
    else:  # the faults cancelled out (say, an arc to an existing neighbour)
        assert PortGraph(offsets, heads).out_neighbors == tuple(
            map(tuple, lists))


@GRAPH_SETTINGS
@given(seed=st.integers(0, 2**32 - 1),
       fault=st.sampled_from(["negative", "self-loop", "duplicate",
                              "isolated", "ordering"]),
       times=st.integers(1, 3))
def test_build_graph_faults_match_the_reference(seed, fault, times):
    rng = np.random.default_rng(seed)
    edges, ordering = random_edges(rng)
    n = None
    for _ in range(times):
        at = int(rng.integers(len(edges) + 1))
        u = int(rng.integers(max(map(max, edges)) + 1))
        if fault == "negative":
            edges.insert(at, (u, -1 - int(rng.integers(2))))
        elif fault == "self-loop":
            edges.insert(at, (u, u))
        elif fault == "duplicate":
            a, b = edges[int(rng.integers(len(edges)))]
            edges.insert(at, (b, a) if rng.random() < 0.5 else (a, b))
        elif fault == "isolated":
            n = max(map(max, edges)) + 1 + int(rng.integers(1, 3))
        elif not isinstance(ordering, str):
            w = int(rng.integers(len(ordering)))
            x = ordering[w]
            ordering[w] = [x[1:], x + x[:1], [u] + x[1:]][rng.integers(3)]
    try:
        expected = oracle.reference_build_graph(edges, ordering, n)
    except (GraphError, ValidationError) as exc:
        got = raised(lambda: build_graph(edges, ordering, n))
        assert (type(got), str(got)) == (type(exc), str(exc))
    else:
        assert build_graph(edges, ordering, n).out_neighbors == expected


#: Hashes of each generator's graph at the commit before the graph core
#: was stored as arrays; persisted manifests record them.
PINNED_HASHES = {
    "cycle": (lambda: cycle_graph(5),
              "4933ecc78b341e1c102631e36403af9d8a8232d32a1b57ccb101f2bf3d1aa70c"),
    "torus": (lambda: torus_graph((3, 3, 4)),
              "76a2ed9371aa13d924afe225ffb3d68585daa0def68e35a3f93a41e4fdffda72"),
    "complete": (lambda: complete_graph(5),
                 "3e8b3a6a9c3428db4f0eaafa8716df9a6fe62204b74149da0abcf5ab183d9849"),
    "random-regular": (
        lambda: random_regular_graph(10, 3, seed=1),
        "97920daf85a11c88cb2bfa3135afe27c2e3b46449a6ca932ac2f591555682e7f"),
    "explicit-order": (
        lambda: build_graph([(0, 1), (1, 2), (2, 0), (2, 3)],
                            ordering=[[2, 1], [2, 0], [3, 1, 0], [2]]),
        "6987af32f870a4cb09a022f91fd8fc58724b180673e3a65be70a97b9173a6286"),
}


#: The BLAS build (``_oracles.blas_build``) and ``walk.COLUMN_BLOCK`` the
#: digests above were taken on, as for every pinned digest; the graph
#: hash spells integers only, so no BLAS rounding enters it.
PINNED_ON = ("scipy-openblas 0.3.31.188.0 (OpenBLAS 0.3.31.188.0  "
             "USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64)",
             4)


@pytest.mark.parametrize("name", sorted(PINNED_HASHES))
def test_graph_hash_is_pinned(name):
    make, digest = PINNED_HASHES[name]
    assert graph_hash(make()) == digest, oracle.pinned_on(*PINNED_ON)


# ---------------------------------------------------------------------------
# the walk
# ---------------------------------------------------------------------------

def small_graph(rng, regular: bool, max_dim: int):
    """A regular graph (a cycle, K4 or the 3x3 torus) or an irregular one
    (:func:`pendant_graph`, or a star with a tail) of basis dimension at
    most ``max_dim``."""
    while True:
        if regular:
            g = [cycle_graph(int(rng.integers(3, 7))), complete_graph(4),
                 torus_graph((3, 3))][rng.integers(3)]
        elif rng.random() < 0.7:
            g = pendant_graph(rng)
        else:
            g = build_graph([(0, 1), (0, 2), (0, 3), (3, 4)])
        if g.basis_dim <= max_dim:
            return g


def scheduled(rng, make):
    """A spec from ``make()``, or half of the time a schedule ``t ->
    spec`` alternating between two of them."""
    if rng.random() < 0.5:
        return make()
    specs = (make(), make())
    return lambda t: specs[t % 2]


def per_walker_or_shared(rng, walkers: int, make):
    """One (possibly scheduled) spec for every walker, or half of the time
    a list of one per walker."""
    if walkers == 1 or rng.random() < 0.5:
        return scheduled(rng, make)
    return [scheduled(rng, make) for _ in range(walkers)]


def random_interaction(rng, space):
    """None, the coincidence phase, or explicit unitary blocks on one to
    three vertex tuples; each may be a schedule."""
    kind = int(rng.integers(3))
    if space.num_walkers == 1 or kind == 0:
        return None
    if kind == 1:
        return scheduled(rng, lambda: InteractionSpec.coincidence_phase(
            space, rng.uniform(-np.pi, np.pi)))

    def blocks():
        tuples = {tuple(rng.integers(space.base.num_vertices,
                                     size=space.num_walkers).tolist())
                  for _ in range(int(rng.integers(1, 4)))}
        return InteractionSpec.from_blocks(space, {
            u: random_unitary_coin(space.degree(u), rng) for u in tuples})
    return scheduled(rng, blocks)


def scheduled_walk(rng, walkers: int, regular: bool, named: bool,
                   max_dim: int) -> tuple:
    """Coins, shifts and an interaction drawn per walker and over time,
    and a random state, on a small graph. ``named`` keeps to the Hadamard,
    Grover and identity coins; else random unitary and explicit blocks
    are drawn too."""
    g = small_graph(rng, regular, max_dim)
    space = ProductGraph(g, walkers)

    def coin():
        kind = int(rng.integers(5))
        if kind == 3:
            return CoinSpec.identity(g)
        if kind == 4 and not named:
            return CoinSpec.from_blocks(g, [
                random_unitary_coin(int(d), rng) for d in g.degrees])
        return random_coin(g, rng, min(kind, 1) if named else kind)
    coin = per_walker_or_shared(rng, walkers, coin)
    shift = per_walker_or_shared(
        rng, walkers, lambda: random_shift(g, rng, int(rng.integers(3))))
    return coin, shift, random_interaction(rng, space), \
        random_state(space, rng)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2, 3]),
       regular=st.booleans())
def test_evolve_matches_the_dense_step_operator(seed, walkers, regular):
    """The masses evolve yields are |U(t) ... U(0) psi|^2 for the dense
    U(t) = S(t) C(t) I(t) built with np.kron, within 1e-12, under
    per-walker coins and shifts, schedules and explicit interaction
    blocks. The joint basis stays at most 512 states."""
    rng = np.random.default_rng(seed)
    coin, shift, interaction, psi = scheduled_walk(
        rng, walkers, regular, named=False, max_dim=(40, 20, 8)[walkers - 1])
    dense = psi
    for t, (masses, _) in enumerate(evolve(psi, coin, shift, 3,
                                           interaction)):
        if t:
            dense = WaveFunction(psi.graph, oracle.dense_step(
                dense, coin, shift, interaction, t - 1))
        assert np.abs(masses - np.abs(dense.amplitudes) ** 2).max() <= 1e-12


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2, 3]),
       regular=st.booleans(), named=st.booleans())
def test_evolve_keeps_the_bits_of_the_reference_step(seed, walkers,
                                                     regular, named):
    """The in-place walk gives the bits of ``reference_step``, the
    operator code that copies the state per operator and makes each
    coin's products with the operand shapes the engine documents: for
    named, random and explicit coins of one to three walkers, on regular
    and irregular graphs."""
    rng = np.random.default_rng(seed)
    coin, shift, interaction, psi = scheduled_walk(
        rng, walkers, regular, named=named,
        max_dim=(200, 40, 12)[walkers - 1])
    ref = psi
    for t, (masses, _) in enumerate(evolve(psi, coin, shift, 3,
                                           interaction)):
        if t:
            ref = WaveFunction(psi.graph, oracle.reference_step(
                ref, coin, shift, interaction, t - 1))
        assert masses.tobytes() == (np.abs(ref.amplitudes) ** 2).tobytes()


def cone_graph(rng, regular: bool, max_dim: int):
    """A graph on which a light cone grows for a few steps before it
    fills: a cycle, a torus or a random 3-regular graph, or an irregular
    tree with a few chords (shuffled port orders), of basis dimension at
    most ``max_dim``."""
    while True:
        if regular:
            kind = int(rng.integers(3))
            if kind == 0:
                g = cycle_graph(int(rng.integers(5, 31)))
            elif kind == 1:
                g = torus_graph((int(rng.integers(3, 7)),
                                 int(rng.integers(3, 7))))
            else:
                g = random_regular_graph(2 * int(rng.integers(3, 11)), 3,
                                         seed=rng)
        else:
            n = int(rng.integers(4, 31))
            edges = {(int(rng.integers(v)), v) for v in range(1, n)}
            edges |= {tuple(sorted(rng.choice(n, 2, replace=False).tolist()))
                      for _ in range(int(rng.integers(4)))}
            g = build_graph(sorted(edges))
            g = build_graph(sorted(edges), ordering=[
                list(rng.permutation(nbrs)) for nbrs in g.out_neighbors])
        if g.basis_dim <= max_dim:
            return g


def sparse_state(space, rng) -> WaveFunction:
    """A localized state, or complex amplitudes on one to three basis
    states."""
    states = rng.choice(space.basis_dim, int(rng.integers(1, 4)),
                        replace=False)
    amps = np.zeros(space.basis_dim, dtype=np.complex128)
    amps[states] = 1.0 if states.size == 1 \
        else rng.normal(size=states.size) + 1j * rng.normal(size=states.size)
    return WaveFunction(space, amps / np.linalg.norm(amps))


def cone_walk(rng, walkers: int, regular: bool) -> tuple:
    """Coins (named, random or explicit blocks), shifts and an
    interaction (the coincidence phase, or explicit blocks on tuples
    around the start), each per walker or shared and possibly scheduled,
    and a sparse start, on a :func:`cone_graph`."""
    g = cone_graph(rng, regular, (240, 60, 24)[walkers - 1])
    space = ProductGraph(g, walkers)
    psi = sparse_state(space, rng)

    def coin():
        kind = int(rng.integers(4))
        if kind == 3:
            return CoinSpec.from_blocks(g, [
                random_unitary_coin(int(d), rng) for d in g.degrees])
        return random_coin(g, rng, kind)
    coin = per_walker_or_shared(rng, walkers, coin)
    shift = per_walker_or_shared(
        rng, walkers, lambda: random_shift(g, rng, int(rng.integers(3))))
    interaction = None
    if walkers > 1 and rng.random() < 0.7:
        start = np.unravel_index(int(np.flatnonzero(psi.amplitudes)[0]),
                                 space.basis_shape)
        near = [int(g.vertex_of_basis[a]) for a in start]

        def blocks():
            tuples = {tuple(near)} | {
                tuple(int(v) for v in g.heads[g.port_offsets[near]])}
            tuples |= {tuple(rng.integers(g.num_vertices,
                                          size=walkers).tolist())}
            return InteractionSpec.from_blocks(space, {
                u: random_unitary_coin(space.degree(u), rng)
                for u in tuples})
        interaction = scheduled(rng, blocks if rng.random() < 0.5 else (
            lambda: InteractionSpec.coincidence_phase(
                space, rng.uniform(-np.pi, np.pi))))
    return coin, shift, interaction, psi


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2, 3]),
       regular=st.booleans())
def test_evolve_from_sparse_starts_keeps_the_bits_of_the_whole_space(
        seed, walkers, regular):
    """From a localized or few-component start, whose light cone grows
    step by step, the masses and rho that evolve yields over T steps are
    those of the chained operator code, ``reference_step``, bit for bit,
    for every coin."""
    rng = np.random.default_rng(seed)
    coin, shift, interaction, psi = cone_walk(rng, walkers, regular)
    ref = psi
    for t, (masses, rho) in enumerate(evolve(psi, coin, shift, 6,
                                             interaction)):
        if t:
            ref = WaveFunction(psi.graph, oracle.reference_step(
                ref, coin, shift, interaction, t - 1))
        want = np.abs(ref.amplitudes) ** 2
        assert masses.tobytes() == want.tobytes()
        assert rho.tobytes() == vertex_masses(psi.graph, want).tobytes()


#: The environment variables that cap the threads of a BLAS or OpenMP.
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


def test_sparse_start_bits_hold_at_default_blas_threads():
    """The sparse-start bit property
    (``test_evolve_from_sparse_starts_keeps_the_bits_of_the_whole_space``)
    holds in a subprocess with no thread cap, so the BLAS runs the coin's
    products at its default thread count. The limit: a BLAS splits a
    product only across the cores it has, so a pass on a 2-core machine
    cannot show that a split across more threads keeps the bits."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_CAPS}
    node = f"{__file__}::" \
        "test_evolve_from_sparse_starts_keeps_the_bits_of_the_whole_space"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         node], cwd=Path(__file__).parents[1], env=env, capture_output=True,
        text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert "1 passed" in run.stdout


def box_matrices_match(seed: int, walkers: int, regular: bool,
                       start: str) -> set[str]:
    """Assert that ``matrix_from_masses`` gives the bits of every array
    of P(t) from the box-local masses and axes of the walk's light-cone
    loop as from the whole-space masses ``evolve`` yields, over five
    steps of a :func:`cone_walk` from a ``"sparse"``, ``"random"`` (some
    vertices emptied) or ``"uniform"`` start. Returns the kinds of axes
    the loop yielded: ``"partial"``, ``"in order"`` (whole, in basis
    order) and ``"class order"`` (whole, in degree-class order)."""
    rng = np.random.default_rng(seed)
    coin, shift, interaction, psi = cone_walk(rng, walkers, regular)
    space = psi.graph
    if start == "random":
        psi = random_state(space, rng)
    elif start == "uniform":
        psi = WaveFunction.uniform(space)
    kinds, rho = set(), None
    for t, ((box, axes, rho_next), (whole, _)) in enumerate(zip(
            walk._light_cone(psi, coin, shift, 4, interaction),
            evolve(psi, coin, shift, 4, interaction))):
        kinds |= {"partial" if not a.whole else
                  "in order" if a.in_order else "class order" for a in axes}
        if t:
            got = matrix_from_masses(space, shift, rho, box, t - 1,
                                     axes=axes)
            want = matrix_from_masses(space, shift, rho, whole, t - 1)
            for name in ("col_ids", "indptr", "indices", "data"):
                assert getattr(got, name).tobytes() \
                    == getattr(want, name).tobytes()
            assert repr(got.column_sum_error) == repr(want.column_sum_error)
        rho = rho_next
    return kinds


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2, 3]),
       regular=st.booleans(),
       start=st.sampled_from(["sparse", "random", "uniform"]))
def test_box_masses_give_the_bits_of_whole_space_masses(seed, walkers,
                                                        regular, start):
    """P(t) from the masses on the walk's box equals, bit for bit, P(t)
    from the same masses over the whole joint basis: regular and
    irregular graphs, one to three walkers, named, random and explicit
    coins, sparse and full starts."""
    box_matrices_match(seed, walkers, regular, start)


def test_box_masses_cover_every_kind_of_axis():
    # the property above meets partial axes, whole axes in basis order
    # and whole axes in degree-class order
    kinds = set()
    for seed in range(6):
        for walkers, regular, start in itertools.product(
                (1, 2), (True, False), ("sparse", "uniform")):
            kinds |= box_matrices_match(seed, walkers, regular, start)
    assert kinds == {"partial", "in order", "class order"}


@settings(SETTINGS, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2, 3]),
       degree=st.integers(1, 12), regular=st.booleans())
def test_vertex_masses_keep_the_bits_of_reduceat(seed, walkers, degree,
                                                 regular):
    """The port sums of ``vertex_masses`` are those of np.add.reduceat
    over each walker's axis, bit for bit: on complete graphs, regular of
    degree 1 to 12 (at most 8 for three walkers), and on irregular ones,
    a star of ``degree`` leaves with random edges among them; with exact
    zeros among masses spread over 30 decades."""
    rng = np.random.default_rng(seed)
    if regular:
        g = complete_graph(min(degree, 8 if walkers == 3 else 12) + 1)
    else:
        leaves = range(1, degree + 1)
        g = build_graph([(0, v) for v in leaves]
                        + [(u, v) for u in leaves for v in leaves
                           if u < v and rng.random() < 0.3])
    space = ProductGraph(g, walkers)
    masses = (rng.random(space.basis_dim)
              * 10.0 ** rng.integers(-30, 1, space.basis_dim))
    masses[rng.random(masses.size) < 0.3] = 0.0
    want = masses.reshape(space.basis_shape)
    for axis in range(walkers):
        want = np.add.reduceat(want, g.port_offsets[:-1], axis=axis)
    assert vertex_masses(space, masses).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def random_walk(rng, walkers: int, tiny: bool = False) -> tuple:
    """The coin, shift and initial state of a random walk. With ``tiny``,
    a few basis states of emptied vertices get masses that add up to at
    most ``ZERO_PROB``, so that some states start with mass in (0,
    ZERO_PROB]."""
    g = random_graph(rng)
    coin = random_coin(g, rng, int(rng.integers(0, 3)))
    shift = random_shift(g, rng, int(rng.integers(0, 3)))
    space = ProductGraph(g, walkers) if walkers > 1 else g
    psi = random_state(space, rng)
    if tiny:
        amps = psi.amplitudes.copy()
        empty = np.flatnonzero(amps == 0.0)
        picked = rng.choice(empty, size=min(3, empty.size), replace=False)
        amps[picked] = np.sqrt(ZERO_PROB * rng.uniform(0.01, 1.0)
                               / max(picked.size, 1))
        psi = WaveFunction(space, amps)
    return coin, shift, psi


def random_sequence(rng, walkers: int,
                    tiny: bool = False) -> TransitionMatrixSeq:
    """Three steps of :func:`random_walk`."""
    coin, shift, psi = random_walk(rng, walkers, tiny)
    return build_sequence(psi.graph, coin, shift, psi, 3)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2]))
def test_columns_are_closed_under_the_chain(seed, walkers):
    """Every state has a column in every P(t), whatever its mass, so a
    chain never reaches a state without one; each is the reference's."""
    coin, shift, psi = random_walk(np.random.default_rng(seed), walkers,
                                   tiny=True)
    seq = build_sequence(psi.graph, coin, shift, psi, 3)
    masses = [p for p, _ in evolve(psi, coin, shift, 3)]
    for t, mat in enumerate(seq.matrices):
        assert_columns_match(mat, reference(
            psi.base, walkers, shift, seq.rho[t], masses[t + 1],
            range(mat.num_states)))


#: Damage a per-step CSC matrix can carry, each refused by the check of
#: its P(t): none, an empty column, ids out of order within the step, a
#: stored zero, a NaN, an inf, a column id or a target out of range, and
#: an ``indptr`` of the wrong length or shape or with the wrong first or
#: last offset.
DAMAGES = ("none", "empty", "order", "zero", "nan", "inf", "column id",
           "target", "indptr")


def random_steps(rng, num_states: int) -> list[tuple[np.ndarray, ...]]:
    """Zero to four steps of CSC arrays ``(col_ids, indptr, indices,
    data)`` over ``num_states`` states, valid but for the damage of
    :data:`DAMAGES` that each step carries with some chance. The ids of
    one step often fall below those of the step before it."""
    steps = []
    for _ in range(int(rng.integers(5))):
        ids = np.sort(rng.choice(num_states, int(rng.integers(
            min(5, num_states + 1))), replace=False))
        lengths = rng.integers(1, 4, ids.size)
        indices = rng.integers(num_states, size=int(lengths.sum()))
        data = rng.uniform(0.1, 1.0, indices.size)
        damage = DAMAGES[int(rng.integers(len(DAMAGES)))] \
            if rng.random() < 0.4 else "none"
        if damage == "empty" and ids.size:
            lengths[rng.integers(ids.size)] = 0
            indices, data = indices[:lengths.sum()], data[:lengths.sum()]
        elif damage == "order" and ids.size > 1:
            j = int(rng.integers(ids.size - 1))
            ids[j + 1] = ids[j] if rng.random() < 0.5 else ids[j] - 1
        elif damage in ("zero", "nan", "inf") and data.size:
            data[rng.integers(data.size)] = {
                "zero": 0.0, "nan": np.nan, "inf": -np.inf}[damage]
        elif damage == "column id" and ids.size:
            ids[-1 if rng.random() < 0.5 else 0] = \
                num_states if rng.random() < 0.5 else -1
        elif damage == "target" and indices.size:
            indices[rng.integers(indices.size)] = \
                num_states + int(rng.integers(3)) if rng.random() < 0.5 \
                else -1
        ptr = np.concatenate([[0], np.cumsum(lengths)])
        if damage == "indptr":
            ptr = [ptr[:-1], np.append(ptr, ptr[-1]), ptr + 1, ptr[None],
                   np.append(ptr[:-1], ptr[-1] - 1)][int(rng.integers(5))]
        steps.append((ids, ptr, indices, data))
    return steps


def store_arrays(steps) -> list[np.ndarray]:
    """``step_ptr``, ``col_ids``, ``indptr``, ``indices`` and ``data`` of
    per-step CSC arrays, joined one step at a time."""
    step_ptr, ids, indptr, indices, data = [0], [], [0], [], []
    for col_ids, ptr, idx, vals in steps:
        step_ptr.append(step_ptr[-1] + len(col_ids))
        for length in np.diff(ptr).tolist():
            indptr.append(indptr[-1] + length)
        ids += list(col_ids)
        indices += list(idx)
        data += list(vals)
    return [np.array(step_ptr), np.array(ids, dtype=np.int64),
            np.array(indptr), np.array(indices, dtype=np.int64),
            np.array(data, dtype=np.float64)]


@settings(SETTINGS, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_sequence_refuses_what_the_step_check_refuses(seed):
    """A lone ``TransitionMatrix(t, ...)`` refuses exactly the arrays that
    break a CSC matrix, checked one column at a time
    (``_oracles.reference_csc_fault``): an empty column, ids out of order,
    a stored zero, NaN or inf, an id out of range or a malformed
    ``indptr``; its error names P(t) for any t. The sequence of the steps
    with well-formed ``indptr``, joined, is refused exactly when one of
    them is, and its error names the first; ids that fall where a step
    begins are accepted."""
    rng = np.random.default_rng(seed)
    g = ProductGraph(cycle_graph(int(rng.integers(3, 6))),
                     int(rng.integers(1, 3)))
    steps = random_steps(rng, g.num_states)
    start = int(rng.integers(0, 100))
    faults = [oracle.reference_csc_fault(*arrays, g.num_states)
              for arrays in steps]
    for t, (arrays, fault) in enumerate(zip(steps, faults)):
        if fault:
            with pytest.raises(ValidationError, match=re.escape(
                    f"P({start + t}) is not a CSC matrix over "
                    f"{g.num_states} states")):
                TransitionMatrix(start + t, g, *arrays)
        else:
            TransitionMatrix(start + t, g, *arrays)
    if not all(ptr.shape == (len(ids) + 1,) and ptr[0] == 0
               and ptr[-1] == len(idx) for ids, ptr, idx, _ in steps):
        return  # the joined indptr follows the lengths alone
    rho = np.full((len(steps) + 1, g.num_states), 1.0 / g.num_states)
    if not any(faults):
        seq = TransitionMatrixSeq.from_arrays(rho, g, *store_arrays(steps))
        for mat, arrays in zip(seq.matrices, steps):
            for got, want in zip((mat.col_ids, mat.indptr, mat.indices,
                                  mat.data), arrays):
                assert got.tobytes() == want.tobytes()
    else:
        with pytest.raises(ValidationError, match=re.escape(
                f"P({faults.index(True)}) is not a CSC")):
            TransitionMatrixSeq.from_arrays(rho, g, *store_arrays(steps))


def dropped_columns(seq: TransitionMatrixSeq, rng) -> TransitionMatrixSeq:
    """``seq`` with some stored columns of each P(t) dropped, so that
    rho(t) has mass on sources with no stored column, and its entries
    scaled off the simplex: some beyond 1, some below 0."""
    mats = []
    for mat in seq.matrices:
        keep = np.flatnonzero(rng.random(mat.col_ids.size) < 0.6)
        lengths = np.diff(mat.indptr)[keep]
        at = np.concatenate([np.arange(mat.indptr[j], mat.indptr[j + 1])
                             for j in keep] + [np.empty(0, np.int64)])
        data = mat.data[at] * rng.uniform(0.5, 1.5, at.size)
        data[rng.random(at.size) < 0.05] *= -0.1
        mats.append(TransitionMatrix(
            mat.time, mat.graph, mat.col_ids[keep],
            np.concatenate([[0], np.cumsum(lengths)]), mat.indices[at],
            data))
    return TransitionMatrixSeq(mats, seq.rho, seq.graph)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2, 3]),
       regular=st.booleans())
def test_verify_gives_the_bits_of_the_step_by_step_oracle(seed, walkers,
                                                          regular):
    """Each property measured in one pass over the joined arrays has the
    bits of the step-by-step pass (``_oracles.reference_properties``,
    which makes and sums the columns without the engine's lookup or
    propagation), on built sequences of one to three walkers and on
    hand-made ones whose rho has mass on sources with no stored column,
    whose uniform columns are merged in column order."""
    rng = np.random.default_rng(seed)
    coin, shift, interaction, psi = scheduled_walk(
        rng, walkers, regular, named=False,
        max_dim=(40, 20, 8)[walkers - 1])
    built = build_sequence(psi.graph, coin, shift, psi, 3, interaction)
    for seq in (built, dropped_columns(built, rng)):
        got = verify_theorem_properties(seq).as_dict()
        want = oracle.reference_properties(seq).as_dict()
        assert repr(got) == repr(want)


def test_the_residual_pass_is_checked_against_the_budget(c4, monkeypatch):
    """The residual pass charges its (T x S) sums, its mask of sources
    with mass and its per-entry keys and weights to the memory budget,
    and a budget below them raises before anything is summed."""
    g = torus_graph((3, 3))
    seq = build_sequence(g, CoinSpec.grover(g), ShiftSpec.moving(g),
                         WaveFunction.localized(g, 0, 0), 3)
    need = 9 * seq.num_steps * seq.num_states + 24 * seq.data.size
    monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", need)
    assert verify_theorem_properties(seq).passed
    monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", need - 1)
    count = np.bincount

    def bincount(x, weights=None, minlength=0):
        # the residual pass is the one weighted count
        if weights is not None:
            raise AssertionError("summed over the budget")
        return count(x, minlength=minlength)
    monkeypatch.setattr(np, "bincount", bincount)
    with pytest.raises(ResourceLimitError, match="propagation residuals"):
        verify_theorem_properties(seq)


def path_law(seq: TransitionMatrixSeq) -> dict:
    """``{path: probability}`` over every path tau(0..T) of positive
    probability, rho(0)(tau(0)) times the product of its entries."""
    law = {(int(x),): float(p) for x, p in enumerate(seq.rho[0]) if p > 0}
    for mat in seq.matrices:
        columns = {u: mat.column(u) for u in {path[-1] for path in law}}
        law = {path + (int(v),): p * q for path, p in law.items()
               for v, q in zip(*columns[path[-1]])}
    return law


def assert_paths_follow_the_law(seq: TransitionMatrixSeq, size: int,
                                seed: int) -> None:
    """The TVD between the ensemble's path histogram and the exact path
    law stays within E[TVD] <= sqrt(S / M) / 2 over a support of S paths,
    plus McDiarmid's sqrt(ln(1 / delta) / (2 M)) for delta = 1e-9. A path
    the law does not hold counts in full."""
    law = path_law(seq)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-9)
    paths, counts = np.unique(sample_ensemble(seq, size, seed).paths,
                              axis=0, return_counts=True)
    drawn = dict(zip(map(tuple, paths.tolist()), counts / size))
    tvd = 0.5 * sum(abs(drawn.get(path, 0.0) - law.get(path, 0.0))
                    for path in law.keys() | drawn.keys())
    bound = 0.5 * np.sqrt(len(law) / size) \
        + np.sqrt(np.log(1e9) / (2 * size))
    assert tvd <= bound


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2]))
def test_sampled_paths_follow_the_exact_path_law(seed, walkers):
    rng = np.random.default_rng(seed)
    seq = random_sequence(rng, walkers, tiny=True)
    assert_paths_follow_the_law(seq, 4000, int(rng.integers(2**31)))


def test_paths_from_an_unstored_state_follow_the_exact_path_law(c4):
    # rho(0) puts mass on vertex 1, whose column P(0) does not store: its
    # moves are uniform, vertex 0's follow the stored column
    p0 = TransitionMatrix(0, c4, col_ids=[0], indptr=[0, 2],
                          indices=[1, 3], data=[0.8, 0.2])
    p1 = TransitionMatrix(1, c4, col_ids=[], indptr=[0], indices=[],
                          data=[])
    rho = np.array([[0.3, 0.7, 0.0, 0.0]] * 3)
    seq = TransitionMatrixSeq([p0, p1], rho, c4)
    law = path_law(seq)
    assert len(law) == 8
    assert law[0, 1, 2] == 0.3 * 0.8 * 0.5
    assert law[1, 2, 3] == 0.7 * 0.5 * 0.5
    assert_paths_follow_the_law(seq, 4000, 17)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2]))
def test_apply_equals_the_live_column_gather(seed, walkers):
    """``apply`` weighs every stored entry, with zero for sources at or
    below ZERO_PROB; it gives the bits of the gather over the live columns
    alone, on built and on reloaded sequences."""
    rng = np.random.default_rng(seed)
    seq = random_sequence(rng, walkers, tiny=True)
    with tempfile.TemporaryDirectory() as out:
        save_sequence(out, seq)
        loaded = load_sequence(out)
    for s in (seq, loaded):
        for t, mat in enumerate(s.matrices):
            rho = s.rho[t].copy()
            # some materialised sources get masses in (0, ZERO_PROB]
            dead = mat.col_ids[rng.random(mat.col_ids.size) < 0.3]
            rho[dead] = ZERO_PROB * (1.0 - rng.random(dead.size))
            rho[dead[:1]] = ZERO_PROB
            for r in (s.rho[t], rho):
                want = oracle.reference_apply(mat, r, ZERO_PROB)
                assert mat.apply(r).tobytes() == want.tobytes()


def pendant_graph(rng):
    """An irregular graph: a cycle with random chords and a pendant vertex
    on vertex 0, with shuffled port orders."""
    n = int(rng.integers(3, 7))
    edges = {(v, v + 1) for v in range(n - 1)} | {(0, n - 1), (0, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 2, n)
              if rng.random() < 0.3}
    g = build_graph(sorted(edges))
    return build_graph(sorted(edges), ordering=[
        list(rng.permutation(nbrs)) for nbrs in g.out_neighbors])


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), regular=st.booleans())
def test_one_walker_operators_equal_the_direct_forms(seed, regular):
    """One walker runs the K-walker axis code of the coin, the shift and
    the vertex marginal; it gives the bits of the direct one-walker
    forms."""
    rng = np.random.default_rng(seed)
    g = (random_regular_graph(2 * int(rng.integers(3, 7)),
                              int(rng.integers(2, 5)), seed=rng)
         if regular else pendant_graph(rng))
    assert (len(g.degree_classes) == 1) == regular
    coin = random_coin(g, rng, int(rng.integers(0, 3)))
    shift = random_shift(g, rng, int(rng.integers(0, 3)))
    psi = random_state(g, rng)
    amps = psi.amplitudes
    assert oracle.apply_coin(psi, coin).amplitudes.tobytes() \
        == oracle.reference_coin_block_multiply(coin, amps).tobytes()
    assert oracle.apply_shift(psi, shift).amplitudes.tobytes() \
        == amps[shift.inverse].tobytes()
    assert vertex_distribution(psi).tobytes() == np.add.reduceat(
        np.abs(amps) ** 2, g.port_offsets[:-1]).tobytes()


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2]),
       method=st.sampled_from(["scan", "alias"]))
def test_sampled_moves_have_positive_probability(seed, walkers, method):
    rng = np.random.default_rng(seed)
    seq = random_sequence(rng, walkers)
    ens = sample_ensemble(seq, 100, int(rng.integers(2**31)), method=method)
    for t, mat in enumerate(seq.matrices):
        moves = np.unique(ens.paths[:, t:t + 2], axis=0)
        assert all(mat.entry(v, u) > 0 for u, v in moves.tolist())


def reference_locality(paths: np.ndarray, space: ProductGraph) -> float:
    """The mean of ``has_edge`` over every move, one move at a time."""
    local = [space.has_edge(space.tuple_of(u), space.tuple_of(v))
             for path in paths.tolist() for u, v in zip(path, path[1:])]
    return sum(local) / len(local) if local else 1.0


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2]))
def test_locality_equals_the_per_move_mean(seed, walkers):
    # paths that mostly step along tuple edges, with jumps to any state
    # (non-edges, and moves to the same state) and repeated moves
    rng = np.random.default_rng(seed)
    space = ProductGraph(random_graph(rng), walkers)
    size, length = int(rng.integers(1, 30)), int(rng.integers(0, 6))
    paths = np.empty((size, length + 1), dtype=np.int64)
    paths[:, 0] = rng.integers(0, space.num_states, size)
    for t in range(length):
        for rows, _, heads in space.arc_blocks(paths[:, t]):
            paths[rows, t + 1] = heads[:, -1]  # each state's last arc
        jump = rng.random(size) < 0.3
        paths[jump, t + 1] = rng.integers(0, space.num_states, jump.sum())
    if size > 1 and rng.random() < 0.5:
        paths[size // 2:] = paths[:size - size // 2]
    ens = TrajectoryEnsemble(paths, space.num_states)
    got = locality_fraction(ens, space if walkers > 1 else space.base)
    assert got == reference_locality(paths, space)


def test_locality_beyond_the_int64_move_keys_is_the_pairwise_mean():
    # four walkers on a 240-cycle: 240**4 ~ 3.3e9 states, whose squared
    # count overflows int64, so no move key is formed
    space = ProductGraph(cycle_graph(240), 4)
    rng = np.random.default_rng(5)
    steps = rng.choice([-1, 1], size=(20, 6, 4))
    steps[3, 2, 1] = 0  # one walker stays put: not an edge
    steps[7, 4] = 2  # every walker jumps two places: not an edge
    tuples = (rng.integers(0, 240, (20, 1, 4))
              + np.concatenate([np.zeros((20, 1, 4), np.int64),
                                np.cumsum(steps, axis=1)], axis=1)) % 240
    paths = np.ravel_multi_index(tuple(np.moveaxis(tuples, 2, 0)),
                                 space.shape)
    assert space.distinct_moves(paths[:, :-1], paths[:, 1:]) is None
    got = locality_fraction(TrajectoryEnsemble(paths, space.num_states),
                            space)
    assert got == reference_locality(paths, space) == 118 / 120


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), walkers=st.sampled_from([1, 2]),
       method=st.sampled_from(["scan", "alias"]))
def test_sampler_matches_per_column_reference(seed, walkers, method):
    rng = np.random.default_rng(seed)
    seq = random_sequence(rng, walkers)
    size, master = int(rng.integers(1, 300)), int(rng.integers(2**31))
    length = int(rng.integers(0, seq.num_steps + 1))
    ens = sample_ensemble(seq, size, master, length=length, method=method)
    uniforms = np.random.default_rng(master).random((size, length + 1))
    assert np.array_equal(ens.paths,
                          oracle.reference_paths(seq, uniforms, method))


INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64]


def edge_integers(dtype) -> list[int]:
    """0, the extremes of ``dtype`` and each +-10**k and +-(10**k - 1) it
    holds: the values whose text gains or loses a digit or a sign."""
    info = np.iinfo(dtype)
    edges = {0, int(info.min), int(info.max)} | {
        sign * (10**k - d) for k in range(21) for d in (0, 1)
        for sign in (1, -1)}
    return sorted(x for x in edges if info.min <= x <= info.max)


@settings(SETTINGS, max_examples=100)
@given(data=st.data(), dtype=st.sampled_from(INTEGER_DTYPES))
def test_digits_spell_every_integer_as_str(data, dtype):
    """Each row of the digit table is the value's ``str``, right-aligned
    and NUL-padded on the left to the longest text."""
    info = np.iinfo(dtype)
    values = data.draw(st.lists(st.integers(int(info.min), int(info.max)),
                                max_size=20))
    values += data.draw(st.lists(st.sampled_from(edge_integers(dtype)),
                                 max_size=20))
    every_edge = data.draw(st.booleans())
    if every_edge:
        values += edge_integers(dtype)
    table = _digits(np.array(values, dtype=dtype))
    width = max(map(len, map(str, values)), default=1)
    assert table.dtype == np.uint8 and table.shape == (len(values), width)
    assert [bytes(row) for row in table] \
        == [str(v).encode().rjust(width, b"\0") for v in values]


@settings(SETTINGS, max_examples=60)
@given(data=st.data(), walkers=st.integers(1, 3),
       base=st.sampled_from([2, 9, 10, 11, 99, 100, 101]),
       fmt=st.sampled_from(["csv", "json"]))
def test_state_labels_join_the_str_of_each_walker(data, walkers, base, fmt):
    """Labels, as bytes and as a written table's cells, are the vertex
    numbers spelled by ``str`` and joined by ``|``, with bases on either
    side of a new digit."""
    count = base ** walkers
    states = sorted(data.draw(st.sets(st.integers(0, count - 1),
                                      max_size=30)) | {0, count - 1})
    want = oracle.reference_state_labels(states, walkers, base)
    assert ProductGraph.label_texts(states, walkers, base).tolist() \
        == [label.encode() for label in want]
    table = persist.trajectories_table(
        TrajectoryEnsemble(np.array(states)[:, None], count), walkers, base)
    with tempfile.TemporaryDirectory() as out:
        write_table(Path(out) / "t", table, fmt)
        rows = oracle.read_table(Path(out) / "t").rows
    assert [row[2] for row in rows] == want


#: Floats whose text must stay apart or be spelled exactly: signed zeros
#: and NaNs, infinities, subnormals, the int64 extremes and the longest
#: repr (24 characters).
SPECIAL_FLOATS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                  -2.5e-310, float(2**63), -float(2**63), 0.1, 1e16,
                  -2.2250738585072014e-308]
INT64 = np.iinfo(np.int64)
#: Non-empty strings without a comma, a quote, a line break or a NUL: the
#: text a table cell may hold. Short ones; ones of 7-9 and 15-17 bytes,
#: which with their separator fill one or two 8-byte words or spill into
#: the next; and non-ASCII ones, of 2- to 4-byte UTF-8 characters.
CELL_TEXT = (st.text(alphabet=" |a0#", min_size=1, max_size=4)
             | st.text(alphabet=" |a0#", min_size=7, max_size=9)
             | st.text(alphabet=" |a0#", min_size=15, max_size=17)
             | st.text(alphabet="a|éπ€😀", min_size=1, max_size=6))
#: Cells no table may hold: empty strings, strings with a comma, a quote,
#: a line break or a NUL, and values that are not strings.
BAD_CELL = (st.text(alphabet=',"\n\r\0 a', max_size=4)
            .filter(lambda text: text.strip(" a") or not text)
            | st.none() | st.integers() | st.floats() | st.booleans())


def coded_column(size: int):
    """A coded column of ``size`` cells over one to four int64, float64
    or text values."""
    values = st.one_of(
        hnp.arrays(np.int64, st.integers(1, 4),
                   elements=st.integers(INT64.min, INT64.max)),
        hnp.arrays(np.float64, st.integers(1, 4),
                   elements=st.floats() | st.sampled_from(SPECIAL_FLOATS)),
        st.lists(CELL_TEXT, min_size=1, max_size=4)
        .map(lambda cells: np.array(cells, dtype=object)),
    )
    return values.flatmap(lambda v: hnp.arrays(
        np.int64, size, elements=st.integers(0, v.size - 1)
    ).map(lambda codes: CodedColumn(codes, v)))


def csv_column(size: int):
    """One column of ``size`` cells in any of the forms a table holds."""
    def array(dtype, elements=None):
        return hnp.arrays(dtype, size, elements=elements)
    return st.one_of(
        coded_column(size),
        array(st.sampled_from([np.int8, np.int32, np.uint8, np.uint64])),
        array(np.int64, st.integers(INT64.min, INT64.max)
              | st.sampled_from([INT64.min, INT64.max])),
        array(np.float64, st.floats() | st.sampled_from(SPECIAL_FLOATS)),
        array(np.float32, st.floats(width=32)),
        array(np.bool_),
        st.lists(CELL_TEXT, min_size=size, max_size=size)
        .map(lambda cells: np.array(cells, dtype=object)),
        st.lists(CELL_TEXT, min_size=size, max_size=size),
    )


@st.composite
def csv_tables(draw) -> Table:
    width, size = draw(st.integers(0, 4)), draw(st.integers(0, 12))
    return Table(
        draw(st.lists(CELL_TEXT, min_size=width, max_size=width)),
        columns=[draw(csv_column(size)) for _ in range(width)],
        meta=draw(st.dictionaries(st.sampled_from(["seed", "states"]),
                                  st.integers(0, 99))))


@settings(SETTINGS, max_examples=200)
@given(table=csv_tables(),
       chunk=st.sampled_from([1, 2, 3, 5, persist.CHUNK_ROWS]),
       floor=st.sampled_from([0, numtext.FLOAT_FLOOR]))
def test_csv_export_equals_the_csv_module(table, chunk, floor):
    # floor 0 sends every float column through the numpy float speller
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(persist, "CHUNK_ROWS", chunk), \
            mock.patch.object(numtext, "FLOAT_FLOOR", floor):
        got = write_table(Path(out) / "got", table).read_bytes()
        want = oracle.reference_write_table(Path(out) / "want", table)
        assert got == want.read_bytes()


def test_float_columns_on_either_side_of_the_floor_equal_the_csv_module(
        tmp_path):
    # one column of FLOAT_FLOOR - 1 distinct floats, spelled by repr, and
    # one of FLOAT_FLOOR, spelled in numpy; specials ride in both
    rng = np.random.default_rng(11)
    size = numtext.FLOAT_FLOOR
    columns = [rng.random(size) * 10.0 ** rng.integers(-30, 30, size)
               for _ in range(2)]
    for column in columns:
        column[:len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
    columns[0][-1] = columns[0][-2]
    assert [np.unique(c.view(np.uint64)).size for c in columns] \
        == [size - 1, size]
    table = Table(["below", "at"], columns)
    got = write_table(tmp_path / "got", table).read_bytes()
    assert got == oracle.reference_write_table(tmp_path / "want",
                                               table).read_bytes()


@settings(SETTINGS, max_examples=100)
@given(data=st.data(), size=st.integers(1, 12), width=st.integers(0, 3),
       fmt=st.sampled_from(["csv", "json"]))
def test_a_cell_outside_the_contract_is_refused(data, size, width, fmt):
    """One cell that is not a plain non-empty string, in a plain, array or
    coded text column, raises ValidationError naming that column; in the
    header, naming the header; in CSV and JSON alike."""
    cells = data.draw(st.lists(CELL_TEXT, min_size=size, max_size=size))
    bad = data.draw(BAD_CELL)
    cells[data.draw(st.integers(0, size - 1))] = bad
    texts = np.array(cells, dtype=object)
    column = data.draw(st.sampled_from(
        [cells, texts, CodedColumn(np.arange(size), texts)]))
    header = [f"c{i}" for i in range(width)]
    columns = [data.draw(csv_column(size)) for _ in range(width)]
    at = data.draw(st.integers(0, width))
    header.insert(at, "bad")
    columns.insert(at, column)
    with tempfile.TemporaryDirectory() as out:
        with pytest.raises(ValidationError, match="column 'bad'"):
            write_table(Path(out) / "t", Table(header, columns), fmt)
        header[at], columns[at] = bad, np.arange(size)
        with pytest.raises(ValidationError, match="the header"):
            write_table(Path(out) / "t", Table(header, columns), fmt)
        assert not any(Path(out).iterdir())


@settings(SETTINGS, max_examples=100)
@given(table=csv_tables())
def test_coded_columns_write_the_json_of_their_cells(table):
    plain = Table(table.header, meta=table.meta, columns=[
        c.values[c.codes] if isinstance(c, CodedColumn) else c
        for c in table.columns])
    with tempfile.TemporaryDirectory() as out:
        got = write_table(Path(out) / "got", table, "json")
        want = write_table(Path(out) / "want", plain, "json")
        assert got.read_bytes() == want.read_bytes()


@settings(SETTINGS, max_examples=200)
@given(data=st.data(), chunk=st.sampled_from([1, 2, 3, 5]))
def test_json_rows_written_in_chunks_are_one_json_document(data, chunk):
    # around the chunk size, and with no rows at all
    size = data.draw(st.sampled_from([0, chunk - 1, chunk, chunk + 1])
                     | st.integers(0, 12))
    width = data.draw(st.integers(0, 4))
    table = Table(
        data.draw(st.lists(CELL_TEXT, min_size=width, max_size=width)),
        columns=[data.draw(csv_column(size)) for _ in range(width)],
        meta=data.draw(st.dictionaries(st.sampled_from(["seed", "states"]),
                                       st.integers(0, 99))))
    cells = [c.values[c.codes].tolist() if isinstance(c, CodedColumn)
             else c.tolist() if isinstance(c, np.ndarray) else list(c)
             for c in table.columns]
    payload = {"meta": table.meta, "header": table.header,
               "rows": list(zip(*cells))}
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(persist, "CHUNK_ROWS", chunk):
        got = write_table(Path(out) / "t", table, "json").read_bytes()
    assert got == (json.dumps(payload, sort_keys=True) + "\n").encode()
