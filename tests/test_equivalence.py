import gc
import re
import tracemalloc

import numpy as np
import pytest

import _oracles as oracle
from qrwalk import (
    CoinSpec,
    ConsistencyError,
    InteractionSpec,
    ProductGraph,
    ResourceLimitError,
    ShiftSpec,
    TransitionMatrix,
    TransitionMatrixSeq,
    ValidationError,
    WaveFunction,
    build_graph,
    build_sequence,
    complete_graph,
    cycle_graph,
    step,
    torus_graph,
    verify_theorem_properties,
    vertex_distribution,
)
from qrwalk import equivalence, walk
from qrwalk.equivalence import ZERO_PROB, matrix_from_masses
from qrwalk.persist import load_sequence, save_sequence


def hadamard_walk(graph, t=0):
    return CoinSpec.hadamard(graph), ShiftSpec.moving(graph)


def step_matrix(psi_t, psi_next, shift, time=0):
    """P(t) between two states of one or more walkers on one graph."""
    return matrix_from_masses(psi_t.graph, shift, vertex_distribution(psi_t),
                              np.abs(psi_next.amplitudes) ** 2, time=time)


def irregular_graph(n):
    """The n-cycle with a chord (i, i + 2) at every third vertex, so that
    degrees 2 and 3 alternate irregularly."""
    return build_graph([(i, (i + 1) % n) for i in range(n)]
                       + [(i, i + 2) for i in range(0, n - 2, 3)])


#: Graphs of 1 to 3 walkers, tori and irregular, for the arc budget.
BUDGET_GRAPHS = [
    (1, torus_graph((60, 60))), (1, irregular_graph(3000)),
    (2, torus_graph((6, 6))), (2, irregular_graph(30)),
    (3, torus_graph((3, 4))), (3, irregular_graph(12)),
]
BUDGET_IDS = ["K1-torus", "K1-irregular", "K2-torus", "K2-irregular",
              "K3-torus", "K3-irregular"]


def stored_columns(mat):
    """(source, targets, probs) for every column, stored or uniform."""
    for u in range(mat.num_states):
        yield (u, *mat.column(u))


class TestBuildTransitionMatrix:
    def test_c4_first_step_frozen_values(self, c4):
        coin, shift = hadamard_walk(c4)
        psi0 = WaveFunction.localized(c4, 0, 0)
        psi1 = step(psi0, coin, shift)
        mat = step_matrix(psi0, psi1, shift)
        dense = oracle.toarray(mat)
        # supported column 0 carries the walk; the rest are uniform 1/2
        expected = np.array([
            [0.0, 0.5, 0.0, 0.5],
            [0.5, 0.0, 0.5, 0.0],
            [0.0, 0.5, 0.0, 0.5],
            [0.5, 0.0, 0.5, 0.0],
        ])
        assert np.allclose(dense, expected, atol=1e-15)

    def test_identity_coin_splits_each_column_by_port(self, c4, rng):
        # the moving shift carries port 0 of u to u + 1 and port 1 to u - 1
        shift = ShiftSpec.moving(c4)
        amps = rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        psi0 = WaveFunction(c4, amps)
        psi1 = step(psi0, CoinSpec.identity(c4), shift)
        mat = step_matrix(psi0, psi1, shift)
        rho = vertex_distribution(psi0)
        for u in range(4):
            a0, a1 = amps[c4.basis_index(u, 0)], amps[c4.basis_index(u, 1)]
            assert mat.entry((u + 1) % 4, u) \
                == pytest.approx(a0 ** 2 / rho[u], abs=1e-12)
            assert mat.entry((u - 1) % 4, u) \
                == pytest.approx(a1 ** 2 / rho[u], abs=1e-12)

    def test_torus_grover_columns_stochastic(self, torus1010):
        coin = CoinSpec.grover(torus1010)
        shift = ShiftSpec.moving(torus1010)
        psi = WaveFunction.localized(torus1010, 0, 0)
        for t in range(50):
            nxt = step(psi, coin, shift, t=t)
            mat = step_matrix(psi, nxt, shift, time=t)
            for u, targets, probs in stored_columns(mat):
                assert abs(probs.sum() - 1.0) < 1e-10
                assert probs.min() >= 0.0 and probs.max() <= 1.0
            psi = nxt

    def test_graph_locality_of_entries(self, c4, rng):
        coin = CoinSpec.random_unitary(c4, rng)
        shift = ShiftSpec.flip_flop(c4)
        psi0 = WaveFunction(c4, np.full(8, 1 / np.sqrt(8), dtype=complex))
        psi1 = step(psi0, coin, shift)
        mat = step_matrix(psi0, psi1, shift)
        for u, targets, probs in stored_columns(mat):
            for v in targets[probs > 0].tolist():
                assert c4.has_edge(u, v)

    def test_zero_column_is_exactly_uniform(self, c4):
        coin, shift = hadamard_walk(c4)
        psi0 = WaveFunction.localized(c4, 0, 0)
        psi1 = step(psi0, coin, shift)
        mat = step_matrix(psi0, psi1, shift)
        targets, probs = mat.column(2)  # rho(2, 0) = 0
        assert np.array_equal(probs, [0.5, 0.5])

    def test_non_unitary_coin_raises_consistency_error(self, c4):
        # the masses a coin scaled by 1.1 would leave after one step
        coin, shift = hadamard_walk(c4)
        psi0 = WaveFunction.localized(c4, 0, 0)
        psi1 = step(psi0, coin, shift)
        with pytest.raises(ConsistencyError, match="unitary"):
            matrix_from_masses(
                ProductGraph(c4, 1), shift, vertex_distribution(psi0),
                1.21 * np.abs(psi1.amplitudes) ** 2)

    def test_mismatched_graph_rejected(self, c4, k5):
        coin, shift = hadamard_walk(c4)
        psi0 = WaveFunction.localized(c4, 0, 0)
        psi1 = step(psi0, coin, shift)
        with pytest.raises(ValidationError, match="different graph"):
            step_matrix(psi0, psi1, ShiftSpec.flip_flop(k5))

    def test_cauchy_schwarz_bound_on_random_instances(self, rng):
        g = torus_graph((3, 3))
        for seed in range(3):
            coin = CoinSpec.random_unitary(g, rng)
            shift = ShiftSpec.flip_flop(g)
            amps = rng.normal(size=g.basis_dim) \
                + 1j * rng.normal(size=g.basis_dim)
            amps /= np.linalg.norm(amps)
            psi0 = WaveFunction(g, amps)
            psi1 = step(psi0, coin, shift)
            mat = step_matrix(psi0, psi1, shift)
            for _, _, probs in stored_columns(mat):
                assert probs.max() <= 1.0 and probs.min() >= 0.0


#: The arrays a TransitionMatrix holds.
MATRIX_ARRAYS = ("col_ids", "indptr", "indices", "data")
SEQ_ARRAYS = ("step_ptr",) + MATRIX_ARRAYS


class TestMatrixArrays:
    def test_read_only_arrays_are_kept_and_writeable_ones_copied(self, c4):
        arrays = {"col_ids": np.array([0, 2]), "indptr": np.array([0, 2, 3]),
                  "indices": np.array([1, 3, 1]),
                  "data": np.array([0.5, 0.5, 1.0])}
        mat = TransitionMatrix(0, c4, **arrays)
        for name, arr in arrays.items():
            got = getattr(mat, name)
            assert got is not arr and not got.flags.writeable
            assert got.tobytes() == arr.tobytes()
        arrays["data"][0] = 0.25  # the caller's array, not the matrix's
        assert mat.column(0)[1].tolist() == [0.5, 0.5]
        for arr in arrays.values():
            arr.flags.writeable = False
        kept = TransitionMatrix(0, c4, **arrays)
        assert all(getattr(kept, name) is arr
                   for name, arr in arrays.items())
        # the wrong type is copied whatever its flags
        ids = np.array([0, 2], dtype=np.int32)
        ids.flags.writeable = False
        cast = TransitionMatrix(0, c4, ids, *list(arrays.values())[1:])
        assert cast.col_ids.dtype == np.int64 and cast.col_ids is not ids

    def test_builders_hand_over_their_arrays_without_a_copy(
            self, c4, tmp_path, monkeypatch):
        # the arrays each constructor call receives are the ones it keeps:
        # the matrix find makes, and the joined arrays of the built and
        # the loaded sequence; the views of their steps check nothing
        received = []
        check, hold = TransitionMatrix.__post_init__, TransitionMatrixSeq._hold

        def spy(mat):
            arrays = {name: getattr(mat, name) for name in MATRIX_ARRAYS}
            check(mat)
            received.append((mat, arrays))

        def spy_hold(seq, rho, graph, *arrays, **kwargs):
            hold(seq, rho, graph, *arrays, **kwargs)
            received.append((seq, dict(zip(SEQ_ARRAYS, arrays))))
        monkeypatch.setattr(TransitionMatrix, "__post_init__", spy)
        monkeypatch.setattr(TransitionMatrixSeq, "_hold", spy_hold)
        pg = ProductGraph(c4, 2)
        coin, shift = hadamard_walk(c4)
        seq = build_sequence(pg, coin, shift,
                             WaveFunction.localized(pg, (0, 1), (0, 1)), 3)
        seq.matrices[0].find(np.arange(pg.num_states))
        save_sequence(tmp_path, seq)
        assert len(load_sequence(tmp_path).matrices) == 3
        assert len(received) == 1 + 1 + 1
        for obj, arrays in received:
            assert all(getattr(obj, name) is arr
                       for name, arr in arrays.items())

    @pytest.mark.parametrize("state", [-5, -1, 5, 7])
    @pytest.mark.parametrize("call", ["find", "column", "entry", "draw"])
    def test_states_out_of_range_are_refused(self, call, state):
        # P(1) of a 5-cycle once read -5 as state 0 and drew from -1 as
        # from state 4; now each reader names the state it refuses
        g = cycle_graph(5)
        mat = build_sequence(g, *hadamard_walk(g),
                             WaveFunction.localized(g, 0, 0), 2).matrices[1]
        calls = {"find": lambda: mat.find([0, state]),
                 "column": lambda: mat.column(state),
                 "entry": lambda: mat.entry(0, state),
                 "draw": lambda: mat.draw([0, state], [0.3, 0.3])}
        with pytest.raises(ValidationError, match=re.escape(
                f"state {state} is not one of the 5 states of P(1)")):
            calls[call]()


class TestBuildSequence:
    def test_horizon_one_equals_single_build(self, c4):
        coin, shift = hadamard_walk(c4)
        psi0 = WaveFunction.localized(c4, 0, 0)
        seq = build_sequence(c4, coin, shift, psi0, 1)
        psi1 = step(psi0, coin, shift)
        direct = step_matrix(psi0, psi1, shift)
        assert np.array_equal(oracle.toarray(seq.matrices[0]),
                              oracle.toarray(direct))

    def test_c4_hadamard_propagation(self, c4):
        coin, shift = hadamard_walk(c4)
        seq = build_sequence(c4, coin, shift,
                             WaveFunction.localized(c4, 0, 0), 10)
        for t in range(10):
            residual = seq.matrices[t].apply(seq.rho[t]) - seq.rho[t + 1]
            assert np.max(np.abs(residual)) < 1e-10

    def test_time_dependent_coin_schedule(self, c4):
        table = {t: CoinSpec.hadamard(c4) if t % 2 else CoinSpec.grover(c4)
                 for t in range(6)}
        seq = build_sequence(c4, lambda t: table[t], ShiftSpec.moving(c4),
                             WaveFunction.localized(c4, 0, 0), 6)
        assert verify_theorem_properties(seq).passed

    def test_negative_horizon_rejected(self, c4):
        coin, shift = hadamard_walk(c4)
        with pytest.raises(ValidationError):
            build_sequence(c4, coin, shift,
                           WaveFunction.localized(c4, 0, 0), -1)

    @staticmethod
    def torus_walk():
        g = torus_graph((12, 12))
        return (g, CoinSpec.grover(g), ShiftSpec.moving(g),
                WaveFunction.localized(g, 0, 0))

    def test_the_masses_are_never_put_over_the_whole_space(self,
                                                           monkeypatch):
        # build_sequence reads each step's masses on the walk's box; only
        # evolve scatters them over the joint basis
        g, coin, shift, psi = self.torus_walk()
        want = build_sequence(g, coin, shift, psi, 4)

        def scatter(*args):
            raise AssertionError("masses put over the whole space")
        monkeypatch.setattr(walk, "_basis_masses", scatter)
        got = build_sequence(g, coin, shift, psi, 4)
        assert got.rho.tobytes() == want.rho.tobytes()
        for a, b in zip(got.matrices, want.matrices):
            assert all(getattr(a, name).tobytes() == getattr(b, name).tobytes()
                       for name in ("col_ids", "indptr", "indices", "data"))
        with pytest.raises(AssertionError, match="whole space"):
            next(walk.evolve(psi, coin, shift, 4))

    def test_the_builder_reads_the_masses_in_the_walk_buffer(self,
                                                             monkeypatch):
        # each P(t) gets a view of the walk's spare buffer, shaped as the
        # box of the axes it comes with, smaller than the joint basis
        g, coin, shift, psi = self.torus_walk()
        seen, build = [], equivalence._ratio_columns

        def spy(pg, shifts, rho_t, p_next, time, axes):
            seen.append((p_next.shape, p_next.flags.owndata,
                         tuple(a.size for a in axes)))
            return build(pg, shifts, rho_t, p_next, time, axes)
        monkeypatch.setattr(equivalence, "_ratio_columns", spy)
        build_sequence(g, coin, shift, psi, 4)
        assert len(seen) == 4
        for shape, owned, sizes in seen:
            assert shape == sizes and not owned
            assert 0 < np.prod(shape) < g.basis_dim


class TestVerifyProperties:
    def test_valid_sequence_passes(self, torus44):
        coin = CoinSpec.grover(torus44)
        shift = ShiftSpec.flip_flop(torus44)
        seq = build_sequence(torus44, coin, shift,
                             WaveFunction.localized(torus44, 5, 2), 20)
        report = verify_theorem_properties(seq)
        assert report.passed
        assert report.max_entry_violation <= 1e-10
        assert report.max_column_sum_deviation <= 1e-10
        assert report.max_propagation_residual <= 1e-10

    def test_scaled_coin_reports_column_sum_violation(self, c4):
        coin, shift = hadamard_walk(c4)
        valid = build_sequence(c4, coin, shift,
                               WaveFunction.localized(c4, 0, 0), 3)
        seq = TransitionMatrixSeq(
            [TransitionMatrix(m.time, m.graph, m.col_ids, m.indptr,
                              m.indices, 1.1 * m.data)
             for m in valid.matrices], valid.rho, valid.graph)
        report = verify_theorem_properties(seq)
        assert not report.passed
        assert report.max_column_sum_deviation > 1e-2

    def test_empty_sequence_gives_empty_report(self, c4):
        coin, shift = hadamard_walk(c4)
        seq = build_sequence(c4, coin, shift,
                             WaveFunction.localized(c4, 0, 0), 0)
        report = verify_theorem_properties(seq)
        assert report.num_steps == 0
        assert report.passed

    def test_report_renders(self, c4):
        coin, shift = hadamard_walk(c4)
        seq = build_sequence(c4, coin, shift,
                             WaveFunction.localized(c4, 0, 0), 2)
        text = str(verify_theorem_properties(seq))
        assert "propagation" in text and "pass" in text


class TestMultiwalker:
    def test_k1_reduces_to_single_walker_matrix(self, c4):
        coin, shift = hadamard_walk(c4)
        psi0 = WaveFunction.localized(c4, 0, 0)
        psi1 = step(psi0, coin, shift)
        single = oracle.reference_columns(
            c4, 1, [shift.permutation], vertex_distribution(psi0),
            np.abs(psi1.amplitudes) ** 2, range(4), 1e-14)
        expected = np.zeros((4, 4))
        for u, (targets, probs) in single.items():
            expected[targets, u] = probs
        multi = step_matrix(psi0, psi1, shift)
        assert np.array_equal(oracle.toarray(multi), expected)

    def test_joint_propagation_with_interaction(self, c4):
        pg = ProductGraph(c4, 2)
        coin, shift = hadamard_walk(c4)
        inter = InteractionSpec.coincidence_phase(pg, np.pi)
        psi0 = WaveFunction.localized(pg, (0, 0), (0, 0))
        seq = build_sequence(pg, coin, shift, psi0, 5, interaction=inter)
        report = verify_theorem_properties(seq)
        assert report.passed

    def test_joint_matches_dense_oracle_evolution(self, c4):
        pg = ProductGraph(c4, 2)
        coin, shift = hadamard_walk(c4)
        inter = InteractionSpec.coincidence_phase(pg, np.pi)
        psi0 = WaveFunction.localized(pg, (0, 0), (0, 0))
        seq = build_sequence(pg, coin, shift, psi0, 5, interaction=inter)

        w = oracle.kron_power(oracle.dense_coin(c4, coin.blocks), 2)
        s = oracle.kron_power(oracle.dense_moving_shift(c4), 2)
        u = oracle.dense_coincidence_phase(c4, 2, np.pi)
        op = s @ w @ u
        amps = psi0.amplitudes.copy()
        offs = c4.port_offsets
        for t in range(6):
            probs = np.abs(amps) ** 2
            joint = np.add.reduceat(
                np.add.reduceat(probs.reshape(8, 8), offs[:-1], axis=0),
                offs[:-1], axis=1).reshape(-1)
            assert np.max(np.abs(joint - seq.rho[t])) < 1e-10
            amps = op @ amps

    def test_product_initial_state_factorises(self, c4):
        pg = ProductGraph(c4, 2)
        coin, shift = hadamard_walk(c4)
        psi0 = WaveFunction.localized(pg, (0, 0), (0, 0))
        seq2 = build_sequence(pg, coin, shift, psi0, 5,
                              interaction=InteractionSpec.identity(pg))
        seq1 = build_sequence(c4, coin, shift,
                              WaveFunction.localized(c4, 0, 0), 5)
        for t in range(6):
            joint = seq2.rho[t].reshape(4, 4)
            outer = np.outer(seq1.rho[t], seq1.rho[t])
            assert np.max(np.abs(joint - outer)) < 1e-10

    def test_supported_columns_are_entry_products(self, c4):
        coin, shift = hadamard_walk(c4)
        pg = ProductGraph(c4, 2)
        a = WaveFunction.localized(c4, 0, 0)
        b = WaveFunction.localized(c4, 1, 1)
        joint0 = WaveFunction(pg, np.kron(a.amplitudes, b.amplitudes))
        joint1 = step(joint0, coin, shift)
        a1, b1 = step(a, coin, shift), step(b, coin, shift)
        multi = step_matrix(joint0, joint1, shift)
        m_a = step_matrix(a, step(a, coin, shift), shift)
        m_b = step_matrix(b, step(b, coin, shift), shift)
        rho_joint = vertex_distribution(joint0)
        for u in np.flatnonzero(rho_joint > 1e-14):
            u1, u2 = pg.tuple_of(int(u))
            targets, probs = multi.column(int(u))
            for v, p in zip(targets.tolist(), probs.tolist()):
                v1, v2 = pg.tuple_of(v)
                assert p == pytest.approx(
                    m_a.entry(v1, u1) * m_b.entry(v2, u2), abs=1e-10)

    def test_interacting_marginals_deviate_from_free_walkers(self, c4):
        pg = ProductGraph(c4, 2)
        coin, shift = hadamard_walk(c4)
        psi0 = WaveFunction.localized(pg, (0, 0), (0, 0))
        free = build_sequence(pg, coin, shift, psi0, 5)
        bound = build_sequence(
            pg, coin, shift, psi0, 5,
            interaction=InteractionSpec.coincidence_phase(pg, np.pi))
        deviation = max(
            np.abs(free.rho[t].reshape(4, 4).sum(axis=1)
                   - bound.rho[t].reshape(4, 4).sum(axis=1)).max()
            for t in range(1, 6)
        )
        assert deviation > 1e-3

    def test_support_columns_cover_chain(self, c4):
        pg = ProductGraph(c4, 2)
        coin, shift = hadamard_walk(c4)
        psi0 = WaveFunction.localized(pg, (0, 0), (0, 0))
        seq = build_sequence(pg, coin, shift, psi0, 5)
        for t in range(5):
            for u in np.flatnonzero(seq.rho[t] > 1e-14):
                seq.matrices[t].column(int(u))  # must not raise

    def test_unmaterialised_column_raises(self, c4, monkeypatch):
        # an unstored column is made on demand, so reading it is held to
        # the memory budget; the stored one is read with no allocation
        pg = ProductGraph(c4, 2)
        coin, shift = hadamard_walk(c4)
        psi0 = WaveFunction.localized(pg, (0, 0), (0, 0))
        mat = step_matrix(psi0, step(psi0, coin, shift), shift)
        assert mat.col_ids.tolist() == [0]
        u = int(np.ravel_multi_index((1, 2), pg.shape))
        need = equivalence._arc_bytes(2) * (mat.data.size + 4)
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", need)
        assert mat.column(u)[0].size == 4

        def allocate(*args):
            raise AssertionError("arcs allocated before the budget check")
        monkeypatch.setattr(ProductGraph, "arc_blocks", allocate)
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", 0)
        assert mat.column(0)[0].size == mat.data.size
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", need - 1)
        with pytest.raises(ResourceLimitError, match="1 uniform columns"):
            mat.column(u)

    def test_extra_columns_materialise_uniform(self, c4):
        # only (0, 0) has mass, so only its column is stored; (1, 2) gets
        # 1/4 on its 4 product neighbours, in ascending joint index
        pg = ProductGraph(c4, 2)
        coin, shift = hadamard_walk(c4)
        psi0 = WaveFunction.localized(pg, (0, 0), (0, 0))
        psi1 = step(psi0, coin, shift)
        mat = step_matrix(psi0, psi1, shift)
        assert mat.col_ids.tolist() == [0]
        targets, probs = mat.column(np.ravel_multi_index((1, 2), pg.shape))
        assert targets.tolist() == sorted(np.ravel_multi_index(
            tuple(zip(*pg.out_neighbors((1, 2)))), pg.shape).tolist())
        assert probs.tolist() == [0.25] * 4
        assert not (targets.flags.writeable or probs.flags.writeable)

    def test_arcs_over_the_memory_budget_are_never_allocated(self, c4,
                                                             monkeypatch):
        pg = ProductGraph(c4, 2)
        coin, shift = hadamard_walk(c4)
        psi0 = WaveFunction.uniform(pg)  # every pair holds mass
        args = (pg, [shift] * 2, vertex_distribution(psi0),
                np.abs(step(psi0, coin, shift).amplitudes) ** 2)
        need = equivalence._arc_bytes(2) * 16 * 4  # 16 pairs, 4 arcs each
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", need)
        assert matrix_from_masses(*args).col_ids.size == 16

        def allocate(*args):
            raise AssertionError("arcs allocated before the budget check")
        monkeypatch.setattr(ProductGraph, "arc_blocks", allocate)
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", need - 1)
        with pytest.raises(ResourceLimitError, match="64 arcs .* P\\(0\\)"):
            matrix_from_masses(*args)

    def test_uniform_columns_over_the_memory_budget_are_never_allocated(
            self, c4, monkeypatch):
        pg = ProductGraph(c4, 2)
        mat = TransitionMatrix(0, pg, [], [0], [], [])
        need = equivalence._arc_bytes(2) * 16 * 4  # 16 pairs, 4 arcs each
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", need)
        assert mat.find(np.arange(16))[0].col_ids.size == 16

        def allocate(*args):
            raise AssertionError("arcs allocated before the budget check")
        monkeypatch.setattr(ProductGraph, "arc_blocks", allocate)
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", need - 1)
        with pytest.raises(ResourceLimitError, match="64 entries of P\\(0\\)"):
            mat.find(np.arange(16))

    @pytest.mark.parametrize("walkers, graph", BUDGET_GRAPHS,
                             ids=BUDGET_IDS)
    def test_uniform_columns_stay_within_the_arc_budget(self, walkers,
                                                        graph):
        # with none and with a third of the columns stored, find makes
        # the rest: every state's arcs become entries of one matrix
        pg = ProductGraph(graph, walkers)
        states = np.arange(pg.num_states)
        empty = TransitionMatrix(0, pg, [], [0], [], [])
        np.unique(states)  # its first call allocates a one-off cache
        for mat in (empty, empty.find(states[::3])[0]):
            gc.collect()
            tracemalloc.start()
            try:
                mat.find(states)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= equivalence._arc_bytes(walkers) * pg.basis_dim

    @pytest.mark.parametrize("walkers, graph", BUDGET_GRAPHS,
                             ids=BUDGET_IDS)
    def test_arc_budget_bounds_the_measured_peak(self, walkers, graph):
        # every column on the ratio rule: the build's largest arc arrays
        rng = np.random.default_rng(walkers)
        pg = ProductGraph(graph, walkers)
        amps = rng.normal(size=pg.basis_dim) \
            + 1j * rng.normal(size=pg.basis_dim)
        psi = WaveFunction(pg, amps / np.linalg.norm(amps))
        shift = ShiftSpec.flip_flop(graph)
        rho = vertex_distribution(psi)
        assert rho.min() > ZERO_PROB
        masses = np.abs(step(psi, CoinSpec.grover(graph), shift).amplitudes)
        arcs = int(pg.out_degrees(np.arange(pg.num_states)).sum())
        args = (pg, shift, rho, masses ** 2)
        gc.collect()
        tracemalloc.start()
        try:
            matrix_from_masses(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= equivalence._arc_bytes(walkers) * arcs

    def test_dense_matrix_over_the_memory_budget_is_never_allocated(
            self, c4, monkeypatch):
        coin, shift = hadamard_walk(c4)
        psi0 = WaveFunction.localized(c4, 0, 0)
        mat = step_matrix(psi0, step(psi0, coin, shift), shift)
        # the dense array and the arc arrays of up to 8 uniform columns
        need = 8 * 4 * 4 + equivalence._arc_bytes(1) * 8
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", need)
        assert oracle.toarray(mat).shape == (4, 4)

        def allocate(*args, **kwargs):
            raise AssertionError("dense array allocated before the budget "
                                 "check")
        monkeypatch.setattr(np, "zeros", allocate)
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", need - 1)
        with pytest.raises(ResourceLimitError, match="dense P\\(0\\)"):
            oracle.toarray(mat)


class TestStateLabels:
    def test_single_walker_labels(self):
        assert ProductGraph.label_texts([7], 1, 10).tolist() == [b"7"]

    def test_tuple_labels_round_trip(self):
        for idx in (0, 5, 15):
            [label] = ProductGraph.label_texts([idx], 2, 4).tolist()
            digits = [int(x) for x in label.split(b"|")]
            assert np.ravel_multi_index(digits, (4, 4)) == idx

    @pytest.mark.parametrize("walkers", [1, 2, 3])
    @pytest.mark.parametrize("bad, message", [
        (-1, "state index -1 outside 0 .. {last}"),
        ("end", "state index {end} outside 0 .. {last}"),
        (3.7, "a 1-d array of integers, got 1-d float64"),
        (True, "a 1-d array of integers, got 1-d bool"),
    ], ids=["negative", "past-the-end", "float", "bool"])
    def test_bad_indices_are_refused(self, walkers, bad, message):
        # on 10 base vertices the states are 0 .. 10**walkers - 1
        end = 10 ** walkers
        indices = [end if bad == "end" else bad]
        with pytest.raises(ValidationError, match=message.format(
                end=end, last=end - 1)):
            ProductGraph.label_texts(indices, walkers, 10)
        with pytest.raises(ValidationError, match="got 2-d int64"):
            ProductGraph.label_texts([[0, 1]], walkers, 10)


class TestSequenceShape:
    def test_state_count_must_be_a_power_of_the_walker_count(self, c4):
        # rho has one entry per state of the graph: |V|^K of them
        rho = np.full((1, 8), 1.0 / 8)
        seq = TransitionMatrixSeq([], rho, ProductGraph(complete_graph(2), 3))
        assert (seq.num_walkers, seq.num_base_vertices) == (3, 2)
        with pytest.raises(ValidationError, match="expected \\(1, 16\\)"):
            TransitionMatrixSeq([], rho, ProductGraph(c4, 2))
        with pytest.raises(ValidationError, match="expected \\(1, 4\\)"):
            TransitionMatrixSeq([], rho, c4)
        with pytest.raises(ValidationError, match="expected \\(1, 16\\)"):
            TransitionMatrixSeq([], rho[:, :4], ProductGraph(c4, 2))

    def test_column_sum_errors_must_have_one_value_per_step(self, c4):
        seq = build_sequence(c4, *hadamard_walk(c4),
                             WaveFunction.localized(c4, 0, 0), 3)
        arrays = [getattr(seq, name) for name in SEQ_ARRAYS]
        kept = TransitionMatrixSeq.from_arrays(
            seq.rho, c4, *arrays, column_sum_errors=[0.1, 0.2, 0.3])
        assert [m.column_sum_error for m in kept.matrices] == [0.1, 0.2, 0.3]
        for errors in ([0.1], [], [0.0] * 4):
            with pytest.raises(ValidationError, match=f"{len(errors)} column "
                               "sum errors for 3 steps"):
                TransitionMatrixSeq.from_arrays(seq.rho, c4, *arrays,
                                                column_sum_errors=errors)

    @pytest.mark.parametrize("masses, message", [
        ([0.5, 0.5, 0.5, 0.0], "rho\\(0\\) sums to 1.5"),
        ([0.5, 0.5 - 2e-10, 0.0, 0.0], "not 1 within 1e-10"),
        ([0.8, 0.5, -0.3, 0.0], "negative mass"),
    ], ids=["sum", "drift", "negative"])
    def test_rho_must_be_a_distribution(self, c4, masses, message):
        TransitionMatrixSeq([], [[0.5, 0.5 - 5e-11, 0.0, 5e-11]], c4)
        with pytest.raises(ValidationError, match=message):
            TransitionMatrixSeq([], [masses], c4)
