import gc
import tracemalloc

import numpy as np
import pytest
import scipy.stats

import _oracles as oracle
from qrwalk import (
    CoinSpec,
    ProductGraph,
    ResourceLimitError,
    ShiftSpec,
    TransitionMatrix,
    TransitionMatrixSeq,
    TrajectoryEnsemble,
    ValidationError,
    WaveFunction,
    build_graph,
    build_sequence,
    complete_graph,
    convergence_report,
    cycle_graph,
    empirical_distribution,
    locality_fraction,
    sample_ensemble,
    total_variation,
    torus_graph,
)
from qrwalk import equivalence, trajectory, walk
from qrwalk.trajectory import _draw
from qrwalk.walk import DEFAULT_MEMORY_BUDGET


@pytest.fixture
def c4_seq(c4):
    return build_sequence(c4, CoinSpec.hadamard(c4), ShiftSpec.moving(c4),
                          WaveFunction.localized(c4, 0, 0), 5)


@pytest.fixture
def torus_seq(torus1010):
    return build_sequence(torus1010, CoinSpec.grover(torus1010),
                          ShiftSpec.moving(torus1010),
                          WaveFunction.localized(torus1010, 0, 0), 10)


#: A star of 40 leaves around vertex 0, with a path of 10 more vertices
#: hanging from leaf 40 and an edge from leaf 2 to the path's vertex 45:
#: one hub of degree 40 among vertices of degree 1, 2 and 3.
HUB = build_graph([(0, v) for v in range(1, 41)]
                  + [(v, v + 1) for v in range(40, 50)] + [(2, 45)],
                  ordering="sorted")


def hub_sequence(psi, horizon):
    return build_sequence(HUB, CoinSpec.grover(HUB), ShiftSpec.flip_flop(HUB),
                          psi, horizon)


def one_step(mat):
    """P(t) alone, after a uniform rho(0): a start uniform of
    ``(v + 0.5) / n`` starts at state v."""
    n = mat.num_states
    return TransitionMatrixSeq([mat], np.full((2, n), 1.0 / n), mat.graph)


def moving_chain(graph, horizon):
    """Identity coin and moving shift from (0, port 0): on a cycle the
    walker steps to t mod n at time t with certainty."""
    return build_sequence(graph, CoinSpec.identity(graph),
                          ShiftSpec.moving(graph),
                          WaveFunction.localized(graph, 0, 0), horizon)


class TestSampleTrajectory:
    def test_deterministic_chain_walks_around_the_cycle(self, c4):
        seq = moving_chain(c4, 6)
        tau = sample_ensemble(seq, 1, master_seed=0).paths[0]
        assert np.array_equal(tau, np.arange(7) % 4)

    def test_c4_first_move_support(self, c4_seq):
        ens = sample_ensemble(c4_seq, 1000, master_seed=11)
        assert set(ens.paths[:, 1].tolist()) == {1, 3}

    def test_torus_locality(self, torus_seq, torus1010):
        ens = sample_ensemble(torus_seq, 50, master_seed=2)
        assert locality_fraction(ens, torus1010) == 1.0

    def test_length_beyond_horizon_rejected(self, c4_seq):
        with pytest.raises(ValidationError):
            sample_ensemble(c4_seq, 1, master_seed=0, length=6)

    @pytest.mark.parametrize("graph, shift", [
        (cycle_graph(64), ShiftSpec.moving),
        (torus_graph((8, 8)), ShiftSpec.flip_flop),
    ])
    def test_top_uniform_never_picks_zero_probability(self, graph, shift):
        # Hadamard columns contain exact zeros; a draw just below 1 whose
        # rounded cumulative sum falls short must not land on one of them
        seq = build_sequence(graph, CoinSpec.hadamard(graph), shift(graph),
                             WaveFunction.localized(graph, 0, 0), 40)
        top = np.nextafter(1.0, 0.0)
        n = graph.num_vertices
        # one trajectory starts in the middle of each vertex's share of a
        # uniform rho(0) and moves with the top uniform
        uniforms = np.column_stack([(np.arange(n) + 0.5) / n,
                                    np.full(n, top)])
        for mat in seq.matrices:
            one_step = TransitionMatrixSeq([mat], np.full((2, n), 1.0 / n),
                                           graph)
            paths = _draw(one_step, uniforms, "scan")
            assert np.array_equal(paths[:, 0], np.arange(n))
            for u, v in paths.tolist():
                targets, probs = mat.column(u)
                assert (probs[targets == v] > 0.0).any()

    def test_unstored_state_draws_from_its_uniform_column(self, c4):
        # P(0) stores no column, so every move is a uniform draw over the
        # two neighbours, as the per-column reference draws it
        rho = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.5, 0.0, 0.5]])
        no_columns = TransitionMatrix(0, c4, col_ids=[], indptr=[0],
                                      indices=[], data=[])
        seq = TransitionMatrixSeq([no_columns], rho, c4)
        uniforms = np.random.default_rng(3).random((200, 2))
        paths = _draw(seq, uniforms, "scan")
        assert np.array_equal(paths, oracle.reference_paths(seq, uniforms))
        assert {tuple(p) for p in paths.tolist()} \
            == {(0, 1), (0, 3), (1, 0), (1, 2)}

    def test_top_uniform_reaches_a_state_below_zero_prob(self):
        # a tuple with mass 2.5e-15 <= ZERO_PROB is still in the support of
        # rho(0); the top uniform starts there and needs its (uniform) column
        pg = ProductGraph(cycle_graph(4), 2)
        psi0 = WaveFunction.from_components(
            pg, [((0, 0), (0, 0), 1.0), ((1, 2), (0, 0), 5e-8)])
        seq = build_sequence(pg, CoinSpec.hadamard(pg.base),
                             ShiftSpec.moving(pg.base), psi0, 3)
        paths = _draw(seq, np.full((1, 4), np.nextafter(1.0, 0.0)), "scan")
        assert paths[0, 0] == np.ravel_multi_index((1, 2), pg.shape)
        for t, mat in enumerate(seq.matrices):
            targets, probs = mat.column(paths[0, t])
            assert (probs[targets == paths[0, t + 1]] > 0.0).any()


    @pytest.mark.parametrize("start", ["uniform", "localized"])
    def test_uniforms_on_the_cumulative_sums_pick_like_the_scan(self, start):
        # per state: u = 0, u on each cumulative sum of its column and one
        # ulp either side (a sum at or below u counts), and u from the
        # column's rounded total up to just below 1 (the clamp). From the
        # localized start most states have no stored column, so find makes
        # their uniform ones
        psi = (WaveFunction.uniform(HUB) if start == "uniform"
               else WaveFunction.localized(HUB, 0, 0))
        top = np.nextafter(1.0, 0.0)
        n = HUB.num_vertices
        for mat in hub_sequence(psi, 5).matrices:
            rows = []
            for v in range(n):
                cum = np.cumsum(mat.column(v)[1])
                near = [np.nextafter(cum, 0.0), cum, np.nextafter(cum, 1.0)]
                tail = [x for x in (cum[-1], (cum[-1] + 1.0) / 2, top)
                        if x < 1.0]
                for x in np.concatenate([[0.0], *near, tail]):
                    rows.append(((v + 0.5) / n, x))
            uniforms = np.array(rows)
            paths = _draw(one_step(mat), uniforms, "scan")
            assert np.array_equal(
                paths, oracle.reference_paths(one_step(mat), uniforms))
        # on the hub's own column, u equal to the k-th sum takes port k + 1
        targets, probs = mat.column(0)
        cum = np.cumsum(probs)
        uniforms = np.column_stack([np.full(cum.size - 1, 0.5 / n),
                                    cum[:-1]])
        assert _draw(one_step(mat), uniforms, "scan")[:, 1].tolist() \
            == targets[1:].tolist()

    def test_empty_column_rejected(self):
        # a column with no entries would give the draw no port to land on
        with pytest.raises(ValidationError, match="no empty columns"):
            TransitionMatrix(0, complete_graph(2), col_ids=[0, 1],
                             indptr=[0, 0, 1], indices=[0], data=[1.0])


class TestSampleEnsemble:
    def test_same_seed_bit_identical(self, torus_seq):
        a = sample_ensemble(torus_seq, 64, master_seed=123)
        b = sample_ensemble(torus_seq, 64, master_seed=123)
        assert np.array_equal(a.paths, b.paths)

    def test_different_seed_differs(self, torus_seq):
        a = sample_ensemble(torus_seq, 64, master_seed=123)
        b = sample_ensemble(torus_seq, 64, master_seed=124)
        assert not np.array_equal(a.paths, b.paths)

    def test_row_i_is_drawn_from_the_advanced_stream(self, c4_seq):
        # trajectory i takes draws i (L + 1) .. (i + 1)(L + 1) - 1 of the
        # master seed's PCG64 stream, so it can be drawn alone
        for length in (0, 3, 5):
            ens = sample_ensemble(c4_seq, 50, master_seed=77, length=length)
            for i in range(ens.size):
                bits = np.random.PCG64(77).advance(i * (length + 1))
                uniforms = np.random.Generator(bits).random((1, length + 1))
                assert np.array_equal(ens.paths[i],
                                      _draw(c4_seq, uniforms, "scan")[0])

    def test_prefix_stability_under_size_growth(self, c4_seq):
        small = sample_ensemble(c4_seq, 10, master_seed=5)
        big = sample_ensemble(c4_seq, 30, master_seed=5)
        assert np.array_equal(big.paths[:10], small.paths)

    @pytest.mark.parametrize("path", [[0, 4], [-1, 0]])
    def test_states_outside_the_space_rejected(self, path):
        with pytest.raises(ValidationError, match="leave the 4 states"):
            TrajectoryEnsemble([path], 4)

    @pytest.mark.parametrize("paths", [
        [0, 1], [[[0, 1]]], [[0.7, 1.9]], [[True, False]], []])
    def test_paths_other_than_a_2d_integer_array_are_refused(self, paths):
        # a 1-D array was once kept, and .length then raised IndexError;
        # floats were truncated to states
        with pytest.raises(ValidationError,
                           match="paths must be a 2-D integer array"):
            TrajectoryEnsemble(paths, 4)

    def test_invalid_size(self, c4_seq):
        with pytest.raises(ValidationError):
            sample_ensemble(c4_seq, 0, master_seed=1)

    def test_buffers_over_the_memory_budget_rejected_before_allocation(
            self, c4_seq, monkeypatch):
        def allocate(*args):
            raise AssertionError("buffers allocated before the budget check")
        monkeypatch.setattr(trajectory, "default_rng", allocate)
        # uniforms and paths take 16 bytes per trajectory and instant
        size = DEFAULT_MEMORY_BUDGET // (16 * (c4_seq.num_steps + 1)) + 1
        with pytest.raises(ResourceLimitError, match="memory budget"):
            sample_ensemble(c4_seq, size, master_seed=1)

    def test_short_columns_ride_the_bisection_rounds_of_a_hub(self):
        # columns of degree 1, 2, 3 and 40 are searched in the same rounds,
        # so the short ones see probes past their ends in all but the last
        seq = hub_sequence(WaveFunction.uniform(HUB), 6)
        uniforms = np.random.default_rng(17).random((2000, 7))
        assert np.array_equal(_draw(seq, uniforms, "scan"),
                              oracle.reference_paths(seq, uniforms))

    def test_stored_columns_are_drawn_without_find(self, torus1010,
                                                   monkeypatch):
        # from a uniform start every state keeps a ratio column, so no step
        # has to look a state up among the stored columns
        seq = build_sequence(torus1010, CoinSpec.grover(torus1010),
                             ShiftSpec.moving(torus1010),
                             WaveFunction.uniform(torus1010), 5)
        uniforms = np.random.default_rng(4).random((300, 6))
        expected = oracle.reference_paths(seq, uniforms)

        def find(*args):
            raise AssertionError("a stored column was looked up by find")
        monkeypatch.setattr(TransitionMatrix, "find", find)
        assert np.array_equal(_draw(seq, uniforms, "scan"), expected)

    def test_draw_over_the_memory_budget_rejected_before_allocation(
            self, monkeypatch):
        # P(0) of the chain stores state 0's column only
        mat = moving_chain(cycle_graph(20_000), 1).matrices[0]
        stored, u = np.zeros(100, dtype=np.int64), np.full(100, 0.5)
        need = mat._draw_bytes(100)
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", need)
        assert mat.draw(stored, u).tolist() == [1] * 100

        def allocate(*args):
            raise AssertionError("sums allocated before the budget check")
        monkeypatch.setattr(equivalence, "_column_cumsums", allocate)
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", need - 1)
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError,
                               match="draw of 100 moves through P\\(0\\)"):
                mat.draw(stored, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # not even the 160 000-byte position map was made
        assert peak < 8 * mat.num_states // 4
        # a state without a stored column adds its uniform column, whose
        # sums are checked again before they are made
        unstored = np.array([0, 7])
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET",
                            mat._draw_bytes(2))
        with pytest.raises(ResourceLimitError, match="draw of 2 moves"):
            mat.draw(unstored, u[:2])

    @pytest.mark.parametrize("start", ["uniform", "localized"])
    def test_draw_memory_stays_within_its_budget(self, start):
        # the localized start leaves most states without a stored column,
        # so find makes theirs first, under its own check
        psi = (WaveFunction.uniform(HUB) if start == "uniform"
               else WaveFunction.localized(HUB, 0, 0))
        seq = hub_sequence(psi, 4)
        states = np.random.default_rng(2).integers(0, HUB.num_vertices, 5000)
        uniforms = np.random.default_rng(3).random(5000)
        np.unique(states)  # its first call allocates a one-off cache
        for mat in seq.matrices:
            full, _ = mat.find(states)
            bound = full._draw_bytes(states.size)
            if full is not mat:
                bound += equivalence._arc_bytes(1) * full.data.size
            gc.collect()
            tracemalloc.start()
            try:
                mat.draw(states, uniforms)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound

    def test_passed_seed_sequence_is_not_advanced(self, c4_seq):
        ss = np.random.SeedSequence(8, n_children_spawned=3)
        a = sample_ensemble(c4_seq, 20, master_seed=ss)
        assert ss.n_children_spawned == 3
        b = sample_ensemble(c4_seq, 20, master_seed=ss)
        assert np.array_equal(a.paths, b.paths)

    def test_only_a_root_seed_is_recorded(self, c4_seq):
        # a spawned child's root entropy would not redraw its ensemble
        assert sample_ensemble(c4_seq, 5, master_seed=7).master_seed == 7
        root = np.random.SeedSequence(7)
        assert sample_ensemble(c4_seq, 5, root).master_seed == 7
        for child in root.spawn(2):
            assert sample_ensemble(c4_seq, 5, child).master_seed is None

    def test_alias_method_deterministic_and_local(self, torus_seq,
                                                  torus1010):
        a = sample_ensemble(torus_seq, 500, master_seed=9, method="alias")
        b = sample_ensemble(torus_seq, 500, master_seed=9, method="alias")
        assert np.array_equal(a.paths, b.paths)
        assert locality_fraction(a, torus1010) == 1.0

    def test_alias_marginals_match_scan(self, c4_seq):
        scan = sample_ensemble(c4_seq, 20000, master_seed=13)
        alias = sample_ensemble(c4_seq, 20000, master_seed=14,
                                method="alias")
        for t in range(c4_seq.num_steps + 1):
            d = total_variation(empirical_distribution(scan, t),
                                empirical_distribution(alias, t))
            assert d < 0.02


class TestEmpiricalDistribution:
    def test_simple_fraction(self):
        paths = np.array([[0, 1], [0, 2], [0, 2], [0, 3]])
        ens_paths = paths
        from qrwalk.trajectory import TrajectoryEnsemble
        ens = TrajectoryEnsemble(ens_paths, num_states=4)
        p = empirical_distribution(ens, 1)
        assert p[1] == 0.25 and p[2] == 0.5 and p[3] == 0.25
        assert p.sum() == 1.0

    def test_lln_at_start(self, torus1010):
        psi = WaveFunction.uniform(torus1010)
        seq = build_sequence(torus1010, CoinSpec.grover(torus1010),
                             ShiftSpec.moving(torus1010), psi, 1)
        ens = sample_ensemble(seq, 20000, master_seed=3)
        assert total_variation(empirical_distribution(ens, 0),
                               seq.rho[0]) < 0.05

    def test_deterministic_chain_point_mass(self, c4):
        seq = moving_chain(c4, 4)
        ens = sample_ensemble(seq, 32, master_seed=0)
        for t in range(5):
            p = empirical_distribution(ens, t)
            assert p[t % 4] == 1.0

    def test_time_out_of_range(self, c4_seq):
        ens = sample_ensemble(c4_seq, 4, master_seed=0)
        with pytest.raises(IndexError):
            empirical_distribution(ens, 6)


class TestTotalVariation:
    def test_identical_is_zero(self):
        p = np.array([0.2, 0.8])
        assert total_variation(p, p) == 0.0

    def test_disjoint_point_masses(self):
        assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_half_case(self):
        assert total_variation([1.0, 0.0], [0.5, 0.5]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            total_variation([1.0], [0.5, 0.5])


class TestConvergence:
    def test_median_tvd_decreases_with_ensemble_size(self, torus_seq):
        sizes = [100, 1000, 10000]
        wins = 0
        for rep in range(3):
            rows = convergence_report(torus_seq, sizes, [5, 10],
                                      master_seed=1000 + rep)
            medians = [rows.median_tvd(m) for m in sizes]
            if medians[0] > medians[1] > medians[2]:
                wins += 1
        assert wins >= 2

    def test_sqrt_m_scaling_against_multinomial_oracle(self, torus1010):
        # spread start so rho(0) is non-degenerate; the empirical TVD at
        # t=0 is then a pure multinomial fluctuation ~ c / sqrt(M)
        psi = WaveFunction.uniform(torus1010)
        seq = build_sequence(torus1010, CoinSpec.grover(torus1010),
                             ShiftSpec.moving(torus1010), psi, 1)
        ratios = []
        for rep in range(3):
            rows = convergence_report(seq, [100, 10000], [0],
                                      master_seed=100 + rep)
            ratios.append(rows.tvd(100, 0) / rows.tvd(10000, 0))
        assert 5.0 <= float(np.median(ratios)) <= 20.0
        rng = np.random.default_rng(5)
        oracle_ratio = (oracle.multinomial_tvd(seq.rho[0], 100, rng, 10)
                        / oracle.multinomial_tvd(seq.rho[0], 10000, rng, 10))
        assert 5.0 <= oracle_ratio <= 20.0

    def test_self_distance_is_zero(self, c4_seq):
        ens = sample_ensemble(c4_seq, 50, master_seed=4)
        p = empirical_distribution(ens, 3)
        assert total_variation(p, p) == 0.0

    def test_sizes_may_be_a_generator(self, c4_seq):
        listed = convergence_report(c4_seq, [10, 20], [1, 2], master_seed=3)
        generated = convergence_report(c4_seq, (m for m in (10, 20)), [1, 2],
                                       master_seed=3)
        assert generated.rows == listed.rows and len(listed.rows) == 4

    def test_grid_beyond_horizon_rejected(self, c4_seq):
        with pytest.raises(ValidationError):
            convergence_report(c4_seq, [10], [9], master_seed=0)


class TestMarginalCorrectness:
    def test_conditional_next_step_chi_square(self, c4_seq):
        # conditioned on tau(t)=u, the next vertex must follow column u
        ens = sample_ensemble(c4_seq, 100000, master_seed=31337)
        for t in range(3):
            cur, nxt = ens.paths[:, t], ens.paths[:, t + 1]
            for u in np.unique(cur):
                rows = cur == u
                if rows.sum() < 1000:
                    continue
                targets, probs = c4_seq.matrices[t].column(int(u))
                observed = np.bincount(nxt[rows], minlength=4)[targets]
                keep = probs > 0
                if keep.sum() < 2:
                    continue
                _, pvalue = scipy.stats.chisquare(
                    observed[keep], rows.sum() * probs[keep])
                assert pvalue >= 0.01
