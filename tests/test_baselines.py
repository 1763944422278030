import numpy as np
import pytest

import _oracles as oracle
from qrwalk import (
    ApplicabilityError,
    CoinSpec,
    ConsistencyError,
    ShiftSpec,
    ValidationError,
    WaveFunction,
    build_sequence,
    cycle_graph,
    exact_rejection_marginals,
    grover_torus_dp,
    grover_torus_matrix,
    rejection_sample,
    step,
    torus_graph,
    vertex_distribution,
)
from qrwalk import ResourceLimitError, walk


def walk_rho(graph, coin, shift, length, start=(0, 0)):
    """Distribution rows rho(0..length-1) of a walk from a localized start."""
    psi = WaveFunction.localized(graph, *start)
    rows = [vertex_distribution(psi)]
    for t in range(length - 1):
        psi = step(psi, coin, shift, None, t)
        rows.append(vertex_distribution(psi))
    return np.stack(rows)


class TestRejection:
    def test_complete_graph_accepts_everything(self, k5):
        rho = walk_rho(k5, CoinSpec.hadamard(k5), ShiftSpec.flip_flop(k5), 2)
        report = rejection_sample(rho, k5, 50000, seed=1)
        assert report.acceptance_rate == 1.0
        assert report.accepted == report.attempts

    def test_batches_over_the_memory_budget_are_never_drawn(self, c4,
                                                            monkeypatch):
        class Tripwire(np.random.Generator):
            def random(self, *args, **kwargs):
                raise AssertionError("batch drawn before the budget check")

        rho = np.full((3, 4), 0.25)
        need = 16 * 10 * 3  # uniforms and sequences of one batch
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", need)
        assert rejection_sample(rho, c4, 10, seed=1).attempts == 10
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", need - 1)
        with pytest.raises(ResourceLimitError, match="memory budget"):
            rejection_sample(rho, c4, 10, seed=Tripwire(np.random.PCG64(1)))

    def test_no_paths_yields_flag_not_exception(self, single_edge):
        # both rows concentrated on vertex 0, but (0, 0) is not an edge
        rho = np.array([[1.0, 0.0], [1.0, 0.0]])
        report = rejection_sample(rho, single_edge, 1000, seed=0)
        assert report.accepted == 0
        assert report.no_accepts
        assert report.marginals is None and report.tvd_vs_rho is None

    def test_exact_marginals_match_brute_force_on_c4(self, c4):
        rho = walk_rho(c4, CoinSpec.hadamard(c4), ShiftSpec.moving(c4), 3)
        exact, total = exact_rejection_marginals(rho, c4)
        brute, brute_total = oracle.brute_rejection_marginals(rho, c4)
        assert abs(total - brute_total) < 1e-14
        assert np.max(np.abs(exact - brute)) < 1e-14

    def test_exact_marginals_match_brute_force_on_k5(self, k5):
        rho = walk_rho(k5, CoinSpec.hadamard(k5), ShiftSpec.flip_flop(k5), 3)
        exact, total = exact_rejection_marginals(rho, k5)
        brute, brute_total = oracle.brute_rejection_marginals(rho, k5)
        assert abs(total - brute_total) < 1e-12
        assert np.max(np.abs(exact - brute)) < 1e-12

    def test_empirical_marginals_converge_to_exact(self, c4):
        rho = walk_rho(c4, CoinSpec.hadamard(c4), ShiftSpec.moving(c4), 3)
        exact, _ = exact_rejection_marginals(rho, c4)
        report = rejection_sample(rho, c4, 200000, seed=7)
        for t in range(3):
            tvd = 0.5 * np.abs(report.marginals[t] - exact[t]).sum()
            assert tvd < 0.02

    def test_accepted_marginals_can_deviate_from_rho(self, k5):
        # the bias the rejection route introduces: consecutive repeats are
        # impossible for paths but not for independent draws
        rho = walk_rho(k5, CoinSpec.hadamard(k5), ShiftSpec.flip_flop(k5), 3)
        exact, _ = exact_rejection_marginals(rho, k5)
        tvds = [0.5 * np.abs(exact[t] - rho[t]).sum() for t in range(3)]
        assert max(tvds) >= 0.01

    def test_torus_path_count_estimate_reported(self):
        g = torus_graph((4, 4))
        rho = walk_rho(g, CoinSpec.grover(g), ShiftSpec.moving(g), 3)
        report = rejection_sample(rho, g, 1000, seed=2)
        assert report.path_count_estimate == 16.0 * 2.0 ** 2
        assert report.sequence_count == 16.0 ** 3

    def test_report_serialises(self, c4):
        rho = walk_rho(c4, CoinSpec.hadamard(c4), ShiftSpec.moving(c4), 2)
        report = rejection_sample(rho, c4, 100, seed=3)
        doc = report.as_dict()
        assert doc["attempts"] == 100
        assert 0.0 <= doc["acceptance_rate"] <= 1.0

    def test_shape_validation(self, c4):
        with pytest.raises(ValidationError):
            rejection_sample(np.ones((2, 3)) / 3, c4, 10, seed=0)

    def test_a_row_without_support_is_refused(self, c4):
        rho = np.full((3, 4), 0.25)
        rho[1] = 0.0
        with pytest.raises(ValidationError, match="no support"):
            rejection_sample(rho, c4, 10, seed=0)


class TestGroverTorusDP:
    def test_matches_engine_on_4x4_torus(self):
        dims = (4, 4)
        g = torus_graph(dims)
        init = np.zeros((16, 4))
        init[0, 0] = 1.0
        states = grover_torus_dp(dims, init, 30)
        psi = WaveFunction.localized(g, 0, 0)
        coin, shift = CoinSpec.grover(g), ShiftSpec.moving(g)
        for t in range(31):
            dev = np.abs(states[t].vertex_distribution()
                         - vertex_distribution(psi)).max()
            assert dev <= 1e-9
            if t < 30:
                psi = step(psi, coin, shift, t=t)

    def test_matches_engine_on_cycle(self):
        # one axis: the 2-port Grover coin is the swap
        g = cycle_graph(8)
        init = np.zeros((8, 2))
        init[0, 0] = 1.0
        states = grover_torus_dp((8,), init, 30)
        psi = WaveFunction.localized(g, 0, 0)
        coin, shift = CoinSpec.grover(g), ShiftSpec.moving(g)
        for t in range(31):
            dev = np.abs(states[t].vertex_distribution()
                         - vertex_distribution(psi)).max()
            assert dev <= 1e-9
            if t < 30:
                psi = step(psi, coin, shift, t=t)

    def test_uniform_real_start_stays_normalised(self):
        dims = (4, 4)
        init = np.full((16, 4), 1.0 / 8.0)
        states = grover_torus_dp(dims, init, 50)
        for s in states:
            assert abs(s.rho.sum() - 1.0) <= 1e-10

    def test_negative_amplitudes_are_tracked(self):
        init = np.zeros((16, 4))
        init[0, 0] = 1.0
        states = grover_torus_dp((4, 4), init, 5)
        assert any((s.sign < 0).any() for s in states[1:])

    def test_complex_initial_state_rejected(self):
        init = np.zeros((16, 4), dtype=complex)
        init[0, 0] = 1j
        with pytest.raises(ApplicabilityError, match="real"):
            grover_torus_dp((4, 4), init, 3)

    def test_real_valued_complex_dtype_accepted(self):
        init = np.zeros((16, 4), dtype=complex)
        init[0, 0] = 1.0
        states = grover_torus_dp((4, 4), init, 2)
        assert len(states) == 3

    def test_unnormalised_rejected(self):
        with pytest.raises(ValidationError, match="normalised"):
            grover_torus_dp((4, 4), np.ones((16, 4)), 1)


class TestGroverTorusMatrix:
    @pytest.fixture
    def dp_and_seq(self):
        dims = (4, 4)
        g = torus_graph(dims)
        init = np.zeros((16, 4))
        init[0, 0] = 1.0
        states = grover_torus_dp(dims, init, 30)
        seq = build_sequence(g, CoinSpec.grover(g), ShiftSpec.moving(g),
                             WaveFunction.localized(g, 0, 0), 30)
        return states, seq

    def test_matches_general_construction(self, dp_and_seq):
        states, seq = dp_and_seq
        for t in range(30):
            dp_mat = grover_torus_matrix(states[t], states[t + 1])
            general = seq.matrices[t]
            dense_dp, dense_g = map(oracle.toarray, (dp_mat, general))
            for u in np.flatnonzero(seq.rho[t] > 1e-12):
                assert np.max(np.abs(dense_dp[:, u] - dense_g[:, u])) <= 1e-9

    def test_zero_columns_uniform_over_ports(self, dp_and_seq):
        states, _ = dp_and_seq
        mat = grover_torus_matrix(states[0], states[1])
        rho0 = states[0].vertex_distribution()
        for u in np.flatnonzero(rho0 <= 1e-14):
            targets, probs = mat.column(int(u))
            assert np.allclose(probs, 1.0 / 4.0, atol=0)

    def test_columns_stochastic(self, dp_and_seq):
        states, _ = dp_and_seq
        for t in range(30):
            mat = grover_torus_matrix(states[t], states[t + 1])
            for u in mat.col_ids.tolist():
                _, probs = mat.column(u)
                assert abs(probs.sum() - 1.0) <= 1e-10

    def test_non_consecutive_states_rejected(self, dp_and_seq):
        states, _ = dp_and_seq
        with pytest.raises(ValidationError, match="consecutive"):
            grover_torus_matrix(states[0], states[2])
