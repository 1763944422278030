import gc
import itertools
import tracemalloc

import numpy as np
import pytest

import _oracles as oracle
from qrwalk import (
    CoinSpec,
    InteractionSpec,
    ProductGraph,
    ResourceLimitError,
    ShiftSpec,
    ValidationError,
    WaveFunction,
    build_graph,
    build_sequence,
    cycle_graph,
    evolve,
    step,
    torus_graph,
    vertex_distribution,
    walk,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def random_state(graph, rng, walkers=1):
    dim = graph.basis_dim ** walkers
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    space = ProductGraph(graph, walkers) if walkers > 1 else graph
    return WaveFunction(space, amps)


def random_graph(rng, n):
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        touched = set(itertools.chain.from_iterable(edges))
        if edges and len(touched) == n:
            return build_graph(edges)


class TestWaveFunction:
    def test_localized_is_point_mass(self, c4):
        psi = WaveFunction.localized(c4, 0, 0)
        assert psi.amplitudes[c4.basis_index(0, 0)] == 1.0
        assert np.count_nonzero(psi.amplitudes) == 1

    def test_scalar_vertex_and_port_are_every_walkers(self):
        pg = ProductGraph(cycle_graph(4), 2)
        assert np.array_equal(
            WaveFunction.localized(pg, 0).amplitudes,
            WaveFunction.localized(pg, (0, 0), (0, 0)).amplitudes)
        assert np.array_equal(
            WaveFunction.localized(pg, 3, (0, 1)).amplitudes,
            WaveFunction.localized(pg, (3, 3), (0, 1)).amplitudes)
        with pytest.raises(ValidationError, match="needs 2"):
            WaveFunction.localized(pg, (0, 1, 2))

    @pytest.mark.parametrize("walkers", [1, 2])
    @pytest.mark.parametrize("vertex, port, message", [
        (-2, 0, "vertex -2 out of range"), (-1, 0, "vertex -1 out of range"),
        (6, 0, "vertex 6 out of range"), (0, 5, "port 5 out of range"),
        (0, -1, "port -1 out of range")])
    def test_a_start_outside_the_graph_is_rejected(self, walkers, vertex,
                                                   port, message):
        """A negative vertex does not wrap round to the last ones."""
        space = ProductGraph(cycle_graph(6), walkers)
        vertices = (0,) * (walkers - 1) + (vertex,)
        ports = (0,) * (walkers - 1) + (port,)
        with pytest.raises(ValidationError, match=message):
            WaveFunction.localized(space, vertices, ports)
        with pytest.raises(ValidationError, match=message):
            WaveFunction.from_components(space, [(vertices, ports, 1.0)])

    def test_unnormalised_rejected(self, c4):
        with pytest.raises(ValidationError, match="normalised"):
            WaveFunction(c4, np.ones(8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_a_non_finite_amplitude_is_rejected(self, c4, bad):
        """A NaN anywhere makes the squared norm NaN, which is not 1; an
        inf makes it inf."""
        amps = np.zeros(8, dtype=complex)
        amps[0], amps[3] = 1.0, bad
        with pytest.raises(ValidationError, match="not normalised"):
            WaveFunction(c4, amps)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(1, np.inf)])
    def test_from_components_names_a_non_finite_amplitude(self, bad):
        pg = ProductGraph(cycle_graph(4), 2)
        with pytest.raises(ValidationError, match=r"amplitude .* at vertex "
                           r"\(1, 2\), port \(0, 1\) is not finite"):
            WaveFunction.from_components(pg, [((0, 0), (0, 0), 1.0),
                                              ((1, 2), (0, 1), bad)])

    def test_wrong_dimension_rejected(self, c4):
        with pytest.raises(ValidationError, match="shape"):
            WaveFunction(c4, np.array([1.0, 0.0]))

    def test_from_components_renormalises_with_warning(self, c4):
        with pytest.warns(UserWarning, match="renormalised"):
            psi = WaveFunction.from_components(c4, [(0, 0, 2.0)])
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-15

    def test_from_components_small_drift_is_silent(self, c4, recwarn):
        WaveFunction.from_components(c4, [(0, 0, 1.0 + 1e-10)])
        assert not recwarn.list

    def test_memory_budget_enforced(self, c4, monkeypatch):
        pg = ProductGraph(c4, 2)
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", 100)
        with pytest.raises(ResourceLimitError):
            WaveFunction.localized(pg, (0, 0), (0, 0))

    def test_a_port_graph_is_taken_as_one_walker(self, c4, rng):
        one = ProductGraph(c4, 1)
        states = [WaveFunction.localized(c4, 0, 0), WaveFunction.uniform(c4),
                  WaveFunction.from_components(c4, [(1, 1, 1.0)]),
                  random_state(c4, rng)]
        assert all(psi.graph == one and psi.num_walkers == 1
                   for psi in states)
        assert WaveFunction(one, states[0].amplitudes).graph == one

    def test_amplitudes_frozen(self, c4):
        psi = WaveFunction.localized(c4, 0, 0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestApplyCoin:
    def test_identity_leaves_state(self, c4, rng):
        psi = random_state(c4, rng)
        out = oracle.apply_coin(psi, CoinSpec.identity(c4))
        assert np.allclose(out.amplitudes, psi.amplitudes, atol=0)

    def test_hadamard_on_localized_c4(self, c4):
        psi = WaveFunction.localized(c4, 0, 0)
        out = oracle.apply_coin(psi, CoinSpec.hadamard(c4))
        assert abs(out.amplitudes[c4.basis_index(0, 0)] - INV_SQRT2) < 1e-15
        assert abs(out.amplitudes[c4.basis_index(0, 1)] - INV_SQRT2) < 1e-15

    def test_norm_preserved_on_random_states(self, rng):
        g = build_graph([(0, 1), (1, 2), (2, 0), (2, 3)])
        coin = CoinSpec.random_unitary(g, rng)
        for _ in range(5):
            psi = random_state(g, rng)
            out = oracle.apply_coin(psi, coin)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_block_dimension_mismatch(self, c4, k5):
        with pytest.raises(ValidationError):
            oracle.apply_coin(WaveFunction.localized(k5, 0, 0),
                              CoinSpec.hadamard(c4))


class TestApplyShift:
    def test_moving_shift_on_c4(self, c4):
        psi = WaveFunction.localized(c4, 0, 0)
        out = oracle.apply_shift(psi, ShiftSpec.moving(c4))
        assert out.amplitudes[c4.basis_index(1, 0)] == 1.0

    def test_moving_shift_cycles_back_after_n_steps(self):
        # hand-iterating the permutation on C4: (0,0)->(1,0)->(2,0)->(3,0)->(0,0)
        g = cycle_graph(4)
        shift = ShiftSpec.moving(g)
        psi = WaveFunction.localized(g, 0, 0)
        for _ in range(4):
            psi = oracle.apply_shift(psi, shift)
        assert psi.amplitudes[g.basis_index(0, 0)] == 1.0

    def test_flip_flop_is_involution(self, torus44, rng):
        shift = ShiftSpec.flip_flop(torus44)
        psi = random_state(torus44, rng)
        out = oracle.apply_shift(oracle.apply_shift(psi, shift), shift)
        assert np.allclose(out.amplitudes, psi.amplitudes, atol=0)

    def test_norm_preserved(self, torus44, rng):
        psi = random_state(torus44, rng)
        out = oracle.apply_shift(psi, ShiftSpec.moving(torus44))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_moving_rejected_on_incompatible_port_order(self, c4_sorted):
        with pytest.raises(ValidationError, match="permutation"):
            ShiftSpec.moving(c4_sorted)

    def test_non_edge_permutation_rejected(self, c4):
        with pytest.raises(ValidationError, match="eta"):
            ShiftSpec(c4, np.arange(8))

    def test_non_bijection_rejected(self, c4):
        with pytest.raises(ValidationError, match="permutation"):
            ShiftSpec(c4, np.zeros(8, dtype=int))


class TestStep:
    def test_c4_hadamard_moving_one_step(self, c4):
        psi = step(WaveFunction.localized(c4, 0, 0),
                   CoinSpec.hadamard(c4), ShiftSpec.moving(c4))
        assert abs(psi.amplitudes[c4.basis_index(1, 0)] - INV_SQRT2) < 1e-15
        assert abs(psi.amplitudes[c4.basis_index(3, 1)] - INV_SQRT2) < 1e-15
        assert np.count_nonzero(psi.amplitudes) == 2

    def test_identity_coin_identity_shift_is_noop(self, c4, rng):
        # the flip-flop shift is an involution: two steps shift by identity
        psi = random_state(c4, rng)
        coin, shift = CoinSpec.identity(c4), ShiftSpec.flip_flop(c4)
        out = step(step(psi, coin, shift), coin, shift)
        assert out.amplitudes.tobytes() == psi.amplitudes.tobytes()

    def test_two_walkers_without_interaction_factorise(self, c4):
        coin, shift = CoinSpec.hadamard(c4), ShiftSpec.moving(c4)
        a = WaveFunction.localized(c4, 0, 0)
        b = WaveFunction.localized(c4, 2, 1)
        pg = ProductGraph(c4, 2)
        joint = WaveFunction(pg, np.kron(a.amplitudes, b.amplitudes))
        for t in range(3):
            joint = step(joint, coin, shift, t=t)
            a = step(a, coin, shift, t=t)
            b = step(b, coin, shift, t=t)
        assert np.max(np.abs(joint.amplitudes
                             - np.kron(a.amplitudes, b.amplitudes))) < 1e-10

    def test_per_walker_specs(self, c4):
        pg = ProductGraph(c4, 2)
        coins = [CoinSpec.hadamard(c4), CoinSpec.grover(c4)]
        shifts = [ShiftSpec.moving(c4), ShiftSpec.flip_flop(c4)]
        a = WaveFunction.localized(c4, 0, 0)
        b = WaveFunction.localized(c4, 1, 1)
        joint = WaveFunction(pg, np.kron(a.amplitudes, b.amplitudes))
        joint = step(joint, coins, shifts)
        a = step(a, coins[0], shifts[0])
        b = step(b, coins[1], shifts[1])
        assert np.max(np.abs(joint.amplitudes
                             - np.kron(a.amplitudes, b.amplitudes))) < 1e-12

    def test_schedule_resolved_per_step(self, c4):
        table = {0: CoinSpec.identity(c4), 1: CoinSpec.hadamard(c4)}
        coin = lambda t: table[t]  # noqa: E731
        shift = ShiftSpec.moving(c4)
        psi = WaveFunction.localized(c4, 0, 0)
        psi = step(psi, coin, shift, t=0)   # identity coin: pure move
        assert psi.amplitudes[c4.basis_index(1, 0)] == 1.0
        psi = step(psi, coin, shift, t=1)   # now the coin mixes
        assert np.count_nonzero(psi.amplitudes) == 2

    def test_evolve_yields_each_step_from_psi0(self, c4):
        table = {0: CoinSpec.identity(c4), 1: CoinSpec.hadamard(c4)}
        coin = lambda t: table.get(t, CoinSpec.grover(c4))  # noqa: E731
        shift = ShiftSpec.moving(c4)
        psi = WaveFunction.localized(c4, 0, 0)
        steps = list(evolve(psi, coin, shift, 4))
        assert len(steps) == 5
        for t, (masses, rho) in enumerate(steps):
            if t:
                psi = WaveFunction(psi.graph, oracle.reference_step(
                    psi, coin, shift, t=t - 1))
            assert masses.tobytes() \
                == (np.abs(psi.amplitudes) ** 2).tobytes()
            assert rho.tobytes() == vertex_distribution(psi).tobytes()
        with pytest.raises(ValidationError, match="horizon"):
            next(evolve(psi, coin, shift, -1))

    def test_evolve_checks_every_state_is_normalised(self, c4):
        stretched = CoinSpec(c4, {2: np.broadcast_to(1.01 * np.eye(2),
                                                     (4, 2, 2))})
        masses = evolve(WaveFunction.localized(c4, 0, 0), stretched,
                        ShiftSpec.moving(c4), 2)
        next(masses)
        with pytest.raises(ValidationError, match="not normalised"):
            next(masses)

    def test_evolve_checks_its_buffers_against_the_budget_first(
            self, c4, monkeypatch):
        # two state buffers and two arrays of masses: 48 bytes a state
        pg = ProductGraph(c4, 2)
        psi = WaveFunction.localized(pg, 0)
        coin, shift = CoinSpec.hadamard(c4), ShiftSpec.moving(c4)
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", 48 * 64)
        assert len(list(evolve(psi, coin, shift, 2))) == 3

        def allocate(*args, **kwargs):
            raise AssertionError("buffer allocated before the budget check")
        monkeypatch.setattr(np, "empty_like", allocate)
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", 48 * 64 - 1)
        with pytest.raises(ResourceLimitError, match="two state buffers"):
            next(evolve(psi, coin, shift, 2))

    def test_the_walk_loop_is_charged_for_its_two_buffers_alone(
            self, monkeypatch):
        # 40 bytes a state: the loop's two state buffers (32) fit, and so
        # does the matrix build on a localized start; evolve's two arrays
        # of masses over the whole space (48 in all) do not
        g = torus_graph((30, 30))
        psi = WaveFunction.localized(g, 435, 2)
        coin, shift = CoinSpec.grover(g), ShiftSpec.flip_flop(g)
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET", 40 * g.basis_dim)
        assert len(build_sequence(g, coin, shift, psi, 5).matrices) == 5

        def allocate(*args, **kwargs):
            raise AssertionError("buffer allocated before the budget check")
        monkeypatch.setattr(np, "empty_like", allocate)
        with pytest.raises(ResourceLimitError, match="two mass arrays"):
            next(evolve(psi, coin, shift, 5))

    @pytest.mark.parametrize("walkers", [1, 2])
    def test_the_support_counts_any_nonzero_part(self, walkers):
        # an imaginary-only amplitude is in psi(0)'s support, a zero with
        # a -0.0 real part is not: the box is the one of the complex
        # compare, and every mass and rho(t) those of the whole-space
        # reference step
        g = torus_graph((6, 6))
        space = ProductGraph(g, walkers)
        amps = np.zeros(space.basis_dim, np.complex128)
        amps[[3, 40, 77]] = [0.6j, complex(-0.0, -0.6), complex(0.5, -0.0)]
        amps[[5, 90, 130]] = complex(-0.0, 0.0)
        amps.view(np.float64)[:] /= np.linalg.norm(amps)  # keeps each -0.0
        psi = WaveFunction(space, amps)
        assert np.signbit(psi.amplitudes.real[[5, 40, 90, 130]]).all()
        box = walk._workspace(psi)[0]
        expect = walk._Box(space, psi.amplitudes != 0)
        assert [(a.verts.tolist(), a.size) for a in box.axes] \
            == [(a.verts.tolist(), a.size) for a in expect.axes]
        assert box.axes[0].size < g.basis_dim
        coin, shift = CoinSpec.hadamard(g), ShiftSpec.flip_flop(g)
        for t, (masses, rho) in enumerate(evolve(psi, coin, shift, 3)):
            if t:
                psi = WaveFunction(psi.graph, oracle.reference_step(
                    psi, coin, shift, t=t - 1))
            assert masses.tobytes() \
                == (np.abs(psi.amplitudes) ** 2).tobytes()
            assert rho.tobytes() == vertex_distribution(psi).tobytes()

    def test_evolve_runs_in_two_state_buffers(self, torus1010):
        # the two-walker benchmark's walk: its loop holds two buffers, the
        # masses it yields and the next ones, and the coincidence mask
        pg = ProductGraph(torus1010, 2)
        psi = WaveFunction.localized(pg, (0, 55), (0, 1))
        coin, shift = CoinSpec.hadamard(torus1010), \
            ShiftSpec.flip_flop(torus1010)
        inter = InteractionSpec.coincidence_phase(pg, np.pi / 2)
        gc.collect()
        tracemalloc.start()
        try:
            for _ in evolve(psi, coin, shift, 4, inter):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * psi.amplitudes.nbytes

    @staticmethod
    def coin_ports(monkeypatch, psi, coin, shift, horizon, interaction=None):
        """The ports each coin product of evolve's walk passes per walker,
        step by step: the middle axis of ``_class_products``' input."""
        passed, products = [], walk._class_products

        def spy(*args):
            passed.append(args[-2].shape[1])
            return products(*args)
        monkeypatch.setattr(walk, "_class_products", spy)
        for _ in evolve(psi, coin, shift, horizon, interaction):
            pass
        k = psi.num_walkers
        return [passed[t * k:(t + 1) * k] for t in range(horizon)]

    def test_the_coin_runs_on_the_light_cone(self, monkeypatch):
        # from one vertex of a 30x30 torus the walk can have reached at
        # most the 2t^2 + 2t + 1 vertices of the t-ball by step t; the
        # whole space is 3600 ports
        g = torus_graph((30, 30))
        steps = self.coin_ports(
            monkeypatch, WaveFunction.localized(g, 435, 2),
            CoinSpec.grover(g), ShiftSpec.moving(g), 5)
        for t, (ports,) in enumerate(steps):
            assert ports <= 4 * (2 * t * t + 2 * t + 1)

    def test_a_box_that_fills_the_space_stays_whole(self, monkeypatch):
        # two walkers on a 5x5 torus, which is not bipartite: both light
        # cones fill the space, and then every step passes all of it
        g = torus_graph((5, 5))
        pg = ProductGraph(g, 2)
        steps = self.coin_ports(
            monkeypatch, WaveFunction.localized(pg, (0, 12), (0, 3)),
            CoinSpec.hadamard(g), ShiftSpec.flip_flop(g), 8,
            InteractionSpec.coincidence_phase(pg, 0.3))
        full = [t for t, ports in enumerate(steps)
                if ports == [g.basis_dim] * 2]
        # an axis of the start's 4 ports stays partial where the column
        # steps allow it: [4, 4] with this BLAS's column block of 4
        assert steps[0] == [4 if s and 4 % s == 0 else g.basis_dim
                            for s in walk._column_steps(pg)]
        assert full and full == list(range(full[0], len(steps)))

    def test_without_a_column_block_several_walkers_stay_whole(
            self, monkeypatch):
        # when the import probe finds no column block, the products of
        # several walkers keep the shapes of the whole space; one walker,
        # which has no columns, still runs on its light cone
        monkeypatch.setattr(walk, "COLUMN_BLOCK", 0)
        g = torus_graph((6, 6))
        pg = ProductGraph(g, 2)
        coin, shift = CoinSpec.grover(g), ShiftSpec.flip_flop(g)
        steps = self.coin_ports(
            monkeypatch, WaveFunction.localized(pg, (0, 14), (1, 2)),
            coin, shift, 3, InteractionSpec.coincidence_phase(pg, 0.7))
        assert steps == [[g.basis_dim] * 2] * 3
        steps = self.coin_ports(monkeypatch, WaveFunction.localized(g, 14),
                                coin, shift, 1)
        assert steps == [[4]]

    def test_interaction_requires_multiple_walkers(self, c4):
        pg = ProductGraph(c4, 2)
        psi = WaveFunction.localized(c4, 0, 0)
        with pytest.raises(ValidationError, match="two walkers"):
            step(psi, CoinSpec.hadamard(c4), ShiftSpec.moving(c4),
                 interaction=InteractionSpec.coincidence_phase(pg, np.pi))

    @pytest.mark.parametrize("walkers", [1, 2])
    def test_step_checks_its_two_buffers_against_the_budget_first(
            self, walkers, monkeypatch):
        # two state vectors: 32 bytes a state, and not one byte less
        g = torus_graph((6, 6))
        space = ProductGraph(g, walkers)
        psi = WaveFunction.localized(space, 14, 1)
        coin, shift = CoinSpec.grover(g), ShiftSpec.flip_flop(g)
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET",
                            32 * space.basis_dim)
        assert np.array_equal(step(psi, coin, shift).amplitudes,
                              oracle.reference_step(psi, coin, shift))

        def allocate(*args, **kwargs):
            raise AssertionError("buffer allocated before the budget check")
        monkeypatch.setattr(np, "empty_like", allocate)
        monkeypatch.setattr(walk, "DEFAULT_MEMORY_BUDGET",
                            32 * space.basis_dim - 1)
        with pytest.raises(ResourceLimitError, match="two state buffers"):
            step(psi, coin, shift)

    @pytest.mark.parametrize("case", ["torus", "two-walker", "irregular"])
    def test_step_holds_two_state_vectors(self, case):
        # the step on the light cone peaks within 0.1 state vector of the
        # whole-space step it replaced, which peaked at 2.51 (torus), 2.00
        # (two walkers) and 2.00 (two walkers on an irregular graph) state
        # vectors on these cases
        if case == "torus":
            g = torus_graph((60, 60))
            psi = WaveFunction.localized(g, 1830, 0)
            coin, shift, inter = CoinSpec.grover(g), ShiftSpec.moving(g), None
            bound = 2.61
        else:
            g = torus_graph((10, 10)) if case == "two-walker" else \
                build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
                            + [(v, v + 1) for v in range(3, 300)])
            space = ProductGraph(g, 2)
            psi = random_state(g, np.random.default_rng(5), walkers=2)
            coin, shift = CoinSpec.hadamard(g) if case == "two-walker" \
                else CoinSpec.grover(g), ShiftSpec.flip_flop(g)
            inter = InteractionSpec.coincidence_phase(space, np.pi / 2)
            bound = 2.10
        step(psi, coin, shift, inter)
        gc.collect()
        tracemalloc.start()
        try:
            step(psi, coin, shift, inter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * psi.amplitudes.nbytes


class TestDenseOracle:
    """One engine step must equal explicit dense S.W (and S.W.U) products."""

    @pytest.mark.parametrize("seed", range(6))
    def test_single_walker_step_matches_dense(self, seed):
        rng = np.random.default_rng(1000 + seed)
        g = random_graph(rng, int(rng.integers(3, 9)))
        coin = CoinSpec.random_unitary(g, rng)
        shift = ShiftSpec.flip_flop(g)
        w = oracle.dense_coin(g, coin.blocks)
        s = oracle.dense_flip_flop_shift(g)
        psi = random_state(g, rng)
        expected = s @ w @ psi.amplitudes
        got = step(psi, coin, shift)
        assert np.max(np.abs(got.amplitudes - expected)) < 1e-10

    def test_moving_shift_matches_dense(self, torus44, rng):
        coin = CoinSpec.grover(torus44)
        w = oracle.dense_coin(torus44, coin.blocks)
        s = oracle.dense_moving_shift(torus44)
        psi = random_state(torus44, rng)
        got = step(psi, coin, ShiftSpec.moving(torus44))
        assert np.max(np.abs(got.amplitudes - s @ w @ psi.amplitudes)) < 1e-10

    def test_two_walker_step_with_interaction_matches_dense(self, c4, rng):
        pg = ProductGraph(c4, 2)
        coin = CoinSpec.hadamard(c4)
        shift = ShiftSpec.moving(c4)
        inter = InteractionSpec.coincidence_phase(pg, np.pi / 3)
        w = oracle.kron_power(oracle.dense_coin(c4, coin.blocks), 2)
        s = oracle.kron_power(oracle.dense_moving_shift(c4), 2)
        u = oracle.dense_coincidence_phase(c4, 2, np.pi / 3)
        psi = random_state(c4, rng, walkers=2)
        got = step(psi, coin, shift, interaction=inter)
        assert np.max(np.abs(got.amplitudes
                             - s @ w @ u @ psi.amplitudes)) < 1e-10

    def test_explicit_interaction_blocks_match_dense(self, c4, rng):
        pg = ProductGraph(c4, 2)
        blocks = {
            (0, 0): np.linalg.qr(rng.normal(size=(4, 4))
                                 + 1j * rng.normal(size=(4, 4)))[0],
            (1, 3): np.linalg.qr(rng.normal(size=(4, 4))
                                 + 1j * rng.normal(size=(4, 4)))[0],
        }
        inter = InteractionSpec.from_blocks(pg, blocks)
        dim = c4.basis_dim
        u = np.eye(dim * dim, dtype=np.complex128)
        offs = c4.port_offsets
        for (v1, v2), block in blocks.items():
            idx = [i * dim + j
                   for i in range(int(offs[v1]), int(offs[v1 + 1]))
                   for j in range(int(offs[v2]), int(offs[v2 + 1]))]
            u[np.ix_(idx, idx)] = block
        psi = random_state(c4, rng, walkers=2)
        got = oracle.apply_interaction(psi, inter)
        assert np.max(np.abs(got.amplitudes - u @ psi.amplitudes)) < 1e-12


class TestInteractionLocality:
    def test_interaction_never_moves_walkers(self, c4, rng):
        pg = ProductGraph(c4, 2)
        inter = InteractionSpec.from_blocks(pg, {
            (2, 2): np.linalg.qr(rng.normal(size=(4, 4)))[0],
        })
        dim = c4.basis_dim
        for i in range(dim * dim):
            amps = np.zeros(dim * dim, dtype=np.complex128)
            amps[i] = 1.0
            out = oracle.apply_interaction(WaveFunction(pg, amps), inter)
            src = (c4.vertex_of_basis[i // dim], c4.vertex_of_basis[i % dim])
            for j in np.flatnonzero(np.abs(out.amplitudes) > 1e-14):
                tgt = (c4.vertex_of_basis[j // dim],
                       c4.vertex_of_basis[j % dim])
                assert tgt == src

    @pytest.mark.parametrize("walkers", [2, 3])
    @pytest.mark.parametrize("regular", [True, False])
    def test_coincidence_phase_equals_the_vertex_loop(self, walkers, regular,
                                                      rng):
        for _ in range(3):
            g = (cycle_graph(int(rng.integers(3, 7))) if regular else
                 build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]))
            inter = InteractionSpec.coincidence_phase(
                ProductGraph(g, walkers), rng.uniform(-np.pi, np.pi))
            psi = random_state(g, rng, walkers=walkers)
            got = oracle.apply_interaction(psi, inter).amplitudes
            assert np.array_equal(got, oracle.reference_interaction(psi, inter))

    @pytest.mark.parametrize("walkers", [2, 3])
    def test_coincidence_phase_on_a_leaf_is_within_rounding(self, walkers,
                                                            rng):
        # a degree-1 vertex makes a one-element block, which numpy
        # multiplies on a path that can round the last bit differently
        g = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)])
        for _ in range(3):
            inter = InteractionSpec.coincidence_phase(
                ProductGraph(g, walkers), rng.uniform(-np.pi, np.pi))
            psi = random_state(g, rng, walkers=walkers)
            got = oracle.apply_interaction(psi, inter).amplitudes
            assert np.allclose(got, oracle.reference_interaction(psi, inter),
                               rtol=1e-15, atol=0.0)

    def test_non_unitary_block_rejected(self, c4):
        pg = ProductGraph(c4, 2)
        with pytest.raises(ValidationError):
            InteractionSpec.from_blocks(pg, {(0, 0): np.ones((4, 4))})


class TestVertexDistribution:
    def test_localized(self, c4):
        rho = vertex_distribution(WaveFunction.localized(c4, 0, 0))
        assert np.array_equal(rho, [1, 0, 0, 0])

    def test_c4_after_one_step(self, c4):
        psi = step(WaveFunction.localized(c4, 0, 0),
                   CoinSpec.hadamard(c4), ShiftSpec.moving(c4))
        assert np.allclose(vertex_distribution(psi), [0, 0.5, 0, 0.5],
                           atol=1e-15)

    def test_conservation_over_long_runs(self, rng):
        g = random_graph(rng, 6)
        coin = CoinSpec.random_unitary(g, rng)
        shift = ShiftSpec.flip_flop(g)
        psi = random_state(g, rng)
        for t in range(50):
            psi = step(psi, coin, shift, t=t)
            assert abs(vertex_distribution(psi).sum() - 1.0) < 1e-10

    def test_two_walker_distribution_shape(self, c4):
        pg = ProductGraph(c4, 2)
        psi = WaveFunction.localized(pg, (1, 2), (0, 1))
        rho = vertex_distribution(psi)
        assert rho.shape == (16,)
        assert rho[np.ravel_multi_index((1, 2), pg.shape)] == 1.0
