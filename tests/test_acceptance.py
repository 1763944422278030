"""Acceptance suite: one test per criterion, one printed verdict line each.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import itertools
import time

import numpy as np
import pytest

import _oracles as oracle
from qrwalk import (
    CoinSpec,
    InteractionSpec,
    ProductGraph,
    ShiftSpec,
    UnitarityError,
    WaveFunction,
    build_graph,
    build_sequence,
    check_coin_unitary,
    complete_graph,
    cycle_graph,
    empirical_distribution,
    exact_rejection_marginals,
    grover_coin,
    grover_torus_dp,
    grover_torus_matrix,
    hadamard_coin,
    locality_fraction,
    random_regular_graph,
    rejection_sample,
    sample_ensemble,
    step,
    torus_graph,
    total_variation,
    verify_theorem_properties,
    vertex_distribution,
)
from qrwalk.persist import trajectories_table, write_table


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {state}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _coin_for(graph, kind, rng):
    if kind == "hadamard":
        return CoinSpec.hadamard(graph)
    if kind == "grover":
        return CoinSpec.grover(graph)
    return CoinSpec.random_unitary(graph, rng)


def _shift_for(graph, kind):
    return ShiftSpec.moving(graph) if kind == "moving" \
        else ShiftSpec.flip_flop(graph)


def test_criterion_1_theorem1_equivalence_randomised():
    rng = np.random.default_rng(20250810)
    start = time.perf_counter()

    def make_graph(family):
        if family == "cycle":
            return cycle_graph(int(rng.integers(3, 31)))
        if family == "torus":
            return torus_graph((int(rng.integers(3, 6)),
                                int(rng.integers(3, 6))))
        return random_regular_graph(int(rng.integers(3, 8)) * 4, 4,
                                    seed=rng)

    # every valid (family, coin, shift) combination, then random extras;
    # the moving shift needs the cycle/torus axis port orders, Hadamard
    # needs power-of-two degrees (d=4 regular graphs qualify)
    combos = []
    for family in ("cycle", "torus"):
        for coin in ("hadamard", "grover", "random-unitary"):
            for shift in ("moving", "flip-flop"):
                combos.append((family, coin, shift))
    for coin in ("hadamard", "grover", "random-unitary"):
        combos.append(("random-regular", coin, "flip-flop"))
    while len(combos) < 25:
        combos.append(combos[int(rng.integers(0, 15))])

    worst_residual = worst_colsum = 0.0
    entries_ok = True
    for family, coin_kind, shift_kind in combos:
        g = make_graph(family)
        coin = _coin_for(g, coin_kind, rng)
        shift = _shift_for(g, shift_kind)
        v0 = int(rng.integers(0, g.num_vertices))
        c0 = int(rng.integers(0, g.degree(v0)))
        seq = build_sequence(g, coin, shift,
                             WaveFunction.localized(g, v0, c0), 50)
        report = verify_theorem_properties(seq)
        worst_residual = max(worst_residual,
                             report.max_propagation_residual)
        worst_colsum = max(worst_colsum, report.max_column_sum_deviation)
        for mat in seq.matrices:
            for u in mat.col_ids.tolist():
                _, probs = mat.column(u)
                if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
                    entries_ok = False

    elapsed = time.perf_counter() - start
    ok = (worst_residual <= 1e-10 and worst_colsum <= 1e-10
          and entries_ok and elapsed <= 60.0)
    verdict(1, "Theorem-1 equivalence on 25 randomised instances", ok,
            f"residual={worst_residual:.2e} colsum_dev={worst_colsum:.2e} "
            f"entries_in_[0,1]={entries_ok} time={elapsed:.1f}s")


def test_criterion_2_theorem2_two_walkers():
    g = cycle_graph(4)
    pg = ProductGraph(g, 2)
    coin, shift = CoinSpec.hadamard(g), ShiftSpec.moving(g)
    psi0 = WaveFunction.localized(pg, (0, 0), (0, 0))

    worst_residual = 0.0
    for inter in (InteractionSpec.identity(pg),
                  InteractionSpec.coincidence_phase(pg, np.pi)):
        seq = build_sequence(pg, coin, shift, psi0, 10, interaction=inter)
        worst_residual = max(
            worst_residual,
            verify_theorem_properties(seq).max_propagation_residual)

    free = build_sequence(pg, coin, shift, psi0, 10,
                          interaction=InteractionSpec.identity(pg))
    single = build_sequence(g, coin, shift,
                            WaveFunction.localized(g, 0, 0), 10)
    product_dev = max(
        float(np.abs(free.rho[t].reshape(4, 4)
                     - np.outer(single.rho[t], single.rho[t])).max())
        for t in range(11)
    )
    ok = worst_residual <= 1e-10 and product_dev <= 1e-10
    verdict(2, "Theorem-2 equivalence for K=2 on C4", ok,
            f"residual={worst_residual:.2e} product_dev={product_dev:.2e}")


def test_criterion_3_dense_oracle_step():
    rng = np.random.default_rng(7)
    small = [
        cycle_graph(4),
        build_graph([(0, 1), (1, 2), (2, 3), (3, 0)], ordering="sorted"),
        cycle_graph(5),
        cycle_graph(8),
        complete_graph(5),
        build_graph([(0, 1)]),
        random_regular_graph(8, 3, seed=5),
        build_graph([(0, 1), (1, 2), (2, 0), (2, 3)]),
    ]
    worst = 0.0
    for g in small:
        assert g.num_vertices <= 8
        coins = [CoinSpec.grover(g), CoinSpec.random_unitary(g, rng)]
        if all(d & (d - 1) == 0 and d > 1 for d in g.degrees):
            coins.append(CoinSpec.hadamard(g))
        shifts = [ShiftSpec.flip_flop(g)]
        if g.torus_dims is not None:
            shifts.append(ShiftSpec.moving(g))
        for coin, shift in itertools.product(coins, shifts):
            s = (oracle.dense_moving_shift(g) if shift.name == "moving"
                 else oracle.dense_flip_flop_shift(g))
            w = oracle.dense_coin(g, coin.blocks)
            amps = rng.normal(size=g.basis_dim) \
                + 1j * rng.normal(size=g.basis_dim)
            amps /= np.linalg.norm(amps)
            psi = WaveFunction(g, amps)
            got = step(psi, coin, shift)
            worst = max(worst,
                        float(np.abs(got.amplitudes
                                     - s @ w @ amps).max()))

    # K=2 with an interaction: S.W.U on the joint space
    g = cycle_graph(4)
    pg = ProductGraph(g, 2)
    coin, shift = CoinSpec.hadamard(g), ShiftSpec.moving(g)
    inter = InteractionSpec.coincidence_phase(pg, np.pi)
    op = (oracle.kron_power(oracle.dense_moving_shift(g), 2)
          @ oracle.kron_power(oracle.dense_coin(g, coin.blocks), 2)
          @ oracle.dense_coincidence_phase(g, 2, np.pi))
    amps = rng.normal(size=64) + 1j * rng.normal(size=64)
    amps /= np.linalg.norm(amps)
    got = step(WaveFunction(pg, amps), coin, shift, interaction=inter)
    worst = max(worst, float(np.abs(got.amplitudes - op @ amps).max()))

    verdict(3, "engine step equals dense S.W (and S.W.U) products",
            worst <= 1e-10, f"max deviation={worst:.2e}")


def test_criterion_4_lln_tvd_convergence():
    start = time.perf_counter()
    g = torus_graph((10, 10))
    seq = build_sequence(g, CoinSpec.grover(g), ShiftSpec.moving(g),
                         WaveFunction.localized(g, 0, 0), 20)
    sizes = (100, 1000, 10000)
    t_grid = (5, 10, 20)
    decreasing = 0
    bound_ok = True
    for rep in range(3):
        ss = np.random.SeedSequence(900 + rep)
        medians = []
        for size, child in zip(sizes, ss.spawn(3)):
            ens = sample_ensemble(seq, size, child)
            tvds = [total_variation(empirical_distribution(ens, t),
                                    seq.rho[t]) for t in t_grid]
            medians.append(float(np.median(tvds)))
            if size == 10000:
                tvd5 = total_variation(empirical_distribution(ens, 5),
                                       seq.rho[5])
                bound_ok = bound_ok and tvd5 <= 0.15
        if medians[0] > medians[1] > medians[2]:
            decreasing += 1
    elapsed = time.perf_counter() - start
    ok = decreasing >= 2 and bound_ok and elapsed <= 300.0
    verdict(4, "LLN: TVD decreases with ensemble size", ok,
            f"decreasing_reps={decreasing}/3 tvd(M=10000,t=5)<=0.15: "
            f"{bound_ok} time={elapsed:.1f}s")


def test_criterion_5_trajectory_locality_and_reproducibility(tmp_path):
    g = torus_graph((10, 10))
    shift = ShiftSpec.moving(g)
    psi0 = WaveFunction.localized(g, 0, 0)
    all_local = True
    identical = True
    for coin in (CoinSpec.hadamard(g), CoinSpec.grover(g)):
        seq = build_sequence(g, coin, shift, psi0, 50)
        ens1 = sample_ensemble(seq, 20, master_seed=4242)
        ens2 = sample_ensemble(seq, 20, master_seed=4242)
        all_local = all_local and locality_fraction(ens1, g) == 1.0
        identical = identical and np.array_equal(ens1.paths, ens2.paths)
        paths = [
            write_table(tmp_path / f"{coin.name}_{i}",
                        trajectories_table(ens, 1, g.num_vertices,
                                           g.torus_dims), manifest="fixed")
            for i, ens in enumerate((ens1, ens2))
        ]
        identical = identical and (paths[0].read_bytes()
                                   == paths[1].read_bytes())
    verdict(5, "20-trajectory ensembles are local and reproducible",
            all_local and identical,
            f"locality=100%: {all_local} byte_identical: {identical}")


def test_criterion_6_torus_recursion_oracle():
    worst_rho = 0.0
    worst_mat = 0.0
    for dims in ((4, 4), (8,)):
        g = torus_graph(dims)
        ports = 2 * len(dims)
        init = np.zeros((g.num_vertices, ports))
        init[0, 0] = 1.0
        states = grover_torus_dp(dims, init, 30)
        seq = build_sequence(g, CoinSpec.grover(g), ShiftSpec.moving(g),
                             WaveFunction.localized(g, 0, 0), 30)
        for t in range(31):
            worst_rho = max(worst_rho,
                            float(np.abs(states[t].vertex_distribution()
                                         - seq.rho[t]).max()))
        for t in range(30):
            dp_dense = oracle.toarray(
                grover_torus_matrix(states[t], states[t + 1]))
            th_dense = oracle.toarray(seq.matrices[t])
            for u in np.flatnonzero(seq.rho[t] > 1e-12):
                worst_mat = max(worst_mat,
                                float(np.abs(dp_dense[:, u]
                                             - th_dense[:, u]).max()))
    ok = worst_rho <= 1e-9 and worst_mat <= 1e-9
    verdict(6, "torus recursion matches the general engine", ok,
            f"rho_dev={worst_rho:.2e} matrix_dev={worst_mat:.2e}")


def test_criterion_7_rejection_baseline():
    # C4: empirical accepted marginals vs exact enumeration
    g = cycle_graph(4)
    psi = WaveFunction.localized(g, 0, 0)
    coin, shift = CoinSpec.hadamard(g), ShiftSpec.moving(g)
    rows = [vertex_distribution(psi)]
    for t in range(2):
        psi = step(psi, coin, shift, None, t)
        rows.append(vertex_distribution(psi))
    rho_c4 = np.stack(rows)
    exact_c4, _ = oracle.brute_rejection_marginals(rho_c4, g)
    report = rejection_sample(rho_c4, g, 1_000_000, seed=99)
    c4_tvd = max(0.5 * float(np.abs(report.marginals[t] - exact_c4[t]).sum())
                 for t in range(3))

    # complete graph: supports never overlap, so every sequence is a path
    k5 = complete_graph(5)
    psi5 = WaveFunction.localized(k5, 0, 0)
    rho_k5 = np.stack([vertex_distribution(psi5),
                       vertex_distribution(step(psi5, CoinSpec.hadamard(k5),
                                                ShiftSpec.flip_flop(k5)))])
    rate = rejection_sample(rho_k5, k5, 200_000, seed=5).acceptance_rate

    # an instance whose accepted marginals provably deviate from rho
    psi5 = WaveFunction.localized(k5, 0, 0)
    rows5 = [vertex_distribution(psi5)]
    for t in range(2):
        psi5 = step(psi5, CoinSpec.hadamard(k5), ShiftSpec.flip_flop(k5),
                    None, t)
        rows5.append(vertex_distribution(psi5))
    rho5 = np.stack(rows5)
    exact5, _ = exact_rejection_marginals(rho5, k5)
    bias = max(0.5 * float(np.abs(exact5[t] - rho5[t]).sum())
               for t in range(3))

    ok = c4_tvd <= 0.02 and rate == 1.0 and bias >= 0.01
    verdict(7, "rejection baseline matches enumeration and shows bias", ok,
            f"c4_tvd={c4_tvd:.4f} k5_rate={rate} bias_tvd={bias:.4f}")


def test_criterion_8_unitarity_validators():
    worst = 0.0
    for dim in (2, 4, 8):
        h = hadamard_coin(dim)
        worst = max(worst, float(np.abs(h @ h.conj().T
                                        - np.eye(dim)).max()))
    for dim in (2, 3, 4, 6):
        gm = grover_coin(dim)
        worst = max(worst, float(np.abs(gm @ gm.conj().T
                                        - np.eye(dim)).max()))
    named = False
    try:
        check_coin_unitary(1.1 * hadamard_coin(2))
    except UnitarityError as exc:
        named = "column-norm" in str(exc)
    ok = worst <= 1e-12 and named
    verdict(8, "coin unitarity validators", ok,
            f"max |WW†-I|={worst:.2e} scaled coin names condition: {named}")
