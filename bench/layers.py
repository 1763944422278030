"""The traced run: each layer's public function, called from here.

``mirror`` repeats what the three CLI commands do, one public call per
span, with a parent span per command, so ``cli.equivalence`` and
``cli.sample`` can be set against the untraced CLI times. It then times
the calls the CLI does not make on its own (T single steps, ``apply``
over the sequence, the alias sampler and the torus recursion).
``memory_pass`` repeats the four calls whose allocations matter under
``tracemalloc``, apart from every timed span.

Only public functions that do not depend on the P(t) storage layout are
called, so layout changes in the program leave this file as it is.
"""

from __future__ import annotations

import gc
import tracemalloc
from pathlib import Path

import numpy as np

from qrwalk import (build_sequence, grover_torus_dp, locality_fraction,
                    sample_ensemble, step, verify_theorem_properties)
from qrwalk.persist import (coin_from_json, graph_and_spaces,
                            initial_state_from_json, interaction_from_json,
                            load_sequence, save_sequence, shift_from_json,
                            trajectories_table, write_table)

from checks import final_tvd
from spans import Tracer
from workloads import Workload


def operators(config: dict, base, space, walkers: int):
    """Coin, shift, interaction and initial state, as the CLI parses them."""
    coin = coin_from_json(config["coin"], base)
    shift = shift_from_json(config["shift"], base)
    interaction = (interaction_from_json(config.get("interaction"), space)
                   if walkers > 1 else None)
    psi0 = initial_state_from_json(config["initial_state"], space)
    return coin, shift, interaction, psi0


def setup(config: dict):
    """Everything the pipeline builds from the config before evolving."""
    base, space, walkers = graph_and_spaces(config)
    return (space,) + operators(config, base, space, walkers)


def _built(tracer: Tracer, work: Workload):
    with tracer.span("graphs.build"):
        base, space, walkers = graph_and_spaces(work.config)
    with tracer.span("walk.operators"):
        coin, shift, interaction, psi0 = operators(work.config, base, space,
                                                   walkers)
    with tracer.span("equivalence.build_sequence"):
        seq = build_sequence(space, coin, shift, psi0, work.horizon,
                             interaction=interaction)
    return space, coin, shift, interaction, psi0, seq


def _precision(report) -> dict[str, float]:
    return {key: float(getattr(report, key)) for key in (
        "max_entry_violation", "max_column_sum_deviation",
        "max_propagation_residual")}


def mirror(tracer: Tracer, work: Workload, out_dir: Path) -> dict:
    """One traced pass over every layer; returns its counts and residuals."""
    cfg = work.config
    eq_dir, sample_dir = out_dir / "eq", out_dir / "sample"
    sample_dir.mkdir(parents=True, exist_ok=True)
    with tracer.span("cli.equivalence"):
        space, coin, shift, interaction, psi0, seq = _built(tracer, work)
        with tracer.span("equivalence.verify"):
            report = verify_theorem_properties(seq)
        with tracer.span("persist.save_sequence"):
            save_sequence(eq_dir, seq)
    with tracer.span("cli.sample"):
        space, _, _, _, _, seq = _built(tracer, work)
        with tracer.span("trajectory.sample"):
            ens = sample_ensemble(seq, work.ensemble_size, cfg["seed"])
        with tracer.span("trajectory.locality"):
            locality_fraction(ens, space)
        with tracer.span("persist.trajectories_write"):
            write_table(sample_dir / "trajectories", trajectories_table(
                ens, work.walkers, work.num_vertices, work.torus_dims))
    with tracer.span("cli.verify"):
        with tracer.span("persist.load_sequence"):
            loaded = load_sequence(eq_dir)
        with tracer.span("equivalence.verify"):
            reloaded_report = verify_theorem_properties(loaded)

    with tracer.span("walk.step"):
        psi = psi0
        for t in range(work.horizon):
            psi = step(psi, coin, shift, interaction, t)
    with tracer.span("equivalence.apply"):
        for t, mat in enumerate(seq.matrices):
            mat.apply(seq.rho[t])
    with tracer.span("trajectory.sample_alias"):
        sample_ensemble(seq, work.ensemble_size, cfg["seed"], method="alias")
    if work.dp_initial is not None:
        with tracer.span("baselines.torus_dp"):
            grover_torus_dp(work.torus_dims, work.dp_initial, work.horizon)

    matrix_files = sorted(eq_dir.glob("p_matrix.*"))
    rows = 0
    for path in matrix_files:
        if path.suffix == ".csv":
            with path.open() as fh:
                rows += sum(1 for line in fh if not line.startswith("#")) - 1
    built, reloaded = _precision(report), _precision(reloaded_report)
    amps = psi.amplitudes
    return {
        "graphs.basis_dim": int(psi0.amplitudes.size),
        "walk.norm_drift": abs(float(np.vdot(amps, amps).real) - 1.0),
        "equivalence.columns_checked": int(report.columns_checked),
        **{f"equivalence.{key}": max(built[key], reloaded[key])
           for key in built},
        "persist.matrix_rows": rows,
        "persist.matrix_bytes": sum(p.stat().st_size for p in matrix_files),
        "trajectory.steps": ens.size * ens.length,
        "trajectory.tvd_final": final_tvd(ens.paths, seq.rho[-1]),
    }


def _peak_mb(call):
    """Run ``call``; return its result and the tracemalloc peak it added."""
    gc.collect()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = call()
    return result, (tracemalloc.get_traced_memory()[1] - before) / 2**20


def memory_pass(work: Workload, eq_dir: Path) -> dict[str, float]:
    """Peak traced allocation of build, load, sampling and locality.

    ``eq_dir`` holds a sequence saved by :func:`mirror`. The graph is built
    afresh so that no cached structure from earlier passes is reused.
    """
    space, coin, shift, interaction, psi0 = setup(work.config)
    tracemalloc.start()
    try:
        seq, build = _peak_mb(lambda: build_sequence(
            space, coin, shift, psi0, work.horizon, interaction=interaction))
        _, load = _peak_mb(lambda: load_sequence(eq_dir))
        ens, sample = _peak_mb(lambda: sample_ensemble(
            seq, work.ensemble_size, work.config["seed"]))
        _, locality = _peak_mb(lambda: locality_fraction(ens, space))
    finally:
        tracemalloc.stop()
    return {
        "equivalence.build_peak_mb": build,
        "persist.load_peak_mb": load,
        "trajectory.sample_peak_mb": sample,
        "trajectory.locality_peak_mb": locality,
    }
