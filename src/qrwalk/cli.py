"""Command-line surface: run walks, emit matrices, sample, verify.

Runs are driven by a JSON config plus a few flag overrides; every command
writes a ``manifest.json`` next to its outputs and the data files carry
the manifest hash. Exit codes: 0 on success, 1 on a runtime numerical
failure (``numerical failure:``) or a memory budget refusal (``resource
limit:``), 2 on configuration errors.

:func:`main` first pins two glibc allocator thresholds, through
``mallopt``, once per process (``_PINNED_THRESHOLDS``). Unpinned, glibc
serves an array above its dynamic mmap threshold with fresh mmapped pages
and trims freed memory off the top of the heap, so every command's NumPy
temporaries page-fault anew. Which ones do depends on the heap layout a
command inherits: the benchmark's ``two-walker`` ``sample_s`` and
``reverify_s`` moved by 16-35% between layouts of the same code. Pinned,
arrays under the mmap threshold come from the heap, and freed pages stay
mapped for the next array and the next command. The setting is
process-wide and glibc-only; where libc has no ``mallopt`` nothing is
set. Only this entry point sets it: importing :mod:`qrwalk` leaves its
host's allocator alone.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .baselines import exact_rejection_marginals, grover_torus_dp, \
    grover_torus_matrix, rejection_sample
from .equivalence import TransitionMatrixSeq, build_sequence, \
    verify_theorem_properties
from .errors import ConfigError, ConsistencyError, QRWalkError, \
    ResourceLimitError, ValidationError
from .graphs import torus_dims_of
from .persist import (
    RunManifest,
    _load_run,
    ensemble_mean_table,
    graph_and_spaces,
    initial_state_from_json,
    int_entry,
    int_list,
    interaction_from_json,
    load_sequence,
    manifest_for,
    coin_from_json,
    rho_table,
    save_sequence,
    shift_from_json,
    trajectories_table,
    tvd_table,
    write_json,
    write_table,
)
from .trajectory import convergence_report, locality_fraction, \
    sample_ensemble, total_variation
from .walk import _light_cone

#: glibc's ``mallopt`` parameters M_MMAP_THRESHOLD (-3) and
#: M_TRIM_THRESHOLD (-1), and what :func:`main` pins them to. The smallest
#: pair measured with no page faults in the benchmark's repeated commands
#: on every workload: 4 MiB is above the K = 2 walk's 2.56 MB state vectors,
#: and 16 MiB above the 7-10 MB of free heap top the commands leave. With
#: 2 and 8 MiB the faults came back in some heap layouts; 4 and 8 MiB
#: trimmed and re-faulted on every command.
_PINNED_THRESHOLDS = ((-3, 4 << 20), (-1, 16 << 20))


@functools.cache
def _pin_allocator() -> None:
    """Pin glibc's mmap and trim thresholds, once per process (module
    docstring); without a ``mallopt`` in libc, do nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _PINNED_THRESHOLDS:
        mallopt(param, value)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}"
        ) from None
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return config


def _out_dir(args) -> Path:
    out = args.out_dir or os.environ.get("QRWALK_OUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _apply_overrides(config: dict, args, keys: tuple[str, ...]) -> None:
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value


def _require(config: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in config]
    if missing:
        raise ConfigError(f"config is missing required entries: {missing}")


def _operators(config: dict, space):
    """Coin, shift and interaction of a config, and its initial state on
    the product graph ``space``."""
    _require(config, "coin", "shift")
    coin = coin_from_json(config["coin"], space.base)
    shift = shift_from_json(config["shift"], space.base)
    interaction = None
    if space.num_walkers > 1:
        interaction = interaction_from_json(config.get("interaction"), space)
    elif config.get("interaction") is not None:
        raise ConfigError("interactions require walkers > 1")
    psi = initial_state_from_json(config.get("initial_state"), space)
    return coin, shift, interaction, psi


def _as_runtime(exc: ValidationError) -> ConsistencyError:
    # validation failures after the config phase are numerical breaches
    return ConsistencyError(str(exc))


def _scan_only(config: dict) -> None:
    # a config may still name the draw, but the CLI samples by scan only
    if config.get("method", "scan") != "scan":
        raise ConfigError(f"unknown sampling method {config['method']!r}; "
                          "only 'scan' is supported")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_evolve(args, config: dict) -> int:
    base, space, walkers = graph_and_spaces(config)
    coin, shift, interaction, psi = _operators(config, space)
    horizon = int_entry(config, "horizon", 0)
    manifest = manifest_for(config, "evolve", base, format=args.format)

    try:
        rhos = [rho for *_, rho in
                _light_cone(psi, coin, shift, horizon, interaction)]
    except ValidationError as exc:
        raise _as_runtime(exc) from exc

    out = _out_dir(args)
    digest = manifest.save(out)
    path = write_table(out / "rho", rho_table(
        np.stack(rhos), walkers, base.num_vertices), args.format, digest)
    print(f"wrote {len(rhos)} distributions over "
          f"{base.num_vertices ** walkers} states to {path}")
    return 0


def _build_seq(config: dict, space) -> TransitionMatrixSeq:
    coin, shift, interaction, psi = _operators(config, space)
    horizon = int_entry(config, "horizon", 0)
    try:
        return build_sequence(space, coin, shift, psi, horizon,
                              interaction=interaction)
    except ValidationError as exc:
        raise _as_runtime(exc) from exc


def cmd_equivalence(args, config: dict) -> int:
    base, space, _ = graph_and_spaces(config)
    seq = _build_seq(config, space)
    report = verify_theorem_properties(seq)
    manifest = manifest_for(config, "equivalence", base, format=args.format)
    out = _out_dir(args)
    digest = manifest.save(out)
    save_sequence(out, seq, digest, args.format)
    write_json(out / "report.json", report.as_dict())
    print(report)
    if not report.passed:
        raise ConsistencyError(
            "matrix properties violated beyond tolerance; see report"
        )
    print(f"wrote {seq.num_steps} matrices to {out}")
    return 0


def cmd_sample(args, config: dict) -> int:
    _scan_only(config)
    seed = int_entry(config, "seed", None)
    size = int_entry(config, "ensemble_size", 20, minimum=1)
    length = int_entry(config, "length", None)
    if args.from_dir:
        seq, source = _load_run(args.from_dir)
        # _load_run checked that the manifest made this store; the
        # store's graph has no torus shape, the manifest's document has
        torus_dims = torus_dims_of(source.graph) if source else None
        manifest = RunManifest(
            command="sample",
            graph=source.graph if source else {"loaded": args.from_dir},
            graph_sha256=source.graph_sha256 if source else "unknown",
            walkers=seq.num_walkers, seed=seed,
        )
    else:
        base, space, _ = graph_and_spaces(config)
        seq = _build_seq(config, space)
        torus_dims = base.torus_dims
        manifest = manifest_for(config, "sample", base, format=args.format)

    manifest.params.update({"ensemble_size": size, "method": "scan"})
    ens = sample_ensemble(seq, size, seed, length=length)
    if locality_fraction(ens, seq.graph) < 1.0:
        raise ConsistencyError(
            "sampled ensemble contains a non-edge transition"
        )

    walkers = seq.num_walkers
    out = _out_dir(args)
    digest = manifest.save(out)
    path = write_table(out / "trajectories", trajectories_table(
        ens, walkers, seq.num_base_vertices, torus_dims), args.format, digest)
    if torus_dims is not None and walkers == 1:
        write_table(out / "ensemble_mean",
                    ensemble_mean_table(ens, torus_dims), args.format, digest)
    print(f"wrote {size} trajectories of length {ens.length} to {path}")
    return 0


def cmd_tvd(args, config: dict) -> int:
    _scan_only(config)
    base, space, _ = graph_and_spaces(config)
    _require(config, "ensemble_sizes", "t_grid")
    sizes = int_list(config, "ensemble_sizes", minimum=1)
    t_grid = int_list(config, "t_grid")
    seed = int_entry(config, "seed", None)
    seq = _build_seq(config, space)
    manifest = manifest_for(config, "tvd", base, ensemble_sizes=sizes,
                            t_grid=t_grid, format=args.format)
    report = convergence_report(seq, sizes, t_grid, seed)
    out = _out_dir(args)
    digest = manifest.save(out)
    path = write_table(out / "tvd", tvd_table(report.rows), args.format,
                       digest)
    for m in sizes:
        print(f"M={m}: median TVD over grid = {report.median_tvd(m):.6f}")
    print(f"wrote {len(report.rows)} rows to {path}")
    return 0


def cmd_rejection(args, config: dict) -> int:
    base, space, walkers = graph_and_spaces(config)
    if walkers != 1:
        raise ConfigError("the rejection baseline is single-walker")
    coin, shift, _, psi = _operators(config, space)
    length = int_entry(config, "length", 3, minimum=1)
    attempts = int_entry(config, "attempts", 1_000_000, minimum=1)
    seed = int_entry(config, "seed", None)
    manifest = manifest_for(config, "rejection", base, length=length,
                            attempts=attempts)

    try:
        rho_seq = np.stack([rho for *_, rho in
                            _light_cone(psi, coin, shift, length - 1)])
        report = rejection_sample(rho_seq, base, attempts, seed=seed)
        exact, total = exact_rejection_marginals(rho_seq, base)
    except ValidationError as exc:
        raise _as_runtime(exc) from exc

    out = _out_dir(args)
    digest = manifest.save(out)
    payload = {
        "manifest": digest,
        "report": report.as_dict(),
        "exact_marginals": None if exact is None
        else [list(row) for row in exact],
        "exact_total_path_probability": total,
        "exact_tvd_vs_rho": None if exact is None else [
            total_variation(exact[t], rho_seq[t]) for t in range(length)
        ],
    }
    path = write_json(out / "rejection.json", payload)
    print(f"acceptance rate {report.acceptance_rate:.6g} "
          f"({report.accepted}/{report.attempts}); wrote {path}")
    return 0


def cmd_torus_dp(args, config: dict) -> int:
    base, _, walkers = graph_and_spaces(config)
    if walkers != 1:
        raise ConfigError("the torus recursion is single-walker")
    if base.torus_dims is None:
        raise ConfigError(
            "torus-dp needs a generated torus graph "
            '({"type": "torus", "dims": [...]} or {"type": "cycle", ...})'
        )
    psi = initial_state_from_json(config.get("initial_state"), base)
    horizon = int_entry(config, "horizon", 0)
    manifest = manifest_for(config, "torus-dp", base,
                            emit_matrices=bool(config.get("emit_matrices")))
    amp = psi.amplitudes
    if np.abs(amp.imag).max() > 0.0:
        raise ConfigError(
            "torus-dp requires a purely real initial state"
        )
    states = grover_torus_dp(base.torus_dims, amp.real, horizon)
    rho = np.stack([s.vertex_distribution() for s in states])

    out = _out_dir(args)
    digest = manifest.save(out)
    if config.get("emit_matrices"):
        matrices = [grover_torus_matrix(states[t], states[t + 1])
                    for t in range(horizon)]
        _, path = save_sequence(
            out, TransitionMatrixSeq(matrices, rho, base), digest,
            args.format)
    else:
        path = write_table(out / "rho", rho_table(rho, 1, base.num_vertices),
                           args.format, digest)
    print(f"wrote {rho.shape[0]} distributions to {path}")
    return 0


def cmd_verify(args, config: dict) -> int:
    seq = load_sequence(args.in_dir)
    report = verify_theorem_properties(seq, tolerance=args.tol)
    write_json(Path(args.in_dir) / "verify_report.json", report.as_dict())
    print(report)
    if not report.passed:
        raise ConsistencyError("persisted sequence violates the matrix "
                               "properties beyond tolerance")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

#: Each command: its handler, its help, and the config entries that it
#: lets integer flags of the same name override (``--ensemble-size`` for
#: ``ensemble_size``), besides ``--seed``. Every command but ``verify``
#: reads a config, and ``sample`` may read a store instead.
_COMMANDS = {
    "evolve": (cmd_evolve, "run the walk, write rho(0..T); rho lists the "
               "non-zero masses only (an unlisted state has mass 0)",
               ("horizon",)),
    "equivalence": (cmd_equivalence, "build P(0..T-1), verify, persist; "
                    "p_matrix lists the ratio columns only (an unlisted "
                    "source moves uniformly to its neighbours), rho the "
                    "non-zero masses only (an unlisted state has mass 0)",
                    ("horizon",)),
    "sample": (cmd_sample, "sample a trajectory ensemble",
               ("ensemble_size",)),
    "tvd": (cmd_tvd, "ensemble-size convergence table", ()),
    "rejection": (cmd_rejection, "rejection-sampling baseline",
                  ("attempts", "length")),
    "torus-dp": (cmd_torus_dp, "Grover/moving-shift torus recursion; rho "
                 "lists the non-zero masses only (an unlisted state has "
                 "mass 0)", ("horizon",)),
    "verify": (cmd_verify, "re-check persisted matrices", ()),
}
COMMANDS = tuple(_COMMANDS)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of ``command`` only, or of every
    command for ``None``. Its metavar gives a one-command parser the full
    usage line; the full parser keeps the name "command" in its errors."""
    parser = argparse.ArgumentParser(
        prog="qrwalk",
        description="Coined quantum walks, their equivalent non-homogeneous "
                    "random walks, and trajectory sampling.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{%s}" % ",".join(COMMANDS))
    for name in COMMANDS if command is None else (command,):
        func, help_text, keys = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        if name == "verify":
            sp.add_argument("--in-dir", required=True)
            sp.add_argument("--tol", type=float, default=1e-10)
            sp.set_defaults(func=func, overrides=())
            continue
        sp.add_argument("--config", required=name != "sample",
                        help="JSON run configuration")
        sp.add_argument("--seed", type=int, help="master RNG seed override")
        sp.add_argument("--out-dir",
                        help="output directory (default: $QRWALK_OUT_DIR or .)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "sample":
            sp.add_argument("--from", dest="from_dir",
                            help="directory with the sequence.npz store that "
                                 "equivalence writes")
        for key in keys:
            sp.add_argument("--" + key.replace("_", "-"), type=int)
        sp.set_defaults(func=func, overrides=("seed",) + keys)
    return parser


def main(argv=None) -> int:
    # only the invoked command's subparser is built; top-level help, a
    # missing or an unknown command build them all
    _pin_allocator()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv and argv[0] in COMMANDS
                         else None).parse_args(argv)
    try:
        config = _load_config(getattr(args, "config", None))
        _apply_overrides(config, args, args.overrides)
        if args.command == "sample" and not args.from_dir and not args.config:
            raise ConfigError("sample needs --config or --from")
        return args.func(args, config)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QRWalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
