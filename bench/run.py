"""Benchmark of the qrwalk pipeline: walk -> P(t) -> trajectories.

One run is one fresh process on one seeded workload:

    python3 bench/run.py --workload torus-grover --seed 1 --seconds 30 --trace 0

``--trace 0`` times the CLI commands ``equivalence``, ``sample`` and
``verify`` (called in-process through ``qrwalk.cli.main``) and the set-up,
and reports the end-to-end metrics, quoted at a reference machine speed
(see ``Timer``). ``--trace 1`` also records spans around each layer's
public function and reports the per-layer metrics. Either way the outputs are checked afterwards, and the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs every
workload in its own process; ``--smoke`` swaps in tiny instances;
``--record FILE`` appends each result to a JSON-lines file that
``bench/compare.py`` reads. See ``bench/README.md``.
"""

from __future__ import annotations

import os

# One thread for BLAS/OpenMP; this must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"

#: Probe time at the reference speed that times are quoted at.
PROBE_REFERENCE_S = 0.02
PROBE_LOOPS = 200_000
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Fewest timed repetitions of the CLI commands, however short --seconds.
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2


class Operations:
    """Attempted and failed operations: CLI commands and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail.strip()}")


def _probe() -> float:
    """Seconds taken by a fixed interpreter loop that allocates nothing
    large, so that only the machine's speed moves it."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class Timer:
    """Wall times of calls, quoted at a reference machine speed.

    Other tenants make this machine's speed drift by tens of percent over
    seconds to minutes. A probe runs just before and just after every
    timed call; the call's time is scaled by ``PROBE_REFERENCE_S`` over
    the mean of the two probes, which quotes it at the speed at which the
    probe takes PROBE_REFERENCE_S. The unscaled seconds are kept too.
    """

    def __init__(self) -> None:
        self.scaled: dict[str, list[float]] = {}
        self.unscaled: dict[str, list[float]] = {}

    def __call__(self, metric: str, call) -> None:
        gc.collect()
        before = _probe()
        start = time.perf_counter()
        call()
        seconds = time.perf_counter() - start
        after = _probe()
        self.unscaled.setdefault(metric, []).append(seconds)
        self.scaled.setdefault(metric, []).append(
            seconds * 2 * PROBE_REFERENCE_S / (before + after))


class CommandFailed(Exception):
    pass


def _cli(metric: str, argv: list[str], ops: Operations,
         timer: Timer) -> None:
    """Run one CLI command in-process, timed as ``metric``."""
    from qrwalk.cli import main

    def call():
        code = main(argv)
        if code != 0:
            raise CommandFailed(f"exit {code}")

    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            timer(metric, call)
    except Exception as exc:  # a crash or an error exit is a failed operation
        ops.record(argv[0], False,
                   f"{type(exc).__name__}: {exc} {err.getvalue()}")
        return
    ops.record(argv[0], True)


def _commands(cfg: Path, run_dir: Path) -> dict[str, list[str]]:
    eq_dir, sample_dir = run_dir / "eq", run_dir / "sample"
    return {
        "equivalence_s": ["equivalence", "--config", str(cfg),
                          "--out-dir", str(eq_dir)],
        "sample_s": ["sample", "--config", str(cfg),
                     "--out-dir", str(sample_dir)],
        "reverify_s": ["verify", "--in-dir", str(eq_dir)],
    }


def _cli_iteration(commands: dict, ops: Operations, timer: Timer) -> None:
    for metric, argv in commands.items():
        _cli(metric, argv, ops, timer)


def _repeat(body, minimum: int, deadline: float) -> None:
    """Call ``body`` at least ``minimum`` times, then again while a call as
    long as the last one would end before ``deadline``."""
    done, last = 0, 0.0
    while done < minimum or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        body()
        last = time.perf_counter() - start
        done += 1


def measure_end_to_end(work, cfg: Path, run_dir: Path, seconds: float,
                       ops: Operations, timer: Timer) -> dict:
    from layers import setup

    deadline = time.perf_counter() + seconds
    for _ in range(SETUP_REPEATS):
        timer("setup_s", lambda: setup(work.config))
    commands = _commands(cfg, run_dir)
    _repeat(lambda: _cli_iteration(commands, ops, timer), MIN_ITERATIONS,
            deadline)
    metrics = {metric: _median(timer.scaled.get(metric, []))
               for metric in ("setup_s", *commands)}
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def measure_layers(work, cfg: Path, run_dir: Path, seconds: float,
                   ops: Operations, timer: Timer,
                   tracer) -> dict[str, float | None]:
    """Per-layer metrics from the spans and the memory pass."""
    from layers import memory_pass, mirror

    deadline = time.perf_counter() + seconds
    commands = _commands(cfg, run_dir)
    counts: dict = {}
    run_ids = (f"{run_dir.name}:{i}" for i in itertools.count())

    def iteration():
        _cli_iteration(commands, ops, timer)
        tracer.run_id = next(run_ids)
        gc.collect()
        counts.update(mirror(tracer, work, run_dir / "mirror"))

    _repeat(iteration, MIN_TRACED_ITERATIONS, deadline)
    med = tracer.median
    steps = counts.pop("trajectory.steps")
    metrics = {
        "graphs.build_s": med("graphs.build"),
        "walk.operators_s": med("walk.operators"),
        "walk.step_s": med("walk.step"),
        "equivalence.build_sequence_s": med("equivalence.build_sequence"),
        "equivalence.matrix_build_s":
            med("equivalence.build_sequence") - med("walk.step"),
        "equivalence.verify_s": med("equivalence.verify"),
        "equivalence.apply_s": med("equivalence.apply"),
        "persist.save_sequence_s": med("persist.save_sequence"),
        "persist.load_sequence_s": med("persist.load_sequence"),
        "persist.trajectories_write_s": med("persist.trajectories_write"),
        "trajectory.sample_s": med("trajectory.sample"),
        "trajectory.steps_per_s": steps / med("trajectory.sample"),
        "trajectory.sample_alias_s": med("trajectory.sample_alias"),
        "trajectory.locality_s": med("trajectory.locality"),
        "baselines.torus_dp_s": med("baselines.torus_dp"),
        "trace.equivalence_overhead_s": _overhead(
            med("cli.equivalence"), timer.unscaled.get("equivalence_s")),
        "trace.sample_overhead_s": _overhead(
            med("cli.sample"), timer.unscaled.get("sample_s")),
        **counts,
    }
    gc.collect()
    metrics.update(memory_pass(work, run_dir / "mirror" / "eq"))
    return metrics


def _overhead(traced: float, untraced: list[float] | None) -> float | None:
    """Traced span minus the untraced command, both unscaled."""
    return traced - statistics.median(untraced) if untraced else None


def _load_program():
    """Import qrwalk from this checkout's sources, nowhere else."""
    if not (SRC / "qrwalk" / "__init__.py").is_file():
        sys.exit(f"run.py: no qrwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qrwalk

    if Path(qrwalk.__file__).resolve().parent != SRC / "qrwalk":
        sys.exit(f"run.py: imported qrwalk from {qrwalk.__file__}")


def _units(kind: str) -> dict[str, str]:
    """Names and units of the ``kind`` metrics listed in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def run_one(args) -> int:
    _load_program()
    from checks import run_checks
    from spans import Tracer
    from workloads import generate

    work = generate(args.workload, args.seed, smoke=args.smoke)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir = RUNS_DIR / tag
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg = run_dir / "config.json"
    cfg.write_text(json.dumps(work.config))
    ops = Operations()
    timer = Timer()
    try:
        if args.trace:
            tracer = Tracer()
            metrics = measure_layers(work, cfg, run_dir, args.seconds, ops,
                                     timer, tracer)
            tracer.write(RUNS_DIR / f"{tag}.spans.jsonl")
            units = _units("per_layer")
        else:
            metrics = measure_end_to_end(work, cfg, run_dir, args.seconds,
                                         ops, timer)
            units = _units("end_to_end")
        checks = run_checks(work, run_dir / "eq", run_dir / "sample")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for name, (ok, detail) in checks.items():
        ops.record(f"check {name}", ok, detail)
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for failure in ops.failures:
        print(f"failed: {failure}", file=sys.stderr)
    failed = len(ops.failures)
    print(f"{args.workload}: failed_frac = {failed}/{ops.attempted} = "
          f"{failed / ops.attempted:.4g}")
    for name in units:
        print(f"{args.workload}: {name} = {metrics[name]} {units[name]}")
    result = {
        "correct": failed == 0 and None not in metrics.values(),
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "smoke": args.smoke,
                "seconds": args.seconds, "scaled": timer.scaled,
                "unscaled": timer.unscaled, **result}) + "\n")
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so no cache or RSS carries over."""
    from workloads import WORKLOADS

    options = ["--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    options += ["--smoke"] if args.smoke else []
    options += ["--record", args.record] if args.record else []
    code = 0
    for name in WORKLOADS:
        child = [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, *options]
        code = max(code, subprocess.run(child, cwd=ROOT).returncode)
    return code


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances: C8, a 4x4 torus, K=2 on 4x4")
    parser.add_argument("--record", help="append the result to this file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
