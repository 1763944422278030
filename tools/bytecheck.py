"""Byte check: every CLI command's outputs, hashed, and two checkouts diffed.

    python3 tools/bytecheck.py record parent.json --checkout ../parent
    python3 tools/bytecheck.py record change.json
    python3 tools/bytecheck.py diff parent.json change.json

``record`` imports ``qrwalk`` from the ``src/`` of a checkout (by default
the one this file is in) and the benchmark's workload generators from its
``bench/workloads.py``, which it only reads. On each workload's config, for
each seed and for CSV and JSON, it runs ``evolve``, ``equivalence``,
``sample --config``, ``sample --from``, ``tvd``, ``rejection``,
``torus-dp`` (plain and with ``emit_matrices``) and ``verify``, each twice
in the same process, since state that lives across calls (the heap, for
one) must not change a byte. A command that exits non-zero is recorded
like any other. Each run's exit code, its stdout and stderr with the work
directory's path replaced by ``<work>``, and the SHA-256 of every file it
wrote are saved as one JSON object. ``diff`` prints each run that differs
and exits 1 if any does.

BLAS and OpenMP run on one thread, as in ``bench/run.py``. Record two
checkouts from paths of equal length: the path's length moves the heap's
layout, and the check must see the code, not the layout.
"""

from __future__ import annotations

import os

# One thread for BLAS/OpenMP; this must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("csv", "json")
#: Each run is made twice in one process.
REPEATS = 2


def _load(checkout: Path):
    """``qrwalk.cli.main`` and ``workloads.generate`` of ``checkout``."""
    src, bench = checkout / "src", checkout / "bench"
    sys.path[:0] = [str(src), str(bench)]
    import qrwalk.cli
    import workloads

    for module, home in ((qrwalk.cli, src), (workloads, bench)):
        if not Path(module.__file__).resolve().is_relative_to(home.resolve()):
            sys.exit(f"bytecheck: imported {module.__name__} from "
                     f"{module.__file__}, not from {home}")
    return qrwalk.cli.main, workloads


def _runs(config: dict, cfg: Path, fmt: str,
          out: Path) -> list[tuple[str, list[str], Path]]:
    """(name, argv, directory whose files the run writes) of each run on
    one config; ``verify`` and ``sample --from`` read the store that the
    ``equivalence`` run before them wrote."""
    horizon = config["horizon"]
    tvd = dict(config, ensemble_sizes=[100, 1000],
               t_grid=sorted({0, horizon // 2, horizon}))
    emit = dict(config, emit_matrices=True)
    configs = {"tvd": tvd, "torus-dp-matrices": emit}
    for name, doc in configs.items():
        (cfg.parent / f"{name}.json").write_text(json.dumps(doc))

    def config_of(name: str) -> str:
        return str(cfg.parent / f"{name}.json") if name in configs \
            else str(cfg)

    def command(name: str, cli: str, *extra: str) -> tuple:
        return (name, [cli, "--config", config_of(name), "--format", fmt,
                       "--out-dir", str(out / name), *extra], out / name)

    eq = out / "equivalence"
    return [
        command("evolve", "evolve"),
        command("equivalence", "equivalence"),
        ("verify", ["verify", "--in-dir", str(eq)], eq),
        command("sample", "sample"),
        ("sample-from", ["sample", "--from", str(eq), "--seed", "7",
                         "--format", fmt, "--out-dir",
                         str(out / "sample-from")], out / "sample-from"),
        command("tvd", "tvd"),
        command("rejection", "rejection", "--attempts", "2000"),
        command("torus-dp", "torus-dp"),
        command("torus-dp-matrices", "torus-dp"),
    ]


def _digests(directory: Path) -> dict[str, str]:
    if not directory.is_dir():
        return {}
    return {str(path.relative_to(directory)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def record(checkout: Path, seeds: list[int], smoke: bool) -> dict:
    main, workloads = _load(checkout)
    results = {}
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        work = Path(tmp)
        for name in workloads.WORKLOADS:
            for seed in seeds:
                config = workloads.generate(name, seed, smoke=smoke).config
                for fmt in FORMATS:
                    base = work / name / f"seed{seed}" / fmt
                    base.mkdir(parents=True)
                    cfg = base / "config.json"
                    cfg.write_text(json.dumps(config))
                    for rep in range(REPEATS):
                        out = base / f"run{rep}"
                        for run, argv, written in _runs(config, cfg, fmt,
                                                        out):
                            key = f"{name}/seed{seed}/{fmt}/{run}/{rep}"
                            results[key] = _one(main, argv, written, work)
                    shutil.rmtree(base)
    return results


def _one(main, argv: list[str], written: Path, work: Path) -> dict:
    """Exit code, path-normalised output, and digests of one run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    files = _digests(written)
    if argv[0] == "verify":
        files = {k: v for k, v in files.items() if k == "verify_report.json"}
    return {"exit": code,
            "stdout": stdout.getvalue().replace(str(work), "<work>"),
            "stderr": stderr.getvalue().replace(str(work), "<work>"),
            "files": files}


def diff(parent: dict, change: dict) -> list[str]:
    """One line for each run whose record differs or is missing."""
    lines = []
    for key in sorted(parent.keys() | change.keys()):
        a, b = parent.get(key), change.get(key)
        if a is None or b is None:
            lines.append(f"{key}: only in {'change' if a is None else 'parent'}")
            continue
        for field in ("exit", "stdout", "stderr"):
            if a[field] != b[field]:
                lines.append(f"{key}: {field} {a[field]!r} -> {b[field]!r}")
        for path in sorted(a["files"].keys() | b["files"].keys()):
            if a["files"].get(path) != b["files"].get(path):
                lines.append(f"{key}: file {path} differs")
    return lines


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    rec = sub.add_parser("record", help="run every command, save digests")
    rec.add_argument("output", help="JSON file to write")
    rec.add_argument("--checkout", type=Path, default=ROOT,
                     help="checkout whose src/ and bench/ to use")
    rec.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    rec.add_argument("--smoke", action="store_true",
                     help="the benchmark's tiny instances")
    dif = sub.add_parser("diff", help="compare two recorded files")
    dif.add_argument("parent")
    dif.add_argument("change")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.action == "record":
        results = record(args.checkout.resolve(), args.seeds, args.smoke)
        Path(args.output).write_text(json.dumps(results, indent=1,
                                                sort_keys=True) + "\n")
        files = sum(len(r["files"]) for r in results.values())
        print(f"recorded {len(results)} runs and {files} files "
              f"to {args.output}")
        return 0
    lines = diff(*(json.loads(Path(p).read_text())
                   for p in (args.parent, args.change)))
    print("\n".join(lines) if lines else "no difference")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
