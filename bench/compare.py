"""Summarise or compare result sets written by ``run.py --record``.

    python3 bench/compare.py PARENT.jsonl              # one set: spreads
    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl # two sets: verdicts

For each workload and end-to-end metric in ``BENCHMARK.json`` it prints
the median and quartiles of each set and the spread (IQR over median)
against the metric's bound. With two sets it pairs runs by seed and gives
a verdict:

* ``gain`` - the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's IQR;
* ``unresolved`` - otherwise, when either set's spread is wider than the
  bound, unless every run of the change beats every run of the parent;
* ``regression`` - the change's median is worse than the parent's by
  more than the bound;
* ``within bound`` - none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, dict[int, dict]]:
    """Untraced records per workload, keyed by seed (the last run wins)."""
    runs: dict[str, dict[int, dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["trace"]:
                runs.setdefault(record["workload"], {})[record["seed"]] = \
                    record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(parent: dict[int, float], change: dict[int, float],
            bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    p_vals, c_vals = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    gap = sign * (p_med - c_med)
    if pairs and wins >= 0.9 * len(pairs) and gap > p_q3 - p_q1:
        return f"gain ({wins}/{len(pairs)} pairs won)"
    if max(spread(p_vals), spread(c_vals)) > bound:
        if max(sign * v for v in c_vals) < min(sign * v for v in p_vals):
            return "better in every run"
        return "unresolved (spread wider than bound)"
    if -gap > bound * abs(p_med):
        return f"regression ({-gap / abs(p_med):+.1%} of parent median)"
    return f"within bound ({wins}/{len(pairs)} pairs won)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    sets = [load(args.parent)] + ([load(args.change)] if args.change else [])
    worst = 0.0
    for workload in sorted(sets[0]):
        print(f"== {workload}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            columns = []
            values = []
            for runs in sets:
                by_seed = {seed: r["metrics"][name]["value"]
                           for seed, r in runs.get(workload, {}).items()}
                values.append(by_seed)
                if not by_seed:
                    columns.append("no runs")
                    continue
                q1, med, q3 = quartiles(list(by_seed.values()))
                s = spread(list(by_seed.values()))
                if name != "setup_s":
                    worst = max(worst, s / bound)
                columns.append(f"median {med:.5g} [q1 {q1:.5g}, q3 {q3:.5g}] "
                               f"spread {s:.3f} (n={len(by_seed)})")
            line = f"  {name:14s} bound {bound:<5g} " + " | ".join(columns)
            if len(values) == 2 and all(values):
                line += "  -> " + verdict(values[0], values[1], bound,
                                          metric["better"] == "lower")
            print(line)
    print(f"largest spread / bound, setup_s excluded: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
