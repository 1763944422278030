"""Seeded workload generators.

Each generator turns a workload seed into the JSON config that the
``qrwalk`` CLI reads, plus the facts the output checks need (the edge
set, the torus shape, the initial amplitudes). The edge sets are derived
here from the benchmark's own description of each graph, never read back
from the program, so the locality check is an independent oracle.

Sizes are fixed per workload: ``full`` for measurement, ``smoke`` for the
tiny instances the benchmark's own test runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: (graph size, horizon T, ensemble size M) per workload and mode.
SIZES = {
    "torus-grover": {"full": ((120, 120), 4, 2_000), "smoke": ((4, 4), 3, 50)},
    "expander-sample": {"full": (2_048, 12, 15_000), "smoke": (8, 4, 50)},
    "two-walker": {"full": ((10, 10), 8, 5_000), "smoke": ((4, 4), 3, 50)},
}
WORKLOADS = tuple(SIZES)


@dataclass
class Workload:
    name: str
    config: dict
    #: Base-graph out-neighbours, in the port order the program must use.
    neighbors: list[tuple[int, ...]]
    walkers: int
    horizon: int
    ensemble_size: int
    torus_dims: tuple[int, ...] | None = None
    #: Real (num_vertices, degree) amplitude table for the torus DP check.
    dp_initial: np.ndarray | None = None

    @property
    def num_vertices(self) -> int:
        return len(self.neighbors)


def torus_neighbors(dims: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Row-major torus with ports (+x, -x, +y, -y, ...), last axis fastest."""
    strides = [math.prod(dims[ax + 1:]) for ax in range(len(dims))]
    out = []
    for v in range(math.prod(dims)):
        coords = [(v // strides[ax]) % dims[ax] for ax in range(len(dims))]
        nbrs = []
        for ax, size in enumerate(dims):
            for delta in (1, -1):
                moved = (coords[ax] + delta) % size
                nbrs.append(v + (moved - coords[ax]) * strides[ax])
        out.append(tuple(nbrs))
    return out


def random_regular_edges(n: int, d: int,
                         rng: np.random.Generator) -> list[list[int]]:
    """Simple d-regular graph by configuration-model retries.

    The retries happen here, while inputs are generated, so their count
    (which depends on the seed) never enters a timed interval.
    """
    while True:
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        pairs = np.sort(stubs.reshape(-1, 2), axis=1)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        edges = {tuple(p) for p in pairs.tolist()}
        if len(edges) == len(pairs):
            return [list(e) for e in sorted(edges)]


def _sorted_neighbors(n: int, edges: list[list[int]]) -> list[tuple[int, ...]]:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return [tuple(sorted(s)) for s in nbrs]


def _torus_grover(rng: np.random.Generator, mode: str) -> Workload:
    dims, horizon, size = SIZES["torus-grover"][mode]
    v0 = int(rng.integers(math.prod(dims)))
    # Signs alternate along the port order, flipped on one axis or not and
    # overall or not: each pattern is a symmetry image of the others, so
    # the seed moves the walk but not the work.
    signs = 0.5 * np.array([1.0, -1.0] * len(dims))
    signs[:2] *= rng.choice([-1.0, 1.0])
    signs *= rng.choice([-1.0, 1.0])
    initial = [{"vertex": v0, "port": c, "re": float(s)}
               for c, s in enumerate(signs)]
    neighbors = torus_neighbors(dims)
    dp_initial = np.zeros((len(neighbors), 2 * len(dims)))
    dp_initial[v0] = signs
    config = {
        "graph": {"type": "torus", "dims": list(dims)},
        "coin": {"type": "grover"},
        "shift": {"type": "moving"},
        "initial_state": initial,
        "horizon": horizon,
        "ensemble_size": size,
        "seed": int(rng.integers(2**31)),
    }
    return Workload("torus-grover", config, neighbors, 1, horizon, size,
                    torus_dims=dims, dp_initial=dp_initial)


def _expander_sample(rng: np.random.Generator, mode: str) -> Workload:
    n, horizon, size = SIZES["expander-sample"][mode]
    if mode == "smoke":
        # C8 given as an explicit edge list: the same build_graph path.
        degree, edges = 2, sorted([min(v, (v + 1) % n), max(v, (v + 1) % n)]
                                  for v in range(n))
    else:
        degree, edges = 4, random_regular_edges(n, 4, rng)
    config = {
        "graph": {"n": n, "edges": edges, "ordering": "sorted"},
        "coin": {"type": "hadamard"},
        "shift": {"type": "flip-flop"},
        "initial_state": [{"vertex": int(rng.integers(n)),
                           "port": int(rng.integers(degree)), "re": 1.0}],
        "horizon": horizon,
        "ensemble_size": size,
        "seed": int(rng.integers(2**31)),
    }
    return Workload("expander-sample", config, _sorted_neighbors(n, edges),
                    1, horizon, size)


def _two_walker(rng: np.random.Generator, mode: str) -> Workload:
    dims, horizon, size = SIZES["two-walker"][mode]
    n = math.prod(dims)
    v1, v2 = (int(x) for x in rng.choice(n, size=2, replace=False))
    ports = [0, 0]
    config = {
        "graph": {"type": "torus", "dims": list(dims)},
        "walkers": 2,
        "coin": {"type": "hadamard"},
        "shift": {"type": "flip-flop"},
        "interaction": {"type": "coincidence-phase", "phi": math.pi / 2},
        "initial_state": [{"vertex": [v1, v2], "port": ports, "re": 1.0}],
        "horizon": horizon,
        "ensemble_size": size,
        "seed": int(rng.integers(2**31)),
    }
    return Workload("two-walker", config, torus_neighbors(dims), 2, horizon,
                    size, torus_dims=dims)


_GENERATORS = {
    "torus-grover": _torus_grover,
    "expander-sample": _expander_sample,
    "two-walker": _two_walker,
}


def generate(name: str, seed: int, smoke: bool = False) -> Workload:
    """Same (name, seed, smoke) always gives the same workload."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _GENERATORS[name](rng, "smoke" if smoke else "full")
