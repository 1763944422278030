"""Port-labelled directed graphs underlying coined walks.

A finite undirected simple graph is symmetrised into a directed graph with
two arcs per edge. Every vertex ``v`` orders its out-neighbours, and the
position ``c`` of a neighbour in that order is the *port* (degree of
freedom) used by the coin space. Three maps define shift semantics:

* ``eta(v, c)``       - the ``c``-th out-neighbour of ``v``;
* ``sigma(u, v)``     - the port of ``v`` associated with inward neighbour
  ``u`` (default convention: position of ``u`` in ``v``'s neighbour list);
* ``sigma_inv(v, u)`` - the port ``c`` of ``u`` with ``eta(u, c) = v``.

The flattened ``(vertex, port)`` basis enumerates ports of vertex 0, then
vertex 1, and so on; its dimension equals the directed edge count.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import GraphError, ValidationError

__all__ = [
    "PortGraph",
    "ProductGraph",
    "build_graph",
    "cycle_graph",
    "torus_graph",
    "complete_graph",
    "random_regular_graph",
    "graph_from_json",
    "graph_to_json",
    "graph_hash",
]


@dataclass(frozen=True)
class PortGraph:
    """Symmetric directed graph with per-vertex ordered out-neighbours.

    Instances are immutable after construction and safe to share across
    concurrent workers. Use :func:`build_graph` or a generator instead of
    calling the constructor directly; the constructor validates structure
    but does not symmetrise or reorder anything.
    """

    num_vertices: int
    out_neighbors: tuple[tuple[int, ...], ...]
    torus_dims: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        n = self.num_vertices
        if n <= 0:
            raise GraphError("graph needs at least one vertex")
        if len(self.out_neighbors) != n:
            raise GraphError(
                f"out_neighbors has {len(self.out_neighbors)} entries for "
                f"{n} vertices"
            )
        arcs = set()
        for v, nbrs in enumerate(self.out_neighbors):
            if len(nbrs) == 0:
                raise GraphError(
                    f"vertex {v} is isolated; its coin space would be empty"
                )
            for u in nbrs:
                if not 0 <= u < n:
                    raise GraphError(f"neighbour {u} of vertex {v} out of range")
                if u == v:
                    raise GraphError(f"self-loop at vertex {v} not supported")
                if (v, u) in arcs:
                    raise GraphError(f"duplicate edge ({v}, {u})")
                arcs.add((v, u))
        for v, u in arcs:
            if (u, v) not in arcs:
                raise GraphError(
                    f"edge ({v}, {u}) present without its reverse; the "
                    "directed graph must be symmetric"
                )

    # -- derived structure ------------------------------------------------

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.array([len(nbrs) for nbrs in self.out_neighbors], dtype=np.int64)

    @cached_property
    def port_offsets(self) -> np.ndarray:
        """Start index of each vertex's port block in the flattened basis
        (length ``num_vertices + 1``)."""
        offs = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=offs[1:])
        return offs

    @property
    def basis_dim(self) -> int:
        """Dimension of the (vertex, port) state space, equal to the
        directed edge count."""
        return int(self.port_offsets[-1])

    @cached_property
    def vertex_of_basis(self) -> np.ndarray:
        """Vertex id of every flattened basis index."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees)

    @cached_property
    def _neighbor_port(self) -> tuple[dict[int, int], ...]:
        # _neighbor_port[v][u] = position of u in out_neighbors[v]
        return tuple(
            {u: c for c, u in enumerate(nbrs)} for nbrs in self.out_neighbors
        )

    # -- port maps ---------------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.out_neighbors[v])

    def eta(self, v: int, c: int) -> int:
        """The ``c``-th out-neighbour of ``v``."""
        nbrs = self.out_neighbors[v]
        if not 0 <= c < len(nbrs):
            raise IndexError(f"port {c} out of range for vertex {v} "
                             f"(degree {len(nbrs)})")
        return nbrs[c]

    def sigma(self, u: int, v: int) -> int:
        """Port of ``v`` associated with inward neighbour ``u``."""
        try:
            return self._neighbor_port[v][u]
        except KeyError:
            raise ValidationError(f"({u}, {v}) is not an edge") from None

    def sigma_inv(self, v: int, u: int) -> int:
        """Port ``c`` of ``u`` such that ``eta(u, c) = v``."""
        try:
            return self._neighbor_port[u][v]
        except KeyError:
            raise ValidationError(f"({u}, {v}) is not an edge") from None

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._neighbor_port[u]

    def basis_index(self, v: int, c: int) -> int:
        if not 0 <= c < self.degree(v):
            raise IndexError(f"port {c} out of range for vertex {v}")
        return int(self.port_offsets[v]) + c

    def basis_state(self, index: int) -> tuple[int, int]:
        """Inverse of :meth:`basis_index`: flattened index to (vertex, port)."""
        v = int(self.vertex_of_basis[index])
        return v, int(index - self.port_offsets[v])

    @cached_property
    def neighbor_of_basis(self) -> np.ndarray:
        """``eta(v, c)`` for every flattened basis index ``(v, c)``: the
        head of each arc, in basis order."""
        return np.fromiter(itertools.chain.from_iterable(self.out_neighbors),
                           dtype=np.int64, count=self.basis_dim)

    @cached_property
    def _arc_keys(self) -> np.ndarray:
        # sorted tail * n + head over all arcs, for searchsorted lookups
        return np.sort(self.vertex_of_basis * self.num_vertices
                       + self.neighbor_of_basis)

    def has_edges(self, src, dst) -> np.ndarray:
        """Elementwise :meth:`has_edge` over broadcast vertex arrays."""
        keys = (np.asarray(src, dtype=np.int64) * self.num_vertices
                + np.asarray(dst, dtype=np.int64))
        table = self._arc_keys
        pos = np.minimum(np.searchsorted(table, keys), table.size - 1)
        return table[pos] == keys

    def __repr__(self) -> str:
        return (f"PortGraph(|V|={self.num_vertices}, "
                f"|E|={self.basis_dim}, torus_dims={self.torus_dims})")


@dataclass(frozen=True)
class ProductGraph:
    """K-fold product of a base graph, kept virtual.

    Vertices are K-tuples of base vertices, adjacent exactly when every
    component pair is a base edge; adjacency is computed on demand and the
    tuple vertex set is never materialised. Joint indices are mixed-radix
    (walker 0 most significant); all tuple/index/label conversions live here.
    """

    base: PortGraph
    num_walkers: int

    def __post_init__(self) -> None:
        if self.num_walkers < 1:
            raise ValidationError("num_walkers must be >= 1")

    @property
    def num_states(self) -> int:
        return self.base.num_vertices ** self.num_walkers

    @property
    def shape(self) -> tuple[int, ...]:
        """Radices of the joint index, one per walker."""
        return (self.base.num_vertices,) * self.num_walkers

    def _check_tuple(self, u: Sequence[int]) -> None:
        if len(u) != self.num_walkers:
            raise ValidationError(
                f"vertex tuple {tuple(u)} has arity {len(u)}, "
                f"expected {self.num_walkers}"
            )
        for ui in u:
            if not 0 <= ui < self.base.num_vertices:
                raise ValidationError(f"vertex {ui} out of range")

    def degree(self, u: Sequence[int]) -> int:
        """Product of the component degrees."""
        self._check_tuple(u)
        return int(np.prod(self.base.degrees[list(u)]))

    def has_edge(self, u: Sequence[int], v: Sequence[int]) -> bool:
        self._check_tuple(u)
        self._check_tuple(v)
        return all(self.base.has_edge(ui, vi) for ui, vi in zip(u, v))

    def has_edges(self, src, dst) -> np.ndarray:
        """Elementwise :meth:`has_edge` over broadcast joint-index arrays."""
        return np.logical_and.reduce([
            self.base.has_edges(s, d) for s, d in zip(
                np.unravel_index(src, self.shape),
                np.unravel_index(dst, self.shape))])

    def out_neighbors(self, u: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """Lazily enumerate the product out-neighbours of a tuple vertex."""
        self._check_tuple(u)
        return itertools.product(*(self.base.out_neighbors[ui] for ui in u))

    def arcs(self, states) -> tuple[np.ndarray, np.ndarray]:
        """Arcs (one base arc per walker) leaving each joint state, state by
        state in the product order of the walkers' ports. Returns ``(owner,
        ports)``: ``owner[a]`` is the position in ``states`` of arc ``a``'s
        source and ``ports[i, a]`` walker ``i``'s flattened basis index."""
        base = self.base
        digits = np.unravel_index(np.asarray(states, dtype=np.int64),
                                  self.shape)
        degs = [base.degrees[d] for d in digits]
        counts = np.prod(degs, axis=0)
        owner = np.repeat(np.arange(counts.size), counts)
        local = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts,
                                                  counts)
        ports = np.empty((self.num_walkers, owner.size), dtype=np.int64)
        for i in range(self.num_walkers - 1, -1, -1):
            d = degs[i][owner]
            ports[i] = base.port_offsets[digits[i]][owner] + local % d
            local //= d
        return owner, ports

    def tuple_index(self, u: Sequence[int]) -> int:
        """Joint index of a vertex tuple."""
        self._check_tuple(u)
        return int(np.ravel_multi_index(tuple(u), self.shape))

    def tuple_of(self, index: int) -> tuple[int, ...]:
        return tuple(int(x) for x in np.unravel_index(index, self.shape))

    @staticmethod
    def state_labels(indices, num_walkers: int, num_base: int) -> list[str]:
        """Text labels of joint indices: ``u`` for one walker, ``u1|u2|...``
        for vertex tuples. Static, so that persisted tables can be read
        and written without the graph."""
        digits = np.unravel_index(np.asarray(indices, dtype=np.int64),
                                  (num_base,) * num_walkers)
        return list(map("|".join,
                        zip(*(map(str, d.tolist()) for d in digits))))

    @staticmethod
    def state_indices(labels, num_walkers: int, num_base: int) -> np.ndarray:
        """Inverse of :meth:`state_labels`; rejects labels of the wrong
        arity and vertices out of range."""
        labels = list(map(str, labels))
        arity = num_walkers - 1
        if set(map(str.count, labels, itertools.repeat("|"))) - {arity}:
            bad = next(x for x in labels if x.count("|") != arity)
            raise ValidationError(
                f"state label {bad!r} does not address {num_walkers} "
                "walker(s)"
            )
        parts = "|".join(labels).split("|") if labels else []
        try:
            digits = np.array(parts, dtype=np.int64).reshape(-1, num_walkers)
            return np.ravel_multi_index(tuple(digits.T),
                                        (num_base,) * num_walkers)
        except ValueError as exc:
            raise ValidationError(f"malformed state label: {exc}") from None


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_graph(
    edges: Iterable[Sequence[int]],
    ordering: str | Sequence[Sequence[int]] = "sorted",
    num_vertices: int | None = None,
) -> PortGraph:
    """Build a :class:`PortGraph` from an undirected edge list.

    Parameters
    ----------
    edges:
        Undirected vertex pairs with ids in ``0..n-1``. Duplicates (in
        either orientation) and self-loops are rejected.
    ordering:
        ``"sorted"`` orders each vertex's out-neighbours ascending;
        otherwise pass explicit per-vertex neighbour lists (one list per
        vertex, a permutation of its neighbour set) to fix a custom port
        convention.
    num_vertices:
        Optional explicit vertex count; defaults to ``max id + 1``. Every
        vertex must be incident to at least one edge.
    """
    nbr_sets: dict[int, set[int]] = {}
    seen: set[tuple[int, int]] = set()
    max_id = -1
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u < 0 or v < 0:
            raise GraphError(f"negative vertex id in edge ({u}, {v})")
        if u == v:
            raise GraphError(f"self-loop at vertex {u} not supported")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"duplicate undirected edge ({u}, {v})")
        seen.add(key)
        nbr_sets.setdefault(u, set()).add(v)
        nbr_sets.setdefault(v, set()).add(u)
        max_id = max(max_id, u, v)
    if max_id < 0:
        raise GraphError("edge list is empty")
    n = num_vertices if num_vertices is not None else max_id + 1
    if max_id >= n:
        raise GraphError(f"vertex id {max_id} exceeds num_vertices={n}")

    if isinstance(ordering, str):
        if ordering != "sorted":
            raise ValidationError(f"unknown ordering {ordering!r}")
        out = []
        for v in range(n):
            if v not in nbr_sets:
                raise GraphError(
                    f"vertex {v} is isolated; its coin space would be empty"
                )
            out.append(tuple(sorted(nbr_sets[v])))
    else:
        if len(ordering) != n:
            raise ValidationError(
                f"explicit ordering has {len(ordering)} lists for {n} vertices"
            )
        out = []
        for v in range(n):
            nbrs = tuple(int(u) for u in ordering[v])
            if set(nbrs) != nbr_sets.get(v, set()) or len(nbrs) != len(set(nbrs)):
                raise ValidationError(
                    f"ordering for vertex {v} is not a permutation of its "
                    f"neighbour set"
                )
            out.append(nbrs)
    return PortGraph(num_vertices=n, out_neighbors=tuple(out))


def cycle_graph(n: int) -> PortGraph:
    """Cycle on ``n >= 3`` vertices with port order (+1, -1)."""
    return torus_graph((n,))


def torus_graph(dims: Sequence[int]) -> PortGraph:
    """D-dimensional torus with ports ordered (+x, -x, +y, -y, ...).

    Vertex ids are row-major over the coordinate grid (the last axis varies
    fastest). Every axis length must be at least 3 so the graph stays
    simple. Degree is ``2 * len(dims)`` everywhere.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) == 0:
        raise ValidationError("torus needs at least one dimension")
    for d in dims:
        if d < 3:
            raise GraphError(
                f"torus axis of length {d} would create duplicate edges; "
                "each axis must be >= 3"
            )
    n = int(np.prod(dims))
    strides = np.ones(len(dims), dtype=np.int64)
    for ax in range(len(dims) - 2, -1, -1):
        strides[ax] = strides[ax + 1] * dims[ax + 1]

    out = []
    for v in range(n):
        coords = [(v // int(strides[ax])) % dims[ax] for ax in range(len(dims))]
        nbrs = []
        for ax in range(len(dims)):
            for step in (1, -1):
                c = coords.copy()
                c[ax] = (c[ax] + step) % dims[ax]
                nbrs.append(int(np.dot(c, strides)))
        out.append(tuple(nbrs))
    return PortGraph(num_vertices=n, out_neighbors=tuple(out), torus_dims=dims)


def complete_graph(n: int) -> PortGraph:
    """Complete graph on ``n >= 2`` vertices, sorted port order."""
    if n < 2:
        raise GraphError("complete graph needs at least 2 vertices")
    out = tuple(tuple(u for u in range(n) if u != v) for v in range(n))
    return PortGraph(num_vertices=n, out_neighbors=out)


def random_regular_graph(
    n: int, d: int, seed: int | np.random.Generator | None = None,
    max_tries: int = 5000,
) -> PortGraph:
    """Simple d-regular graph sampled by a configuration-model retry scheme."""
    if d < 1 or d >= n:
        raise GraphError(f"need 1 <= d < n (got d={d}, n={n})")
    if (n * d) % 2 != 0:
        raise GraphError("n*d must be even for a d-regular simple graph")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        keys = {(min(a, b), max(a, b)) for a, b in pairs.tolist()}
        if len(keys) != len(pairs):
            continue
        return build_graph(sorted(keys), ordering="sorted", num_vertices=n)
    raise GraphError(
        f"failed to sample a simple {d}-regular graph on {n} vertices "
        f"within {max_tries} tries"
    )


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def graph_to_json(g: PortGraph) -> dict:
    """JSON-serialisable description; explicit ordering so the port
    convention round-trips exactly."""
    doc: dict = {
        "n": g.num_vertices,
        "edges": sorted(
            {(min(v, u), max(v, u)) for v, nbrs in enumerate(g.out_neighbors)
             for u in nbrs}
        ),
        "ordering": [list(nbrs) for nbrs in g.out_neighbors],
    }
    if g.torus_dims is not None:
        doc["torus_dims"] = list(g.torus_dims)
    return doc


def graph_from_json(doc: dict) -> PortGraph:
    """Parse ``{"n": ..., "edges": [[u, v], ...], "ordering": ...}``.

    ``ordering`` is either the string ``"sorted"`` (default) or explicit
    per-vertex neighbour lists. Generator shorthands ``{"type": "cycle",
    "n": N}``, ``{"type": "torus", "dims": [...]}``, ``{"type":
    "complete", "n": N}`` and ``{"type": "random-regular", "n": N, "d": D,
    "seed": S}`` are also accepted.
    """
    kind = doc.get("type")
    if kind is not None:
        if kind == "cycle":
            return cycle_graph(int(doc["n"]))
        if kind == "torus":
            return torus_graph(doc["dims"])
        if kind == "complete":
            return complete_graph(int(doc["n"]))
        if kind == "random-regular":
            return random_regular_graph(int(doc["n"]), int(doc["d"]),
                                        doc.get("seed"))
        raise ValidationError(f"unknown graph type {kind!r}")
    g = build_graph(doc["edges"], ordering=doc.get("ordering", "sorted"),
                    num_vertices=doc.get("n"))
    if "torus_dims" in doc:
        g = PortGraph(g.num_vertices, g.out_neighbors,
                      torus_dims=tuple(doc["torus_dims"]))
    return g


def graph_hash(g: PortGraph) -> str:
    """Stable hex digest of the graph structure including port order."""
    payload = json.dumps(
        {"n": g.num_vertices, "out": [list(x) for x in g.out_neighbors]},
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()
