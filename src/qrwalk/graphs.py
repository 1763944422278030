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

A :class:`PortGraph` stores only this basis in compressed sparse row (CSR)
form: ``port_offsets[v]:port_offsets[v + 1]`` is the port block of ``v``
and ``heads[port_offsets[v] + c] = eta(v, c)``, both read-only int64
arrays. Everything else is derived from them: ``degrees`` and
``vertex_of_basis`` (the tail of every arc), the arc keys ``tail * n +
head`` sorted once at construction, through which :meth:`PortGraph.arc_index`
(hence ``sigma``, ``sigma_inv``, ``has_edge`` and the flip-flop shift)
finds an arc by binary search, and ``out_neighbors``, a tuple view kept
for tests and small examples only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import GraphError, ValidationError
from .numtext import _digits, _texts

__all__ = [
    "PortGraph",
    "ProductGraph",
    "build_graph",
    "cycle_graph",
    "torus_graph",
    "complete_graph",
    "random_regular_graph",
    "graph_from_json",
    "graph_hash",
    "torus_dims_of",
]


def _reject(checks, *values) -> None:
    """Raise :class:`GraphError` for the first ``(mask, message)`` check
    with a failing item, formatting the message with ``values`` there."""
    for mask, message in checks:
        bad = np.flatnonzero(mask)
        if bad.size:
            raise GraphError(message.format(*(int(x[bad[0]]) for x in values)))


def _later_repeats(keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """``keys`` sorted, the stable order that sorts them (equal keys keep
    their item order), and the mask of the items whose key occurs at an
    earlier item."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    repeated = np.zeros(keys.size, dtype=bool)
    repeated[order[1:][keys[1:] == keys[:-1]]] = True
    return keys, order, repeated


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _split(flat: Sequence, offsets: np.ndarray) -> list:
    """``flat`` cut at ``offsets`` into one slice per vertex."""
    return list(map(flat.__getitem__,
                    map(slice, offsets[:-1].tolist(), offsets[1:].tolist())))


@dataclass(frozen=True, eq=False)
class PortGraph:
    """Symmetric directed graph with per-vertex ordered out-neighbours,
    stored as the CSR pair ``port_offsets``/``heads`` (see the module
    docstring).

    Instances are immutable after construction and safe to share across
    concurrent workers. Use :func:`build_graph` or a generator instead of
    calling the constructor directly; the constructor validates structure
    but does not symmetrise or reorder anything. Two graphs are equal when
    their arrays are, whatever their ``torus_dims``.
    """

    port_offsets: np.ndarray
    heads: np.ndarray
    torus_dims: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("port_offsets", "heads"):
            object.__setattr__(self, name, _readonly(np.array(
                getattr(self, name), dtype=np.int64, ndmin=1)))
        offs, heads = self.port_offsets, self.heads
        n = offs.size - 1
        if n <= 0:
            raise GraphError("graph needs at least one vertex")
        if offs[0] != 0 or np.any(np.diff(offs) < 0) \
                or offs[-1] != heads.size:
            raise GraphError(
                f"port_offsets must rise from 0 to the {heads.size} heads"
            )
        tails = self.vertex_of_basis
        _reject([(self.degrees == 0, "vertex {0} is isolated; its coin "
                                     "space would be empty")], np.arange(n))
        keys = tails * n
        keys += heads
        keys, order, repeated = _later_repeats(keys)
        _reject([((heads < 0) | (heads >= n),
                  "neighbour {1} of vertex {0} out of range"),
                 (heads == tails, "self-loop at vertex {0} not supported"),
                 (repeated, "duplicate edge ({0}, {1})")], tails, heads)
        object.__setattr__(self, "_arc_keys", keys)
        object.__setattr__(self, "_arc_order", order)
        # the arcs are distinct, so the graph is symmetric exactly when the
        # reversed arcs' keys, sorted, are the arc keys; only a graph that
        # is not looks up each reversed arc, to name the first one missing
        reversed_keys = heads * n
        reversed_keys += tails
        reversed_keys.sort()
        if not np.array_equal(reversed_keys, keys):
            _reject([(self.arc_index(heads, tails) < 0,
                      "edge ({0}, {1}) present without its reverse; the "
                      "directed graph must be symmetric")], tails, heads)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PortGraph):
            return NotImplemented
        return self is other or (
            np.array_equal(self.port_offsets, other.port_offsets)
            and np.array_equal(self.heads, other.heads))

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.basis_dim))

    # -- derived structure ------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.port_offsets.size - 1

    @property
    def basis_dim(self) -> int:
        """Dimension of the (vertex, port) state space, equal to the
        directed edge count."""
        return self.heads.size

    # the cached arrays are read-only, like the graph they describe

    @cached_property
    def degrees(self) -> np.ndarray:
        return _readonly(np.diff(self.port_offsets))

    @cached_property
    def vertex_of_basis(self) -> np.ndarray:
        """Vertex id of every flattened basis index: the tail of each arc."""
        return _readonly(np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self.degrees))

    @cached_property
    def degree_classes(self) -> dict[int, np.ndarray]:
        """``{d: the vertices of degree d}``, both in ascending order."""
        return {int(d): _readonly(np.flatnonzero(self.degrees == d))
                for d in np.flatnonzero(np.bincount(self.degrees))}

    @cached_property
    def class_order(self) -> tuple[np.ndarray, np.ndarray]:
        """The basis indices sorted by degree class (ascending degree,
        then vertex, then port), and the inverse permutation: the ports of
        each class of :attr:`degree_classes` become one contiguous run."""
        order = np.concatenate([
            (self.port_offsets[verts, None] + np.arange(d)).ravel()
            for d, verts in self.degree_classes.items()])
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.size)
        return _readonly(order), _readonly(inverse)

    @cached_property
    def class_vertices(self) -> tuple[np.ndarray, np.ndarray]:
        """The vertices sorted by degree class (ascending degree, then
        vertex), the order of :attr:`class_order`'s port runs, and the
        rank of each vertex in that order."""
        order = np.concatenate(list(self.degree_classes.values()))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return _readonly(order), _readonly(rank)

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex neighbour tuples in port order; a derived view for
        tests and small examples, built on first use."""
        return tuple(_split(tuple(self.heads.tolist()), self.port_offsets))

    # -- port maps ---------------------------------------------------------

    def degree(self, v: int) -> int:
        """Degree of ``v``; :class:`IndexError` unless ``0 <= v < n``."""
        if not 0 <= v < self.num_vertices:
            raise IndexError(f"vertex {v} out of range for a graph of "
                             f"{self.num_vertices} vertices")
        return int(self.degrees[v])

    def eta(self, v: int, c: int) -> int:
        """The paper's eta(v, c), kept as a paper artefact: the ``c``-th
        out-neighbour of ``v``; :class:`IndexError` for a vertex or port
        outside the graph."""
        if not 0 <= c < self.degree(v):
            raise IndexError(f"port {c} out of range for vertex {v} "
                             f"(degree {self.degree(v)})")
        return int(self.heads[self.port_offsets[v] + c])

    def arc_index(self, src, dst) -> np.ndarray:
        """Basis index of the arc ``src -> dst`` over broadcast vertex
        arrays; -1 where there is no such arc."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        n = self.num_vertices
        keys = np.where((src >= 0) & (src < n) & (dst >= 0) & (dst < n),
                        src * n + dst, -1)
        table = self._arc_keys
        pos = np.minimum(np.searchsorted(table, keys), table.size - 1)
        return np.where(table[pos] == keys, self._arc_order[pos], -1)

    def _port(self, tail: int, head: int) -> int:
        a = int(self.arc_index(tail, head))
        if a < 0:
            raise ValidationError(f"({tail}, {head}) is not an edge")
        return a - int(self.port_offsets[tail])

    def sigma(self, u: int, v: int) -> int:
        """The paper's sigma(u, v), kept as a paper artefact: the port of
        ``v`` associated with inward neighbour ``u``."""
        return self._port(v, u)

    def sigma_inv(self, v: int, u: int) -> int:
        """The paper's sigma^-1(v, u), kept as a paper artefact: the port
        ``c`` of ``u`` such that ``eta(u, c) = v``."""
        return self._port(u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.has_edges(u, v))

    def has_edges(self, src, dst) -> np.ndarray:
        """Elementwise :meth:`has_edge` over broadcast vertex arrays."""
        return self.arc_index(src, dst) >= 0

    def basis_index(self, v: int, c: int) -> int:
        """Flattened index of (v, c); :class:`ValidationError` unless
        ``0 <= v < n`` and ``0 <= c < d(v)``."""
        if not 0 <= v < self.num_vertices:
            raise ValidationError(f"vertex {v} out of range")
        if not 0 <= c < self.degree(v):
            raise ValidationError(f"port {c} out of range for vertex {v}")
        return int(self.port_offsets[v]) + c

    def basis_state(self, index: int) -> tuple[int, int]:
        """Inverse of :meth:`basis_index`: flattened index to (vertex, port)."""
        v = int(self.vertex_of_basis[index])
        return v, int(index - self.port_offsets[v])

    def __repr__(self) -> str:
        return (f"PortGraph(|V|={self.num_vertices}, "
                f"|E|={self.basis_dim}, torus_dims={self.torus_dims})")


@dataclass(frozen=True)
class ProductGraph:
    """K-fold product of a base graph, kept virtual: the one state space
    type, of one walker too (:meth:`of`).

    Vertices are K-tuples of base vertices, adjacent exactly when every
    component pair is a base edge; adjacency is computed on demand and the
    tuple vertex set is never materialised. Joint indices of tuples and of
    basis states are mixed-radix (walker 0 most significant); all
    tuple/index/label conversions live here.
    """

    base: PortGraph
    num_walkers: int

    def __post_init__(self) -> None:
        if self.num_walkers < 1:
            raise ValidationError("num_walkers must be >= 1")

    @classmethod
    def of(cls, graph: PortGraph | ProductGraph) -> ProductGraph:
        """``graph`` as a state space: a port graph is one walker on it."""
        return graph if isinstance(graph, ProductGraph) else cls(graph, 1)

    @property
    def num_states(self) -> int:
        return self.base.num_vertices ** self.num_walkers

    @property
    def shape(self) -> tuple[int, ...]:
        """Radices of the joint index, one per walker."""
        return (self.base.num_vertices,) * self.num_walkers

    @property
    def basis_shape(self) -> tuple[int, ...]:
        """Radices of the joint basis index, one per walker."""
        return (self.base.basis_dim,) * self.num_walkers

    @property
    def basis_dim(self) -> int:
        """Dimension of the joint (vertex, port) basis of all walkers."""
        return self.base.basis_dim ** self.num_walkers

    def basis_index(self, vertices: Sequence[int],
                    ports: Sequence[int]) -> int:
        """Joint basis index of one (vertex, port) pair per walker; any
        other number of pairs raises :class:`ValidationError`."""
        k = self.num_walkers
        if not len(vertices) == len(ports) == k:
            raise ValidationError(
                f"a basis state needs {k} (vertex, port) pairs, got "
                f"{len(vertices)} vertices and {len(ports)} ports")
        return int(np.ravel_multi_index(
            [self.base.basis_index(int(v), int(c))
             for v, c in zip(vertices, ports)], self.basis_shape))

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
        """Elementwise :meth:`has_edge` over broadcast joint-index arrays,
        False where an index lies outside the space; one walker's joint
        indices are its base vertices."""
        if self.num_walkers == 1:
            return self.base.has_edges(src, dst)
        src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
        inside = (src >= 0) & (src < self.num_states) \
            & (dst >= 0) & (dst < self.num_states)
        return inside & np.logical_and.reduce([
            self.base.has_edges(s, d) for s, d in zip(
                np.unravel_index(np.where(inside, src, 0), self.shape),
                np.unravel_index(np.where(inside, dst, 0), self.shape))])

    def distinct_moves(self, src, dst) -> tuple[np.ndarray, ...] | None:
        """The distinct moves ``src[i] -> dst[i]`` between joint states and
        how often each occurs, as ``(src, dst, counts)`` sorted by source,
        then target: the moves are counted by their key ``src * S + dst``
        over the S states. ``None`` when such a key can leave int64 (S**2
        >= 2**63) or a state lies outside the space."""
        src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
        s = self.num_states
        if s * s >= 2**63 or src.size and not (
                0 <= min(src.min(), dst.min())
                and max(src.max(), dst.max()) < s):
            return None
        keys = src * s
        keys += dst
        keys, counts = np.unique(keys, return_counts=True)
        return *np.divmod(keys, s), counts

    def out_neighbors(self, u: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """Lazily enumerate the product out-neighbours of a tuple vertex."""
        self._check_tuple(u)
        return itertools.product(*(self.base.out_neighbors[ui] for ui in u))

    def out_degrees(self, states) -> np.ndarray:
        """Number of arcs leaving each joint state in ``states``."""
        digits = np.unravel_index(np.asarray(states, dtype=np.int64),
                                  self.shape)
        return np.prod([self.base.degrees[d] for d in digits], axis=0)

    def arc_blocks(self, states) -> Iterator[tuple[np.ndarray, ...]]:
        """The arcs (one base arc per walker) leaving ``states``, one block
        per tuple of the walkers' degrees; a regular graph is one block.

        Yields ``(rows, ports, heads)`` for the block's m states at the
        ascending positions ``rows`` in ``states``. ``ports`` holds one
        (m, d_i) array per walker: row j is the cut of the sorted arc keys
        at walker i's vertex of state ``rows[j]``, the basis indices of its
        arcs in ascending order of their heads. ``heads`` is the
        (m, d_0 * ... * d_{K-1}) array of the joint indices of the head
        tuples of their product (:meth:`outer_index`), each row ascending.
        No states make one empty block. Nothing is made before the first
        block is asked for, so a caller can check the memory budget first."""
        base = self.base
        digits = np.unravel_index(np.asarray(states, dtype=np.int64),
                                  self.shape)
        degrees = [base.degrees[d] for d in digits]
        key = np.ravel_multi_index(
            degrees, (int(base.degrees.max()) + 1,) * self.num_walkers)
        # a stable sort keeps each block's states in ascending order
        order = np.argsort(key, kind="stable")
        for rows in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
            # the arc keys sort by (tail, head), so a vertex's block of
            # _arc_order lists its arcs by ascending head
            ports = [base._arc_order[base.port_offsets[d[rows], None]
                                     + np.arange(deg[rows].max(initial=0))]
                     for d, deg in zip(digits, degrees)]
            yield rows, ports, self.outer_index(
                [base.heads[p] for p in ports], self.shape)

    @staticmethod
    def outer_index(parts: Sequence[np.ndarray],
                    radices: Sequence[int]) -> np.ndarray:
        """The mixed-radix index (walker 0 most significant, walker i's
        digit below ``radices[i]``) of every product of the walkers' (m,
        d_i) rows ``parts``, walker 0 slowest, as an (m, d_0 * ... *
        d_{K-1}) array: one broadcast add per walker after the first."""
        out = parts[0]
        for part, radix in zip(parts[1:], radices[1:]):
            (m, width), d = out.shape, part.shape[1]
            out = (out[:, :, None] * radix
                   + part[:, None, :]).reshape(m, width * d)
        return out

    def tuple_of(self, index: int) -> tuple[int, ...]:
        return tuple(int(x) for x in np.unravel_index(index, self.shape))

    @staticmethod
    def base_size(num_states: int, num_walkers: int,
                  num_base: int | None = None) -> int:
        """``num_base``, by default the integer ``num_walkers``-th root of
        ``num_states``, checked: the states must be the ``num_walkers``-
        tuples of that many base vertices."""
        k = num_walkers
        if k < 1:
            raise ValidationError("num_walkers must be >= 1")
        n = round(num_states ** (1.0 / k)) if num_base is None else num_base
        if n < 1 or n ** k != num_states:
            raise ValidationError(
                f"{num_states} states are not the {k}-tuples of {n} base "
                "vertices"
            )
        return n

    @staticmethod
    def label_texts(indices, num_walkers: int, num_base: int) -> np.ndarray:
        """ASCII labels of joint indices, as a bytes array (numpy ``S``
        dtype): ``u`` for one walker, ``u1|u2|...`` for vertex tuples, the
        digits of each walker's vertex joined by ``|``. Static, so that
        tables can be written without the graph. Indices that are not a
        1-d array of integers in ``0 .. num_base**num_walkers - 1`` raise
        :class:`ValidationError`."""
        indices = np.asarray(indices)
        count = num_base ** num_walkers
        if indices.ndim != 1 \
                or indices.size and indices.dtype.kind not in "iu":
            raise ValidationError(
                f"state indices must be a 1-d array of integers, got "
                f"{indices.ndim}-d {indices.dtype}")
        if indices.size and not (0 <= int(indices.min())
                                 and int(indices.max()) < count):
            bad = indices[(indices < 0) | (indices >= count)][0]
            raise ValidationError(
                f"state index {bad} outside 0 .. {count - 1}")
        digits = np.unravel_index(indices.astype(np.int64),
                                  (num_base,) * num_walkers)
        bar = np.full((indices.size, 1), ord("|"), np.uint8)
        parts = [part for d in digits for part in (bar, _digits(d))][1:]
        return _texts(np.concatenate(parts, axis=1))


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
    pairs = np.array(edges if isinstance(edges, np.ndarray) else list(edges),
                     dtype=np.int64).reshape(-1, 2)
    u, v = pairs.T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    _reject([(lo < 0, "negative vertex id in edge ({0}, {1})"),
             (u == v, "self-loop at vertex {0} not supported"),
             (_later_repeats(lo * (int(hi.max(initial=0)) + 1) + hi)[2],
              "duplicate undirected edge ({0}, {1})")], u, v)
    if pairs.size == 0:
        raise GraphError("edge list is empty")
    max_id = int(hi.max())
    n = num_vertices if num_vertices is not None else max_id + 1
    if max_id >= n:
        raise GraphError(f"vertex id {max_id} exceeds num_vertices={n}")

    tails, heads = np.concatenate([u, v]), np.concatenate([v, u])
    order = np.lexsort((heads, tails))
    tails, heads = tails[order], heads[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=offsets[1:])
    if isinstance(ordering, str):
        if ordering != "sorted":
            raise ValidationError(f"unknown ordering {ordering!r}")
        return PortGraph(offsets, heads)

    if len(ordering) != n:
        raise ValidationError(
            f"explicit ordering has {len(ordering)} lists for {n} vertices"
        )
    lengths = np.fromiter(map(len, ordering), dtype=np.int64, count=n)
    given = np.fromiter(itertools.chain.from_iterable(ordering),
                        dtype=np.int64, count=int(lengths.sum()))
    given_tails = np.repeat(np.arange(n), lengths)
    # each vertex's list, sorted, must be its sorted neighbour list; the
    # blocks line up up to the first vertex whose list has the wrong length
    wrong_length = np.flatnonzero(lengths != np.diff(offsets))
    cut = int(offsets[wrong_length[0]]) if wrong_length.size else heads.size
    mine = given[np.lexsort((given, given_tails))][:cut]
    wrong = np.concatenate([tails[:cut][mine != heads[:cut]], wrong_length])
    if wrong.size:
        raise ValidationError(
            f"ordering for vertex {wrong.min()} is not a permutation of its "
            "neighbour set"
        )
    return PortGraph(offsets, given)


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
    n, degree = int(np.prod(dims)), 2 * len(dims)
    coords = np.unravel_index(np.arange(n), dims)
    heads = np.empty((n, degree), dtype=np.int64)
    for ax, size in enumerate(dims):
        for j, step in enumerate((1, -1)):
            moved = list(coords)
            moved[ax] = (coords[ax] + step) % size
            heads[:, 2 * ax + j] = np.ravel_multi_index(moved, dims)
    return PortGraph(np.arange(n + 1) * degree, heads.reshape(-1),
                     torus_dims=dims)


def complete_graph(n: int) -> PortGraph:
    """Complete graph on ``n >= 2`` vertices, sorted port order."""
    if n < 2:
        raise GraphError("complete graph needs at least 2 vertices")
    heads = np.broadcast_to(np.arange(n), (n, n))[~np.eye(n, dtype=bool)]
    return PortGraph(np.arange(n + 1) * (n - 1), heads)


#: Stub pairings :func:`random_regular_graph` draws before it gives up.
REGULAR_TRIES = 5000


def random_regular_graph(
    n: int, d: int, seed: int | np.random.Generator | None = None,
) -> PortGraph:
    """Simple d-regular graph sampled by a configuration-model retry
    scheme of at most :data:`REGULAR_TRIES` stub pairings."""
    if d < 1 or d >= n:
        raise GraphError(f"need 1 <= d < n (got d={d}, n={n})")
    if (n * d) % 2 != 0:
        raise GraphError("n*d must be even for a d-regular simple graph")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    for _ in range(REGULAR_TRIES):
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        rng.shuffle(stubs)
        pairs = np.sort(stubs.reshape(-1, 2), axis=1)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        keys = np.unique(pairs[:, 0] * n + pairs[:, 1])
        if keys.size != len(pairs):
            continue
        return build_graph(np.stack(np.divmod(keys, n), axis=1),
                           ordering="sorted", num_vertices=n)
    raise GraphError(
        f"failed to sample a simple {d}-regular graph on {n} vertices "
        f"within {REGULAR_TRIES} tries"
    )


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

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
        if kind in ("cycle", "torus"):
            return torus_graph(torus_dims_of(doc))
        if kind == "complete":
            return complete_graph(int(doc["n"]))
        if kind == "random-regular":
            return random_regular_graph(int(doc["n"]), int(doc["d"]),
                                        doc.get("seed"))
        raise ValidationError(f"unknown graph type {kind!r}")
    g = build_graph(doc["edges"], ordering=doc.get("ordering", "sorted"),
                    num_vertices=doc.get("n"))
    dims = torus_dims_of(doc)
    return g if dims is None else dataclasses.replace(g, torus_dims=dims)


def torus_dims_of(doc: dict) -> tuple[int, ...] | None:
    """The torus shape of the graph a JSON document describes (that of
    :func:`graph_from_json`), read without building the graph: a cycle's
    ``(n,)``, a torus's ``dims``, or the ``torus_dims`` of an edge list;
    ``None`` for any other graph."""
    kind = doc.get("type")
    if kind == "cycle":
        return (int(doc["n"]),)
    if kind == "torus":
        return tuple(int(d) for d in doc["dims"])
    if kind is None and "torus_dims" in doc:
        return tuple(doc["torus_dims"])
    return None


def graph_hash(g: PortGraph) -> str:
    """Stable hex digest of the graph structure including port order: the
    SHA-256 of the compact JSON ``{"n":N,"out":[[heads of vertex 0],...]}``.

    The text is spelled without the nested list: each vertex number is
    spelled once (:func:`_digits`) into a row of whole 8-byte words, with
    a ``[`` slot before its digits and a ``,`` and a free slot after them,
    and the rows are gathered at the heads as words. The first port of
    every vertex fills its ``[`` (every vertex has a port), and the last
    port of a vertex turns its ``,`` into ``],`` (the last of all into
    ``]``); the non-NUL bytes of the rows, in order, are the list."""
    n, offsets = g.num_vertices, g.port_offsets
    digits = _digits(np.arange(n))
    w = digits.shape[1]
    texts = np.zeros((n, (w + 10) // 8 * 8), np.uint8)
    texts[:, 1:w + 1] = digits
    texts[:, w + 1] = ord(",")
    arcs = texts.view(np.uint64)[g.heads].view(np.uint8)
    arcs[offsets[:-1], 0] = ord("[")
    last = offsets[1:] - 1
    arcs[last, w + 1] = ord("]")
    arcs[last[:-1], w + 2] = ord(",")
    octets = arcs.reshape(-1)
    digest = hashlib.sha256(b'{"n":%d,"out":[' % n)
    digest.update(octets[octets != 0])
    digest.update(b"]}")
    return digest.hexdigest()
