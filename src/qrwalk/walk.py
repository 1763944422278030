"""Walker states and the coin / shift / interaction operators.

Every state lives on a :class:`~qrwalk.graphs.ProductGraph` of K >= 1
walkers, one walker being the product of one. One evolution step applies,
in order, the optional interaction (K > 1 walkers only), the
block-diagonal coin of each walker, and the shift permutation. All
operators are unitary, so a step maps a normalised state to a normalised
state; nothing here renormalises, which keeps genuine defects visible.

Each operator has one kernel, which writes from one state buffer into
another: the interaction in place, the coin and the shift one walker at a
time. :func:`_light_cone`, the one walk loop, runs them in two
preallocated buffers and yields, at each t, the masses ``|psi(t)|^2`` on
the walk's box and the vertex distribution rho(t) they sum to; no other
loop of the package makes rho(t). :func:`evolve` is that loop with the
masses put over the whole space. :func:`step` runs the same kernels on
a copy of a :class:`WaveFunction` and returns a new one.

The kernels run on a box of the state, not on the whole space. A coin or
an interaction mixes amplitude within one vertex (tuple), and a shift
moves it along an arc (:class:`ShiftSpec` accepts no other map), so
psi(t) is exactly zero outside the light cone of psi(0)'s support: the
product of the sets of vertices each walker can have reached. The walk
keeps only the box over their ports, at the front of its two buffers,
each walker's ports listed in degree-class order so that each coin class
is one run; a state over the whole space is kept in that order too.
:func:`step` runs on the whole-space box, the step the tests hold the
light cone to.

Operators may vary with time: wherever a spec is accepted, a callable
``t -> spec`` is accepted too and resolved at each step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

from . import coins
from .errors import ResourceLimitError, UnitarityError, ValidationError
from .graphs import PortGraph, ProductGraph, _readonly

__all__ = [
    "WaveFunction",
    "CoinSpec",
    "ShiftSpec",
    "InteractionSpec",
    "step",
    "evolve",
    "vertex_distribution",
    "vertex_masses",
    "check_budget",
    "NORM_ATOL",
    "DEFAULT_MEMORY_BUDGET",
]

NORM_ATOL = 1e-10
#: Cap, in bytes, on every large allocation the package checks first: state
#: vectors, the arc-wise arrays of P(t), dense P(t), the sampling buffers
#: and the rejection baseline's batches. Only :func:`check_budget` reads
#: it, at each call, so one assignment changes it everywhere.
DEFAULT_MEMORY_BUDGET = 2 << 30


def check_budget(nbytes: int, what: str) -> None:
    """Raise :class:`ResourceLimitError` if ``what`` needs more than
    :data:`DEFAULT_MEMORY_BUDGET` bytes; call it before allocating."""
    if nbytes > DEFAULT_MEMORY_BUDGET:
        raise ResourceLimitError(
            f"{what} needs {nbytes} bytes, over the memory budget of "
            f"{DEFAULT_MEMORY_BUDGET}"
        )


def _check_norm(norm2: float) -> None:
    """Raise :class:`ValidationError` unless the squared norm ``norm2``
    is 1 within :data:`NORM_ATOL`."""
    if abs(norm2 - 1.0) > NORM_ATOL:
        raise ValidationError(
            f"state is not normalised: squared norm {norm2!r}"
        )


def _zero_state(graph: PortGraph | ProductGraph
                ) -> tuple[ProductGraph, np.ndarray]:
    """``graph`` as a state space, and a zero vector over its basis that
    was checked against the memory budget before it was allocated."""
    space = ProductGraph.of(graph)
    dim = space.basis_dim
    check_budget(16 * dim, f"a state vector of dimension {dim}")
    return space, np.zeros(dim, dtype=np.complex128)


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes over the joint (vertex, port) basis of ``graph``.

    ``graph`` is a :class:`ProductGraph`; a port graph given to any
    constructor is taken as one walker on it. For ``K`` walkers the basis
    is the K-fold tensor power of the single walker basis, indexed by
    :meth:`ProductGraph.basis_index`. Every state is checked to be
    normalised within :data:`NORM_ATOL` when it is made, and its storage
    is frozen; since every operator is unitary, evolved states pass the
    same check.
    """

    graph: ProductGraph
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        space = ProductGraph.of(self.graph)
        object.__setattr__(self, "graph", space)
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (space.basis_dim,):
            raise ValidationError(
                f"amplitude vector has shape {amps.shape}, expected "
                f"({space.basis_dim},) for {space.num_walkers} walker(s) on "
                f"a basis of dimension {space.base.basis_dim}"
            )
        _check_norm(float(np.vdot(amps, amps).real))
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    # -- structure ---------------------------------------------------------

    @property
    def base(self) -> PortGraph:
        return self.graph.base

    @property
    def num_walkers(self) -> int:
        return self.graph.num_walkers

    # -- constructors --------------------------------------------------------

    @classmethod
    def localized(
        cls,
        graph: PortGraph | ProductGraph,
        vertex: int | Sequence[int],
        port: int | Sequence[int] = 0,
    ) -> "WaveFunction":
        """Point mass on one basis state; tuples address K walkers, and a
        scalar vertex or port is every walker's. The vector is checked
        against the memory budget first."""
        space, amps = _zero_state(graph)
        k = space.num_walkers
        vs = [vertex] * k if np.isscalar(vertex) else list(vertex)
        ps = [port] * k if np.isscalar(port) else list(port)
        amps[space.basis_index(vs, ps)] = 1.0
        return cls(space, amps)

    @classmethod
    def uniform(cls, graph: PortGraph | ProductGraph) -> "WaveFunction":
        """Equal real amplitude on every basis state. The vector is checked
        against the memory budget first."""
        space, amps = _zero_state(graph)
        amps += 1.0 / np.sqrt(amps.size)
        return cls(space, amps)

    @classmethod
    def from_components(
        cls,
        graph: PortGraph | ProductGraph,
        components: Sequence[tuple],
    ) -> "WaveFunction":
        """Build from sparse ``(vertex, port, amplitude)`` entries.

        Tuples of vertices/ports address K-walker states. The vector is
        checked against the memory budget first, and always renormalised;
        a drift beyond 1e-8 triggers a warning since it usually means the
        input was not meant to be a state.
        """
        space, amps = _zero_state(graph)
        for vertex, port, amp in components:
            vs = [vertex] if np.isscalar(vertex) else list(vertex)
            ps = [port] if np.isscalar(port) else list(port)
            amps[space.basis_index(vs, ps)] += complex(amp)
        norm = float(np.linalg.norm(amps))
        if norm == 0.0:
            raise ValidationError("initial state has zero norm")
        if abs(norm - 1.0) > 1e-8:
            warnings.warn(
                f"initial state renormalised: norm was {norm!r}",
                stacklevel=2,
            )
        amps /= norm
        return cls(space, amps)


# ---------------------------------------------------------------------------
# operator specifications
# ---------------------------------------------------------------------------

def _stacked(graph: PortGraph,
             blocks: Sequence[np.ndarray]) -> dict[int, np.ndarray]:
    """Per-vertex blocks, in vertex order, as one stack per degree class."""
    if len(blocks) != graph.num_vertices:
        raise ValidationError(
            f"{len(blocks)} coin blocks for {graph.num_vertices} vertices"
        )
    stacks = {}
    for d, verts in graph.degree_classes.items():
        verts = verts.tolist()
        try:
            stack = np.array(list(map(blocks.__getitem__, verts)),
                             dtype=np.complex128)
        except ValueError:  # blocks of different shapes
            stack = None
        if stack is None or stack.shape != (len(verts), d, d):
            v = next(v for v in verts if np.shape(blocks[v]) != (d, d))
            raise ValidationError(
                f"coin block at vertex {v} has shape {np.shape(blocks[v])}, "
                f"expected ({d}, {d})"
            )
        stacks[d] = stack
    return stacks


@dataclass(frozen=True)
class CoinSpec:
    """Per-vertex unitary blocks mixing amplitudes among a vertex's ports.

    The blocks are stored per degree class of the graph: ``stacks[d]`` is
    a read-only ``(n_d, d, d)`` array whose ``i``-th block acts on the
    ports of ``graph.degree_classes[d][i]``, the ``i``-th vertex of degree
    ``d``. A named coin stores one block per class, repeated by a
    zero-stride :func:`numpy.broadcast_to` view. The coin is applied with
    one ``matmul`` per class and walker. ``blocks`` is a per-vertex view
    for tests.
    """

    graph: PortGraph
    stacks: Mapping[int, np.ndarray]
    name: str = "explicit"

    def __post_init__(self) -> None:
        classes = self.graph.degree_classes
        if sorted(self.stacks) != list(classes):
            raise ValidationError(
                f"coin stacks for degrees {sorted(self.stacks)}, but the "
                f"graph has degrees {list(classes)}"
            )
        frozen = {}
        for d, verts in classes.items():
            stack = np.asarray(self.stacks[d], dtype=np.complex128)
            if stack.shape != (verts.size, d, d):
                raise ValidationError(
                    f"coin stack for degree {d} has shape {stack.shape}, "
                    f"expected {(verts.size, d, d)}"
                )
            stack.flags.writeable = False
            frozen[d] = stack
        object.__setattr__(self, "stacks", frozen)

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The block of every vertex, in vertex order (read-only views)."""
        out: list = [None] * self.graph.num_vertices
        for d, verts in self.graph.degree_classes.items():
            for v, block in zip(verts, self.stacks[d]):
                out[v] = block
        return tuple(out)

    def validate(self) -> None:
        """Check every block against the two coin unitarity conditions
        within :data:`~qrwalk.coins.UNITARY_ATOL`, one degree class at a
        time in ascending degree; the error names the first failing
        vertex of the first failing class."""
        for d, verts in self.graph.degree_classes.items():
            coins.check_coin_unitary(
                self.stacks[d],
                label=list(map("vertex {}".format, verts.tolist())))

    # -- named builders ----------------------------------------------------

    @classmethod
    def _named(cls, graph: PortGraph, make: Callable[[int], np.ndarray],
               name: str) -> "CoinSpec":
        return cls(graph, {d: np.broadcast_to(make(d), (verts.size, d, d))
                           for d, verts in graph.degree_classes.items()},
                   name=name)

    @classmethod
    def hadamard(cls, graph: PortGraph) -> "CoinSpec":
        return cls._named(graph, coins.hadamard_coin, "hadamard")

    @classmethod
    def grover(cls, graph: PortGraph) -> "CoinSpec":
        return cls._named(graph, coins.grover_coin, "grover")

    @classmethod
    def identity(cls, graph: PortGraph) -> "CoinSpec":
        return cls._named(graph, coins.identity_coin, "identity")

    @classmethod
    def random_unitary(cls, graph: PortGraph,
                       rng: np.random.Generator) -> "CoinSpec":
        # one draw per vertex, in vertex order, so seeded coins stay fixed
        draws = [coins.random_unitary_coin(graph.degree(v), rng)
                 for v in range(graph.num_vertices)]
        return cls(graph, _stacked(graph, draws), name="random-unitary")

    @classmethod
    def from_blocks(cls, graph: PortGraph,
                    blocks: Sequence[np.ndarray]) -> "CoinSpec":
        """A coin of explicit per-vertex blocks, in vertex order, checked
        by :meth:`validate`: a block that fails a unitarity condition
        raises :class:`UnitarityError`."""
        spec = cls(graph, _stacked(graph, list(blocks)))
        spec.validate()
        return spec


def _is_permutation(perm: np.ndarray) -> bool:
    """Whether ``perm`` holds each of ``0..perm.size - 1`` exactly once."""
    if perm.size and (perm.min() < 0 or perm.max() >= perm.size):
        return False
    hit = np.zeros(perm.size, dtype=bool)
    hit[perm] = True
    return bool(hit.all())


@dataclass(frozen=True)
class ShiftSpec:
    """Basis permutation transporting amplitude along arcs.

    ``permutation[i]`` is the flattened target index of basis state ``i``.
    Every shift is edge-local: the constructor rejects a permutation
    unless the target of every ``(v, c)`` is a port of ``eta(v, c)``, so
    amplitude only ever moves along an arc to its head. Build one with
    ``ShiftSpec(graph, permutation)`` or a named builder.
    """

    graph: PortGraph
    permutation: np.ndarray
    name: str = "explicit"

    def __post_init__(self) -> None:
        g = self.graph
        perm = np.asarray(self.permutation, dtype=np.int64)
        dim = g.basis_dim
        if perm.shape != (dim,):
            raise ValidationError(
                f"permutation has shape {perm.shape}, expected ({dim},)"
            )
        if not _is_permutation(perm):
            raise ValidationError(
                "shift map is not a permutation of the basis (it would "
                "not be unitary)"
            )
        landed = g.vertex_of_basis[perm]
        wrong = np.flatnonzero(landed != g.heads)
        if wrong.size:
            a = int(wrong[0])
            v, c = g.basis_state(a)
            raise ValidationError(
                f"shift sends ({v}, {c}) to vertex {int(landed[a])}, but "
                f"eta({v}, {c}) = {int(g.heads[a])}"
            )
        perm.flags.writeable = False
        object.__setattr__(self, "permutation", perm)

    @cached_property
    def inverse(self) -> np.ndarray:
        inv = np.empty_like(self.permutation)
        inv[self.permutation] = np.arange(self.permutation.size)
        inv.flags.writeable = False
        return inv

    @cached_property
    def gather(self) -> np.ndarray:
        """The shift as a gather over ports in degree-class order
        (:attr:`~qrwalk.graphs.PortGraph.class_order`): the amplitude of
        position k comes from position ``gather[k]``. It is
        :attr:`inverse` composed with the class order, and is
        :attr:`inverse` itself on a regular graph."""
        if len(self.graph.degree_classes) == 1:
            return self.inverse
        order, inverse = self.graph.class_order
        return _readonly(inverse[self.inverse[order]])

    # -- named builders ----------------------------------------------------

    @classmethod
    def flip_flop(cls, graph: PortGraph) -> "ShiftSpec":
        """Default shift: ``(v, c) -> (eta(v, c), sigma(v, eta(v, c)))``.

        Amplitude moving along an arc lands on the reverse arc's port, so
        the map is an involution and always a permutation.
        """
        return cls(graph, graph.arc_index(graph.heads, graph.vertex_of_basis),
                   name="flip-flop")

    @classmethod
    def moving(cls, graph: PortGraph) -> "ShiftSpec":
        """Moving shift ``(v, c) -> (eta(v, c), c)``: the port label is
        preserved, so a walker keeps its direction.

        Only valid when ``eta(., c)`` is injective for every port ``c``
        (true for the cycle and torus generators' axis-aligned port
        orders); otherwise the map is not a permutation and this raises.
        """
        heads = graph.heads
        port = np.arange(graph.basis_dim) \
            - graph.port_offsets[graph.vertex_of_basis]
        missing = np.flatnonzero(port >= graph.degrees[heads])
        if missing.size:
            a = int(missing[0])
            u = int(heads[a])
            raise ValidationError(
                f"moving shift undefined: port {int(port[a])} does not "
                f"exist at vertex {u} (degree {graph.degree(u)})"
            )
        # every arc lands on its head, so the constructor can refuse the
        # map only as no permutation
        try:
            return cls(graph, graph.port_offsets[heads] + port, name="moving")
        except ValidationError:
            raise ValidationError(
                "moving shift is not a permutation on this graph/port "
                "order; use the flip-flop shift or a custom port order"
            ) from None


@dataclass(frozen=True)
class InteractionSpec:
    """Unitary coupling of K walkers, block-diagonal in the vertex tuple.

    A block acts on the joint port space of one vertex tuple, so walkers
    exchange amplitude and phase without moving; movement stays confined
    to the shift. ``blocks`` maps vertex tuples to explicit unitaries;
    tuples not listed act as identity.
    """

    graph: ProductGraph
    kind: str = "identity"
    phase: float = 0.0
    blocks: Mapping[tuple[int, ...], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "coincidence-phase", "explicit"):
            raise ValidationError(f"unknown interaction kind {self.kind!r}")
        if self.kind == "explicit":
            frozen = {}
            for key, block in (self.blocks or {}).items():
                u = tuple(int(x) for x in key)
                d = self.graph.degree(u)
                b = np.asarray(block, dtype=np.complex128)
                if b.shape != (d, d):
                    raise ValidationError(
                        f"interaction block at tuple {u} has shape "
                        f"{b.shape}, expected ({d}, {d})"
                    )
                coins.check_coin_unitary(b, label=f"tuple {u}")
                b.flags.writeable = False
                frozen[u] = b
            object.__setattr__(self, "blocks", frozen)

    @cached_property
    def _whole_coincident(self) -> np.ndarray:
        """:meth:`_Box.coincident` of the whole-space box, read-only and
        made once per spec."""
        return _readonly(_Box(self.graph, None).coincident())

    @classmethod
    def identity(cls, graph: ProductGraph) -> "InteractionSpec":
        return cls(graph, kind="identity")

    @classmethod
    def coincidence_phase(cls, graph: ProductGraph,
                          phi: float) -> "InteractionSpec":
        """Multiply by ``exp(i * phi)`` whenever all walkers share a vertex."""
        return cls(graph, kind="coincidence-phase", phase=float(phi))

    @classmethod
    def from_blocks(cls, graph: ProductGraph,
                    blocks: Mapping[tuple[int, ...], np.ndarray]
                    ) -> "InteractionSpec":
        return cls(graph, kind="explicit", blocks=dict(blocks))


CoinLike = Union[CoinSpec, Callable[[int], CoinSpec]]
ShiftLike = Union[ShiftSpec, Callable[[int], ShiftSpec]]
InteractionLike = Union[InteractionSpec, Callable[[int], InteractionSpec]]


def _at(spec, t: int):
    """Resolve a possibly time-scheduled spec at step t."""
    if spec is None or isinstance(spec, (CoinSpec, ShiftSpec, InteractionSpec)):
        return spec
    return spec(t)


def _per_walker(spec, space: ProductGraph, t: int, what: str) -> list:
    """One spec per walker of ``space`` (``spec`` itself, shared, or its
    items), resolved at step t and checked to be built for the base."""
    k = space.num_walkers
    specs = list(spec) if isinstance(spec, (list, tuple)) else [spec] * k
    if len(specs) != k:
        raise ValidationError(
            f"got {len(specs)} per-walker specs for {k} walkers")
    specs = [_at(s, t) for s in specs]
    if any(s.graph != space.base for s in specs):
        raise ValidationError(f"{what} was built for a different graph")
    return specs


# ---------------------------------------------------------------------------
# the light cone
# ---------------------------------------------------------------------------
#
# Walker i's vertex set S_i is the projection of psi(0)'s support on axis
# i, then after each step the heads of the arcs leaving S_i; psi(t) is
# zero outside the box over the ports of S_1 x ... x S_K (module docstring).

class _Axis(NamedTuple):
    """One walker's axis of a box, of ``size`` slots. ``verts`` are the
    vertices the walker can have reached, in degree-class order, and
    ``reached`` marks their class ranks (``None``: every vertex). Their
    ports fill the slots in that order: slot s holds basis index
    ``ports[s]`` (``ports`` is ``None`` when slot s is basis index s, on
    a whole axis of one class), and the ports of vertex v start at slot
    ``first[v]`` (read at ``verts`` only). ``runs`` gives, per degree
    class, how many of its vertices are on the axis and their positions
    in the class (``None``: the whole class)."""

    verts: np.ndarray
    ports: np.ndarray | None
    first: np.ndarray
    reached: np.ndarray | None
    runs: list
    size: int

    @property
    def whole(self) -> bool:
        return self.reached is None

    @property
    def in_order(self) -> bool:
        return self.ports is None


def _slots(graph: PortGraph, axis: _Axis | None,
           index: np.ndarray) -> np.ndarray:
    """The slots of ``axis`` that hold the basis indices ``index``, ports
    of its vertices: ``index`` itself on an axis in order (``None``: the
    whole space's axis in basis order), else ``first[v]`` plus the port's
    place among the ports of its vertex v."""
    if axis is None or axis.in_order:
        return index
    verts = graph.vertex_of_basis[index]
    slots = axis.first[verts] - graph.port_offsets[verts]
    slots += index
    return slots


def _column_block() -> int:
    """The column block of this numpy's complex matrix product, probed
    once at import: the least b in 1..8 such that, for a ``(d x d)``
    block B with d in 2..4 and a ``(d x 24)`` operand X, ``B @ X[:, o:o
    + w]`` has the bits of ``(B @ X)[:, o:o + w]`` at every offset o <
    8 and every multiple w of b up to 16, while 2..9 rows of a ``(24 x
    d)`` operand A, at every offset o < 4, keep their bits in ``A @ B``.
    0 if no b does. The probe's products are too small for the BLAS to
    split across threads, so it says nothing of such splits."""
    rng = np.random.default_rng(0)
    cases = []
    for d in (2, 3, 4):
        b, x, a = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
                   for shape in ((d, d), (d, 24), (24, d)))
        cases.append((b, x, b @ x, a, a @ b))
    if not all((a[o:o + m] @ b).tobytes() == ab[o:o + m].tobytes()
               for b, _, _, a, ab in cases
               for m in range(2, 10) for o in range(4)):
        return 0
    return next((block for block in range(1, 9) if all(
        (b @ x[:, o:o + w].copy()).tobytes() == bx[:, o:o + w].tobytes()
        for b, x, bx, _, _ in cases
        for w in range(block, 17, block) for o in range(8))), 0)


#: The complex matrix product makes the columns of the coin's ``(d x d) @
#: (d x right)`` products (every walker's but the last of several) in
#: blocks of this many, and the columns of a last, partial block round
#: differently (4 with OpenBLAS's Haswell zgemm kernels); 0 when the
#: probe (:func:`_column_block`) finds no such block, or finds that a
#: product's bits depend on its number of rows.
COLUMN_BLOCK = _column_block()


def _column_steps(space: ProductGraph) -> list[int]:
    """The number of ports each walker's axis of a box must be a multiple
    of, 0 where it must be whole, so that the coin's products give the
    bits of the whole space.

    A box axis after the first makes, with those after it, the columns
    of the products of the walkers before it: with a multiple of
    :data:`COLUMN_BLOCK` ports it fills whole blocks, as the whole axis
    does when it is such a multiple. The last axis, alone the columns of
    the walker before it, must be whole when the whole axis is not. The
    first axis needs 2 ports (:meth:`_Box.reach`), and one walker has no
    columns. Several walkers keep every axis whole when
    :data:`COLUMN_BLOCK` is 0: their products then have the shapes of
    the whole space."""
    k, dim = space.num_walkers, space.base.basis_dim
    if k > 1 and not COLUMN_BLOCK:
        return [0] * k
    steps = [1] + [COLUMN_BLOCK] * (k - 1)
    if k > 1 and dim % COLUMN_BLOCK:
        steps[-1] = 0
    return steps


def _middle(buf: np.ndarray, dims: Sequence[int], i: int) -> np.ndarray:
    """The array of shape ``dims`` at the front of ``buf``, as the view
    ``(left, dims[i], right)`` whose middle axis is axis i."""
    left, right = math.prod(dims[:i]), math.prod(dims[i + 1:])
    return buf[:left * dims[i] * right].reshape(left, dims[i], right)


def _outer(indices: Sequence, size: int) -> tuple:
    """An index of a K-axis array of side ``size`` picking the outer
    product of one index array per axis, ``None`` for the whole axis."""
    return np.ix_(*(np.arange(size) if a is None else a for a in indices))


class _Box:
    """The box of a walk's state: one :class:`_Axis` per walker, the
    state being the C-contiguous array of shape :attr:`shape` at the front
    of a state buffer. The shifts move the axes on (:meth:`move`)."""

    def __init__(self, space: ProductGraph, support: np.ndarray | None):
        """The box over the whole space, or over the vertices of the
        basis states where the flat mask ``support`` is set."""
        g, k = space.base, space.num_walkers
        self.space, self.graph = space, g
        self.sizes = [v.size for v in g.degree_classes.values()]
        ports, first = None, g.port_offsets[:-1]
        if len(self.sizes) > 1:
            ports, inverse = g.class_order
            first = inverse[first]
        self.full = _Axis(g.class_vertices[0], ports, first, None,
                          [(size, None) for size in self.sizes],
                          g.basis_dim)
        self.steps = _column_steps(space)
        self.degree = _degree(g)
        self.axes = [self.full] * k
        if support is not None:
            support = support.reshape(space.basis_shape)
            for i in range(k):
                hit = support if k == 1 else \
                    support.any(axis=tuple(j for j in range(k) if j != i))
                self.axes[i] = self.reach(i, g.vertex_of_basis[hit])
        self.shape = [a.size for a in self.axes]

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def whole(self) -> bool:
        return all(a.whole for a in self.axes)

    @property
    def in_order(self) -> bool:
        return all(a.in_order for a in self.axes)

    def view(self, buf: np.ndarray, i: int) -> np.ndarray:
        return _middle(buf, self.shape, i)

    def move(self, i: int, axis: _Axis) -> None:
        self.axes[i] = axis
        self.shape[i] = axis.size

    def reach(self, i: int, verts: np.ndarray) -> _Axis:
        """Walker i's axis over the vertices ``verts`` (repeats allowed),
        made in O(its ports) from a reach mask over the vertices' class
        ranks; the whole axis when they are every vertex, or when the
        axis's ports are not a multiple of ``self.steps[i]``
        (:func:`_column_steps`). It is whole too when it would hold one
        port: the coin's matrix products would then turn into vector
        products, which round differently."""
        g = self.graph
        reached = np.zeros(g.num_vertices, dtype=bool)
        reached[g.class_vertices[1][verts]] = True
        ranks = np.flatnonzero(reached)
        if ranks.size == g.num_vertices:
            return self.full
        verts = g.class_vertices[0][ranks]
        repeats = g.degrees[verts]
        ends = np.cumsum(repeats)
        size = int(ends[-1])
        starts = ends - repeats
        step = self.steps[i]
        if size == 1 or not step or size % step:
            return self.full
        ports = np.repeat(g.port_offsets[verts] - starts, repeats)
        ports += np.arange(size)
        first = np.empty(g.num_vertices, dtype=np.int64)
        first[verts] = starts
        lows = np.cumsum([0] + self.sizes[:-1])
        counts = np.add.reduceat(reached, lows, dtype=np.int64)
        runs, at = [], 0
        for total, low, count in zip(self.sizes, lows.tolist(),
                                     counts.tolist()):
            runs.append((count, None if count == total
                         else ranks[at:at + count] - low))
            at += count
        return _Axis(verts, ports, first, reached, runs, size)

    def coincident(self) -> np.ndarray:
        """The flat mask over the box of the tuples of ports whose walkers
        all stand on one vertex."""
        owners = self.graph.vertex_of_basis
        grids = np.ix_(*(owners if a.in_order else owners[a.ports]
                         for a in self.axes))
        shared = np.ones(self.shape, dtype=bool)
        for owner in grids[1:]:
            shared &= grids[0] == owner
        return shared.reshape(-1)

    def gather(self, amps: np.ndarray, x: np.ndarray, y: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """The box of the basis-order state ``amps`` put at the front of
        ``x`` or ``y`` by one ``np.take`` per axis not in order, each into
        the buffer the last one did not write (or by a copy when every
        axis is in order); returns (that buffer, the other)."""
        src, dims = amps, list(self.space.basis_shape)
        for i, axis in enumerate(self.axes):
            if not axis.in_order:
                view = _middle(src, dims, i)
                dims[i] = axis.size
                np.take(view, axis.ports, axis=1, out=_middle(x, dims, i),
                        mode="clip")
                src, x, y = x, y, x
        if src is amps:
            x[:] = amps
            return x, y
        return src, x

    def vertex_masses(self, p: np.ndarray) -> np.ndarray:
        """rho: the port sums (:func:`_port_sums`) of the box's masses
        ``p``, as a new flat array over the vertex tuples, zero outside
        the box."""
        sums = _port_sums(p.reshape(self.shape),
                          [a.first[a.verts] for a in self.axes], self.degree)
        if self.in_order:
            return sums.reshape(-1)
        space = self.space
        rho = np.zeros(space.num_states)
        index = _outer([None if a.in_order else a.verts for a in self.axes],
                       space.base.num_vertices)
        rho.reshape(space.shape)[index] = sums
        return rho

    def state(self, x: np.ndarray, y: np.ndarray) -> WaveFunction:
        """The whole-space box in ``x`` as a :class:`WaveFunction`, each
        axis not in order put back in basis order by one ``np.take`` of
        the inverse class order, into the buffer the last one did not
        write."""
        inverse = self.graph.class_order[1]
        for i, axis in enumerate(self.axes):
            if not axis.in_order:
                np.take(self.view(x, i), inverse, axis=1,
                        out=self.view(y, i), mode="clip")
                x, y = y, x
        return WaveFunction(self.space, x)


# ---------------------------------------------------------------------------
# operator kernels
# ---------------------------------------------------------------------------
#
# Walker i's kernel sees the box as the contiguous view (left, m_i, right)
# of _Box.view, whose middle axis is walker i's, and writes into a second
# buffer; the walk then swaps the two. A kernel may overwrite its input.
# The interaction acts in place.

def _coin_kernel(spec: CoinSpec, axis: _Axis, x: np.ndarray,
                 y: np.ndarray) -> None:
    """``y`` = the coin on the middle axis of ``x``, whose slots are
    ``axis``'s. The axis lists its ports in degree-class order, so each
    class's block stack, cut to the axis's vertices, multiplies one run
    (:func:`_class_products`): a named coin's zero-stride stack is sliced,
    not copied, and a whole class's is used as it is."""
    stacks = []
    for stack, (count, picked) in zip(spec.stacks.values(), axis.runs):
        if picked is not None:
            stack = stack[:count] if stack.strides[0] == 0 else stack[picked]
        if count:
            stacks.append(stack)
    one = len(spec.stacks) == 1 and stacks[0].strides[0] == 0
    _class_products(stacks, one, x, y)


def _class_products(stacks: list[np.ndarray], one: bool, x: np.ndarray,
                    y: np.ndarray) -> None:
    """Multiply the port blocks of each ``(n, d, d)`` stack, whose ports
    are consecutive runs of ``x``'s middle axis in order, into ``y``;
    ``one`` when a single block serves every vertex of the graph.

    Each operand shape rounds, for the named coins, exactly as the coin
    did when every walker's axis was first moved to the front. Walker 0
    (one walker too: a row product rounds differently there) takes a
    batched ``(d x d) @ (d x right)`` product per vertex, as do the
    middle walkers. The last of several walkers takes a row product,
    ``rows @ block.T``: one matrix product when one block serves the whole
    axis, else one per vertex (a vertex alone in its class would make a
    vector-matrix product, which rounds differently too)."""
    left, _, right = x.shape
    start = 0
    for stack in stacks:
        n, d, _ = stack.shape
        src, dst = (a[:, start:start + n * d] for a in (x, y))
        start += n * d
        if right > 1 or left == 1:
            shape = (n, d, right) if left == 1 else (left, n, d, right)
            np.matmul(stack, src.reshape(shape), out=dst.reshape(shape))
        elif one:
            np.matmul(x.reshape(-1, d), stack[0].T, out=y.reshape(-1, d))
        else:
            np.matmul(src.reshape(left, n, d).transpose(1, 0, 2),
                      stack.transpose(0, 2, 1),
                      out=dst.reshape(left, n, d).transpose(1, 0, 2))


def _interaction_kernel(spec: InteractionSpec, box: _Box,
                        x: np.ndarray) -> None:
    """Apply the per-tuple interaction blocks to the box in ``x`` in
    place: the coincidence mask read on the box, the explicit blocks of
    the tuples inside it (the others act on zeros)."""
    if spec.kind == "coincidence-phase":
        shared = spec._whole_coincident if box.whole else box.coincident()
        np.multiply(x, np.exp(1j * spec.phase), out=x, where=shared)
        return
    arr = x.reshape(box.shape)
    base = spec.graph.base
    rank = base.class_vertices[1]
    for u, block in spec.blocks.items():
        if all(a.whole or a.reached[rank[ui]] for a, ui in zip(box.axes, u)):
            slices = tuple(slice(a.first[ui], a.first[ui] + base.degrees[ui])
                           for a, ui in zip(box.axes, u))
            sub = arr[slices]
            arr[slices] = (block @ sub.reshape(-1)).reshape(sub.shape)


def _coins(box: _Box, specs: list, x: np.ndarray,
           y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each walker's coin in turn, from ``x`` into ``y`` and back; returns
    (the buffer holding the result, the other)."""
    for i, spec in enumerate(specs):
        _coin_kernel(spec, box.axes[i], box.view(x, i), box.view(y, i))
        x, y = y, x
    return x, y


def _shifts(box: _Box, specs: list, x: np.ndarray,
            y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each walker's shift in turn, from ``x`` into ``y`` and back, moving
    the box's axes on; returns (the buffer holding the result, the
    other). A whole axis is one gather (:attr:`ShiftSpec.gather`). Any
    other axis moves to the heads of its ports' arcs, which a reach mask
    over the vertices turns into the new axis (:meth:`_Box.reach`), whose
    ``first`` slots place each arc's target; the new box is zero-filled
    and then scattered into."""
    g = box.space.base
    for i, spec in enumerate(specs):
        old = box.axes[i]
        src = box.view(x, i)
        if old.whole:  # in range by construction: "clip" spares the
            # copy np.take buffers its output into under "raise"
            np.take(src, spec.gather, axis=1, out=box.view(y, i),
                    mode="clip")
        else:
            heads = g.heads[old.ports]
            box.move(i, box.reach(i, heads))
            targets = box.axes[i].first[heads] - g.port_offsets[heads]
            targets += spec.permutation[old.ports]
            dst = box.view(y, i)
            dst.fill(0)
            dst[:, targets] = src
        x, y = y, x
    return x, y


def _interaction_at(interaction: InteractionLike | None,
                    space: ProductGraph, t: int) -> InteractionSpec | None:
    """The interaction of step t, or ``None`` when it is the identity;
    any other interaction needs a product of at least two walkers."""
    spec = _at(interaction, t)
    if spec is None or spec.kind == "identity":
        return None
    if space.num_walkers < 2:
        raise ValidationError("interactions require at least two walkers")
    if spec.graph != space:
        raise ValidationError("interaction was built for a different graph")
    return spec


def _step(box: _Box, x: np.ndarray, y: np.ndarray,
          coin: CoinLike, shift: ShiftLike,
          interaction: InteractionLike | None, t: int
          ) -> tuple[np.ndarray, np.ndarray]:
    """Step t on the box in ``x``, with ``y`` as the spare buffer; moves
    the box on and returns (the buffer holding psi(t + 1), the other)."""
    space = box.space
    inter = _interaction_at(interaction, space, t)
    coins = _per_walker(coin, space, t, "coin")
    shifts = _per_walker(shift, space, t, "shift")
    if inter is not None:
        _interaction_kernel(inter, box, x[:box.size])
    x, y = _coins(box, coins, x, y)
    return _shifts(box, shifts, x, y)


def _workspace(psi: WaveFunction, cone: bool = False
               ) -> tuple[_Box, np.ndarray, np.ndarray]:
    """Two state buffers, checked against the memory budget first, one
    holding a box of ``psi``: the whole space, or with ``cone`` (the walk
    loop) the box of its support."""
    dim = psi.graph.basis_dim
    check_budget(32 * dim, f"two state buffers of dimension {dim}")
    support = None
    if cone:  # a nonzero real or imaginary part, on the float view
        support = (psi.amplitudes.view(np.float64) != 0).view(np.uint16) != 0
    box = _Box(psi.graph, support)
    x, y = np.empty_like(psi.amplitudes), np.empty_like(psi.amplitudes)
    return (box, *box.gather(psi.amplitudes, x, y))


def _masses(amps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``|amps|^2``, the bits of ``np.abs(amps) ** 2``, in ``out`` (a float
    array of the shape of ``amps``) or in one new array."""
    p = np.abs(amps, out=out)
    return np.square(p, out=p)


# ---------------------------------------------------------------------------
# the step and the walk loop
# ---------------------------------------------------------------------------

def step(
    psi: WaveFunction,
    coin: CoinLike,
    shift: ShiftLike,
    interaction: InteractionLike | None = None,
    t: int = 0,
) -> WaveFunction:
    """One evolution step, shift(coin(interaction(psi))), by the kernels
    the walk loop runs, on the box of the whole space (each axis in
    degree-class order, so an irregular graph's state is put in that
    order first and back in basis order last); the new state is checked
    like any other. Its bits are those of the loop's light cone on the
    condition that :func:`_light_cone` states."""
    box, x, y = _workspace(psi)
    return box.state(*_step(box, x, y, coin, shift, interaction, t))


def _light_cone(psi0: WaveFunction, coin: CoinLike, shift: ShiftLike,
                horizon: int, interaction: InteractionLike | None = None
                ) -> Iterator[tuple[np.ndarray, tuple[_Axis, ...],
                                    np.ndarray]]:
    """The walk loop: yield ``(masses, axes, rho)`` for t = 0, 1, ...,
    ``horizon``, where ``axes`` are the walk's box at t (a tuple that later
    steps leave as it is), ``masses`` the box-local ``|psi(t)|^2``, of shape
    ``(a.size for a in axes)``, and rho(t) their port sums over the
    vertex tuples, a new array.

    The masses are a view of the spare state buffer, not a copy: the
    next step overwrites them, so a consumer is done with them before it
    asks for the next step. :func:`evolve` puts them over the joint
    basis; :func:`~qrwalk.equivalence.build_sequence` reads P(t) from
    them where they are.

    The walk evolves only its light cone. Coins and interactions act
    within one vertex (tuple), and every shift is edge-local, so psi(t)
    is exactly zero outside the box over the ports of S_1 x ... x S_K,
    S_i being the vertices walker i can have reached: the projection of
    psi(0)'s support on axis i, then the heads of the arcs leaving S_i.
    Each step runs its kernels on that box alone (:class:`_Box`), with
    the bits of a walk over the whole space; an axis that covers every
    vertex runs the whole-space kernels, without index work. The box
    lives at the front of two state buffers, each step's operators
    writing from one into the other. The buffers are checked against the
    memory budget before anything is allocated. Every psi(t + 1) is
    checked to be normalised within :data:`NORM_ATOL`, as a
    :class:`WaveFunction` is, before its masses are yielded.

    :func:`step` gives the same bits as long as a matrix product's bits
    depend only on its operand shapes and on the column blocks of
    :data:`COLUMN_BLOCK`, which is probed at import: with several walkers
    a box axis after the first stays partial only with a multiple of
    that many ports, and every axis stays whole when the probe finds no
    block. A BLAS that splits one product across threads at other
    columns than a single thread would breaks that condition."""
    if horizon < 0:
        raise ValidationError("horizon must be >= 0")
    box, x, y = _workspace(psi0, cone=True)
    for t in range(horizon + 1):
        if t:
            x, y = _step(box, x, y, coin, shift, interaction, t - 1)
        size = box.size
        p = _masses(x[:size], y.view(np.float64)[:size])
        if t:
            _check_norm(float(p.sum()))
        yield p.reshape(box.shape), tuple(box.axes), box.vertex_masses(p)


def _basis_masses(space: ProductGraph, axes: Sequence[_Axis],
                  p: np.ndarray) -> np.ndarray:
    """The masses ``p`` of the box of ``axes`` as a new flat array over
    the joint basis, in basis order and zero outside the box."""
    if all(a.in_order for a in axes):
        return p.reshape(-1).copy()
    out = np.zeros(space.basis_dim)
    index = _outer([None if a.in_order else a.ports for a in axes],
                   space.base.basis_dim)
    out.reshape(space.basis_shape)[index] = p
    return out


def evolve(psi0: WaveFunction, coin: CoinLike, shift: ShiftLike,
           horizon: int, interaction: InteractionLike | None = None
           ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(masses, rho)`` for t = 0, 1, ..., ``horizon``: the
    basis-state masses ``|psi(t)|^2`` and rho(t), their vertex masses
    (the port sums of :func:`vertex_masses`), each a new float array over
    the whole space.

    These are the walk loop's (:func:`_light_cone`, which evolves only
    the light cone of psi(0)'s support, and checks each state's norm),
    its box-local masses put in place in an array that is zero outside
    the box. The memory budget is checked first for the loop's two state
    buffers and two such arrays: the one being made and the one the
    caller may still hold. A caller that needs only rho(t), or can read
    the masses on the box, takes the loop itself and makes no such
    array."""
    dim = psi0.graph.basis_dim
    check_budget(48 * dim, "two state buffers and two mass arrays of "
                 f"dimension {dim}")
    for p, axes, rho in _light_cone(psi0, coin, shift, horizon,
                                    interaction):
        yield _basis_masses(psi0.graph, axes, p), rho


def _degree(graph: PortGraph) -> int:
    """The one degree of a regular graph, else 0."""
    classes = graph.degree_classes
    return next(iter(classes)) if len(classes) == 1 else 0


def _port_sums(arr: np.ndarray, starts: Sequence[np.ndarray],
               degree: int) -> np.ndarray:
    """The sums of ``arr`` over each run of one vertex's ports, axis by
    axis, ``starts[i]`` the first slots of axis i's runs and ``degree``
    the one length of them all, or 0 if they differ.

    A vertex's port masses ``a0 .. a(d-1)`` are summed as
    ``np.add.reduceat`` sums them: ``a0 + ((a1 + a2) + ... + a(d-1))``,
    the first entry plus numpy's pairwise sum of the rest, which is a
    plain loop below 8 terms. So when every run has one length d in 2..8
    the sum is d - 1 strided adds in that order, with the same bits.
    Otherwise ``reduceat`` runs: the runs differ in length, or past 8
    terms the pairwise sum keeps 8 accumulators, whose order the strided
    adds would not match."""
    for axis, axis_starts in enumerate(starts):
        if not 1 < degree <= 8:
            arr = np.add.reduceat(arr, axis_starts, axis=axis)
            continue
        runs = arr.reshape(arr.shape[:axis] + (-1, degree)
                           + arr.shape[axis + 1:])
        ports = [runs[(slice(None),) * (axis + 1) + (c,)]
                 for c in range(degree)]
        rest = ports[1].copy()
        for port in ports[2:]:
            rest += port
        arr = np.add(ports[0], rest, out=rest)
    return arr


def vertex_masses(graph: PortGraph | ProductGraph,
                  masses: np.ndarray) -> np.ndarray:
    """Probability of each vertex (tuple) of ``graph``, from the masses
    of its basis states: the sum over each vertex's ports, walker by
    walker, in the order of :func:`_port_sums`. For K walkers the result
    is indexed by the mixed-radix tuple index."""
    space = ProductGraph.of(graph)
    base = space.base
    return _port_sums(np.asarray(masses).reshape(space.basis_shape),
                      [base.port_offsets[:-1]] * space.num_walkers,
                      _degree(base)).reshape(-1)


def vertex_distribution(psi: WaveFunction) -> np.ndarray:
    """Probability of finding the walker(s) at each vertex (tuple):
    :func:`vertex_masses` of ``|psi|^2``."""
    return vertex_masses(psi.graph, _masses(psi.amplitudes))
