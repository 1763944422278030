"""Walker states and the coin / shift / interaction operators.

Every state lives on a :class:`~qrwalk.graphs.ProductGraph` of K >= 1
walkers, one walker being the product of one. One evolution step applies,
in order, the optional interaction (K > 1 walkers only), the
block-diagonal coin of each walker, and the shift permutation. All
operators are unitary, so a step maps a normalised state to a normalised
state; nothing here renormalises, which keeps genuine defects visible.

Each operator has one kernel, which writes from one state buffer into
another: the interaction in place, the coin and the shift one walker at a
time. :func:`evolve`, the one walk loop, runs them in two preallocated
buffers and yields, at each t, the masses ``|psi(t)|^2`` and the vertex
distribution rho(t) they sum to; no other loop of the package makes
rho(t). :func:`step` and the ``apply_*`` functions run the same kernels
on a copy of a :class:`WaveFunction` and return a new one.

Operators may vary with time: wherever a spec is accepted, a callable
``t -> spec`` is accepted too and resolved at each step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping, Sequence, Union

import numpy as np

from . import coins
from .errors import ResourceLimitError, UnitarityError, ValidationError
from .graphs import PortGraph, ProductGraph

__all__ = [
    "WaveFunction",
    "CoinSpec",
    "ShiftSpec",
    "InteractionSpec",
    "apply_coin",
    "apply_shift",
    "apply_interaction",
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
        perm = graph.port_offsets[heads] + port
        if not _is_permutation(perm):
            raise ValidationError(
                "moving shift is not a permutation on this graph/port "
                "order; use the flip-flop shift or a custom port order"
            )
        return cls(graph, perm, name="moving")


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
    def coincident(self) -> np.ndarray:
        """Read-only mask over the flat joint basis of the states whose
        walkers all stand on one vertex; made once per spec."""
        owners = np.ix_(*[self.graph.base.vertex_of_basis]
                        * self.graph.num_walkers)
        shared = np.ones(self.graph.basis_shape, dtype=bool)
        for owner in owners[1:]:
            shared &= owners[0] == owner
        shared.flags.writeable = False
        return shared.reshape(-1)

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
# operator kernels
# ---------------------------------------------------------------------------
#
# A state of K walkers is a K-axis array of side D, the base basis
# dimension. Walker i's kernel sees the state as the contiguous view
# (left, D, right) of ProductGraph.walker_view(i), and writes into a
# second buffer of the same size; the walk then swaps the two. A kernel
# may overwrite its input. The interaction acts in place.

def _coin_kernel(spec: CoinSpec, x: np.ndarray, y: np.ndarray) -> None:
    """``y`` = the coin on the middle axis of ``x``. On an irregular graph
    the ports are gathered into degree-class order
    (:attr:`~qrwalk.graphs.PortGraph.class_order`), each class is
    multiplied as one run into ``x``, and the result is scattered back."""
    if len(spec.stacks) > 1:
        order, inverse = spec.graph.class_order
        np.take(x, order, axis=1, out=y, mode="clip")
        _class_products(spec, y, x)
        np.take(x, inverse, axis=1, out=y, mode="clip")
    else:
        _class_products(spec, x, y)


def _class_products(spec: CoinSpec, x: np.ndarray, y: np.ndarray) -> None:
    """Multiply the port blocks of each degree class, whose ports are
    consecutive runs of ``x``'s middle axis in ascending degree, into
    ``y``.

    Each operand shape rounds, for the named coins, exactly as the coin
    did when every walker's axis was first moved to the front. Walker 0
    (one walker too: a row product rounds differently there) takes a
    batched ``(d x d) @ (d x right)`` product per vertex, as do the
    middle walkers. The last of several walkers takes a row product,
    ``rows @ block.T``: one matrix product when one block serves the whole
    axis, else one per vertex (a vertex alone in its class would make a
    vector-matrix product, which rounds differently too)."""
    left, dim, right = x.shape
    start = 0
    for d, stack in spec.stacks.items():
        n = stack.shape[0]
        src, dst = (a[:, start:start + n * d] for a in (x, y))
        start += n * d
        if right > 1 or left == 1:
            shape = (n, d, right) if left == 1 else (left, n, d, right)
            np.matmul(stack, src.reshape(shape), out=dst.reshape(shape))
        elif n * d == dim and stack.strides[0] == 0:
            np.matmul(x.reshape(-1, d), stack[0].T, out=y.reshape(-1, d))
        else:
            np.matmul(src.reshape(left, n, d).transpose(1, 0, 2),
                      stack.transpose(0, 2, 1),
                      out=dst.reshape(left, n, d).transpose(1, 0, 2))


def _shift_kernel(spec: ShiftSpec, x: np.ndarray, y: np.ndarray) -> None:
    """``y`` = the shift permutation on the middle axis of ``x``. The
    indices are in range by construction; ``mode="clip"`` spares the
    copy ``np.take`` buffers its output into under ``mode="raise"``."""
    np.take(x, spec.inverse, axis=1, out=y, mode="clip")


def _interaction_kernel(spec: InteractionSpec, x: np.ndarray) -> None:
    """Apply the per-tuple interaction blocks to ``x`` in place."""
    if spec.kind == "coincidence-phase":
        np.multiply(x, np.exp(1j * spec.phase), out=x, where=spec.coincident)
        return
    arr = x.reshape(spec.graph.basis_shape)
    offs = spec.graph.base.port_offsets
    for u, block in spec.blocks.items():
        slices = tuple(slice(int(offs[ui]), int(offs[ui + 1])) for ui in u)
        sub = arr[slices]
        arr[slices] = (block @ sub.reshape(-1)).reshape(sub.shape)


def _per_axis(kernel, space: ProductGraph, specs: list, x: np.ndarray,
              y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run ``kernel`` for each walker's spec in turn, from ``x`` into
    ``y`` and back; returns (the buffer holding the result, the other)."""
    for i, spec in enumerate(specs):
        shape = space.walker_view(i)
        kernel(spec, x.reshape(shape), y.reshape(shape))
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


def _step(space: ProductGraph, x: np.ndarray, y: np.ndarray,
          coin: CoinLike, shift: ShiftLike,
          interaction: InteractionLike | None, t: int
          ) -> tuple[np.ndarray, np.ndarray]:
    """Step t on the amplitudes in ``x``, with ``y`` as the spare buffer;
    returns (the buffer holding psi(t + 1), the other)."""
    inter = _interaction_at(interaction, space, t)
    coins = _per_walker(coin, space, t, "coin")
    shifts = _per_walker(shift, space, t, "shift")
    if inter is not None:
        _interaction_kernel(inter, x)
    x, y = _per_axis(_coin_kernel, space, coins, x, y)
    return _per_axis(_shift_kernel, space, shifts, x, y)


def _workspace(psi: WaveFunction, masses: bool = False
               ) -> tuple[np.ndarray, np.ndarray]:
    """A writable copy of ``psi``'s amplitudes and a spare buffer of the
    same size. With ``masses``, the memory budget check also covers two
    float arrays of ``|psi|^2``: the one the walk is making and the one
    its caller may still hold."""
    dim = psi.graph.basis_dim
    check_budget((48 if masses else 32) * dim,
                 f"two state buffers{' and two mass arrays' if masses else ''}"
                 f" of dimension {dim}")
    return psi.amplitudes.copy(), np.empty_like(psi.amplitudes)


def _masses(amps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``|amps|^2``, the bits of ``np.abs(amps) ** 2``, in ``out`` (a float
    array of the shape of ``amps``) or in one new array."""
    p = np.abs(amps, out=out)
    return np.square(p, out=p)


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def apply_coin(psi: WaveFunction, coin: CoinLike, t: int = 0) -> WaveFunction:
    """Mix amplitudes among each vertex's ports with the coin blocks."""
    specs = _per_walker(coin, psi.graph, t, "coin")
    amps, _ = _per_axis(_coin_kernel, psi.graph, specs, *_workspace(psi))
    return WaveFunction(psi.graph, amps)


def apply_shift(psi: WaveFunction, shift: ShiftLike, t: int = 0) -> WaveFunction:
    """Transport amplitudes along arcs by the shift permutation."""
    specs = _per_walker(shift, psi.graph, t, "shift")
    amps, _ = _per_axis(_shift_kernel, psi.graph, specs, *_workspace(psi))
    return WaveFunction(psi.graph, amps)


def apply_interaction(psi: WaveFunction, interaction: InteractionLike | None,
                      t: int = 0) -> WaveFunction:
    """Apply the per-tuple interaction blocks (walkers do not move).

    ``None`` and the identity leave ``psi`` as it is; any other
    interaction needs a state of at least two walkers."""
    spec = _interaction_at(interaction, psi.graph, t)
    if spec is None:
        return psi
    amps, _ = _workspace(psi)
    _interaction_kernel(spec, amps)
    return WaveFunction(psi.graph, amps)


def step(
    psi: WaveFunction,
    coin: CoinLike,
    shift: ShiftLike,
    interaction: InteractionLike | None = None,
    t: int = 0,
) -> WaveFunction:
    """One evolution step, shift(coin(interaction(psi))), on the kernels
    :func:`evolve` runs; the new state is checked like any other."""
    amps, _ = _step(psi.graph, *_workspace(psi), coin, shift, interaction, t)
    return WaveFunction(psi.graph, amps)


def evolve(psi0: WaveFunction, coin: CoinLike, shift: ShiftLike,
           horizon: int, interaction: InteractionLike | None = None
           ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(masses, rho)`` for t = 0, 1, ..., ``horizon``: the
    basis-state masses ``|psi(t)|^2`` and rho(t), their
    :func:`vertex_masses`, each a new float array.

    The walk runs in place in two state buffers, each step's operators
    writing from one into the other; the buffers and the masses are
    checked against the memory budget before anything is allocated. Every
    psi(t + 1) is checked to be normalised within :data:`NORM_ATOL`, as a
    :class:`WaveFunction` is, before its masses are yielded, and
    :func:`step` gives the same bits."""
    if horizon < 0:
        raise ValidationError("horizon must be >= 0")
    space = psi0.graph
    x, y = _workspace(psi0, masses=True)
    for t in range(horizon + 1):
        if t:
            x, y = _step(space, x, y, coin, shift, interaction, t - 1)
        # the masses are made and summed in the spare buffer, then copied
        # out: the port sums' temporaries never sit beside both the masses
        # the caller still holds and the new ones
        p = _masses(x, y.view(np.float64)[:x.size])
        if t:
            _check_norm(float(p.sum()))
        rho = vertex_masses(space, p)
        yield p.copy(), rho


def vertex_masses(graph: PortGraph | ProductGraph,
                  masses: np.ndarray) -> np.ndarray:
    """Probability of each vertex (tuple) of ``graph``, from the masses
    of its basis states: the sum over each vertex's ports, walker by
    walker. For K walkers the result is indexed by the mixed-radix tuple
    index.

    A vertex's port masses ``a0 .. a(d-1)`` are summed as
    ``np.add.reduceat`` sums them: ``a0 + ((a1 + a2) + ... + a(d-1))``,
    the first entry plus numpy's pairwise sum of the rest, which is a
    plain loop below 8 terms. So on a graph whose vertices all have one
    degree d in 2..8 the sum is d - 1 strided adds in that order, with the
    same bits. Otherwise ``reduceat`` runs: on an irregular graph the
    port runs differ in length, and past 8 terms the pairwise sum keeps 8
    accumulators, whose order the strided adds would not match.
    """
    space = ProductGraph.of(graph)
    classes = space.base.degree_classes
    degree = next(iter(classes)) if len(classes) == 1 else 0
    starts = space.base.port_offsets[:-1]
    arr = np.asarray(masses).reshape(space.basis_shape)
    for axis in range(space.num_walkers):
        if not 1 < degree <= 8:
            arr = np.add.reduceat(arr, starts, axis=axis)
            continue
        runs = arr.reshape(arr.shape[:axis] + (-1, degree)
                           + arr.shape[axis + 1:])
        ports = [runs[(slice(None),) * (axis + 1) + (c,)]
                 for c in range(degree)]
        rest = ports[1].copy()
        for port in ports[2:]:
            rest += port
        arr = np.add(ports[0], rest, out=rest)
    return arr.reshape(-1)


def vertex_distribution(psi: WaveFunction) -> np.ndarray:
    """Probability of finding the walker(s) at each vertex (tuple):
    :func:`vertex_masses` of ``|psi|^2``."""
    return vertex_masses(psi.graph, _masses(psi.amplitudes))
