"""Independent dense oracles for cross-checking the engine.

Everything here is built directly from the defining relations (explicit
dense matrices, brute-force enumeration, multinomial draws) and never
calls the engine's operator-application code paths. ``reference_step``
copies the state per operator and multiplies each coin with the operand
shapes the engine documents, so it is the bit-for-bit reference of the
in-place walk for every coin: the whole-space step that the walk's one
driver, which runs on the light cone, is held to. ``apply_coin``,
``apply_shift`` and ``apply_interaction`` are no oracles: they run one
of the engine's kernels alone on the whole-space box, for the tests that
check one operator at a time.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from qrwalk import walk
from qrwalk.equivalence import (
    ZERO_PROB,
    PropertyReport,
    _arc_bytes,
    _column_sums,
)
from qrwalk.errors import GraphError, ValidationError
from qrwalk.persist import Table


def _offsets(graph) -> np.ndarray:
    degs = [len(nbrs) for nbrs in graph.out_neighbors]
    return np.concatenate([[0], np.cumsum(degs)])


def reference_shift_error(graph, perm) -> str | None:
    """The error a shift permutation must raise, found one arc at a time
    in basis order: the first ``(v, c)`` sent to a port of a vertex other
    than ``eta(v, c)``. ``None`` when every arc lands on its head."""
    offs = _offsets(graph).tolist()
    for v, nbrs in enumerate(graph.out_neighbors):
        for c, head in enumerate(nbrs):
            target = perm[offs[v] + c]
            landed = max(w for w in range(len(offs) - 1)
                         if offs[w] <= target)
            if landed != head:
                return (f"shift sends ({v}, {c}) to vertex {landed}, but "
                        f"eta({v}, {c}) = {head}")
    return None


def reference_port_graph(out_neighbors) -> None:
    """Validate per-vertex neighbour lists one arc at a time, the way the
    engine first did it; raises :class:`GraphError` at the first fault.

    Vertices are visited in order and each arc is checked for its range,
    a self-loop and a repeat; symmetry is checked last, in basis order.
    """
    n = len(out_neighbors)
    if n <= 0:
        raise GraphError("graph needs at least one vertex")
    arcs = set()
    for v, nbrs in enumerate(out_neighbors):
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
    for v, nbrs in enumerate(out_neighbors):
        for u in nbrs:
            if (u, v) not in arcs:
                raise GraphError(
                    f"edge ({v}, {u}) present without its reverse; the "
                    "directed graph must be symmetric"
                )


def reference_build_graph(edges, ordering="sorted", num_vertices=None):
    """Per-vertex neighbour tuples from an undirected edge list, built one
    edge and one vertex at a time; raises like ``build_graph``."""
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
        out = [tuple(sorted(nbr_sets.get(v, ()))) for v in range(n)]
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
    reference_port_graph(out)
    return tuple(out)


def reference_torus_neighbors(dims) -> tuple:
    """Torus neighbour tuples, ports (+x, -x, +y, -y, ...), row-major ids."""
    n = int(np.prod(dims))
    strides = [int(np.prod(dims[ax + 1:])) for ax in range(len(dims))]
    out = []
    for v in range(n):
        coords = [(v // strides[ax]) % dims[ax] for ax in range(len(dims))]
        nbrs = []
        for ax in range(len(dims)):
            for step in (1, -1):
                c = coords.copy()
                c[ax] = (c[ax] + step) % dims[ax]
                nbrs.append(int(np.dot(c, strides)))
        out.append(tuple(nbrs))
    return tuple(out)


def reference_flip_flop(out_neighbors) -> list[int]:
    """(v, c) -> (eta(v, c), position of v in eta(v, c)'s list)."""
    offs = np.concatenate([[0], np.cumsum(list(map(len, out_neighbors)))])
    return [int(offs[u]) + list(out_neighbors[u]).index(v)
            for v, nbrs in enumerate(out_neighbors) for u in nbrs]


def reference_moving(out_neighbors) -> list[int]:
    """(v, c) -> (eta(v, c), c); raises ``ValidationError`` like
    ``ShiftSpec.moving`` when that is not a permutation."""
    offs = np.concatenate([[0], np.cumsum(list(map(len, out_neighbors)))])
    perm = []
    for v, nbrs in enumerate(out_neighbors):
        for c, u in enumerate(nbrs):
            if c >= len(out_neighbors[u]):
                raise ValidationError(
                    f"moving shift undefined: port {c} does not exist "
                    f"at vertex {u} (degree {len(out_neighbors[u])})"
                )
            perm.append(int(offs[u]) + c)
    if len(set(perm)) != len(perm):
        raise ValidationError(
            "moving shift is not a permutation on this graph/port "
            "order; use the flip-flop shift or a custom port order"
        )
    return perm


def reference_from_components(graph, components) -> np.ndarray:
    """The amplitudes of ``WaveFunction.from_components`` as its dense
    constructor made them: each ``(vertex, port, amplitude)`` entry added
    in order into a zero vector over the joint basis, which is divided by
    its ``np.linalg.norm``, a BLAS dot whose terms are grouped by basis
    position. Raises :class:`ValidationError` on a zero norm."""
    space = walk.ProductGraph.of(graph)
    amps = np.zeros(space.basis_dim, dtype=np.complex128)
    for vertex, port, amp in components:
        vs = [vertex] if np.isscalar(vertex) else list(vertex)
        ps = [port] if np.isscalar(port) else list(port)
        amps[space.basis_index(vs, ps)] += complex(amp)
    norm = float(np.linalg.norm(amps))
    if norm == 0.0:
        raise ValidationError("initial state has zero norm")
    amps /= norm
    return amps


def reference_graph_hash(out_neighbors) -> str:
    payload = json.dumps(
        {"n": len(out_neighbors), "out": [list(x) for x in out_neighbors]},
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def reference_state_labels(indices, num_walkers: int,
                           num_base: int) -> list[str]:
    """Labels of joint indices spelled one ``str`` per vertex, as
    ``ProductGraph.label_texts`` spells them in numpy: ``u`` for one
    walker, ``u1|u2|...`` for vertex tuples."""
    digits = np.unravel_index(np.asarray(indices, dtype=np.int64),
                              (num_base,) * num_walkers)
    return list(map("|".join, zip(*(map(str, d.tolist()) for d in digits))))


def dense_coin(graph, blocks) -> np.ndarray:
    """W[(v,j), (v,k)] = w_vjk placed block-diagonally."""
    offs = _offsets(graph)
    dim = int(offs[-1])
    w = np.zeros((dim, dim), dtype=np.complex128)
    for v in range(graph.num_vertices):
        lo, hi = int(offs[v]), int(offs[v + 1])
        w[lo:hi, lo:hi] = blocks[v]
    return w


def dense_flip_flop_shift(graph) -> np.ndarray:
    """S |v,c> = |eta(v,c), sigma(v, eta(v,c))> with sigma the position of
    the inward neighbour in the target's ordered list."""
    offs = _offsets(graph)
    dim = int(offs[-1])
    s = np.zeros((dim, dim), dtype=np.complex128)
    for v, nbrs in enumerate(graph.out_neighbors):
        for c, u in enumerate(nbrs):
            back = list(graph.out_neighbors[u]).index(v)
            s[int(offs[u]) + back, int(offs[v]) + c] = 1.0
    return s


def dense_moving_shift(graph) -> np.ndarray:
    """S |v,c> = |eta(v,c), c>."""
    offs = _offsets(graph)
    dim = int(offs[-1])
    s = np.zeros((dim, dim), dtype=np.complex128)
    for v, nbrs in enumerate(graph.out_neighbors):
        for c, u in enumerate(nbrs):
            s[int(offs[u]) + c, int(offs[v]) + c] = 1.0
    return s


def dense_coincidence_phase(graph, num_walkers: int, phi: float) -> np.ndarray:
    """Diagonal phase on joint basis states whose walkers share a vertex."""
    offs = _offsets(graph)
    dim = int(offs[-1])
    vertex_of = np.repeat(np.arange(graph.num_vertices),
                          np.diff(offs).astype(int))
    diag = np.ones(dim ** num_walkers, dtype=np.complex128)
    for joint in range(dim ** num_walkers):
        rest, parts = joint, []
        for _ in range(num_walkers):
            parts.append(rest % dim)
            rest //= dim
        vs = {int(vertex_of[i]) for i in parts}
        if len(vs) == 1:
            diag[joint] = np.exp(1j * phi)
    return np.diag(diag)


def reference_interaction(psi, spec) -> np.ndarray:
    """Amplitudes after the coincidence phase ``spec``, applied to one
    vertex's block of ports per walker at a time, vertex by vertex."""
    k, dim = psi.num_walkers, psi.base.basis_dim
    arr = psi.amplitudes.reshape((dim,) * k).copy()
    offs = psi.base.port_offsets
    factor = np.exp(1j * spec.phase)
    for v in range(psi.base.num_vertices):
        sl = slice(int(offs[v]), int(offs[v + 1]))
        arr[(sl,) * k] *= factor
    return arr.reshape(-1)


def dense_permutation(perm) -> np.ndarray:
    """The permutation matrix sending basis state ``i`` to ``perm[i]``."""
    perm = np.asarray(perm)
    s = np.zeros((perm.size, perm.size), dtype=np.complex128)
    s[perm, np.arange(perm.size)] = 1.0
    return s


def dense_interaction_blocks(graph, num_walkers: int, blocks) -> np.ndarray:
    """Identity on the joint basis, with each vertex tuple's block placed
    on the joint ports of that tuple (walker 0 most significant)."""
    offs = _offsets(graph)
    dim = int(offs[-1])
    u = np.eye(dim ** num_walkers, dtype=np.complex128)
    for key, block in blocks.items():
        idx = [int(np.ravel_multi_index(ports, (dim,) * num_walkers))
               for ports in itertools.product(
                   *(range(int(offs[v]), int(offs[v + 1])) for v in key))]
        u[np.ix_(idx, idx)] = block
    return u


def _resolved(spec, t: int, num_walkers: int) -> list:
    """One spec per walker at step t: a schedule ``t -> spec`` resolved,
    a list taken as per-walker, anything else shared."""
    specs = list(spec) if isinstance(spec, (list, tuple)) \
        else [spec] * num_walkers
    return [s(t) if callable(s) else s for s in specs]


def reference_coin_block_multiply(spec, amps: np.ndarray) -> np.ndarray:
    """The coin on the rows of ``amps`` (dim x m, or dim), one batched
    ``matmul`` per degree class on a reshaped view (one class) or on
    gathered port blocks scattered back. It is the coin code the engine
    ran before its walk ran in place, kept as a bit-for-bit reference."""
    rows = amps.reshape(amps.shape[0], -1)
    if len(spec.stacks) == 1:
        (d, stack), = spec.stacks.items()
        return (stack @ rows.reshape(-1, d, rows.shape[1])).reshape(amps.shape)
    out = np.empty_like(rows)
    for d, verts in spec.graph.degree_classes.items():
        ports = spec.graph.port_offsets[verts, None] + np.arange(d)
        out[ports] = spec.stacks[d] @ rows[ports]
    return out.reshape(amps.shape)


def reference_coin(spec, arr: np.ndarray, axis: int) -> np.ndarray:
    """The coin ``spec`` on walker ``axis`` of the joint amplitudes
    ``arr`` (one axis per walker, each in degree-class order: ascending
    degree, then vertex, then port), with the operand shapes of the
    walk's products. Each class's ports are one run of the walker's axis,
    between the ``left`` states of the walkers before it and the
    ``right`` states of those after it; the columns of a product are
    those states in that order, and they round by their place in it:

    - walker 0, one walker, and the middle walkers take a batched ``(d x
      d) @ (d x right)`` product per vertex (and per left state);
    - the last of several walkers takes a row product, ``rows @
      block.T``: one ``(left * |V|, d) @ (d, d)`` product when one block
      serves every vertex (a named coin's zero-stride stack on a regular
      graph), else one ``(left, d) @ (d, d)`` product per vertex.
    """
    left = int(np.prod(arr.shape[:axis], dtype=np.int64))
    right = int(np.prod(arr.shape[axis + 1:], dtype=np.int64))
    flat = arr.reshape(left, arr.shape[axis], right)
    out = np.empty_like(flat)
    start = 0
    for d, stack in sorted(spec.stacks.items()):
        n = stack.shape[0]
        run = slice(start, start + n * d)
        start += n * d
        if right > 1 or left == 1:
            rows = flat[:, run].reshape(left, n, d, right)
            out[:, run] = (stack @ rows).reshape(left, n * d, right)
        elif len(spec.stacks) == 1 and stack.strides[0] == 0:
            out[:] = (flat.reshape(-1, d) @ stack[0].T).reshape(flat.shape)
        else:
            rows = flat[:, run, 0].reshape(left, n, d).transpose(1, 0, 2)
            out[:, run, 0] = (rows @ stack.transpose(0, 2, 1)) \
                .transpose(1, 0, 2).reshape(left, n * d)
    return out.reshape(arr.shape)


def class_order(graph) -> np.ndarray:
    """The basis indices of ``graph`` by degree class: ascending degree,
    then vertex, then port."""
    return np.concatenate([
        (graph.port_offsets[verts, None] + np.arange(d)).ravel()
        for d, verts in graph.degree_classes.items()])


def reference_step(psi, coin, shift, interaction=None, t: int = 0
                   ) -> np.ndarray:
    """Amplitudes of one step, shift(coin(interaction(psi))), by operator
    code independent of the engine's: a copy of the state per operator,
    each walker's coin by :func:`reference_coin` on the state laid out in
    degree-class order (:func:`class_order`) on every axis, whose operand
    shapes are those the engine documents for its products, and one
    outer-indexed gather for the shifts. It holds the engine's bits for
    every coin, of any number of walkers."""
    k, dim = psi.num_walkers, psi.base.basis_dim
    shape = (dim,) * k
    arr = psi.amplitudes.reshape(shape).copy()
    spec = interaction(t) if callable(interaction) else interaction
    if spec is not None and spec.kind == "coincidence-phase":
        owners = np.ix_(*[psi.base.vertex_of_basis] * k)
        shared = np.ones(arr.shape, dtype=bool)
        for owner in owners[1:]:
            shared &= owners[0] == owner
        np.multiply(arr, np.exp(1j * spec.phase), out=arr, where=shared)
    elif spec is not None and spec.kind == "explicit":
        offs = psi.base.port_offsets
        for u, block in spec.blocks.items():
            slices = tuple(slice(int(offs[ui]), int(offs[ui + 1]))
                           for ui in u)
            sub = arr[slices]
            arr[slices] = (block @ sub.reshape(-1)).reshape(sub.shape)
    order = class_order(psi.base)
    arr = arr[np.ix_(*[order] * k)]
    for axis, c in enumerate(_resolved(coin, t, k)):
        arr = reference_coin(c, arr, axis)
    arr = arr[np.ix_(*[np.argsort(order)] * k)]
    arr = arr[np.ix_(*(np.argsort(s.permutation)
                       for s in _resolved(shift, t, k)))]
    return np.ascontiguousarray(arr).reshape(-1)


def dense_step(psi, coin, shift, interaction=None, t: int = 0
               ) -> np.ndarray:
    """Amplitudes of U(t) psi for the dense U(t) = S(t) C(t) I(t) on the
    joint basis: S and C are Kronecker products of each walker's dense
    shift permutation and dense coin, I the dense interaction."""
    g, k = psi.base, psi.num_walkers
    c = kron_factors([dense_coin(g, s.blocks)
                      for s in _resolved(coin, t, k)])
    s = kron_factors([dense_permutation(s.permutation)
                      for s in _resolved(shift, t, k)])
    amps = psi.amplitudes
    spec = interaction(t) if callable(interaction) else interaction
    if spec is not None and spec.kind == "coincidence-phase":
        amps = dense_coincidence_phase(g, k, spec.phase) @ amps
    elif spec is not None and spec.kind == "explicit":
        amps = dense_interaction_blocks(g, k, spec.blocks) @ amps
    return s @ (c @ amps)


def kron_factors(mats) -> np.ndarray:
    """``mats[0] (x) mats[1] (x) ...``, walker 0 most significant."""
    out = mats[0]
    for mat in mats[1:]:
        out = np.kron(out, mat)
    return out


def kron_power(mat: np.ndarray, k: int) -> np.ndarray:
    return kron_factors([mat] * k)


def brute_rejection_marginals(rho_seq: np.ndarray, graph):
    """Enumerate every vertex sequence, keep paths, weight by the product
    of per-instant probabilities."""
    length, num_vertices = rho_seq.shape
    nbrs = [set(n) for n in graph.out_neighbors]
    total = 0.0
    marg = np.zeros((length, num_vertices))
    for tau in itertools.product(range(num_vertices), repeat=length):
        p = 1.0
        for t, v in enumerate(tau):
            p *= rho_seq[t, v]
        if p == 0.0:
            continue
        if all(tau[i + 1] in nbrs[tau[i]] for i in range(length - 1)):
            total += p
            for t, v in enumerate(tau):
                marg[t, v] += p
    if total <= 0.0:
        return None, 0.0
    return marg / total, total


def multinomial_tvd(rho: np.ndarray, size: int,
                    rng: np.random.Generator, reps: int = 5) -> float:
    """Mean TVD between iid multinomial samples of ``size`` draws and the
    distribution they were drawn from."""
    vals = []
    for _ in range(reps):
        counts = rng.multinomial(size, rho / rho.sum())
        vals.append(0.5 * np.abs(counts / size - rho).sum())
    return float(np.mean(vals))


def _mixed_radix(indices, radix: int) -> np.ndarray:
    acc = np.zeros((), dtype=np.int64)
    for ix in indices:
        acc = acc[..., None] * radix + ix
    return acc


def reference_columns(graph, num_walkers: int, perms, rho_t: np.ndarray,
                      p_next: np.ndarray, wanted, zero_threshold: float
                      ) -> dict:
    """P(t) built one source column at a time, the way the engine first
    did it: ``{u: (targets, probs)}`` with exact zeros kept.

    Each arc leaving the source tuple is pushed through the per-walker
    shift permutations; ``np.unique`` sorts the target vertex tuples and
    ``np.bincount`` adds up arcs meeting at one tuple. Ratio columns are
    rescaled by their sum; zero-mass columns are uniform over the product
    out-neighbours.
    """
    offs = _offsets(graph)
    n = graph.num_vertices
    dim = int(offs[-1])
    vertex_of = np.repeat(np.arange(n), np.diff(offs).astype(int))
    columns = {}
    for idx in wanted:
        idx = int(idx)
        rest, u_tuple = idx, []
        for _ in range(num_walkers):
            u_tuple.append(rest % n)
            rest //= n
        u_tuple = u_tuple[::-1]
        if rho_t[idx] > zero_threshold:
            taus = [perms[i][int(offs[ui]):int(offs[ui + 1])]
                    for i, ui in enumerate(u_tuple)]
            joint_targets = _mixed_radix(taus, dim).reshape(-1)
            joint_vertices = _mixed_radix([vertex_of[tau] for tau in taus],
                                          n).reshape(-1)
            probs = p_next[joint_targets] / float(rho_t[idx])
            targets, inverse = np.unique(joint_vertices, return_inverse=True)
            probs = np.bincount(inverse, weights=probs, minlength=targets.size)
            colsum = float(probs.sum())
            if abs(colsum - 1.0) > 1e-8:
                raise ValueError(f"column {idx} sums to {colsum!r}")
            probs = np.minimum(probs / colsum, 1.0)
        else:
            targets = []
            for w in itertools.product(
                    *(graph.out_neighbors[ui] for ui in u_tuple)):
                joint = 0
                for wi in w:
                    joint = joint * n + wi
                targets.append(joint)
            targets = np.array(sorted(targets), dtype=np.int64)
            probs = np.full(targets.size, 1.0 / targets.size)
        columns[idx] = (targets, probs)
    return columns


def toarray(mat) -> np.ndarray:
    """The dense (num_states x num_states) array of the P(t) ``mat``, its
    uniform columns made by ``find``. Its ``8 * num_states**2`` bytes, with
    the arc arrays of the uniform columns (at most one per basis state),
    are checked against the memory budget first."""
    n = mat.num_states
    walk.check_budget(8 * n * n + _arc_bytes(mat.graph.num_walkers)
                      * mat.graph.basis_dim,
                      f"a dense P({mat.time}) over {n} states")
    full, _ = mat.find(np.arange(n))
    a = np.zeros((n, n))
    sources = np.repeat(full.col_ids, np.diff(full.indptr))
    a[full.indices, sources] = full.data
    return a


def graph_to_json(g) -> dict:
    """The JSON document of a port graph that ``graph_from_json`` reads
    back: its edges, its explicit port order, and its torus shape if it
    has one."""
    tails, heads = np.divmod(g._arc_keys, g.num_vertices)
    doc: dict = {
        "n": g.num_vertices,
        "edges": np.stack([tails, heads], axis=1)[tails < heads].tolist(),
        "ordering": [list(nbrs) for nbrs in g.out_neighbors],
    }
    if g.torus_dims is not None:
        doc["torus_dims"] = list(g.torus_dims)
    return doc


def _whole_box(psi):
    """The box of the whole space of ``psi``, and two state buffers, the
    first holding ``psi`` laid out on the box (``_Box.gather``)."""
    box = walk._Box(psi.graph, None)
    x, y = np.empty_like(psi.amplitudes), np.empty_like(psi.amplitudes)
    return (box, *box.gather(psi.amplitudes, x, y))


def _state(psi, box, x, y):
    """The box in ``x`` put back in basis order, into ``y``."""
    return walk.WaveFunction(psi.graph, walk._in_basis(
        psi.graph, box.axes, x[:box.size], y))


def apply_coin(psi, coin, t: int = 0):
    """``psi`` with each vertex's ports mixed by the coin blocks: the
    walk's coin kernel alone, on the whole-space box."""
    specs = walk._per_walker(coin, psi.graph, t, "coin")
    box, x, y = _whole_box(psi)
    return _state(psi, box, *walk._coins(box, specs, x, y))


def apply_shift(psi, shift, t: int = 0):
    """``psi`` moved along the arcs by the shift permutation: the walk's
    shift kernel alone, on the whole-space box."""
    specs = walk._per_walker(shift, psi.graph, t, "shift")
    box, x, y = _whole_box(psi)
    return _state(psi, box, *walk._shifts(box, specs, x, y))


def apply_interaction(psi, interaction, t: int = 0):
    """``psi`` with the per-tuple interaction blocks applied (walkers do
    not move): the walk's interaction kernel alone, on the whole-space
    box. ``None`` and the identity leave ``psi`` as it is; any other
    interaction needs a state of at least two walkers."""
    spec = walk._interaction_at(interaction, psi.graph, t)
    if spec is None:
        return psi
    box, x, y = _whole_box(psi)
    walk._interaction_kernel(spec, box, x[:box.size])
    return _state(psi, box, x, y)


def reference_properties(seq, tolerance: float = 1e-10):
    """The report of ``verify_theorem_properties`` measured one P(t) at a
    time, the way it first did it: per step, the entries' distance from
    [0, 1], each stored column's sum, and ``P(t) rho(t) - rho(t + 1)`` by
    ``reference_apply`` over the stored columns with the uniform column of
    each source with mass and no stored column merged in
    (``reference_with_uniform``): no engine code makes a uniform column or
    sums ``P(t) rho(t)``."""
    report = PropertyReport(num_steps=seq.num_steps, tolerance=tolerance)
    for t, mat in enumerate(seq.matrices):
        report.max_entry_violation = max(
            report.max_entry_violation,
            float(np.max(np.maximum(mat.data - 1.0, -mat.data), initial=0.0)),
        )
        report.max_column_sum_deviation = max(
            report.max_column_sum_deviation,
            float(np.max(np.abs(_column_sums(mat.indptr, mat.data) - 1.0),
                         initial=0.0)),
        )
        report.columns_checked += int(mat.col_ids.size)
        live = np.flatnonzero(seq.rho[t] > ZERO_PROB)
        residual = reference_apply(reference_with_uniform(mat, live),
                                   seq.rho[t], ZERO_PROB) - seq.rho[t + 1]
        report.max_propagation_residual = max(
            report.max_propagation_residual,
            float(np.max(np.abs(residual))) if residual.size else 0.0,
        )
    return report


def reference_with_uniform(mat, states) -> SimpleNamespace:
    """The CSC arrays of ``mat`` with the uniform column of each of
    ``states`` that has no stored column merged in, all in column order,
    made one column at a time: the head tuples of
    ``ProductGraph.out_neighbors`` by ascending joint index, each with the
    value ``1.0 / d``."""
    pg = mat.graph
    columns = {int(u): (mat.indices[lo:hi].tolist(), mat.data[lo:hi].tolist())
               for u, lo, hi in zip(mat.col_ids, mat.indptr[:-1],
                                    mat.indptr[1:])}
    for u in map(int, states):
        if u not in columns:
            heads = sorted(int(np.ravel_multi_index(v, pg.shape))
                           for v in pg.out_neighbors(pg.tuple_of(u)))
            columns[u] = (heads, [1.0 / len(heads)] * len(heads))
    ids = sorted(columns)
    lengths = [len(columns[u][0]) for u in ids]
    return SimpleNamespace(
        col_ids=np.array(ids, dtype=np.int64),
        indptr=np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
        indices=np.array([v for u in ids for v in columns[u][0]],
                         dtype=np.int64),
        data=np.array([p for u in ids for p in columns[u][1]],
                      dtype=np.float64),
        num_states=pg.num_states)


def reference_csc_fault(col_ids, indptr, indices, data,
                        num_states: int) -> bool:
    """Whether the arrays of one P(t) break a CSC matrix over
    ``num_states`` states, checked one column and one entry at a time:
    a flat ``indptr`` must bound the entries, and the ids ascend, no
    column is empty, and each id and target is in range with a finite,
    non-zero value."""
    ids, ptr = list(col_ids), list(np.ravel(indptr))
    if np.ndim(indptr) != 1 or len(ptr) != len(ids) + 1 or ptr[0] != 0 \
            or not ptr[-1] == len(indices) == len(data):
        return True
    for j, u in enumerate(ids):
        if not 0 <= u < num_states or (j and u <= ids[j - 1]) \
                or ptr[j + 1] <= ptr[j]:
            return True
        for e in range(ptr[j], ptr[j + 1]):
            if not (0 <= indices[e] < num_states and data[e] != 0.0
                    and math.isfinite(data[e])):
                return True
    return False


def reference_apply(mat, rho: np.ndarray, zero_threshold: float
                    ) -> np.ndarray:
    """``P(t) @ rho`` from the entries of the sources above
    ``zero_threshold`` only, gathered column by column: the way
    ``TransitionMatrix.apply`` first did it. Every such source must have a
    column in ``mat``."""
    live = np.flatnonzero(rho > zero_threshold)
    pos = np.searchsorted(mat.col_ids, live)
    lo, lengths = mat.indptr[pos], np.diff(mat.indptr)[pos]
    entries = np.repeat(lo - np.cumsum(lengths) + lengths, lengths) \
        + np.arange(lengths.sum())
    weights = np.repeat(rho[live], lengths) * mat.data[entries]
    return np.bincount(mat.indices[entries], weights=weights,
                       minlength=mat.num_states)


def _reference_alias_table(probs: np.ndarray):
    """Walker alias table (accept thresholds, alias indices)."""
    n = probs.size
    scaled = probs * n
    accept = np.ones(n)
    alias = np.arange(n)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s = small.pop()
        g = large.pop()
        accept[s] = scaled[s]
        alias[s] = g
        scaled[g] = scaled[g] - (1.0 - scaled[s])
        (small if scaled[g] < 1.0 else large).append(g)
    return accept, alias


def reference_paths(seq, uniforms: np.ndarray,
                    method: str = "scan") -> np.ndarray:
    """Paths drawn from the rows of ``uniforms`` one visited column at a
    time, the way the sampler first did it: per step, the trajectories in
    each column share one ``np.cumsum`` and ``searchsorted`` (or one alias
    table)."""
    size, n = uniforms.shape
    paths = np.empty((size, n), dtype=np.int64)
    support = np.flatnonzero(seq.rho[0] > 0.0)
    cum = np.cumsum(seq.rho[0][support])
    paths[:, 0] = support[np.minimum(
        np.searchsorted(cum, uniforms[:, 0], side="right"), cum.size - 1)]
    for t in range(n - 1):
        cur = paths[:, t]
        for u in np.unique(cur):
            rows = np.flatnonzero(cur == u)
            targets, probs = seq.matrices[t].column(int(u))
            x = uniforms[rows, t + 1]
            if method == "scan":
                cum = np.cumsum(probs)
                k = np.minimum(np.searchsorted(cum, x, side="right"),
                               cum.size - 1)
            else:
                accept, alias = _reference_alias_table(probs)
                y = x * accept.size
                i = np.minimum(y.astype(np.int64), accept.size - 1)
                k = np.where(y - i < accept[i], i, alias[i])
            paths[rows, t + 1] = targets[k]
    return paths


# ---------------------------------------------------------------------------
# the saved sequence: the text export written and parsed, the store
# rewritten
# ---------------------------------------------------------------------------

def reference_write_table(path_base: str | Path, table: Table) -> Path:
    """Write ``<base>.csv`` with ``csv.writer``, one row at a time: the
    CSV branch of ``write_table`` before it formatted by column.

    Each row is written with ``"\\r\\n"`` line ends, so that ``csv.writer``
    quotes a cell holding a bare ``"\\r"`` on every Python version, and the
    row's final ``"\\r\\n"`` then becomes ``"\\n"``."""
    path = Path(path_base).with_suffix(".csv")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    with path.open("w", newline="") as fh:
        for key in sorted(table.meta):
            fh.write(f"# {key}={table.meta[key]}\n")
        for row in itertools.chain([table.header], zip(*(
                c.tolist() if isinstance(c, np.ndarray) else c
                for c in table.columns))):
            buf.seek(0)
            buf.truncate()
            writer.writerow(row)
            fh.write(buf.getvalue()[:-2] + "\n")
    return path


def reference_ensemble_mean(paths: np.ndarray, dims) -> list[list]:
    """Rows ``[t, mean_axis0, ...]``: the coordinate table of the torus
    indexed by each instant's vertices and averaged, one instant at a
    time, as ``ensemble_mean_table`` did before it took one mean."""
    coords = np.stack(np.unravel_index(np.arange(int(np.prod(dims))), dims),
                      axis=1).astype(np.float64)
    return [[t] + [float(x) for x in coords[paths[:, t]].mean(axis=0)]
            for t in range(paths.shape[1])]


def read_table(path_base: str | Path) -> Table:
    """Read ``<base>.csv`` or ``<base>.json``, whichever exists: the
    parser of the text export, which the program itself never reads."""
    base = Path(path_base)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    if csv_path.exists():
        lines = csv_path.read_text().splitlines()
        # write_table puts its comment lines first; every later line is data
        head = next((i for i, line in enumerate(lines)
                     if not line.startswith("#")), len(lines))
        meta: dict = {}
        for line in lines[:head]:
            for token in line[1:].split():
                if "=" in token:
                    key, val = token.split("=", 1)
                    meta[key] = val
        body = list(filter(None, lines[head:]))
        if not body:
            raise ValidationError(f"{csv_path} has no header row")
        header, data = body[0].split(","), body[1:]
        width = len(header)
        if set(map(str.count, data, itertools.repeat(","))) - {width - 1}:
            raise ValidationError(
                f"{csv_path} has rows that are not {width} cells wide")
        cells = ",".join(data).split(",") if data else []
        return Table(header, [cells[j::width] for j in range(width)], meta)
    if json_path.exists():
        payload = json.loads(json_path.read_text())
        header, rows = payload["header"], payload["rows"]
        columns = [list(c) for c in zip(*rows)] if rows else [[]] * len(header)
        return Table(header, columns, payload.get("meta", {}))
    raise ValidationError(f"neither {csv_path} nor {json_path} exists")


def rewrite_store(path, **members) -> None:
    """Replace members of the ``.npz`` store at ``path``; ``None`` drops
    one."""
    with np.load(path) as store:
        arrays = dict(store)
    arrays.update(members)
    np.savez(path, **{k: v for k, v in arrays.items() if v is not None})


def _state_of(meta: dict):
    """Label ``u1|u2|...`` -> state index, for the walker and base-vertex
    counts of a table's metadata."""
    k, n = int(meta["walkers"]), int(meta["base"])

    def state(label) -> int:
        digits = [int(x) for x in str(label).split("|")]
        assert len(digits) == k
        return int(np.ravel_multi_index(digits, (n,) * k))
    return state


def table_rho(out_dir) -> np.ndarray:
    """The dense rho of the exported ``rho`` table, parsed one row and one
    label at a time. The table lists the non-zero masses only, so every
    (t, v) it does not list is filled with an exact 0.0; rho(t) has
    ``states`` entries, and the last step is the last listed one (every
    rho(t) of a walk has mass)."""
    table = read_table(Path(out_dir) / "rho")
    state, rows = _state_of(table.meta), table.rows
    rho = np.zeros((max(int(r[0]) for r in rows) + 1,
                    int(table.meta["states"])))
    for t, v, mass in rows:
        rho[int(t), state(v)] = float(mass)
    return rho


def table_sequence(out_dir) -> tuple[np.ndarray, dict]:
    """rho (:func:`table_rho`, its zeros filled in) and the stored entries
    ``{(t, u, v): p}`` of the exported ``p_matrix`` table, parsed one row
    and one label at a time."""
    p_tab = read_table(Path(out_dir) / "p_matrix")
    state = _state_of(p_tab.meta)
    entries = {(int(t), state(u), state(v)): float(p)
               for t, u, v, p in p_tab.rows}
    return table_rho(out_dir), entries


def blas_build() -> str:
    """The BLAS this numpy was built with, as its build configuration
    (``np.show_config(mode="dicts")``) names it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration")
    return f"{blas['name']} {blas['version']}" \
        + (f" ({config})" if config else "")


def pinned_on(blas: str, column_block: int) -> str:
    """The note of a failing pinned digest: the BLAS build and
    ``walk.COLUMN_BLOCK`` the digests were taken on, and this machine's.
    The coin's matrix products round as the BLAS's kernels do, so another
    build may change a digest without a fault in the program."""
    return (f"the digests were pinned on BLAS {blas} with walk.COLUMN_BLOCK "
            f"{column_block}; this machine has BLAS {blas_build()} with "
            f"walk.COLUMN_BLOCK {walk.COLUMN_BLOCK}")
