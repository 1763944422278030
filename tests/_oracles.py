"""Independent dense oracles for cross-checking the engine.

Everything here is built directly from the defining relations (explicit
dense matrices, brute-force enumeration, multinomial draws) and never
calls the engine's operator-application code paths.
"""

from __future__ import annotations

import itertools

import numpy as np


def _offsets(graph) -> np.ndarray:
    degs = [len(nbrs) for nbrs in graph.out_neighbors]
    return np.concatenate([[0], np.cumsum(degs)])


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


def kron_power(mat: np.ndarray, k: int) -> np.ndarray:
    out = mat
    for _ in range(k - 1):
        out = np.kron(out, mat)
    return out


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
                      p_next: np.ndarray, wanted, zero_threshold: float,
                      validate: bool = True) -> dict:
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
            if validate:
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
