"""Coin matrices and the unitarity conditions they must satisfy.

A coin acts block-diagonally on the port space of each vertex. Any block
``W`` with entries ``w[j, k]`` is admissible when its columns are
orthonormal: every column has unit norm and distinct columns have zero
inner product. :func:`check_coin_unitary` verifies exactly these two
conditions and names the one that fails.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import UnitarityError, ValidationError

__all__ = [
    "hadamard_coin",
    "grover_coin",
    "identity_coin",
    "random_unitary_coin",
    "check_coin_unitary",
]

UNITARY_ATOL = 1e-10


def hadamard_coin(dim: int) -> np.ndarray:
    """Hadamard coin ``H_D`` for ``D = 2^k``, built as ``H_{D/2} (x) H_2``.

    All entries are ``+-D^(-1/2)``.
    """
    if dim < 2 or dim & (dim - 1) != 0:
        raise ValidationError(
            f"Hadamard coin requires a power-of-two dimension, got {dim}"
        )
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
    h = h2
    while h.shape[0] < dim:
        h = np.kron(h, h2)
    return h


def grover_coin(dim: int) -> np.ndarray:
    """Grover diffusion coin ``(2/D) J - I``: the reflection about the
    uniform port state. Diagonal entries are ``2/D - 1``, off-diagonal
    ``2/D``; defined for any ``D >= 1``.
    """
    if dim < 1:
        raise ValidationError(f"Grover coin requires dimension >= 1, got {dim}")
    return (2.0 / dim) * np.ones((dim, dim), dtype=np.complex128) - np.eye(
        dim, dtype=np.complex128
    )


def identity_coin(dim: int) -> np.ndarray:
    if dim < 1:
        raise ValidationError(f"identity coin requires dimension >= 1, got {dim}")
    return np.eye(dim, dtype=np.complex128)


def random_unitary_coin(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary block (QR of a complex Ginibre matrix with the
    R-diagonal phase fixed)."""
    if dim < 1:
        raise ValidationError(f"random coin requires dimension >= 1, got {dim}")
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    q = q * np.exp(-1j * np.angle(np.diag(r)))[None, :]
    return q.astype(np.complex128, copy=False)


def check_coin_unitary(block: np.ndarray,
                       label: str | Sequence[str] = "") -> None:
    """Raise :class:`UnitarityError` unless the block's columns are
    orthonormal within :data:`UNITARY_ATOL`, naming the violated
    condition.

    An ``(n, d, d)`` stack of blocks is checked at once; ``label[i]`` then
    names block ``i``, and the first failing block is reported.
    """
    block = np.asarray(block)
    if block.ndim not in (2, 3) or block.shape[-2] != block.shape[-1]:
        raise ValidationError(f"coin block must be square, got {block.shape}")
    stack, labels = ((block, label) if block.ndim == 3
                     else (block[None], [label]))
    gram = np.swapaxes(stack.conj(), 1, 2) @ stack
    norms = np.real(np.diagonal(gram, axis1=1, axis2=2))
    norm_bad = np.abs(norms - 1.0) > UNITARY_ATOL
    off = np.abs(gram * (1.0 - np.eye(gram.shape[-1])))
    failing = np.flatnonzero(norm_bad.any(axis=1)
                             | (off.max(axis=(1, 2)) > UNITARY_ATOL))
    if not failing.size:
        return
    i = failing[0]
    where = f" at {labels[i]}" if labels[i] else ""
    if norm_bad[i].any():
        k = int(np.argmax(norm_bad[i]))
        raise UnitarityError(
            f"column-norm condition violated{where}: column {k} has "
            f"squared norm {norms[i, k]:.12g} (expected 1)"
        )
    j, k = np.unravel_index(np.argmax(off[i]), off[i].shape)
    raise UnitarityError(
        f"column-orthogonality condition violated{where}: columns "
        f"{int(j)} and {int(k)} have inner product of magnitude "
        f"{off[i, j, k]:.3g}"
    )
