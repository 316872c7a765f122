"""Exact multilinear algebra on component arrays.

Components live in plain numpy arrays, optionally with one leading sample
axis; a variance tuple records which slots are contravariant ("u") and
which are covariant ("l").
"""
from __future__ import annotations

import numpy as np

from .errors import SingularFrame, TensorError

__all__ = ["to_phi_frame", "signature_of"]

_SINGULARITY_RTOL = 1e-12
_SIGNATURE_RTOL = 1e-10


def _max_abs(x: np.ndarray, rank: int) -> np.ndarray:
    """max |x| over the trailing `rank` axes: an (N,) array over a batch."""
    return np.max(np.abs(x), axis=tuple(range(-rank, 0)))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-sample a . b over the last axis, through matmul's dot kernel like 1-d a @ b."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _congruence(phi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-sample phi^T x phi: [i, j] = sum_ab phi[a, i] phi[b, j] x[a, b], in two products."""
    return np.swapaxes(phi, -1, -2) @ x @ phi


def signature_of(g: np.ndarray, rtol: float = _SIGNATURE_RTOL):
    """Counts of positive and negative eigenvalues of a symmetric matrix.

    Ints for one matrix (d, d); (N,) arrays of counts for a stack (N, d, d).
    """
    g = np.asarray(g, dtype=float)
    eig = np.linalg.eigvalsh((g + np.swapaxes(g, -1, -2)) / 2.0)
    scale = np.maximum(np.max(np.abs(eig), axis=-1), 1e-300)[..., None]
    pos = np.sum(eig > rtol * scale, axis=-1)
    neg = np.sum(eig < -rtol * scale, axis=-1)
    if g.ndim == 2:
        return int(pos), int(neg)
    return pos, neg


def to_phi_frame(components, variance: tuple[str, ...], frames) -> np.ndarray:
    """Re-express coordinate components in the frame whose columns are e_1..e_2n, xi.

    `variance` holds "u" or "l" per slot.  One frame (d, d) for the
    components of one point, or a batch of frames (N, d, d) for components
    with a leading sample axis; each slot is transformed once over all samples.
    """
    comp = np.asarray(components, dtype=float)
    frames = np.asarray(frames, dtype=float)
    rank, dim = len(variance), comp.shape[-1]
    if any(v not in ("u", "l") for v in variance):
        raise TensorError(f"variance entries must be 'u' or 'l', got {variance}")
    if comp.shape[comp.ndim - rank:] != (dim,) * rank:
        raise TensorError(f"components shape {comp.shape} does not match rank {rank}")
    if frames.ndim not in (2, 3) or frames.shape[-2:] != (dim, dim):
        raise TensorError(f"frame must be {dim}x{dim}")
    svals = np.linalg.svd(frames, compute_uv=False)
    singular = svals[..., -1] <= _SINGULARITY_RTOL * np.maximum(svals[..., 0], 1e-300)
    if np.any(singular):
        where = f" at sample {int(np.argmax(singular))}" if singular.ndim else ""
        raise SingularFrame(f"frame vectors are linearly dependent{where}")
    inverse = np.linalg.inv(frames)
    slots = "abcdefgh"[:rank]
    for slot, var in enumerate(variance):
        out = slots.replace(slots[slot], "z")
        if var == "l":
            # w'_a = B^i_a w_i: contract against frame rows
            comp = np.einsum(f"...{slots},...{slots[slot]}z->...{out}", comp, frames)
        else:
            # v'^a = (B^-1)^a_i v^i
            comp = np.einsum(f"...{slots},...z{slots[slot]}->...{out}", comp, inverse)
    return comp
