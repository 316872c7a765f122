"""Exact multilinear algebra on component arrays.

Components live in plain numpy arrays, optionally with one leading sample
axis.
"""
from __future__ import annotations

import numpy as np

from .errors import SingularFrame, at_sample

__all__ = ["signature_of"]

_SINGULARITY_RTOL = 1e-12
_SIGNATURE_RTOL = 1e-10
# A stack is singular where sigma_min <= _SINGULARITY_RTOL sigma_max.  The computed
# inverse X proves it regular without singular values: R = I - X A with ||R||_F <= 1/2
# makes A invertible with A^-1 = (I - R)^-1 X, so ||A^-1||_2 <= 2 ||X||_F, and as
# ||A||_2 <= ||A||_F, cond_2(A) <= 2 ||A||_F ||X||_F <= 2 / (_REGULAR_MARGIN *
# _SINGULARITY_RTOL) = 2e11.  The factor 5 left below 1e12 covers the rounding of
# these norms and of the SVD, whose singular values are accurate to about u sigma_max.
# LU inversion leaves ||R|| of order u cond(A) (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., ch. 14), so a stack with cond_2 below about 1e11
# passes; any other goes to the SVD, which decides it.
_REGULAR_MARGIN = 10.0


def _max_abs(x: np.ndarray, rank: int) -> np.ndarray:
    """max |x| over the trailing `rank` axes: an (N,) array over a batch."""
    return np.max(np.abs(x), axis=tuple(range(-rank, 0)))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-sample a . b over the last axis, through matmul's dot kernel like 1-d a @ b."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _mat(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The last rows + cols axes of x, each of length d, as (d^rows, d^cols) matrices."""
    d = x.shape[-1]
    return x.reshape(x.shape[:x.ndim - rows - cols] + (d**rows, d**cols))


def _congruence(phi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-sample phi^T x phi: [i, j] = sum_ab phi[a, i] phi[b, j] x[a, b], in two products."""
    return np.swapaxes(phi, -1, -2) @ x @ phi


def _regular_inverse(a: np.ndarray, singular) -> np.ndarray:
    """np.linalg.inv(a) of a stack (N, d, d) that is proven regular.

    Where the stack is singular, raises singular(svals, bad): the singular values of
    its first singular matrix, and the mask of its singular matrices.
    """
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inverse = None
    else:
        with np.errstate(all="ignore"):  # an overflowed inverse fails the test below
            residual = np.linalg.norm(np.eye(a.shape[-1]) - inverse @ a, axis=(-2, -1))
            product = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(inverse, axis=(-2, -1))
        if np.all(residual <= 0.5) and np.all(product <= 1.0 / (_REGULAR_MARGIN * _SINGULARITY_RTOL)):
            return inverse
    svals = np.linalg.svd(a, compute_uv=False)
    flagged = svals[..., -1] <= _SINGULARITY_RTOL * np.maximum(svals[..., 0], 1e-300)
    if flagged.any():
        raise singular(svals[np.argmax(flagged)], flagged)
    return np.linalg.inv(a) if inverse is None else inverse


def signature_of(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counts of positive and negative eigenvalues of each symmetric matrix of a stack (N, d, d)."""
    eig = np.linalg.eigvalsh(0.5 * g + 0.5 * np.swapaxes(g, -1, -2))  # no overflow in the sum
    scale = np.maximum(np.max(np.abs(eig), axis=-1), 1e-300)[..., None]
    return np.sum(eig > _SIGNATURE_RTOL * scale, axis=-1), np.sum(eig < -_SIGNATURE_RTOL * scale, axis=-1)


def _check_frames(frames: np.ndarray, coordinates, points) -> None:
    """Prove the frames (N, d, d) at the points (N, d) regular, or raise SingularFrame naming the first
    sample of a singular one."""
    _regular_inverse(frames, lambda svals, bad: SingularFrame(
        f"frame vectors are linearly dependent at {at_sample(coordinates, points, bad)}"))
