"""Pointwise tensor containers and exact multilinear algebra.

Components live in plain numpy arrays; the variance tuple records which
slots are contravariant ("u") and which are covariant ("l").  A basis tag
distinguishes coordinate components from components in a phi-adapted frame
so that mixed-basis arithmetic is rejected instead of silently wrong.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BasisMismatch,
    SingularFrame,
    SingularMetric,
    TensorError,
    VarianceMismatch,
)

__all__ = [
    "PointTensor",
    "MetricAtPoint",
    "metric_invert",
    "contract",
    "raise_lower",
    "to_phi_frame",
    "symmetry_check",
    "signature_of",
    "COORDINATE",
    "PHI_FRAME",
]

COORDINATE = "coordinate"
PHI_FRAME = "phi-frame"

_SINGULARITY_RTOL = 1e-12
_SIGNATURE_RTOL = 1e-10


@dataclass(frozen=True)
class PointTensor:
    """Tensor components at one chart point, or at a batch of points.

    The components of a batch carry one leading sample axis in front of
    the dim-sized slot axes.
    """

    dim: int
    variance: tuple[str, ...]
    components: np.ndarray
    basis: str = COORDINATE

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", comp)
        object.__setattr__(self, "variance", tuple(self.variance))
        if any(v not in ("u", "l") for v in self.variance):
            raise VarianceMismatch(f"variance entries must be 'u' or 'l', got {self.variance}")
        rank = len(self.variance)
        if comp.ndim not in (rank, rank + 1) or comp.shape[comp.ndim - rank:] != (self.dim,) * rank:
            raise TensorError(
                f"components shape {comp.shape} does not match rank {rank} at dim {self.dim}"
            )
        if self.basis not in (COORDINATE, PHI_FRAME):
            raise TensorError(f"unknown basis tag {self.basis!r}")
        if comp.size and not np.all(np.isfinite(comp)):
            raise TensorError("tensor components must be finite")

    @property
    def rank(self) -> int:
        return len(self.variance)


def _max_abs(x, rank: int):
    """max |x| over the trailing `rank` axes: a float at one point, an (N,) array over a batch."""
    worst = np.max(np.abs(x), axis=tuple(range(-rank, 0)))
    return float(worst) if np.ndim(worst) == 0 else worst


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-sample a . b over the last axis, through matmul's dot kernel like 1-d a @ b."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


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


def metric_invert(g: PointTensor) -> PointTensor:
    """Inverse of a symmetric (0,2) metric tensor as a (2,0) tensor."""
    if g.variance != ("l", "l"):
        raise VarianceMismatch("metric_invert expects a (0,2) tensor")
    comp = g.components
    scale = np.max(np.abs(comp)) if comp.size else 0.0
    if scale == 0.0:
        raise SingularMetric("metric components are all zero")
    if np.max(np.abs(comp - comp.T)) > 1e-12 * scale:
        raise TensorError("metric components are not symmetric")
    svals = np.linalg.svd(comp, compute_uv=False)
    if svals[-1] <= _SINGULARITY_RTOL * svals[0]:
        raise SingularMetric(
            f"metric singular: smallest/largest singular value = {svals[-1] / svals[0]:.3e}"
        )
    inv = np.linalg.inv(comp)
    inv = (inv + inv.T) / 2.0
    return PointTensor(g.dim, ("u", "u"), inv, g.basis)


def contract(t: PointTensor, slot_a: int, slot_b: int) -> PointTensor:
    """Trace over one contravariant and one covariant slot."""
    rank = t.rank
    if not (0 <= slot_a < rank and 0 <= slot_b < rank) or slot_a == slot_b:
        raise TensorError(f"invalid contraction slots ({slot_a}, {slot_b}) for rank {rank}")
    if {t.variance[slot_a], t.variance[slot_b]} != {"u", "l"}:
        raise VarianceMismatch("contraction needs one upper and one lower slot")
    comp = np.trace(t.components, axis1=slot_a, axis2=slot_b)
    variance = tuple(v for k, v in enumerate(t.variance) if k not in (slot_a, slot_b))
    return PointTensor(t.dim, variance, comp, t.basis)


@dataclass(frozen=True)
class MetricAtPoint:
    """A metric with its inverse and signature, ready for index gymnastics."""

    g: PointTensor
    g_inv: PointTensor
    signature: tuple[int, int]

    @classmethod
    def from_components(cls, components, basis: str = COORDINATE) -> "MetricAtPoint":
        comp = np.asarray(components, dtype=float)
        g = PointTensor(comp.shape[0], ("l", "l"), comp, basis)
        return cls(g, metric_invert(g), signature_of(comp))

    @property
    def dim(self) -> int:
        return self.g.dim


def raise_lower(t: PointTensor, slot: int, metric: MetricAtPoint) -> PointTensor:
    """Flip one slot's variance by contracting with the metric or its inverse."""
    if not 0 <= slot < t.rank:
        raise TensorError(f"slot {slot} out of range for rank {t.rank}")
    if t.basis != metric.g.basis:
        raise BasisMismatch("tensor and metric carry different basis tags")
    if t.variance[slot] == "u":
        matrix = metric.g.components  # new_a = g_{ak} t^k
        new_var = "l"
    else:
        matrix = metric.g_inv.components  # new^a = g^{ak} t_k
        new_var = "u"
    comp = np.tensordot(matrix, t.components, axes=([1], [slot]))
    comp = np.moveaxis(comp, 0, slot)
    variance = t.variance[:slot] + (new_var,) + t.variance[slot + 1 :]
    return PointTensor(t.dim, variance, comp, t.basis)


def to_phi_frame(t: PointTensor, frame: np.ndarray) -> PointTensor:
    """Re-express coordinate components in the frame whose columns are e_1..e_2n, xi.

    One frame (d, d), or a batch of frames (N, d, d) matching a batch of
    components; each slot is transformed once over all samples.
    """
    if t.basis != COORDINATE:
        raise BasisMismatch("to_phi_frame expects coordinate components")
    frame = np.asarray(frame, dtype=float)
    if frame.ndim not in (2, 3) or frame.shape[-2:] != (t.dim, t.dim):
        raise TensorError(f"frame must be {t.dim}x{t.dim}")
    svals = np.linalg.svd(frame, compute_uv=False)
    if np.any(svals[..., -1] <= _SINGULARITY_RTOL * np.maximum(svals[..., 0], 1e-300)):
        raise SingularFrame("frame vectors are linearly dependent")
    inverse = np.linalg.inv(frame)
    comp = t.components
    slots = "abcdefgh"[: t.rank]
    for slot, var in enumerate(t.variance):
        out = slots.replace(slots[slot], "z")
        if var == "l":
            # w'_a = B^i_a w_i: contract against frame rows
            comp = np.einsum(f"...{slots},...{slots[slot]}z->...{out}", comp, frame)
        else:
            # v'^a = (B^-1)^a_i v^i
            comp = np.einsum(f"...{slots},...z{slots[slot]}->...{out}", comp, inverse)
    return PointTensor(t.dim, t.variance, comp, PHI_FRAME)


def symmetry_check(t: PointTensor, permutation: tuple[int, ...], sign: float) -> float:
    """Max-norm violation of components = sign * components∘permutation."""
    if sorted(permutation) != list(range(t.rank)):
        raise TensorError(f"permutation {permutation} is not a permutation of rank {t.rank} slots")
    permuted = np.transpose(t.components, axes=permutation)
    return float(np.max(np.abs(t.components - sign * permuted))) if t.rank else 0.0
