"""Second-order forward-mode automatic differentiation.

A Jet2 carries a scalar value together with its exact gradient and Hessian
with respect to a fixed tuple of chart coordinates.  Arithmetic propagates
derivatives by the chain rule; every operation assembles the Hessian from
pieces that are symmetric term by term, so the symmetry invariant holds
exactly (not just to rounding).

A jet may carry a leading sample axis: value (N,), grad (N, d), hess
(N, d, d).  Each operation then propagates all N samples in one chain of
numpy operations (batched Taylor-coefficient propagation); a jet at one
point has value shape ().
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .record import Record

__all__ = [
    "Jet2",
    "int_pow",
    "general_pow",
    "sin",
    "cos",
    "tan",
    "exp",
    "ln",
    "sqrt",
    "absolute",
    "tanh",
    "FUNCTIONS",
]


def _outer(grad: np.ndarray) -> np.ndarray:
    """grad_i grad_j per sample; exactly symmetric."""
    return grad[..., :, None] * grad[..., None, :]


class Jet2(Record):
    """Value, gradient and symmetric Hessian of a scalar at one point or a batch.

    Jets compare and hash by identity: their fields are arrays.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        self.__post_init__(value, grad, hess)

    def __post_init__(self, value, grad, hess):
        """Check and set the fields; every jet, and so every jet operation, passes here once."""
        value = np.asarray(value, dtype=float)
        grad = np.asarray(grad, dtype=float)
        hess = np.asarray(hess, dtype=float)
        d = grad.shape[-1] if grad.ndim == value.ndim + 1 else -1
        if grad.shape != value.shape + (d,) or hess.shape != grad.shape + (d,):
            raise ValueError("jet gradient must be value.shape + (d,), hessian grad.shape + (d,)")
        swapped = np.swapaxes(hess, -1, -2)
        # an overflowed jet is symmetric when its NaNs mirror each other (NaN != NaN)
        if not (np.array_equal(hess, swapped) or np.array_equal(hess, swapped, equal_nan=True)):
            raise ValueError("jet hessian must be exactly symmetric")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "grad", grad)
        object.__setattr__(self, "hess", hess)

    @property
    def dim(self) -> int:
        return self.grad.shape[-1]

    @classmethod
    def seed(cls, index: int, value, dim: int) -> "Jet2":
        """Jet of the coordinate function x_index where it equals value (a number or (N,)).

        Its Hessian is a read-only zero view that owns no memory.
        """
        if not 0 <= index < dim:
            raise ValueError(f"seed index {index} outside 0..{dim - 1}")
        value = np.asarray(value, dtype=float)
        grad = np.zeros(value.shape + (dim,))
        grad[..., index] = 1.0
        return cls(value, grad, np.broadcast_to(0.0, value.shape + (dim, dim)))

    @classmethod
    def constant(cls, value: float, dim: int, shape: tuple[int, ...] = ()) -> "Jet2":
        """Jet of a constant, broadcast over a batch of the given shape."""
        value = np.full(shape, value, dtype=float)
        return cls(value, np.zeros(shape + (dim,)), np.zeros(shape + (dim, dim)))

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "Jet2") -> None:
        if other.grad.shape != self.grad.shape:
            raise ValueError("jet dimension mismatch")

    def __add__(self, other):
        if isinstance(other, Jet2):
            self._check(other)
            return Jet2(self.value + other.value, self.grad + other.grad, self.hess + other.hess)
        if isinstance(other, (int, float)):
            return Jet2(self.value + other, self.grad, self.hess)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        if isinstance(other, Jet2):
            self._check(other)
            return Jet2(self.value - other.value, self.grad - other.grad, self.hess - other.hess)
        if isinstance(other, (int, float)):
            return Jet2(self.value - other, self.grad, self.hess)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            self._check(other)
            a, b = self.value[..., None], other.value[..., None]
            # The cross term must be symmetrized before joining the sum:
            # folding its two halves into the running total separately would
            # order the additions differently at (i, j) and (j, i).
            cross = self.grad[..., :, None] * other.grad[..., None, :]
            hess = (a[..., None] * other.hess + b[..., None] * self.hess) + (
                cross + np.swapaxes(cross, -1, -2)
            )
            return Jet2(self.value * other.value, a * other.grad + b * self.grad, hess)
        if isinstance(other, (int, float)):
            return Jet2(self.value * other, self.grad * other, self.hess * other)
        return NotImplemented

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet2":
        v = self.value
        if (zero := v == 0.0).any():
            raise DomainError("division by zero", zero)
        inv = 1.0 / v
        inv2 = inv * inv
        hess = (
            -self.hess * inv2[..., None, None]
            + (2.0 * inv2 * inv)[..., None, None] * _outer(self.grad)
        )
        return Jet2(inv, -self.grad * inv2[..., None], hess)

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            self._check(other)
            return self * other.reciprocal()
        if isinstance(other, (int, float)):
            if other == 0:
                raise DomainError("division by zero")
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return self.reciprocal() * other
        return NotImplemented


def int_pow(base, exponent: int):
    """base**exponent for integer exponent, expanded by repeated multiplication.

    Works on Jet2, plain numbers and arrays of numbers alike.  Negative
    exponents invert at the end, so the derivative structure stays exact for
    jets.
    """
    exponent = int(exponent)
    if exponent == 0:
        return Jet2.constant(1.0, base.dim, base.value.shape) if isinstance(base, Jet2) else 1.0
    k = abs(exponent)
    result = None
    square = base
    while k:
        if k & 1:
            result = square if result is None else result * square
        k >>= 1
        if k:
            square = square * square
    if exponent < 0:
        if (zero := np.asarray(result.value if isinstance(result, Jet2) else result) == 0).any():
            raise DomainError("zero base with negative exponent", zero)
        return result.reciprocal() if isinstance(result, Jet2) else 1.0 / result
    return result


def general_pow(base, exponent):
    """base**exponent via exp(exponent * ln(base)); needs a positive base."""
    return exp(exponent * ln(base))


def _unary(name, scalar_fn, value_fn, d1_fn, d2_fn, value_domain=None, jet_domain=None):
    """scalar_fn acts on a plain number; value_fn, d1_fn and d2_fn act on arrays."""

    def apply(x):
        if isinstance(x, Jet2):
            v = x.value
            if jet_domain is not None:
                jet_domain(v)
            if value_domain is not None:
                value_domain(v)
            a = np.asarray(d1_fn(v))[..., None]
            b = np.asarray(d2_fn(v))[..., None, None]
            hess = b * _outer(x.grad) + a[..., None] * x.hess
            return Jet2(value_fn(v), a * x.grad, hess)
        if np.ndim(x):  # plain numbers at a batch of points
            if value_domain is not None:
                value_domain(x)
            return value_fn(x)
        v = float(x)
        if value_domain is not None:
            value_domain(v)
        try:
            return scalar_fn(v)
        except (OverflowError, ValueError):  # exp of a large number, sin of an infinity
            return float(value_fn(np.float64(v)))  # inf or NaN, as on a batch

    apply.__name__ = name
    apply.__qualname__ = name
    return apply


def _positive(v) -> None:
    v = np.asarray(v)
    bad = v <= 0.0
    if bad.any():
        raise DomainError(f"argument {v[bad].flat[0]} is not positive", bad)


def _nonzero(v) -> None:
    if (zero := np.asarray(v) == 0.0).any():
        raise DomainError("abs is not differentiable at zero", zero)


sin = _unary("sin", math.sin, np.sin, np.cos, lambda v: -np.sin(v))
cos = _unary("cos", math.cos, np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v))
tan = _unary(
    "tan",
    math.tan,
    np.tan,
    lambda v: 1.0 + np.tan(v) ** 2,
    lambda v: 2.0 * np.tan(v) * (1.0 + np.tan(v) ** 2),
)
exp = _unary("exp", math.exp, np.exp, np.exp, np.exp)
ln = _unary("ln", math.log, np.log, lambda v: 1.0 / v, lambda v: -1.0 / (v * v), value_domain=_positive)
sqrt = _unary(
    "sqrt",
    math.sqrt,
    np.sqrt,
    lambda v: 0.5 / np.sqrt(v),
    lambda v: -0.25 / (v * np.sqrt(v)),
    value_domain=_positive,
)
# abs is C^2 away from zero only; number evaluation tolerates zero, jets do not.
absolute = _unary(
    "absolute", abs, np.abs, lambda v: np.copysign(1.0, v), lambda v: 0.0, jet_domain=_nonzero
)
tanh = _unary(
    "tanh",
    math.tanh,
    np.tanh,
    lambda v: 1.0 - np.tanh(v) ** 2,
    lambda v: -2.0 * np.tanh(v) * (1.0 - np.tanh(v) ** 2),
)

FUNCTIONS = {
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "exp": exp,
    "ln": ln,
    "sqrt": sqrt,
    "abs": absolute,
    "tanh": tanh,
}
