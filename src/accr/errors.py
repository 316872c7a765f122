"""Exception hierarchy shared across the package.

Everything raised on purpose derives from AccrError, so callers (the CLI in
particular) can separate expected failures from genuine bugs.
"""
from __future__ import annotations


class AccrError(Exception):
    """Base class for all errors raised by this package."""


class ExprError(AccrError):
    """Problems with expression text or identifier resolution."""


class ExprSyntaxError(ExprError):
    """Malformed expression source; carries the offset of the bad token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExprError):
    """Identifier that is neither a coordinate, a constant, nor a function."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' (offset {offset})")
        self.name = name
        self.offset = offset


class UnboundConstant(ExprError):
    """A declared constant was referenced but no value was supplied."""

    def __init__(self, name: str):
        super().__init__(f"constant '{name}' has no bound value")
        self.name = name


class DomainError(AccrError):
    """Evaluation left the mathematical domain (ln/sqrt/division/boundary); `bad` marks the samples at fault."""

    def __init__(self, message: str, bad=None):
        super().__init__(message)
        self.bad = bad


class DimensionMismatch(AccrError):
    """Array or point shape inconsistent with the chart dimension."""


class TensorError(AccrError):
    """Base class for pointwise tensor algebra errors."""


class SingularMetric(TensorError):
    """Metric components numerically singular at the evaluation point."""


class SingularFrame(TensorError):
    """Frame matrix is not invertible."""


class ManifoldError(AccrError):
    """Base class for manifold definition errors."""


class ManifoldParseError(ManifoldError):
    """Structurally invalid manifold definition file."""


class UnknownBuiltin(ManifoldError):
    """Requested builtin manifold name does not exist."""


class PotentialError(AccrError):
    """Base class for soliton potential precondition failures."""


class ZeroPotential(PotentialError):
    """Potential vector field vanishes somewhere on the sample set."""


class NonVerticalPotential(PotentialError):
    """Potential is not collinear with the Reeb field."""
