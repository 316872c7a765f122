"""Almost contact B-metric structures defined by expression charts.

A structure file supplies, as expression strings over the chart
coordinates, the metric g, the endomorphism phi (phi[i][j] is the
coefficient of d/dx_i in phi(d/dx_j)), the Reeb field xi and the 1-form
eta on an open coordinate box.  The loader parses everything eagerly and
rejects structurally broken files; numerical validation of the defining
identities is a separate step so that deliberately broken structures can
still be probed.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    ManifoldParseError,
    UnboundConstant,
    UnknownBuiltin,
)
from .expr import Expression, eval_jets, parse
from .tensor import _congruence, _dot, signature_of

__all__ = [
    "Chart",
    "AccRStructure",
    "StructureValues",
    "FieldJets",
    "StructureJets",
    "ValidationReport",
    "associated_metric_jets",
    "load_manifold",
    "builtin_structure",
    "builtin_names",
    "validate_structure",
    "latin_hypercube",
    "sample_points",
    "check_bindings",
    "METRIC_G",
    "METRIC_GTILDE",
]

METRIC_G = "g"
METRIC_GTILDE = "gtilde"

_REQUIRED_KEYS = {"n", "coordinates", "domain", "g", "phi", "xi", "eta"}
_OPTIONAL_KEYS = {"constants", "frame", "name"}


@dataclass(frozen=True)
class Chart:
    """Coordinate names, open domain box, and declared constant names."""

    n: int
    coordinates: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]
    constants: tuple[str, ...]

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def require_inside(self, point) -> None:
        """Reject a point (d,), or a batch of points (N, d), not strictly inside the box."""
        p = np.asarray(point, dtype=float)
        if p.ndim not in (1, 2) or p.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"point of shape {p.shape} does not fit a chart of dimension {self.dim}"
            )
        lo, hi = np.array(self.domain).T
        outside = ~((lo < p) & (p < hi))
        if outside.any():
            axis = np.argwhere(outside)[0][-1]
            value = p[outside].flat[0]
            raise DomainError(
                f"coordinate {self.coordinates[axis]}={value} outside open interval "
                f"({lo[axis]}, {hi[axis]})"
            )


class StructureValues(NamedTuple):
    g: np.ndarray
    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray


class FieldJets(NamedTuple):
    """Componentwise value, first and second coordinate derivatives.

    Derivative axes are appended last: partial[..., m] = d_m value[...],
    second[..., m, l] = d_l d_m value[...] (symmetric in m, l).
    """

    value: np.ndarray
    partial: np.ndarray
    second: np.ndarray


class StructureJets(NamedTuple):
    g: FieldJets
    phi: FieldJets
    xi: FieldJets
    eta: FieldJets


@dataclass(frozen=True)
class AccRStructure:
    """An almost contact B-metric structure presented in one chart."""

    chart: Chart
    g: tuple[tuple[Expression, ...], ...]
    phi: tuple[tuple[Expression, ...], ...]
    xi: tuple[Expression, ...]
    eta: tuple[Expression, ...]
    frame: tuple[tuple[Expression, ...], ...] | None = None
    name: str | None = None
    source_sha256: str | None = None

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def n(self) -> int:
        return self.chart.n

    def referenced_constants(self) -> frozenset[str]:
        found: set[str] = set()
        for expression in self._all_expressions():
            found |= expression.referenced_constants()
        return frozenset(found)

    def _all_expressions(self):
        for row in self.g:
            yield from row
        for row in self.phi:
            yield from row
        yield from self.xi
        yield from self.eta
        if self.frame is not None:
            for row in self.frame:
                yield from row

    def values_at(self, point, bindings: Mapping[str, float] | None = None) -> StructureValues:
        """Structure component values at one interior chart point (d,) or a batch (N, d).

        A batch puts a leading sample axis on every array.
        """
        self.chart.require_inside(point)
        b = bindings or {}
        return StructureValues(
            g=_eval_grid(self.g, point, b),
            phi=_eval_grid(self.phi, point, b),
            xi=_eval_grid(self.xi, point, b),
            eta=_eval_grid(self.eta, point, b),
        )

    def jets_at(self, point, bindings: Mapping[str, float] | None = None) -> StructureJets:
        """All structure components with first and second derivatives.

        `point` is one chart point (d,) or a batch (N, d); a batch puts a
        leading sample axis on every array.  The components of g, phi, xi
        and eta are evaluated together, in that order, by `eval_jets`.
        """
        self.chart.require_inside(point)
        fields = (self.g, self.phi, self.xi, self.eta)
        value, grad, hess = eval_jets([e for f in fields for e in _flat(f)], point, bindings)
        batch, d = value.shape[:-1], self.dim
        jets, start = [], 0
        for f in fields:
            shape = (d,) if isinstance(f[0], Expression) else (d, d)
            part = slice(start, start + d ** len(shape))
            jets.append(FieldJets(
                value[..., part].reshape(batch + shape),
                grad[..., part, :].reshape(batch + shape + (d,)),
                hess[..., part, :, :].reshape(batch + shape + (d, d)),
            ))
            start = part.stop
        return StructureJets(*jets)

    def frame_at(self, point, bindings: Mapping[str, float] | None = None) -> np.ndarray:
        """The declared phi-adapted frame (columns e_1..e_2n, xi) at one point or a batch."""
        if self.frame is None:
            raise ManifoldParseError("structure declares no frame")
        self.chart.require_inside(point)
        return _eval_grid(self.frame, point, bindings or {})


def _flat(exprs) -> list[Expression]:
    """The expressions of a vector, or of a matrix in row-major order."""
    return list(exprs) if isinstance(exprs[0], Expression) else [e for row in exprs for e in row]


def _eval_grid(exprs, point, bindings) -> np.ndarray:
    shape = (len(exprs),) if isinstance(exprs[0], Expression) else (len(exprs), len(exprs[0]))
    values = [e.eval_number(point, bindings) for e in _flat(exprs)]
    batch = np.shape(values[0])
    return np.stack(values, len(batch)).reshape(batch + shape)


# -- loading --------------------------------------------------------------


def load_manifold(data: bytes | str) -> AccRStructure:
    """Parse a JSON structure definition into an AccRStructure."""
    if isinstance(data, bytes):
        text = data.decode("utf-8")
    else:
        text = data
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifoldParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ManifoldParseError("top level must be a JSON object")
    sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return _structure_from_dict(raw, sha)


def _structure_from_dict(raw: dict, sha: str | None) -> AccRStructure:
    missing = _REQUIRED_KEYS - raw.keys()
    if missing:
        raise ManifoldParseError(f"missing field: {', '.join(sorted(missing))}")
    unknown = raw.keys() - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ManifoldParseError(f"unknown field: {', '.join(sorted(unknown))}")

    n = raw["n"]
    # JSON true/false load as bool, which is an int subclass
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ManifoldParseError("n must be a positive integer")
    coords = raw["coordinates"]
    if not isinstance(coords, list) or not all(isinstance(c, str) for c in coords):
        raise ManifoldParseError("coordinates must be a list of names")
    if len(set(coords)) != len(coords):
        raise ManifoldParseError("coordinate names must be distinct")
    if len(coords) != 2 * n + 1:
        raise DimensionMismatch(
            f"{len(coords)} coordinates given, but dimension must be 2n+1 = {2 * n + 1}"
        )
    dim = 2 * n + 1

    domain_raw = raw["domain"]
    if not isinstance(domain_raw, dict) or set(domain_raw) != set(coords):
        raise ManifoldParseError("domain must give one open interval per coordinate")
    domain = []
    for c in coords:
        iv = domain_raw[c]
        if (
            not isinstance(iv, list)
            or len(iv) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in iv)
            or not np.isfinite(iv).all()
            or not iv[0] < iv[1]
        ):
            raise ManifoldParseError(f"domain[{c}] must be a finite interval [lo, hi] with lo < hi")
        domain.append((float(iv[0]), float(iv[1])))

    constants_raw = raw.get("constants", [])
    if not isinstance(constants_raw, list) or not all(isinstance(c, str) for c in constants_raw):
        raise ManifoldParseError("constants must be a list of names")
    if set(constants_raw) & set(coords):
        raise ManifoldParseError("constant names must not collide with coordinates")
    constants = tuple(sorted(set(constants_raw)))

    chart = Chart(n=n, coordinates=tuple(coords), domain=tuple(domain), constants=constants)

    def parse_entry(text, where):
        if not isinstance(text, str):
            raise ManifoldParseError(f"{where} must be an expression string")
        return parse(text, chart.coordinates, constants)

    def parse_matrix(key):
        rows = raw[key]
        if not isinstance(rows, list) or len(rows) != dim or any(
            not isinstance(r, list) or len(r) != dim for r in rows
        ):
            raise ManifoldParseError(f"{key} must be a {dim}x{dim} matrix of expression strings")
        return tuple(
            tuple(parse_entry(rows[i][j], f"{key}[{i}][{j}]") for j in range(dim))
            for i in range(dim)
        )

    def parse_vector(key):
        entries = raw[key]
        if not isinstance(entries, list) or len(entries) != dim:
            raise ManifoldParseError(f"{key} must be a list of {dim} expression strings")
        return tuple(parse_entry(entries[i], f"{key}[{i}]") for i in range(dim))

    g = parse_matrix("g")
    for i in range(dim):
        for j in range(i + 1, dim):
            if g[i][j].ast != g[j][i].ast:
                raise ManifoldParseError(
                    f"metric entries g[{i}][{j}] and g[{j}][{i}] differ; "
                    "symmetric input is required, not silently symmetrized"
                )
    phi = parse_matrix("phi")
    xi = parse_vector("xi")
    eta = parse_vector("eta")
    frame = parse_matrix("frame") if "frame" in raw else None

    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise ManifoldParseError("name must be a string")

    return AccRStructure(
        chart=chart, g=g, phi=phi, xi=xi, eta=eta, frame=frame, name=name, source_sha256=sha
    )


# -- builtins --------------------------------------------------------------

# Cone over a flat 2-dimensional fiber carrying a Norden metric.  The free
# constants feed soliton potentials (c for g, ct for the associated metric)
# and the closed-form comparisons (kprime is the fiber curvature parameter;
# the shipped fiber is flat, so pair it with kprime = 0).
_CONE = {
    "name": "cone-flat-fiber",
    "n": 1,
    "coordinates": ["t", "u", "v"],
    "domain": {"t": [0.5, 5.0], "u": [-3.0, 3.0], "v": [-3.0, 3.0]},
    "constants": ["c", "ct", "kprime"],
    "g": [["1", "0", "0"], ["0", "t^2", "0"], ["0", "0", "-t^2"]],
    "phi": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
    "xi": ["1", "0", "0"],
    "eta": ["1", "0", "0"],
    "frame": [["0", "0", "1"], ["1/t", "0", "0"], ["0", "1/t", "0"]],
}

# Flat structure with parallel phi: every covariant derivative vanishes.
_FLAT = {
    "name": "flat-cosymplectic",
    "n": 1,
    "coordinates": ["t", "x", "y"],
    "domain": {"t": [-2.0, 2.0], "x": [-2.0, 2.0], "y": [-2.0, 2.0]},
    "constants": [],
    "g": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]],
    "phi": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
    "xi": ["1", "0", "0"],
    "eta": ["1", "0", "0"],
    "frame": [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]],
}

_BUILTINS = {d["name"]: d for d in (_CONE, _FLAT)}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def builtin_structure(name: str) -> AccRStructure:
    try:
        raw = _BUILTINS[name]
    except KeyError:
        raise UnknownBuiltin(
            f"no builtin named {name!r}; available: {', '.join(builtin_names())}"
        ) from None
    canonical = json.dumps(raw, sort_keys=True)
    sha = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return _structure_from_dict(raw, sha)


# -- structural validation --------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    """Max residuals of the defining identities over the sample set."""

    residuals: dict[str, float]
    signature: tuple[int, int]
    expected_signature: tuple[int, int]
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            all(r <= self.tolerance for r in self.residuals.values())
            and self.signature == self.expected_signature
        )

    def failing(self) -> list[str]:
        bad = [k for k, r in self.residuals.items() if r > self.tolerance]
        if self.signature != self.expected_signature:
            bad.append("signature")
        return bad


def validate_structure(
    S: AccRStructure,
    samples: Sequence[Sequence[float]],
    bindings: Mapping[str, float] | None = None,
    tol: float = 1e-9,
) -> ValidationReport:
    """Check the defining identities of an almost contact B-metric structure.

    Every identity is evaluated once over the whole batch of samples.
    Residuals are max-norms over all samples of:
      phi(xi) = 0, phi^2 = -id + eta(x) xi, eta(phi(x)) = 0, eta(xi) = 1,
      g(phi x, phi y) = -g(x, y) + eta(x) eta(y), g(x, xi) = eta(x),
      g(xi, xi) = 1.
    The metric signature must be (n+1, n) at every sample; the report
    carries the signature of the first sample that breaks it.
    """
    eye = np.eye(S.dim)
    g, phi, xi, eta = S.values_at(np.atleast_2d(np.asarray(samples, dtype=float)), bindings)
    outer_xi_eta = np.einsum("...i,...j->...ij", xi, eta)
    outer_eta = np.einsum("...i,...j->...ij", eta, eta)
    deviations = {
        "phi(xi) = 0": np.einsum("...is,...s->...i", phi, xi),
        "phi^2 = -id + eta(x) xi": phi @ phi + eye - outer_xi_eta,
        "eta(phi(x)) = 0": np.einsum("...s,...si->...i", eta, phi),
        "eta(xi) = 1": _dot(eta, xi) - 1.0,
        "g(phi x, phi y) = -g(x, y) + eta(x) eta(y)": _congruence(phi, g) + g - outer_eta,
        "g(x, xi) = eta(x)": np.einsum("...is,...s->...i", g, xi) - eta,
        "g(xi, xi) = 1": _dot(np.einsum("...s,...si->...i", xi, g), xi) - 1.0,
    }
    residuals = {key: float(np.max(np.abs(dev))) for key, dev in deviations.items()}
    expected = (S.n + 1, S.n)
    pos, neg = signature_of(g)
    wrong = (pos != expected[0]) | (neg != expected[1])
    # the signature of the first sample that breaks it, in sample order
    first = int(np.argmax(wrong))
    signature = (int(pos[first]), int(neg[first]))
    return ValidationReport(
        residuals=residuals,
        signature=signature,
        expected_signature=expected,
        tolerance=tol,
    )


# -- associated metric -------------------------------------------------------


def associated_metric_jets(sj: StructureJets) -> FieldJets:
    """Jets of the associated B-metric g~(x, y) = g(x, phi y) + eta(x) eta(y), by the product rule.

    The structure jets are those of one point or of a batch (see
    AccRStructure.jets_at); the result carries the same leading axes.
    """
    g, dg, d2g = sj.g
    phi, dphi, d2phi = sj.phi
    eta, deta, d2eta = sj.eta
    value = np.einsum("...is,...sj->...ij", g, phi) + np.einsum("...i,...j->...ij", eta, eta)
    partial = (
        np.einsum("...ism,...sj->...ijm", dg, phi)
        + np.einsum("...is,...sjm->...ijm", g, dphi)
        + np.einsum("...im,...j->...ijm", deta, eta)
        + np.einsum("...i,...jm->...ijm", eta, deta)
    )
    # the contractions over five indices take numpy's optimized einsum (batched matmul)
    second = (
        np.einsum("...isml,...sj->...ijml", d2g, phi, optimize=True)
        + np.einsum("...ism,...sjl->...ijml", dg, dphi, optimize=True)
        + np.einsum("...isl,...sjm->...ijml", dg, dphi, optimize=True)
        + np.einsum("...is,...sjml->...ijml", g, d2phi, optimize=True)
        + np.einsum("...iml,...j->...ijml", d2eta, eta)
        + np.einsum("...im,...jl->...ijml", deta, deta)
        + np.einsum("...il,...jm->...ijml", deta, deta)
        + np.einsum("...i,...jml->...ijml", eta, d2eta)
    )
    # the formula is symmetric in (i, j) only up to rounding; enforce exactly
    value = (value + np.swapaxes(value, -2, -1)) / 2.0
    partial = (partial + np.swapaxes(partial, -3, -2)) / 2.0
    second = (second + np.swapaxes(second, -4, -3)) / 2.0
    return FieldJets(value, partial, second)


# -- sampling ----------------------------------------------------------------


def latin_hypercube(chart: Chart, count: int, seed: int = 42) -> np.ndarray:
    """Deterministic Latin hypercube over the open domain box, as a (count, d) array.

    Each coordinate axis is split into `count` strata; one point is drawn
    from the interior of each stratum and the strata are shuffled per axis.
    Points stay strictly inside the open box.
    """
    if count <= 0:
        return np.empty((0, chart.dim))
    rng = np.random.default_rng(seed)
    columns = []
    for lo, hi in chart.domain:
        perm = rng.permutation(count)
        offsets = rng.uniform(0.05, 0.95, size=count)
        fractions = (perm + offsets) / count
        columns.append(lo + fractions * (hi - lo))
    return np.stack(columns, axis=1)


def sample_points(
    chart: Chart,
    count: int,
    seed: int = 42,
    pinned: Iterable[Sequence[float]] = (),
) -> np.ndarray:
    """A (count, d) array: the pinned points first, then Latin hypercube samples."""
    pinned_list = [np.asarray(p, dtype=float) for p in pinned]
    for p in pinned_list:
        chart.require_inside(p)
    if len(pinned_list) > count:
        raise ValueError(f"{len(pinned_list)} pinned points exceed sample budget {count}")
    pins = np.reshape(pinned_list, (-1, chart.dim))
    return np.concatenate([pins, latin_hypercube(chart, count - len(pinned_list), seed)])


def check_bindings(chart: Chart, bindings: Mapping[str, float], required: Iterable[str]) -> None:
    """Fail fast when a referenced constant is unbound or non-finite."""
    for name in sorted(set(required)):
        if name not in bindings:
            raise UnboundConstant(name)
        if not np.isfinite(bindings[name]):
            raise DomainError(f"constant {name} = {bindings[name]} is not finite")
