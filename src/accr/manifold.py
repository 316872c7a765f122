"""Almost contact B-metric structures defined by expression charts.

A structure file supplies, as expression strings over the chart
coordinates, the metric g, the endomorphism phi (phi[i][j] is the
coefficient of d/dx_i in phi(d/dx_j)), the Reeb field xi and the 1-form
eta on an open coordinate box.  An optional `expect` object gives, in the
same coordinates and constants, the values that `verify-paper` compares
the computed quantities with (see _EXPECT).  The loader parses everything
eagerly and rejects structurally broken files; numerical validation of the
defining identities is a separate step so that deliberately broken
structures can still be probed.
"""
from __future__ import annotations

import functools
import json
import operator
import random
import sys
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    ExprError,
    ManifoldParseError,
    UnboundConstant,
    UnknownBuiltin,
)
from .expr import BinOp, Expression, FieldJets, Num, parse
from .record import Value
from .report import VERDICT_FAIL, VERDICT_PASS, CheckRecord, record_from_residual
from .tensor import _congruence, _dot, signature_of

__all__ = [
    "Chart",
    "AccRStructure",
    "StructureJets",
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
_OPTIONAL_KEYS = {"constants", "frame", "name", "expect"}

# The keys of an `expect` object, each optional: a quantity's rank (0 a scalar, 1 a
# d-vector, 2 a d x d matrix, 3 the d x d x d Christoffel array, [k][i][j] = Gamma^k_ij),
# or a nested object of such keys.  h is theta*(xi)/2n, and each potential gives the
# scalar k of v = k xi for its metric, its conformal scalar f and its soliton function lambda.
_EXPECT = {
    "christoffel": 3, "R_1212": 0, "rho_11": 0, "rho_22": 0, "tau": 0, "tau_star": 0,
    "theta_star_xi": 0, "tau_tilde": 0, "gtilde": 2, "grad_theta_star_xi": 1, "h": 0,
    "potentials": {tag: {"k": 0, "f": 0, "lambda": 0} for tag in (METRIC_G, METRIC_GTILDE)},
}


class Chart(Value):
    """Coordinate names, open domain box, and declared constant names."""

    __slots__ = ("n", "coordinates", "domain", "constants")

    def __init__(self, n: int, coordinates: tuple[str, ...],
                 domain: tuple[tuple[float, float], ...], constants: tuple[str, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coordinates", coordinates)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "constants", constants)

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def require_inside(self, points) -> None:
        """Reject a batch of points (N, d) of which one is not strictly inside the box."""
        p = np.asarray(points, dtype=float)
        if p.ndim != 2 or p.shape[1] != self.dim:
            raise DimensionMismatch(f"points of shape {p.shape} are no batch (N, {self.dim})")
        lo, hi = np.array(self.domain).T
        outside = ~((lo < p) & (p < hi))
        if outside.any():
            axis = np.argwhere(outside)[0][-1]
            value = p[outside].flat[0]
            raise DomainError(
                f"coordinate {self.coordinates[axis]}={value} outside open interval "
                f"({lo[axis]}, {hi[axis]})"
            )


class StructureJets(NamedTuple):
    """The jets of g, phi, xi and eta, as `expr.eval_field_jets` returns them."""

    g: FieldJets
    phi: FieldJets
    xi: FieldJets
    eta: FieldJets


class AccRStructure(Value):
    """An almost contact B-metric structure presented in one chart.

    `source` holds the bytes the structure was read from.  `expect` holds the
    structure's expectations, one (key, text, value) triple per quantity given:
    the key's path below `expect` ("tau", "potentials.g.k"), its text as
    written, and its expression, or nested tuples of them in its shape.
    """

    __slots__ = ("chart", "g", "phi", "xi", "eta", "frame", "name", "source", "expect")
    _unshown = ("source",)

    def __init__(
        self,
        chart: Chart,
        g: tuple[tuple[Expression, ...], ...],
        phi: tuple[tuple[Expression, ...], ...],
        xi: tuple[Expression, ...],
        eta: tuple[Expression, ...],
        frame: tuple[tuple[Expression, ...], ...] | None = None,
        name: str | None = None,
        source: bytes | None = None,
        expect: tuple[tuple[str, str, object], ...] = (),
    ):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "expect", expect)

    @property
    def source_sha256(self) -> str | None:
        """The SHA-256 hex digest of `source`: a file's bytes, or a builtin's canonical JSON.

        Computed when read, by CPython's own SHA-256 module; `hashlib`, whose
        import loads OpenSSL (3.5 MB), serves only an interpreter without it.
        """
        if self.source is None:
            return None
        try:  # a failed import searches the whole path, so only the module this version has is tried
            if sys.version_info >= (3, 12):
                from _sha2 import sha256
            else:
                from _sha256 import sha256
        except ImportError:  # an interpreter built without its own hash modules
            from hashlib import sha256
        return sha256(self.source).hexdigest()

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

    def associated_metric(self) -> tuple[tuple[Expression, ...], ...]:
        """The components of the associated B-metric g~(x, y) = g(x, phi y) + eta(x) eta(y).

        With A_ij = sum_s g_is phi_sj + eta_i eta_j, g~_ii = A_ii and g~_ij =
        (A_ij + A_ji) / 2 (A is symmetric only where the structure identities
        hold), each one left-to-right sum of its products but those with a
        literal-0 factor.  g~_ji is the expression object of g~_ij.
        """
        d, zero, chart = self.dim, Num(0.0), self.chart

        def is_zero(x):  # a type test, where `in` would call Value.__eq__ on every pair
            return type(x.ast) is Num and x.ast.value == 0.0

        def products(i, j):
            pairs = [(self.g[i][s], self.phi[s][j]) for s in range(d)] + [(self.eta[i], self.eta[j])]
            return [BinOp("*", a.ast, b.ast) for a, b in pairs if not (is_zero(a) or is_zero(b))]

        def entry(i, j):
            terms = products(i, j) + (products(j, i) if i != j else [])
            ast = functools.reduce(lambda total, term: BinOp("+", total, term), terms) if terms else zero
            ast = BinOp("/", ast, Num(2.0)) if terms and i != j else ast
            return Expression(ast, chart.coordinates, chart.constants)

        upper = {(i, j): entry(i, j) for i in range(d) for j in range(i, d)}
        return tuple(tuple(upper[min(i, j), max(i, j)] for j in range(d)) for i in range(d))


# -- loading --------------------------------------------------------------


def load_manifold(data: bytes | str) -> AccRStructure:
    """Parse a JSON structure definition into an AccRStructure."""
    try:
        if isinstance(data, bytes):
            source, text = data, data.decode("utf-8")
        else:
            source, text = data.encode("utf-8"), data
    except UnicodeError as exc:
        raise ManifoldParseError(f"not UTF-8 text: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifoldParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ManifoldParseError("top level must be a JSON object")
    return _structure_from_dict(raw, source)


def _structure_from_dict(raw: dict, source: bytes) -> AccRStructure:
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
            # finite by comparison, which an int past the float range cannot overflow
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max
                       for x in iv)
            or not iv[0] < iv[1]
            or float(iv[1]) - float(iv[0]) == np.inf  # sampling scales by the width
        ):
            raise ManifoldParseError(f"domain[{c}] must be a finite interval [lo, hi] with lo < hi and finite width")
        domain.append((float(iv[0]), float(iv[1])))

    constants_raw = raw.get("constants", [])
    if not isinstance(constants_raw, list) or not all(isinstance(c, str) for c in constants_raw):
        raise ManifoldParseError("constants must be a list of names")
    if set(constants_raw) & set(coords):
        raise ManifoldParseError("constant names must not collide with coordinates")
    constants = tuple(sorted(set(constants_raw)))

    chart = Chart(n=n, coordinates=tuple(coords), domain=tuple(domain), constants=constants)

    parsed: dict[str, Expression] = {}  # each distinct entry string is parsed once

    def parse_entry(text, where):  # an error names the entry's place in the file
        if not isinstance(text, str):
            raise ManifoldParseError(f"{where} must be an expression string")
        if text not in parsed:
            try:
                parsed[text] = parse(text, chart.coordinates, constants)
            except ExprError as exc:
                raise ManifoldParseError(f"{where}: {exc}") from None
        return parsed[text]

    def parse_array(value, rank, where):
        """Nested lists of `dim` entries, `rank` deep, as nested tuples of the parsed entries."""
        entries = [(where, value)]
        for _ in range(rank):
            for path, entry in entries:
                if not isinstance(entry, list) or len(entry) != dim:
                    raise ManifoldParseError(f"{path} must be a list of {dim} entries")
            entries = [(f"{path}[{i}]", item) for path, entry in entries for i, item in enumerate(entry)]
        nested = [parse_entry(entry, path) for path, entry in entries]
        for _ in range(rank):  # regrouped, the innermost lists first
            nested = [tuple(nested[i:i + dim]) for i in range(0, len(nested), dim)]
        return nested[0]

    g = parse_array(raw["g"], 2, "g")
    for i in range(dim):
        for j in range(i + 1, dim):
            if g[i][j].ast != g[j][i].ast:
                raise ManifoldParseError(
                    f"metric entries g[{i}][{j}] and g[{j}][{i}] differ; "
                    "symmetric input is required, not silently symmetrized"
                )
    phi = parse_array(raw["phi"], 2, "phi")
    xi = parse_array(raw["xi"], 1, "xi")
    eta = parse_array(raw["eta"], 1, "eta")
    frame = parse_array(raw["frame"], 2, "frame") if "frame" in raw else None

    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise ManifoldParseError("name must be a string")

    expect = []
    pending = [("expect", raw["expect"], _EXPECT)] if "expect" in raw else []
    while pending:  # the expect object and its nested objects, breadth first
        where, block, schema = pending.pop(0)
        if not isinstance(block, dict):
            raise ManifoldParseError(f"{where} must be an object")
        for key, value in block.items():
            path = f"{where}.{key}"
            if key not in schema:
                raise ManifoldParseError(f"unknown field: {path}")
            if isinstance(schema[key], dict):
                pending.append((path, value, schema[key]))
            else:
                parsed_value = parse_array(value, schema[key], path)
                text = json.dumps(value).replace('"', "")  # as written, its strings unquoted
                expect.append((path.split(".", 1)[1], text, parsed_value))

    return AccRStructure(
        chart=chart, g=g, phi=phi, xi=xi, eta=eta, frame=frame, name=name, source=source,
        expect=tuple(expect),
    )


# -- builtins --------------------------------------------------------------

# Cone over a flat 2-dimensional fiber carrying a Norden metric, with the
# closed forms of its published example as expectations.  The free constants
# feed the soliton potentials: c for g, ct for the associated metric.
_CONE = {
    "name": "cone-flat-fiber",
    "n": 1,
    "coordinates": ["t", "u", "v"],
    "domain": {"t": [0.5, 5.0], "u": [-3.0, 3.0], "v": [-3.0, 3.0]},
    "constants": ["c", "ct"],
    "g": [["1", "0", "0"], ["0", "t^2", "0"], ["0", "0", "-t^2"]],
    "phi": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
    "xi": ["1", "0", "0"],
    "eta": ["1", "0", "0"],
    "frame": [["0", "0", "1"], ["1/t", "0", "0"], ["0", "1/t", "0"]],
    "expect": {
        "christoffel": [
            [["0", "0", "0"], ["0", "-t", "0"], ["0", "0", "t"]],
            [["0", "1/t", "0"], ["1/t", "0", "0"], ["0", "0", "0"]],
            [["0", "0", "1/t"], ["0", "0", "0"], ["1/t", "0", "0"]],
        ],
        "R_1212": "-1/t^2",
        "rho_11": "-1/t^2",
        "rho_22": "1/t^2",
        "tau": "-2/t^2",
        "tau_star": "0",
        "theta_star_xi": "2/t",
        "tau_tilde": "-2/t^2",
        "gtilde": [["1", "0", "0"], ["0", "0", "-t*t"], ["0", "-t*t", "0"]],
        "grad_theta_star_xi": ["-2/t^2", "0", "0"],
        "h": "1/t",
        "potentials": {
            "g": {"k": "c*t", "f": "c", "lambda": "-2/t^2 - c"},
            "gtilde": {"k": "ct*t", "f": "ct", "lambda": "-2/t^2 - ct"},
        },
    },
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
    return _structure_from_dict(raw, json.dumps(raw, sort_keys=True).encode("utf-8"))


# -- structural validation --------------------------------------------------


def validate_structure(S: AccRStructure, jets: StructureJets, tol: float = 1e-9) -> list[CheckRecord]:
    """The records of the defining identities of an almost contact B-metric structure.

    `jets` are the structure jets of S over a batch of samples (see
    `geometry.SampleGeometry.jets`), of which only the values are read.
    Every identity is evaluated once over the whole batch, and its record
    carries the max-norm of its deviation over all samples:
      phi(xi) = 0, phi^2 = -id + eta(x) xi, eta(phi(x)) = 0, eta(xi) = 1,
      g(phi x, phi y) = -g(x, y) + eta(x) eta(y), g(x, xi) = eta(x),
      g(xi, xi) = 1.
    The last record passes where the metric signature is (n+1, n) at every sample.
    """
    eye = np.eye(S.dim)
    g, phi, xi, eta = (field.value for field in jets)
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
    records = [
        record_from_residual(f"structure: {key}", key, [float(np.max(np.abs(dev)))], tol)
        for key, dev in deviations.items()
    ]
    pos, neg = signature_of(g)
    right = bool(np.all((pos == S.n + 1) & (neg == S.n)))
    records.append(CheckRecord("structure: signature", f"metric signature ({S.n + 1},{S.n}) at every sample",
                               VERDICT_PASS if right else VERDICT_FAIL))
    return records


# -- sampling ----------------------------------------------------------------


def latin_hypercube(chart: Chart, count: int, seed: int = 42) -> np.ndarray:
    """Deterministic Latin hypercube over the open domain box, as a (count, d) array.

    Each coordinate axis is split into `count` strata.  Per axis, in axis
    order, `count` uniform keys are drawn, whose stable argsort assigns the
    strata to the points, and then `count` uniforms u, which place each point
    at 0.05 + 0.9 u of its stratum's width, so points stay strictly inside
    the open box.  Every uniform is `random.Random(seed).random()`, whose
    sequence for a given seed Python keeps the same across versions.  A
    negative seed raises ValueError, a non-integer one TypeError, and a count
    past what an array can address MemoryError, as one too large to allocate.
    """
    try:
        seed = operator.index(seed)
    except TypeError:  # random.Random would seed with hash() of a float or string
        raise TypeError(f"seed must be an integer, not {type(seed).__name__}") from None
    if seed < 0:  # random.Random would seed with abs(seed)
        raise ValueError(f"seed must be non-negative, got {seed}")
    if count <= 0:
        return np.empty((0, chart.dim))
    if count > sys.maxsize // (8 * chart.dim):  # numpy would raise OverflowError or ValueError
        raise MemoryError(f"{count} samples of {chart.dim} coordinates exceed the address space")
    # endless; each np.fromiter allocates its `count` floats before drawing any
    draws = iter(random.Random(seed).random, None)
    columns = []
    for lo, hi in chart.domain:
        strata = np.argsort(np.fromiter(draws, float, count), kind="stable")
        offsets = 0.05 + 0.9 * np.fromiter(draws, float, count)
        fractions = (strata + offsets) / count
        columns.append(lo + fractions * (hi - lo))
    return np.stack(columns, axis=1)


def sample_points(
    chart: Chart,
    count: int,
    seed: int = 42,
    pinned: Iterable[Sequence[float]] = (),
) -> np.ndarray:
    """A (count, d) array: the pinned points first, then Latin hypercube samples."""
    pins = np.asarray(list(pinned) or np.empty((0, chart.dim)), dtype=float)
    chart.require_inside(pins)
    if len(pins) > count:
        raise ValueError(f"{len(pins)} pinned points exceed sample budget {count}")
    return np.concatenate([pins, latin_hypercube(chart, count - len(pins), seed)])


def check_bindings(chart: Chart, bindings: Mapping[str, float], required: Iterable[str]) -> None:
    """Fail fast when a referenced constant is unbound or non-finite."""
    for name in sorted(set(required)):
        if name not in bindings:
            raise UnboundConstant(name)
        if not np.isfinite(bindings[name]):
            raise DomainError(f"constant {name} = {bindings[name]} is not finite")
