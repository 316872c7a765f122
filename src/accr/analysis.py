"""Classification, the Yamabe almost-soliton solve of a vertical potential with
its torse-forming fit, and the check records that each command reports.

A class is its records: an answer, which passes where the class holds,
fails where it does not and reads degenerate where the question is vacuous,
followed by the records of its consequences where the class holds.  Class
membership is a pointwise identity, so verdicts aggregate over the sample
set by max residual: one bad point fails the class.  The soliton
solver never raises on a failed proportionality test; "not-soliton" is an
answer, not an error.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ManifoldParseError, NonVerticalPotential, ZeroPotential, at_sample, require_finite
from .expr import Expression, eval_field_jets, eval_numbers, parse
from .geometry import (
    SampleGeometry,
    antisymmetrized_derivative,
    connection_f5_form,
    curvature_symmetry_residuals,
    f_property_residuals,
    f_tilde_components_from,
    lie_derivative_metric,
    lie_derivative_vertical,
    lowered_curvature,
    metric_compatibility_residual,
    nabla_tilde_components_from,
    tau_tilde_relations,
    torse_forming_curvature_residuals,
    worst_residual,
)
from .manifold import (
    METRIC_G,
    METRIC_GTILDE,
    check_bindings,
    validate_structure,
)
from .report import (
    CheckRecord,
    VERDICT_DEGENERATE,
    VERDICT_FAIL,
    VERDICT_NA,
    VERDICT_PASS,
    record_from_residual,
)
from .tensor import _check_frames, _congruence, _dot, _max_abs

__all__ = [
    "SolitonSolveResult",
    "sasaki_form_residual",
    "f5_form_residual",
    "classify",
    "proportionality_split",
    "yamabe_soliton_solve",
    "classification_records",
    "curvature_records",
    "report_records",
    "soliton_records",
    "verify_paper_suite",
    "DEFAULT_SUITE_BINDINGS",
]

_F_ZERO_THRESHOLD = 1e-12
_VERTICAL_TOL = 1e-9


def sasaki_form_residual(F, g, phi, eta):
    """max-norm deviation of F from g(phi x,phi y) eta(z) + g(phi x,phi z) eta(y), per sample."""
    gpp = _congruence(phi, g)
    rhs = np.einsum("...ij,...z->...ijz", gpp, eta) + np.einsum("...iz,...j->...ijz", gpp, eta)
    return _max_abs(F - rhs, 3)


def f5_form_residual(F, g, phi, eta, theta_star_xi, n):
    """max-norm deviation of F from -(theta*(xi)/2n){g(x,phi y) eta(z) + g(x,phi z) eta(y)}.

    An (N,) array of per-sample residuals.
    """
    gphi = np.einsum("...is,...sj->...ij", g, phi)
    shape = np.einsum("...ij,...z->...ijz", gphi, eta) + np.einsum("...iz,...j->...ijz", gphi, eta)
    scale = (theta_star_xi / (2 * n))[..., None, None, None]
    return _max_abs(F + scale * shape, 3)


def _norm(x) -> float:
    """max |x| over every sample and component."""
    return float(np.max(np.abs(x)))


# The defining form of each class, in the order every command reports the classes.
_CLASS_FORMS = {
    "sasaki_like": "F(x,y,z) = g(phi x,phi y) eta(z) + g(phi x,phi z) eta(y)",
    "f5": "F(x,y,z) = -(theta*(xi)/2n){g(x,phi y) eta(z) + g(x,phi z) eta(y)}",
    "f5_0": "d(theta*(xi)) = xi(theta*(xi)) eta",
    "f0": "F = 0 identically (within 1e-12)",
}
_CLASS_WORDS = {VERDICT_PASS: "holds", VERDICT_FAIL: "fails", VERDICT_DEGENERATE: "degenerate"}


def classify(geo: SampleGeometry, tol: float = 1e-9) -> dict[str, list[CheckRecord]]:
    """The records of each class, keyed by class: its answer, then the consequences where it holds.

    The answer `class NAME: holds|fails|degenerate` passes where the class
    holds.  Where F = 0 (F0) the F5 questions are vacuous, and their answers
    read degenerate; where F5 fails, F5_0 fails by the larger of the two
    residuals.
    """
    pg = geo.of(METRIC_G)
    res_sasaki = _norm(sasaki_form_residual(pg.F, pg.g, pg.phi, pg.eta))
    f_norm = _norm(pg.F)
    res_f5 = _norm(f5_form_residual(pg.F, pg.g, pg.phi, pg.eta, pg.theta_star_xi, pg.n))
    res_f50 = _norm(pg.grad_theta_star_xi - _dot(pg.grad_theta_star_xi, pg.xi)[..., None] * pg.eta)
    if f_norm <= _F_ZERO_THRESHOLD:
        f5 = f5_0 = VERDICT_DEGENERATE
    else:
        f5 = VERDICT_PASS if res_f5 <= tol else VERDICT_FAIL
        f5_0 = VERDICT_PASS if f5 == VERDICT_PASS and res_f50 <= tol else VERDICT_FAIL
        if f5 == VERDICT_FAIL:
            res_f50 = max(res_f5, res_f50)
    answers = {
        "sasaki_like": (VERDICT_PASS if res_sasaki <= tol else VERDICT_FAIL, res_sasaki),
        "f5": (f5, res_f5),
        "f5_0": (f5_0, res_f50),
        "f0": (VERDICT_PASS if f_norm <= _F_ZERO_THRESHOLD else VERDICT_FAIL, f_norm),
    }

    consequences = {}
    if res_sasaki <= tol:
        pgt = geo.of(METRIC_GTILDE)
        eye = np.eye(geo.structure.dim)
        two_n = 2 * geo.structure.n
        r_xi = np.einsum("...lkij,...k->...lij", pg.r13, pg.xi)
        rhs = np.einsum("...j,li->...lij", pg.eta, eye) - np.einsum("...i,lj->...lij", pg.eta, eye)
        r_from = np.einsum("...lkij,...i->...lkj", pg.r13, pg.xi)
        rhs2 = (
            np.einsum("...jk,...l->...lkj", pg.g, pg.xi) - np.einsum("...k,lj->...lkj", pg.eta, eye)
        )
        ricci_xi = np.einsum("...ij,...j->...i", pg.ricci, pg.xi)
        xi_ricci = np.einsum("...i,...ij->...j", pg.xi, pg.ricci)
        consequences["sasaki_like"] = {
            "nabla_x xi = -phi x": pg.nabla_xi + pg.phi,
            "R(x,y)xi = eta(y) x - eta(x) y": r_xi - rhs,
            "rho(x,xi) = 2n eta(x)": ricci_xi - two_n * pg.eta,
            "R(xi,y)z = g(y,z) xi - eta(z) y": r_from - rhs2,
            "rho(xi,xi) = 2n": _dot(xi_ricci, pg.xi) - two_n,
            "nabla~_x xi = -phi x": pgt.nabla_xi + pgt.phi,
        }
    if f5 == VERDICT_PASS:
        consequences["f5"] = {
            "theta* = theta*(xi) eta": pg.theta_star - pg.theta_star_xi[..., None] * pg.eta,
            "F(xi,y,z) = 0": np.einsum("...i,...ijz->...jz", pg.xi, pg.F),
            "omega = 0": pg.omega,
        }
    return {
        name: [CheckRecord(f"class {name}: {_CLASS_WORDS[verdict]}", _CLASS_FORMS[name], verdict, residual)] + [
            record_from_residual(f"consequence of {name}: {key}", key, [_norm(deviation)], tol)
            for key, deviation in sorted(consequences.get(name, {}).items())
        ]
        for name, (verdict, residual) in answers.items()
    }


# -- Yamabe almost solitons with a vertical potential -----------------------------


class SolitonSolveResult(NamedTuple):
    k: np.ndarray                      # the scalar k of v = k xi per sample
    dk: np.ndarray                     # its differential per sample, shape (samples, dim)
    f: np.ndarray                      # conformal scalar of the torse-forming fit per sample
    gamma: np.ndarray                  # generating 1-form of the fit per sample, shape (samples, dim)
    fit_residuals: np.ndarray          # max |f I + v gamma^T - nabla v| per sample
    taxonomy: frozenset[str]
    verdict: str                       # soliton | not-soliton
    nth: np.ndarray                    # nth[k, i, j] = nabla_j v^i at sample k
    half_lie: np.ndarray               # A = (1/2) L_v metric per sample
    lambdas: np.ndarray                # tau_tag - mu per sample
    residuals: np.ndarray              # proportionality residual per sample


def proportionality_split(A: np.ndarray, g: np.ndarray, ginv: np.ndarray):
    """Best proportionality factor of A against g, and the max-norm remainder, per sample.

    mu is extracted by metric trace, which stays well defined for indefinite
    metrics with vanishing entries where entrywise division would not be.
    """
    dim = g.shape[-1]
    mu = np.einsum("...ij,...ij->...", ginv, A) / dim
    return mu, _max_abs(A - mu[..., None, None] * g, 2)


def yamabe_soliton_solve(geo: SampleGeometry, tag: str, k: Expression, tol: float = 1e-9) -> SolitonSolveResult:
    """Fit nabla_j v^i = f delta^i_j + v^i gamma_j, and solve (1/2) L_v metric = (tau - lambda) metric.

    The potential is vertical, v = k xi: v and dv = xi dk + k dxi are formed
    from the jets of the scalar k and the structure jets of xi.  The fit reads
    f and gamma off N[i,j] = nabla_j v^i through the structure's own dual of v,
    eta(v) = k, which the zero-potential guard keeps nonzero.  Applying eta and
    the trace to N = f I + v gamma^T gives, for every sample at once,

        f = (tr N - eta(N xi)) / (dim - 1),   gamma = (eta N - f eta) / k,

    the exact solution wherever one exists; f/k and gamma - d ln k do not
    depend on k.  The fit residual doubles as the membership test for the
    torse-forming condition.  Then per sample: A := (1/2) L_v(metric); mu :=
    trace_metric(A)/(2n+1); the verdict is soliton iff max |A - mu metric| <=
    tol everywhere, and then lambda := tau_tag - mu.

    Raises ZeroPotential naming the first sample where v vanishes, and
    NonVerticalPotential the first where v is not eta(v) xi (by more than 1e-9
    of max |v|), which is where the structure's eta(xi) = 1 fails.
    """
    dim = geo.structure.dim
    pg = geo.of(tag)
    (k_jets,) = eval_field_jets([[k]], geo.evaluation)
    k_arr, dk = k_jets.value[:, 0], k_jets.partial[:, 0]
    xi = geo.jets.xi
    v = k_arr[:, None] * xi.value
    dv = k_arr[:, None, None] * xi.partial + xi.value[:, :, None] * dk[:, None, :]
    size = np.max(np.abs(v), axis=-1)
    coordinates = geo.structure.chart.coordinates
    if (vanishing := size <= _F_ZERO_THRESHOLD).any():
        raise ZeroPotential(f"potential vanishes at {at_sample(coordinates, geo.points, vanishing)}")

    with np.errstate(over="ignore", invalid="ignore"):
        nth = dv + np.einsum("...kis,...s->...ki", pg.gamma, v)   # nth[..., i, j] = nabla_j v^i
        eta_nth = np.einsum("...i,...ij->...j", pg.eta, nth)
        f_arr = (np.trace(nth, axis1=-2, axis2=-1) - _dot(eta_nth, pg.xi)) / (dim - 1)
        gamma_arr = (eta_nth - f_arr[:, None] * pg.eta) / k_arr[:, None]
        fit = f_arr[:, None, None] * np.eye(dim) + np.einsum("...i,...j->...ij", v, gamma_arr) - nth
        fit_arr = _max_abs(fit, 2)
        drift = _max_abs(v - _dot(pg.eta, v)[:, None] * pg.xi, 1)
        require_finite("torse-forming fit of the potential", coordinates, geo.points, fit_arr, drift)
    off = drift > _VERTICAL_TOL * size
    if off.any():
        where = at_sample(coordinates, geo.points, off)
        raise NonVerticalPotential(f"potential deviates from k*xi by {drift[np.argmax(off)]:.3e} at {where}")

    taxonomy: frozenset[str] = frozenset()
    if float(np.max(fit_arr)) <= tol:
        concircular, recurrent = _norm(gamma_arr) <= tol, _norm(f_arr) <= tol
        taxonomy = frozenset(name for name, holds in (
            ("torse-forming", True),
            ("torqued", _norm(_dot(gamma_arr, v)) <= tol),
            ("concircular", concircular),
            ("concurrent", concircular and _norm(f_arr - 1.0) <= tol),
            ("recurrent", recurrent),
            ("parallel", recurrent and concircular),
        ) if holds)

    with np.errstate(over="ignore", invalid="ignore"):
        A = lie_derivative_metric(pg, nth) / 2.0
        mu, resid_arr = proportionality_split(A, pg.g, pg.ginv)
        lam_arr = pg.tau - mu
        require_finite(f"Lie derivative of metric {tag} along the potential", coordinates, geo.points,
                       resid_arr, lam_arr)
    verdict = "soliton" if float(np.max(resid_arr)) <= tol else "not-soliton"
    return SolitonSolveResult(k=k_arr, dk=dk, f=f_arr, gamma=gamma_arr, fit_residuals=fit_arr,
                              taxonomy=taxonomy, verdict=verdict, nth=nth, half_lie=A, lambdas=lam_arr,
                              residuals=resid_arr)


# The two checks of a torse-forming vertical potential that soliton_records and verify_paper_suite
# both make: each the worst residual of one solve


def _torqued_residual(pg, sol: SolitonSolveResult) -> float:
    """f = dk(xi), equivalent to gamma(v) = 0."""
    return _norm(sol.f - _dot(sol.dk, pg.xi))


def _balance_residual(pg, sol: SolitonSolveResult) -> float:
    """tau = f + lambda."""
    return _norm(pg.tau - sol.f - sol.lambdas)


def _torse_forming_soliton(sol: SolitonSolveResult) -> bool:
    """The premise of the theorem checks: the metric is a soliton for v, and v is torse-forming."""
    return sol.verdict == "soliton" and "torse-forming" in sol.taxonomy


# -- the check records of each command -----------------------------------------

def _value_record(name, anchor, values):
    return CheckRecord(
        name=name,
        anchor=anchor,
        verdict=VERDICT_NA,
        residual=None,
        samples=tuple(values.tolist()),
    )


def classification_records(geo: SampleGeometry, tol: float) -> list[CheckRecord]:
    """The records of every class, in order."""
    return [record for records in classify(geo, tol).values() for record in records]


def _identity_records(geo, tag, tol):
    """The tagged metric's identity suites: metric compatibility, the curvature symmetries with
    the first Bianchi identity, and the properties of F, in that order."""
    pg = geo.of(tag)
    suffix = "" if tag == METRIC_G else " (associated metric)"
    return [
        record_from_residual(f"metric compatibility{suffix}", "nabla g = 0", metric_compatibility_residual(pg), tol),
        record_from_residual(
            f"curvature symmetries{suffix}",
            "R(x,y,z,w) = -R(y,x,z,w) = -R(x,y,w,z) = R(z,w,x,y); first Bianchi",
            worst_residual(curvature_symmetry_residuals(pg)),
            tol,
        ),
        record_from_residual(
            f"fundamental tensor properties{suffix}",
            "F(x,y,z) = F(x,z,y); phi-phi expansion; F(x,phi y,xi) = (nabla_x eta) y",
            worst_residual(f_property_residuals(pg)),
            tol,
        ),
    ]


def _phi_frame_values(geo, tag):
    """R_1212, rho_11 and rho_22 of the tagged metric in the declared frame, per sample."""
    pg, S = geo.of(tag), geo.structure
    if S.frame is None:
        raise ManifoldParseError("structure declares no frame")
    (frames,) = eval_numbers([S.frame], geo.evaluation)
    _check_frames(frames, S.chart.coordinates, geo.points)
    e1, e2 = frames[..., 0], frames[..., 1]
    return {
        "R_1212": np.einsum("...ijkw,...i,...j,...k,...w->...", lowered_curvature(pg), e1, e2, e1, e2),
        "rho_11": np.einsum("...ij,...i,...j->...", pg.ricci, e1, e1),
        "rho_22": np.einsum("...ij,...i,...j->...", pg.ricci, e2, e2),
    }


def curvature_records(geo: SampleGeometry, tag: str, tol: float) -> list[CheckRecord]:
    """Curvature values of the tagged metric per sample, and its identity suites."""
    pg = geo.of(tag)
    records = [
        _value_record("scalar curvature", "tau = g^{jk} rho_jk", pg.tau),
        _value_record("associated scalar curvature", "tau* = g^{ij} rho_is phi^s_j", pg.tau_star),
        _value_record("Lee scalar", "theta*(xi)", pg.theta_star_xi),
    ]
    if geo.structure.frame is not None:
        for key, values in _phi_frame_values(geo, tag).items():
            records.append(
                _value_record(f"phi-frame {key}", f"{key} in the frame e_1..e_2n, xi", values)
            )
    records.extend(_identity_records(geo, tag, tol))
    return records


def _cross_route_records(geo, tol, short_form_name):
    """The associated connection and F~ built from g, each against its direct value.

    `short_form_name` titles the third record, which `report` and
    `verify-paper` have always named differently.
    """
    pg, pgt = geo.of(METRIC_G), geo.of(METRIC_GTILDE)
    ntn = _max_abs(nabla_tilde_components_from(pg) - pgt.gamma, 3)
    tff = _max_abs(f_tilde_components_from(pg) - pgt.F, 3)
    short_form = _max_abs(connection_f5_form(pg) - pgt.gamma, 3)
    return [
        record_from_residual(
            "associated Christoffels: direct vs correction route",
            "2g(nabla~_x y,z) = 2g(nabla_x y,z) - F(x,y,phi z) - F(y,x,phi z) + F(phi z,x,y) + eta-terms",
            ntn,
            tol,
        ),
        record_from_residual(
            "associated fundamental tensor: direct vs transfer route",
            "2F~(x,y,z) = F(phi y,z,x) - F(y,phi z,x) + F(phi z,y,x) - F(z,phi y,x) + eta-terms",
            tff,
            tol,
        ),
        record_from_residual(
            short_form_name,
            "nabla~_x y = nabla_x y - (theta*(xi)/2n){g(x,phi y) + g(phi x,phi y)} xi",
            short_form,
            tol,
        ),
    ]


def report_records(geo: SampleGeometry, tol: float) -> list[CheckRecord]:
    """Validation, classification, both metrics' identity suites and the cross routes."""
    return (
        validate_structure(geo.structure, geo.jets, tol)
        + classification_records(geo, tol)
        + _identity_records(geo, METRIC_G, tol)
        + _identity_records(geo, METRIC_GTILDE, tol)
        + _cross_route_records(geo, tol, "short connection form (F5 structures)")
    )


def soliton_records(geo: SampleGeometry, tag: str, k_source: str, tol: float) -> list[CheckRecord]:
    """The torse-forming fit and the soliton solve of the potential k*xi for the tagged metric."""
    S, pg = geo.structure, geo.of(tag)
    k_expr = parse(k_source, S.chart.coordinates, S.chart.constants)
    check_bindings(S.chart, geo.bindings, k_expr.referenced_constants())
    sol = yamabe_soliton_solve(geo, tag, k_expr, tol)

    records = [
        record_from_residual("torse-forming fit", "nabla_x v = f x + gamma(x) v", sol.fit_residuals, tol),
        CheckRecord(
            name="taxonomy: " + (", ".join(sorted(sol.taxonomy)) or "none"),
            anchor="torqued iff gamma(v) = 0; concircular iff gamma = 0; concurrent iff f = 1 and gamma = 0",
            verdict=VERDICT_NA,
            residual=float(np.max(sol.fit_residuals)),
        ),
        _value_record("conformal scalar f", "nabla_x v = f x + gamma(x) v", sol.f),
    ]
    if "torse-forming" in sol.taxonomy:
        gamma_vertical = (sol.dk - sol.f[:, None] * pg.eta) / sol.k[:, None]
        generating = _norm(sol.gamma - gamma_vertical)
        nabla_v = -sol.f[:, None, None] * (pg.phi @ pg.phi) + np.einsum("...k,...i->...ki", pg.xi, sol.dk)
        torqued = _torqued_residual(pg, sol)
        records += [
            record_from_residual("generating form of a vertical potential", "gamma = (dk - f eta) / k",
                                 [generating], tol),
            record_from_residual("vertical potential derivative", "nabla_x v = -f phi^2 x + dk(x) xi",
                                 [_norm(sol.nth - nabla_v)], tol),
            CheckRecord("torqued criterion", "f = dk(xi), equivalent to gamma(v) = 0", VERDICT_NA, torqued),
        ]
    metric_name = "g" if tag == METRIC_G else "g~"
    records += [
        CheckRecord(
            name=f"Yamabe almost soliton for {metric_name}: {sol.verdict}",
            anchor="(1/2) L_v metric = (tau - lambda) metric",
            verdict=VERDICT_PASS if sol.verdict == "soliton" else VERDICT_FAIL,
            residual=float(np.max(sol.residuals)),
            samples=tuple(sol.residuals.tolist()),
        ),
        _value_record("soliton function lambda", "lambda = tau - mu", sol.lambdas),
    ]
    if _torse_forming_soliton(sol):
        records += [
            record_from_residual("theorem: tau = f + lambda", "tau = f + lambda", [_balance_residual(pg, sol)], tol),
            record_from_residual("theorem: f = dk(xi)", "f = dk(xi)", [torqued], tol),
        ]
    return records


# -- the golden suite ----------------------------------------------------------

DEFAULT_SUITE_BINDINGS = {"c": 1.0, "ct": 1.0}


def verify_paper_suite(geo: SampleGeometry, tol: float = 1e-9) -> list[CheckRecord]:
    """The structure's published example, and the theorems it illustrates, as check records.

    Each golden record compares a computed quantity with the structure's
    expectation of it (`AccRStructure.expect`) on the samples of `geo`, and
    the potential records solve for the potentials k xi the structure names.
    A record whose expectation the structure does not give reads n/a and
    names the missing key.  The constants the expectations read must be
    bound in `geo`.
    """
    S = geo.structure
    text = {key: written for key, written, _ in S.expect}
    expect = {key: np.array(value, dtype=object) for key, _, value in S.expect}  # each in its shape
    every = [e for value in expect.values() for e in value.flat]
    check_bindings(S.chart, geo.bindings, {name for e in every for name in e.referenced_constants()})
    # every expectation but the potentials' k (their fits evaluate them as jets), in one evaluation
    shaped = {key: value for key, value in expect.items() if not key.endswith(".k")}
    fields = [list(value.flat) for value in shaped.values()]
    values = eval_numbers(fields, geo.evaluation)
    want = {key: v.reshape(v.shape[:1] + shaped[key].shape) for key, v in zip(shaped, values)}

    records: list[CheckRecord] = []

    def add(name, anchor, per_sample):
        records.append(record_from_residual(name, anchor, per_sample, tol))

    def given(name, *keys):
        """Whether the structure gives every one of `keys`; if not, an n/a record names the first it lacks."""
        missing = [key for key in keys if key not in expect]
        if missing:
            records.append(CheckRecord(name, f"expect.{missing[0]} is not given", VERDICT_NA))
        return not missing

    # structure identities: the records of validate_structure, as one
    structure = validate_structure(S, geo.jets, tol)
    records.append(CheckRecord(
        name="structure identities",
        anchor="phi^2 = -id + eta(x) xi; g(phi x,phi y) = -g(x,y) + eta(x) eta(y); signature (n+1,n)",
        verdict=VERDICT_PASS if all(r.verdict == VERDICT_PASS for r in structure) else VERDICT_FAIL,
        residual=max(r.residual for r in structure if r.residual is not None),
    ))

    pg = geo.of(METRIC_G)
    pgt = geo.of(METRIC_GTILDE)

    # golden values of the connection, the curvature and the associated metric
    frame_values = _phi_frame_values(geo, METRIC_G) if expect.keys() & {"R_1212", "rho_11", "rho_22"} else {}
    for name, key, symbol, computed in (
        ("Christoffel symbols of g", "christoffel", "Gamma^k_ij", pg.gamma),
        ("curvature R_1212 in the phi-frame", "R_1212", "R_1212", frame_values.get("R_1212")),
        ("Ricci rho_11 in the phi-frame", "rho_11", "rho_11", frame_values.get("rho_11")),
        ("Ricci rho_22 in the phi-frame", "rho_22", "rho_22", frame_values.get("rho_22")),
        ("scalar curvature of g", "tau", "tau", pg.tau),
        ("associated scalar curvature", "tau_star", "tau*", pg.tau_star),
        ("Lee form value on xi", "theta_star_xi", "theta*(xi)", pg.theta_star_xi),
        ("scalar curvature of the associated metric", "tau_tilde", "tau~", pgt.tau),
        ("associated metric components", "gtilde", "g~", pgt.g),
    ):
        if given(name, key):
            add(name, f"{symbol} = {text[key]}", _max_abs(computed - want[key], computed.ndim - 1))

    # nabla xi = -h phi^2 for both metrics, and F on xi, with h = theta*(xi)/2n
    h, with_h = want.get("h"), f"with h = {text.get('h')}"
    for name, relation, computed, form in (
        ("Reeb field derivative", "nabla_x xi = -h phi^2 x", pg.nabla_xi, pg.phi @ pg.phi),
        ("Reeb field derivative, associated metric", "nabla~_x xi = -h phi^2 x",
         pgt.nabla_xi, pgt.phi @ pgt.phi),
        ("fundamental tensor on xi", "F(x,y,xi) = -h g(x,phi y)",
         np.einsum("...ijs,...s->...ij", pg.F, pg.xi), np.einsum("...is,...sj->...ij", pg.g, pg.phi)),
    ):
        if given(name, "h"):
            add(name, f"{relation} {with_h}", _max_abs(computed + h[:, None, None] * form, 2))
    if given("gradient of the Lee scalar", "grad_theta_star_xi"):
        add(
            "gradient of the Lee scalar",
            f"d(theta*(xi)) = {text['grad_theta_star_xi']}",
            _max_abs(pg.grad_theta_star_xi - want["grad_theta_star_xi"], 1),
        )
    add(
        "Lee form is closed",
        "d theta* = 0",
        _max_abs(antisymmetrized_derivative(pg.dtheta_star), 2),
    )

    # classification: each record passes when its class's answer has the expected verdict
    classes = classify(geo, tol)
    for name, key, expected, anchor in (
        ("class: not Sasaki-like", "sasaki_like", VERDICT_FAIL, "{} must fail"),
        ("class: F5", "f5", VERDICT_PASS, "{}"),
        ("class: F5 with closed Lee form", "f5_0", VERDICT_PASS, "{}"),
        ("class: not F0", "f0", VERDICT_FAIL, "||F|| > 0"),
    ):
        answer = classes[key][0]
        verdict = VERDICT_PASS if answer.verdict == expected else VERDICT_FAIL
        records.append(CheckRecord(name, anchor.format(answer.anchor), verdict, residual=answer.residual))
    add("Lee form omega", "omega = 0", _max_abs(pg.omega, 1))
    add(
        "Lee form theta* shape",
        "theta* = theta*(xi) eta",
        _max_abs(pg.theta_star - pg.theta_star_xi[:, None] * pg.eta, 1),
    )

    # identity suites, both metrics: the worse of each metric's record at each sample
    for name, anchor, of_g, of_gt in zip(
        ("metric compatibility", "curvature symmetries and first Bianchi", "fundamental tensor properties"),
        ("nabla g = 0 and nabla~ g~ = 0",
         "R(x,y,z,w) = -R(y,x,z,w) = -R(x,y,w,z) = R(z,w,x,y); cyclic sum 0",
         "F(x,y,z) = F(x,z,y) = F(x,phi y,phi z) + eta(y) F(x,xi,z) + eta(z) F(x,y,xi); "
         "F(x,phi y,xi) = (nabla_x eta) y"),
        _identity_records(geo, METRIC_G, tol),
        _identity_records(geo, METRIC_GTILDE, tol),
    ):
        add(name, anchor, np.maximum(of_g.samples, of_gt.samples))

    # torse-forming curvature identities
    tf_res = torse_forming_curvature_residuals(pg)
    add(
        "curvature against the Lee scalar",
        "R(x,y)xi = -{dh(x) + h^2 eta(x)} phi^2 y + {dh(y) + h^2 eta(y)} phi^2 x",
        tf_res["R(x,y)xi = -{dh(x)+h^2 eta(x)} phi^2 y + {dh(y)+h^2 eta(y)} phi^2 x"],
    )
    add(
        "Ricci against the Lee scalar",
        "rho(y,xi) = -(2n-1) dh(y) - {dh(xi) + 2n h^2} eta(y); rho(xi,xi) = -2n{dh(xi) + h^2}; R(xi,y)z expansion",
        worst_residual(
            {key: value for key, value in tf_res.items() if not key.startswith("R(x,y)xi")}
        ),
    )
    for name, (anchor, residual) in zip(
        ("scalar curvature transfer", "scalar curvature transfer via h"), tau_tilde_relations(pg, pgt).items()
    ):
        add(name, anchor, residual)

    records.extend(_cross_route_records(geo, tol, "short connection form on F5"))

    # potentials and solitons: one solve, with its torse-forming fit, per potential
    # the structure names, shared by the records below
    metrics = ((METRIC_G, "g", ""), (METRIC_GTILDE, "g~", "~"))  # each tag, its name and its symbols' mark
    K, F, LAMBDA = ({tag: f"potentials.{tag}.{part}" for tag, _, _ in metrics}
                    for part in ("k", "f", "lambda"))
    sols = {
        tag: yamabe_soliton_solve(geo, tag, expect[K[tag]].item(), tol)
        for tag, _, _ in metrics if K[tag] in expect
    }
    ratio = {tag: sol.f / sol.k for tag, sol in sols.items()}
    for tag, m, s in metrics:
        name = f"conformal scalar of the {m}-potential"
        if given(name, K[tag], F[tag]):
            add(name, f"nabla{s}_x v{s} = f{s} x, gamma{s} = 0 with f{s} = {text[F[tag]]}",
                np.maximum(np.abs(sols[tag].f - want[F[tag]]), _max_abs(sols[tag].gamma, 1)))
    for tag, m, s in metrics:
        name = f"taxonomy of the {m}-potential"
        if given(name, K[tag], F[tag]):
            flags = sols[tag].taxonomy
            ok = {"torse-forming", "torqued", "concircular"} <= flags
            ok = ok and ("concurrent" in flags) == (_norm(want[F[tag]] - 1.0) <= tol)
            records.append(CheckRecord(
                name=name,
                anchor=f"torse-forming, torqued, concircular; concurrent exactly where f{s} = 1, "
                       f"with f{s} = {text[F[tag]]}",
                verdict=VERDICT_PASS if ok else VERDICT_FAIL,
                residual=float(np.max(sols[tag].fit_residuals)),
                samples=tuple(sols[tag].fit_residuals.tolist()),
            ))
    for tag, m, s in metrics:
        name = f"potential ratio for {m}"
        if given(name, K[tag], "h"):
            add(name, f"f{s}/k{s} = h {with_h}", np.abs(ratio[tag] - h))
    if given("potential ratios agree", *K.values()):
        add("potential ratios agree", "f/k = f~/k~", np.abs(ratio[METRIC_G] - ratio[METRIC_GTILDE]))
    # dk(xi) = h k with each metric's own h, not the expect block's, so that it tests the engine
    for (tag, m, s), potential in zip(metrics, ("k = c t", "k~ = ct t")):
        name = f"scalar field equation of {potential}"
        if given(name, K[tag]):
            add(name, f"dk{s}(xi) = h{s} k{s} with h{s} = theta{s}*(xi)/2n",
                np.abs(_dot(sols[tag].dk, pg.xi) - geo.of(tag).h * sols[tag].k))
    for tag, m, s in metrics:
        name = f"Yamabe almost soliton for {m}"
        if given(name, K[tag], LAMBDA[tag]):
            sol = sols[tag]
            dev = np.abs(sol.lambdas - want[LAMBDA[tag]])
            ok = sol.verdict == "soliton" and float(np.max(dev)) <= tol
            records.append(CheckRecord(
                name=name,
                anchor=f"(1/2) L_v{s} {m} = (tau{s} - lambda{s}) {m} with lambda{s} = {text[LAMBDA[tag]]}",
                verdict=VERDICT_PASS if ok else VERDICT_FAIL,
                residual=max(float(np.max(dev)), float(np.max(sol.residuals))),
                samples=tuple(dev.tolist()),
            ))

    for kind, check, anchor in (
        ("conformal scalar balance", _balance_residual, "tau{s} = f{s} + lambda{s}"),
        ("torqued criterion", _torqued_residual, "f{s} = dk{s}(xi)"),
    ):
        for tag, m, s in metrics:
            name = f"{kind} for {m}"
            if given(name, K[tag]):
                if _torse_forming_soliton(sols[tag]):
                    add(name, anchor.format(s=s), [check(geo.of(tag), sols[tag])])
                else:
                    records.append(CheckRecord(name, anchor.format(s=s), VERDICT_FAIL, residual=None))
    # the transfer of h between the metrics: the g-potential's f/k is the h~ of g~'s own geometry
    if given("potential ratio transfer", K[METRIC_G]):
        add("potential ratio transfer", "f/k = h~ = theta~*(xi)/2n", np.abs(ratio[METRIC_G] - pgt.h))

    # Lie derivative closed forms and the two expansion routes: each solve's A is
    # (1/2) L_v of its metric, and doubling undoes the halving exactly
    lie = {tag: 2.0 * sol.half_lie for tag, sol in sols.items()}
    if given("Lie derivatives of both metrics", *K.values(), *F.values()):
        add(
            "Lie derivatives of both metrics",
            f"L_v g = 2f g; L_v~ g~ = 2f~ g~ with f = {text[F[METRIC_G]]}, f~ = {text[F[METRIC_GTILDE]]}",
            np.maximum(*(_max_abs(lie[tag] - (2.0 * want[F[tag]])[:, None, None] * pm.g, 2)
                         for tag, pm in ((METRIC_G, pg), (METRIC_GTILDE, pgt)))),
        )
    if given("Lie derivative expansion for vertical potentials", *K.values()):
        add(
            "Lie derivative expansion for vertical potentials",
            "L_{k xi} m = dk otimes eta + eta otimes dk + k(m(nabla xi, .) + m(., nabla xi))",
            np.maximum(*(_max_abs(lie[tag] - lie_derivative_vertical(pm, sols[tag].k, sols[tag].dk), 2)
                         for tag, pm in ((METRIC_G, pg), (METRIC_GTILDE, pgt)))),
        )

    # the soliton equation traced and on (xi,xi), each read from nabla v: the solve takes tau - lambda
    # = mu from A = (1/2) L_v g, so A's trace matches it for any A, and A(xi,xi) for any A proportional to g
    sol = sols.get(METRIC_G)
    if given("trace of the soliton equation", K[METRIC_G]):
        add(
            "trace of the soliton equation",
            "div v = tr(nabla v) = (2n+1)(tau - lambda)",
            np.abs(np.trace(sol.nth, axis1=-2, axis2=-1) - S.dim * (pg.tau - sol.lambdas)),
        )
    if given("soliton equation on (xi,xi)", K[METRIC_G]):
        nabla_xi_v = np.einsum("...ij,...j->...i", sol.nth, pg.xi)
        add(
            "soliton equation on (xi,xi)",
            "((1/2) L_v g)(xi,xi) = g(nabla_xi v, xi) = tau - lambda",
            np.abs(_dot(np.einsum("...ij,...j->...i", pg.g, pg.xi), nabla_xi_v) - (pg.tau - sol.lambdas)),
        )

    return records
