"""Classification, torse-forming extraction, Yamabe almost-soliton solving,
and the check records that each command reports.

Class membership is a pointwise identity, so verdicts aggregate over the
sample set by max residual: one bad point fails the class.  The soliton
solver never raises on a failed proportionality test; "not-soliton" is an
answer, not an error.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, ManifoldParseError, NonVerticalPotential, ZeroPotential
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
    "MembershipEntry",
    "ClassMembership",
    "TorseFormingResult",
    "SolitonSolveResult",
    "sasaki_form_residual",
    "f5_form_residual",
    "check_sasaki_like",
    "check_f5",
    "classify",
    "torse_forming_extract",
    "proportionality_split",
    "yamabe_soliton_solve",
    "validation_records",
    "classification_records",
    "curvature_records",
    "report_records",
    "soliton_records",
    "verify_paper_suite",
    "DEFAULT_SUITE_BINDINGS",
]

HOLDS = "holds"
FAILS = "fails"
DEGENERATE = "degenerate"

_F_ZERO_THRESHOLD = 1e-12
_VERTICAL_TOL = 1e-9


class MembershipEntry(NamedTuple):
    name: str
    status: str                    # holds | fails | degenerate
    residual: float
    extras: dict[str, float]       # consequence-identity residuals, when applicable


class ClassMembership(NamedTuple):
    sasaki_like: MembershipEntry
    f5: MembershipEntry
    f5_0: MembershipEntry
    f0: MembershipEntry

    def entries(self) -> tuple[MembershipEntry, ...]:
        return (self.sasaki_like, self.f5, self.f5_0, self.f0)


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


def _require_finite(geo: SampleGeometry, what: str, *per_sample) -> None:
    """A DomainError naming the first sample where one of the arrays, each with a leading
    sample axis, is not finite: an overflow ends the run rather than reading as a verdict.

    Called with numpy's overflow and invalid warnings off, as the arithmetic it screens.
    """
    if np.isfinite(sum(float(np.sum(a)) for a in per_sample)):
        return  # an inf or NaN anywhere makes the sum non-finite
    bad = np.zeros(len(geo.points), dtype=bool)
    for a in per_sample:
        bad |= ~np.isfinite(a).reshape(len(bad), -1).all(axis=-1)
    if bad.any():  # else only the sum overflowed
        k = int(np.argmax(bad))
        where = ", ".join(f"{c}={float(x)!r}" for c, x in zip(geo.structure.chart.coordinates, geo.points[k]))
        raise DomainError(f"{what} is not finite at sample {k} ({where})", bad)


def check_sasaki_like(geo: SampleGeometry, tol: float = 1e-9) -> MembershipEntry:
    pg = geo.of(METRIC_G)
    worst = _norm(sasaki_form_residual(pg.F, pg.g, pg.phi, pg.eta))
    extras: dict[str, float] = {}
    if worst <= tol:
        # the defining form holds; verify its curvature consequences too
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
        deviations = {
            "nabla_x xi = -phi x": pg.nabla_xi + pg.phi,
            "R(x,y)xi = eta(y) x - eta(x) y": r_xi - rhs,
            "rho(x,xi) = 2n eta(x)": ricci_xi - two_n * pg.eta,
            "R(xi,y)z = g(y,z) xi - eta(z) y": r_from - rhs2,
            "rho(xi,xi) = 2n": _dot(xi_ricci, pg.xi) - two_n,
            "nabla~_x xi = -phi x": pgt.nabla_xi + pgt.phi,
        }
        extras = {key: _norm(dev) for key, dev in deviations.items()}
    status = HOLDS if worst <= tol else FAILS
    return MembershipEntry("sasaki_like", status, worst, extras)


def check_f5(
    geo: SampleGeometry, tol: float = 1e-9
) -> tuple[MembershipEntry, MembershipEntry, MembershipEntry]:
    """Membership entries for (F5, F5_0, F0)."""
    pg = geo.of(METRIC_G)
    f_norm = _norm(pg.F)
    res_f5 = _norm(f5_form_residual(pg.F, pg.g, pg.phi, pg.eta, pg.theta_star_xi, pg.n))
    xi_tsx = _dot(pg.grad_theta_star_xi, pg.xi)
    res_f50 = _norm(pg.grad_theta_star_xi - xi_tsx[..., None] * pg.eta)
    extras_f5 = {
        "theta* = theta*(xi) eta": _norm(pg.theta_star - pg.theta_star_xi[..., None] * pg.eta),
        "F(xi,y,z) = 0": _norm(np.einsum("...i,...ijz->...jz", pg.xi, pg.F)),
        "omega = 0": _norm(pg.omega),
    }

    degenerate = f_norm <= _F_ZERO_THRESHOLD
    f0 = MembershipEntry("f0", HOLDS if degenerate else FAILS, f_norm, {})
    if degenerate:
        f5 = MembershipEntry("f5", DEGENERATE, res_f5, {})
        f5_0 = MembershipEntry("f5_0", DEGENERATE, res_f50, {})
    else:
        f5_holds = res_f5 <= tol
        f5 = MembershipEntry(
            "f5", HOLDS if f5_holds else FAILS, res_f5, extras_f5 if f5_holds else {}
        )
        # where its F5 premise fails, F5_0 fails by the larger of the two residuals
        f5_0 = MembershipEntry(
            "f5_0",
            HOLDS if (f5_holds and res_f50 <= tol) else FAILS,
            res_f50 if f5_holds else max(res_f5, res_f50),
            {},
        )
    return f5, f5_0, f0


def classify(geo: SampleGeometry, tol: float = 1e-9) -> ClassMembership:
    sasaki = check_sasaki_like(geo, tol)
    f5, f5_0, f0 = check_f5(geo, tol)
    return ClassMembership(sasaki_like=sasaki, f5=f5, f5_0=f5_0, f0=f0)


# -- torse-forming vector fields ----------------------------------------------


class TorseFormingResult(NamedTuple):
    f: np.ndarray                      # conformal scalar per sample
    gamma: np.ndarray                  # generating 1-form per sample, shape (samples, dim)
    residual: float                    # worst least-squares fit error
    per_sample_residual: np.ndarray
    taxonomy: frozenset[str]
    k: np.ndarray                      # the scalar k of v = k xi per sample
    dk: np.ndarray                     # its differential per sample, shape (samples, dim)
    h: np.ndarray                      # f/k per sample
    vertical_checks: dict[str, float]
    v: np.ndarray                      # the potential per sample, shape (samples, dim)
    dv: np.ndarray                     # dv[k, z, m] = d_m v^z at sample k


def torse_forming_extract(geo: SampleGeometry, tag: str, k: Expression, tol: float = 1e-9) -> TorseFormingResult:
    """Least-squares fit of nabla_j v^i = f delta^i_j + v^i gamma_j per sample, for v = k xi.

    v and dv = xi dk + k dxi are formed from the jets of the scalar k and the
    structure jets of xi.  The dim^2 equations are linear in the dim+1
    unknowns (f, gamma), and the design matrix has full column rank wherever
    v != 0, which the zero-potential guard ensures.  The unique minimiser of
    |f I + v gamma^T - N|_F, with N[i,j] = nabla_j v^i, is therefore solved in
    closed form over all samples, from v = 2^e u with max |u| in [1/2, 1), an
    exact scaling that keeps v^T N v from overflowing:

        f = (tr N - u^T N u / |u|^2) / (dim - 1),   gamma = (u^T N - f u^T) / (2^e |u|^2).

    The fit residual doubles as the membership test for the torse-forming
    condition.  Raises ZeroPotential naming the first sample where v
    vanishes, and NonVerticalPotential the first where v is not eta(v) xi,
    which is where the structure's eta(xi) = 1 fails.
    """
    dim = geo.structure.dim
    pg = geo.of(tag)
    (k_jets,) = eval_field_jets([[k]], geo.points, geo.bindings)
    k_arr, dk = k_jets.value[:, 0], k_jets.partial[:, 0]
    xi = geo.jets.xi
    v = k_arr[:, None] * xi.value
    dv = xi.value[:, :, None] * dk[:, None, :]
    if xi.partial.any():
        dv = k_arr[:, None, None] * xi.partial + dv
    size = np.max(np.abs(v), axis=-1)
    if (vanishing := size <= _F_ZERO_THRESHOLD).any():
        where = tuple(round(float(x), 6) for x in geo.points[np.argmax(vanishing)])
        raise ZeroPotential(f"potential vanishes at sample {where}")
    e = np.frexp(size)[1]
    u = np.ldexp(v, -e[:, None])
    eye = np.eye(dim)

    with np.errstate(over="ignore", invalid="ignore"):
        nth = dv + np.einsum("...kis,...s->...ki", pg.gamma, v)   # nth[..., i, j] = nabla_j v^i
        u2 = _dot(u, u)
        u_nth = np.einsum("...i,...ij->...j", u, nth)
        f_arr = (np.trace(nth, axis1=-2, axis2=-1) - _dot(u_nth, u) / u2) / (dim - 1)
        gamma_arr = (u_nth - f_arr[:, None] * u) / np.ldexp(u2, e)[:, None]
        fit = f_arr[:, None, None] * eye + np.einsum("...i,...j->...ij", v, gamma_arr) - nth
        fit_arr = _max_abs(fit, 2)
        drift = _max_abs(v - _dot(pg.eta, v)[:, None] * pg.xi, 1)
        _require_finite(geo, "torse-forming fit of the potential", fit_arr, drift)
    off = drift > _VERTICAL_TOL
    if off.any():
        first = int(np.argmax(off))
        where = tuple(round(float(x), 6) for x in geo.points[first])
        raise NonVerticalPotential(f"potential deviates from k*xi by {drift[first]:.3e} at sample {where}")
    worst_fit = float(np.max(fit_arr))

    # the generating form is compared only where k is bounded away from zero
    usable = np.abs(k_arr) > _F_ZERO_THRESHOLD
    gamma_vertical = np.divide(
        dk - f_arr[:, None] * pg.eta, k_arr[:, None], out=np.zeros_like(dk), where=usable[:, None]
    )
    res_gm = float(np.max(_max_abs(gamma_arr - gamma_vertical, 1)[usable], initial=0.0))
    phi2 = pg.phi @ pg.phi
    res_v3 = _norm(nth - (-f_arr[:, None, None] * phi2 + np.einsum("...k,...i->...ki", pg.xi, dk)))
    res_fdk = _norm(f_arr - _dot(dk, pg.xi))

    is_tf = worst_fit <= tol
    taxonomy: set[str] = set()
    if is_tf:
        taxonomy.add("torse-forming")
        gamma_of_v = _dot(gamma_arr, v)
        gamma_norm = _norm(gamma_arr)
        if _norm(gamma_of_v) <= tol:
            taxonomy.add("torqued")
        if gamma_norm <= tol:
            taxonomy.add("concircular")
            if _norm(f_arr - 1.0) <= tol:
                taxonomy.add("concurrent")
        if _norm(f_arr) <= tol:
            taxonomy.add("recurrent")
            if gamma_norm <= tol:
                taxonomy.add("parallel")

    return TorseFormingResult(
        f=f_arr,
        gamma=gamma_arr,
        residual=worst_fit,
        per_sample_residual=fit_arr,
        taxonomy=frozenset(taxonomy),
        k=k_arr,
        dk=dk,
        h=f_arr / k_arr,
        vertical_checks={
            "gamma = (dk - f eta) / k": res_gm,
            "nabla_x v = -f phi^2 x + dk(x) xi": res_v3,
            "f = dk(xi)": res_fdk,
        },
        v=v,
        dv=dv,
    )


# -- Yamabe almost solitons ----------------------------------------------------


class SolitonSolveResult(NamedTuple):
    verdict: str                       # soliton | not-soliton
    lambdas: np.ndarray                # tau_tag - mu per sample
    residuals: np.ndarray              # proportionality residual per sample
    half_lie: np.ndarray               # A = (1/2) L_v metric per sample
    theorem_checks: dict[str, float | None]
    torse: TorseFormingResult


def proportionality_split(A: np.ndarray, g: np.ndarray, ginv: np.ndarray):
    """Best proportionality factor of A against g, and the max-norm remainder, per sample.

    mu is extracted by metric trace, which stays well defined for indefinite
    metrics with vanishing entries where entrywise division would not be.
    """
    dim = g.shape[-1]
    mu = np.einsum("...ij,...ij->...", ginv, A) / dim
    return mu, _max_abs(A - mu[..., None, None] * g, 2)


def yamabe_soliton_solve(geo: SampleGeometry, tag: str, k: Expression, tol: float = 1e-9) -> SolitonSolveResult:
    """Solve (1/2) L_v metric = (tau - lambda) metric for the vertical potential v = k xi.

    Per sample: A := (1/2) L_v(metric); mu := trace_metric(A)/(2n+1);
    the verdict is soliton iff max |A - mu metric| <= tol everywhere, and
    then lambda := tau_tag - mu.  When the potential is also torse-forming,
    the claims tau = f + lambda and f = dk(xi) are checked as residuals.
    """
    torse = torse_forming_extract(geo, tag, k, tol)
    pg = geo.of(tag)
    with np.errstate(over="ignore", invalid="ignore"):
        A = lie_derivative_metric(pg, torse.v, torse.dv) / 2.0
        mu, resid_arr = proportionality_split(A, pg.g, pg.ginv)
        lam_arr = pg.tau - mu
        _require_finite(geo, f"Lie derivative of metric {tag} along the potential", resid_arr, lam_arr)
    verdict = "soliton" if float(np.max(resid_arr)) <= tol else "not-soliton"
    checks: dict[str, float | None] = {"tau = f + lambda": None, "f = dk(xi)": None}
    if verdict == "soliton" and "torse-forming" in torse.taxonomy:
        checks["tau = f + lambda"] = _norm(pg.tau - torse.f - lam_arr)
        checks["f = dk(xi)"] = torse.vertical_checks["f = dk(xi)"]
    return SolitonSolveResult(
        verdict=verdict,
        lambdas=lam_arr,
        residuals=resid_arr,
        half_lie=A,
        theorem_checks=checks,
        torse=torse,
    )


# -- the check records of each command -----------------------------------------

_STATUS_VERDICT = {HOLDS: VERDICT_PASS, FAILS: VERDICT_FAIL, DEGENERATE: VERDICT_DEGENERATE}


def _value_record(name, anchor, values):
    return CheckRecord(
        name=name,
        anchor=anchor,
        verdict=VERDICT_NA,
        residual=None,
        samples=tuple(values.tolist()),
    )


def validation_records(geo: SampleGeometry, tol: float) -> list[CheckRecord]:
    """One record per defining identity of the structure, and one for the signature."""
    vr = validate_structure(geo.structure, geo.jets, tol)
    records = [
        record_from_residual(f"structure: {key}", key, [value], tol)
        for key, value in vr.residuals.items()
    ]
    records.append(
        CheckRecord(
            name="structure: signature",
            anchor=f"metric signature ({geo.structure.n + 1},{geo.structure.n}) at every sample",
            verdict=VERDICT_PASS if vr.signature == vr.expected_signature else VERDICT_FAIL,
            residual=None,
        )
    )
    return records


def classification_records(geo: SampleGeometry, tol: float) -> list[CheckRecord]:
    """Each class membership as an answer, and the consequences of those that hold."""
    cm = classify(geo, tol)
    anchors = {
        "sasaki_like": "F(x,y,z) = g(phi x,phi y) eta(z) + g(phi x,phi z) eta(y)",
        "f5": "F(x,y,z) = -(theta*(xi)/2n){g(x,phi y) eta(z) + g(x,phi z) eta(y)}",
        "f5_0": "d(theta*(xi)) = xi(theta*(xi)) eta",
        "f0": "F = 0 identically (within 1e-12)",
    }
    records = []
    for entry in cm.entries():
        records.append(
            CheckRecord(
                name=f"class {entry.name}: {entry.status}",
                anchor=anchors[entry.name],
                verdict=_STATUS_VERDICT[entry.status],
                residual=entry.residual,
            )
        )
        for key, value in sorted(entry.extras.items()):
            records.append(
                record_from_residual(f"consequence of {entry.name}: {key}", key, [value], tol)
            )
    return records


def _identity_residuals(pg):
    """Per-sample residuals of one metric's identity suites.

    Metric compatibility, the curvature symmetries with the first Bianchi
    identity, and the properties of F, in that order.
    """
    return (
        metric_compatibility_residual(pg),
        worst_residual(curvature_symmetry_residuals(pg)),
        worst_residual(f_property_residuals(pg)),
    )


def _identity_records(geo, tag, tol):
    compat, sym, fprop = _identity_residuals(geo.of(tag))
    suffix = "" if tag == METRIC_G else " (associated metric)"
    return [
        record_from_residual(f"metric compatibility{suffix}", "nabla g = 0", compat, tol),
        record_from_residual(
            f"curvature symmetries{suffix}",
            "R(x,y,z,w) = -R(y,x,z,w) = -R(x,y,w,z) = R(z,w,x,y); first Bianchi",
            sym,
            tol,
        ),
        record_from_residual(
            f"fundamental tensor properties{suffix}",
            "F(x,y,z) = F(x,z,y); phi-phi expansion; F(x,phi y,xi) = (nabla_x eta) y",
            fprop,
            tol,
        ),
    ]


def _phi_frame_values(geo, tag):
    """R_1212, rho_11 and rho_22 of the tagged metric in the declared frame, per sample."""
    pg, S = geo.of(tag), geo.structure
    if S.frame is None:
        raise ManifoldParseError("structure declares no frame")
    (frames,) = eval_numbers([S.frame], geo.points, geo.bindings)
    _check_frames(frames)
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
        validation_records(geo, tol)
        + classification_records(geo, tol)
        + _identity_records(geo, METRIC_G, tol)
        + _identity_records(geo, METRIC_GTILDE, tol)
        + _cross_route_records(geo, tol, "short connection form (F5 structures)")
    )


def soliton_records(geo: SampleGeometry, tag: str, k_source: str, tol: float) -> list[CheckRecord]:
    """The torse-forming fit and the soliton solve of the potential k*xi for the tagged metric."""
    S = geo.structure
    k_expr = parse(k_source, S.chart.coordinates, S.chart.constants)
    check_bindings(S.chart, geo.bindings, k_expr.referenced_constants())
    sol = yamabe_soliton_solve(geo, tag, k_expr, tol)
    torse = sol.torse

    records = [
        record_from_residual(
            "torse-forming fit",
            "nabla_x v = f x + gamma(x) v",
            torse.per_sample_residual,
            tol,
        ),
        CheckRecord(
            name="taxonomy: " + (", ".join(sorted(torse.taxonomy)) or "none"),
            anchor="torqued iff gamma(v) = 0; concircular iff gamma = 0; concurrent iff f = 1 and gamma = 0",
            verdict=VERDICT_NA,
            residual=torse.residual,
        ),
        _value_record("conformal scalar f", "nabla_x v = f x + gamma(x) v", torse.f),
    ]
    if "torse-forming" in torse.taxonomy:
        records.append(
            record_from_residual(
                "generating form of a vertical potential",
                "gamma = (dk - f eta) / k",
                [torse.vertical_checks["gamma = (dk - f eta) / k"]],
                tol,
            )
        )
        records.append(
            record_from_residual(
                "vertical potential derivative",
                "nabla_x v = -f phi^2 x + dk(x) xi",
                [torse.vertical_checks["nabla_x v = -f phi^2 x + dk(x) xi"]],
                tol,
            )
        )
        records.append(
            CheckRecord(
                name="torqued criterion",
                anchor="f = dk(xi), equivalent to gamma(v) = 0",
                verdict=VERDICT_NA,
                residual=torse.vertical_checks["f = dk(xi)"],
            )
        )
    metric_name = "g" if tag == METRIC_G else "g~"
    records.append(
        CheckRecord(
            name=f"Yamabe almost soliton for {metric_name}: {sol.verdict}",
            anchor="(1/2) L_v metric = (tau - lambda) metric",
            verdict=VERDICT_PASS if sol.verdict == "soliton" else VERDICT_FAIL,
            residual=float(np.max(sol.residuals)),
            samples=tuple(sol.residuals.tolist()),
        )
    )
    records.append(_value_record("soliton function lambda", "lambda = tau - mu", sol.lambdas))
    for key in ("tau = f + lambda", "f = dk(xi)"):
        value = sol.theorem_checks[key]
        if value is not None:
            records.append(record_from_residual(f"theorem: {key}", key, [value], tol))
    return records


# -- the golden suite ----------------------------------------------------------

DEFAULT_SUITE_BINDINGS = {"c": 1.0, "ct": 1.0, "kprime": 0.0}


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
    values = eval_numbers(fields, geo.points, geo.bindings)
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

    # structure identities
    vr = validate_structure(S, geo.jets, tol)
    records.append(
        CheckRecord(
            name="structure identities",
            anchor="phi^2 = -id + eta(x) xi; g(phi x,phi y) = -g(x,y) + eta(x) eta(y); signature (n+1,n)",
            verdict=VERDICT_PASS if vr.passed else VERDICT_FAIL,
            residual=max(vr.residuals.values()),
            samples=None,
        )
    )

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

    # classification: each record passes when its class has the expected status
    cm = classify(geo, tol)
    for name, anchor, entry, expected in (
        ("class: not Sasaki-like",
         "F(x,y,z) = g(phi x,phi y) eta(z) + g(phi x,phi z) eta(y) must fail", cm.sasaki_like, FAILS),
        ("class: F5",
         "F(x,y,z) = -(theta*(xi)/2n){g(x,phi y) eta(z) + g(x,phi z) eta(y)}", cm.f5, HOLDS),
        ("class: F5 with closed Lee form", "d(theta*(xi)) = xi(theta*(xi)) eta", cm.f5_0, HOLDS),
        ("class: not F0", "||F|| > 0", cm.f0, FAILS),
    ):
        verdict = VERDICT_PASS if entry.status == expected else VERDICT_FAIL
        records.append(CheckRecord(name, anchor, verdict, residual=entry.residual, samples=None))
    add("Lee form omega", "omega = 0", _max_abs(pg.omega, 1))
    add(
        "Lee form theta* shape",
        "theta* = theta*(xi) eta",
        _max_abs(pg.theta_star - pg.theta_star_xi[:, None] * pg.eta, 1),
    )

    # identity suites, both metrics
    compat, sym, fprop = np.maximum(_identity_residuals(pg), _identity_residuals(pgt))
    add("metric compatibility", "nabla g = 0 and nabla~ g~ = 0", compat)
    add(
        "curvature symmetries and first Bianchi",
        "R(x,y,z,w) = -R(y,x,z,w) = -R(x,y,w,z) = R(z,w,x,y); cyclic sum 0",
        sym,
    )
    add(
        "fundamental tensor properties",
        "F(x,y,z) = F(x,z,y) = F(x,phi y,phi z) + eta(y) F(x,xi,z) + eta(z) F(x,y,xi); F(x,phi y,xi) = (nabla_x eta) y",
        fprop,
    )

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
    fits = {tag: sol.torse for tag, sol in sols.items()}
    for tag, m, s in metrics:
        name = f"conformal scalar of the {m}-potential"
        if given(name, K[tag], F[tag]):
            add(name, f"nabla{s}_x v{s} = f{s} x, gamma{s} = 0 with f{s} = {text[F[tag]]}",
                np.maximum(np.abs(fits[tag].f - want[F[tag]]), _max_abs(fits[tag].gamma, 1)))
    for tag, m, s in metrics:
        name = f"taxonomy of the {m}-potential"
        if given(name, K[tag], F[tag]):
            flags = fits[tag].taxonomy
            ok = {"torse-forming", "torqued", "concircular"} <= flags
            ok = ok and ("concurrent" in flags) == (_norm(want[F[tag]] - 1.0) <= tol)
            records.append(CheckRecord(
                name=name,
                anchor=f"torse-forming, torqued, concircular; concurrent exactly where f{s} = 1, "
                       f"with f{s} = {text[F[tag]]}",
                verdict=VERDICT_PASS if ok else VERDICT_FAIL,
                residual=fits[tag].residual,
                samples=tuple(fits[tag].per_sample_residual.tolist()),
            ))
    for tag, m, s in metrics:
        name = f"potential ratio for {m}"
        if given(name, K[tag], "h"):
            add(name, f"f{s}/k{s} = h {with_h}", np.abs(fits[tag].h - h))
    if given("potential ratios agree", *K.values()):
        ratios = np.abs(fits[METRIC_G].h - fits[METRIC_GTILDE].h)
        add("potential ratios agree", "f/k = f~/k~", ratios)
    for (tag, m, s), potential in zip(metrics, ("k = c t", "k~ = ct t")):
        name = f"scalar field equation of {potential}"
        if given(name, K[tag], "h"):
            add(name, f"dk{s}(xi) = h k{s} {with_h}", np.abs(_dot(fits[tag].dk, pg.xi) - h * fits[tag].k))
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

    for kind, key, anchor in (
        ("conformal scalar balance", "tau = f + lambda", "tau{s} = f{s} + lambda{s}"),
        ("torqued criterion", "f = dk(xi)", "f{s} = dk{s}(xi)"),
    ):
        for tag, m, s in metrics:
            name = f"{kind} for {m}"
            if given(name, K[tag]):
                value = sols[tag].theorem_checks[key]
                # value None means the premise (soliton + torse-forming) failed upstream
                if value is None:
                    records.append(CheckRecord(name, anchor.format(s=s), VERDICT_FAIL, residual=None))
                else:
                    add(name, anchor.format(s=s), [value])
    # the transfer of h between the metrics: both fits give the same f/k
    if given("potential ratio transfer", *K.values()):
        add("potential ratio transfer", "f/k = f~/k~ certified by both solvers", [float(np.max(ratios))])

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
            np.maximum(*(_max_abs(lie[tag] - lie_derivative_vertical(pm, fits[tag].k, fits[tag].dk), 2)
                         for tag, pm in ((METRIC_G, pg), (METRIC_GTILDE, pgt)))),
        )

    # contraction replay of the proportionality argument
    sol = sols.get(METRIC_G)
    if given("trace of the soliton equation", K[METRIC_G]):
        add(
            "trace of the soliton equation",
            "g^{ij} ((1/2) L_v g)_{ij} = (2n+1)(tau - lambda)",
            np.abs(np.einsum("...ij,...ij->...", pg.ginv, sol.half_lie) - S.dim * (pg.tau - sol.lambdas)),
        )
    if given("soliton equation on (xi,xi)", K[METRIC_G]):
        add(
            "soliton equation on (xi,xi)",
            "((1/2) L_v g)(xi,xi) = tau - lambda",
            np.abs(_dot(np.einsum("...i,...ij->...j", pg.xi, sol.half_lie), pg.xi) - (pg.tau - sol.lambdas)),
        )

    return records
