"""Classification, torse-forming extraction, Yamabe almost-soliton solving,
and the check records that each command reports.

Class membership is a pointwise identity, so verdicts aggregate over the
sample set by max residual: one bad point fails the class.  The soliton
solver never raises on a failed proportionality test; "not-soliton" is an
answer, not an error.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NonVerticalPotential, ZeroPotential
from .expr import Expression, Num, multiply, parse
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
    vector_field_jets,
    worst_residual,
)
from .manifold import (
    METRIC_G,
    METRIC_GTILDE,
    AccRStructure,
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
from .tensor import _congruence, _dot, _max_abs, _to_phi_frames

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
    "vertical_potential",
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
    vertical: bool
    drift: np.ndarray                  # max |v - eta(v) xi| per sample: 0 where v is vertical
    k: np.ndarray | None               # eta(v) per sample, vertical only
    dk_xi: np.ndarray | None           # dk(xi) per sample, vertical only
    h: np.ndarray | None               # f/k per sample, vertical only
    vertical_checks: dict[str, float] | None
    v: np.ndarray                      # the potential per sample, shape (samples, dim)
    dv: np.ndarray                     # dv[k, z, m] = d_m v^z at sample k


def vertical_potential(S: AccRStructure, k_field: Expression | str) -> tuple[Expression, ...]:
    """Component expressions of k * xi for a scalar field k.

    A component where xi is the literal 0 is the literal 0, which the jet
    evaluation folds, rather than k * 0; where xi is the literal 1 it is k,
    whose errors then name k, rather than k * 1 (the same numbers: x * 1.0 is x).
    """
    if isinstance(k_field, str):
        k_field = parse(k_field, S.chart.coordinates, S.chart.constants)
    return tuple(
        component if component.ast == Num(0.0) else k_field if component.ast == Num(1.0)
        else multiply(k_field, component)
        for component in S.xi
    )


def torse_forming_extract(
    geo: SampleGeometry,
    tag: str,
    potential: Sequence[Expression],
    tol: float = 1e-9,
) -> TorseFormingResult:
    """Least-squares fit of nabla_j v^i = f delta^i_j + v^i gamma_j per sample.

    The dim^2 equations are linear in the dim+1 unknowns (f, gamma), and the
    design matrix has full column rank wherever v != 0, which the zero-potential
    guard ensures.  The unique minimiser of |f I + v gamma^T - N|_F, with
    N[i,j] = nabla_j v^i, is therefore solved in closed form over all samples:

        f = (tr N - v^T N v / |v|^2) / (dim - 1),   gamma = (v^T N - f v^T) / |v|^2.

    The fit residual doubles as the membership test for the torse-forming
    condition.  Raises ZeroPotential naming the first sample where v vanishes.
    """
    dim = geo.structure.dim
    pg = geo.of(tag)
    v, dv = vector_field_jets(potential, geo.points, geo.bindings)
    vanishing = np.max(np.abs(v), axis=-1) <= _F_ZERO_THRESHOLD
    if vanishing.any():
        where = tuple(round(float(x), 6) for x in geo.points[np.argmax(vanishing)])
        raise ZeroPotential(f"potential vanishes at sample {where}")
    eye = np.eye(dim)

    with np.errstate(over="ignore", invalid="ignore"):
        nth = dv + np.einsum("...kis,...s->...ki", pg.gamma, v)   # nth[..., i, j] = nabla_j v^i
        v2 = _dot(v, v)
        v_nth = np.einsum("...i,...ij->...j", v, nth)
        f_arr = (np.trace(nth, axis1=-2, axis2=-1) - _dot(v_nth, v) / v2) / (dim - 1)
        gamma_arr = (v_nth - f_arr[:, None] * v) / v2[:, None]
        fit = f_arr[:, None, None] * eye + np.einsum("...i,...j->...ij", v, gamma_arr) - nth
        fit_arr = _max_abs(fit, 2)
        k_arr = _dot(pg.eta, v)
        drift = _max_abs(v - k_arr[:, None] * pg.xi, 1)
        dk = np.einsum("...zm,...z->...m", pg.deta, v) + np.einsum("...z,...zm->...m", pg.eta, dv)
        _require_finite(geo, "torse-forming fit of the potential", fit_arr, drift, dk)
    worst_fit = float(np.max(fit_arr))

    dk_xi_arr = _dot(dk, pg.xi)
    # vertical-only identities; meaningful only if verticality holds.  The
    # generating form is compared only where k is bounded away from zero.
    usable = np.abs(k_arr) > _F_ZERO_THRESHOLD
    gamma_vertical = np.divide(
        dk - f_arr[:, None] * pg.eta, k_arr[:, None], out=np.zeros_like(dk), where=usable[:, None]
    )
    res_gm = float(np.max(_max_abs(gamma_arr - gamma_vertical, 1)[usable], initial=0.0))
    phi2 = pg.phi @ pg.phi
    res_v3 = _norm(nth - (-f_arr[:, None, None] * phi2 + np.einsum("...k,...i->...ki", pg.xi, dk)))
    res_fdk = _norm(f_arr - dk_xi_arr)

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

    vertical = float(np.max(drift)) <= _VERTICAL_TOL
    h_arr = None
    vchecks = None
    if vertical:
        h_arr = f_arr / k_arr
        vchecks = {
            "gamma = (dk - f eta) / k": res_gm,
            "nabla_x v = -f phi^2 x + dk(x) xi": res_v3,
            "f = dk(xi)": res_fdk,
        }
    return TorseFormingResult(
        f=f_arr,
        gamma=gamma_arr,
        residual=worst_fit,
        per_sample_residual=fit_arr,
        taxonomy=frozenset(taxonomy),
        vertical=vertical,
        drift=drift,
        k=k_arr if vertical else None,
        dk_xi=dk_xi_arr if vertical else None,
        h=h_arr,
        vertical_checks=vchecks,
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


def yamabe_soliton_solve(
    geo: SampleGeometry,
    tag: str,
    potential: Sequence[Expression],
    tol: float = 1e-9,
    other: TorseFormingResult | None = None,
) -> SolitonSolveResult:
    """Solve (1/2) L_v metric = (tau - lambda) metric for a vertical potential.

    Per sample: A := (1/2) L_v(metric); mu := trace_metric(A)/(2n+1);
    the verdict is soliton iff max |A - mu metric| <= tol everywhere, and
    then lambda := tau_tag - mu.  When the potential is also torse-forming,
    the claims tau = f + lambda and f = dk(xi) are checked as residuals;
    given the torse-forming fit of the other metric's potential (`other`),
    f/k of both metrics are compared.
    """
    torse = torse_forming_extract(geo, tag, potential, tol)
    off = torse.drift > _VERTICAL_TOL
    if off.any():
        first = int(np.argmax(off))
        where = tuple(round(float(x), 6) for x in geo.points[first])
        raise NonVerticalPotential(
            f"potential deviates from k*xi by {torse.drift[first]:.3e} at sample {where}"
        )

    pg = geo.of(tag)
    with np.errstate(over="ignore", invalid="ignore"):
        A = lie_derivative_metric(pg, torse.v, torse.dv) / 2.0
        mu, resid_arr = proportionality_split(A, pg.g, pg.ginv)
        lam_arr = pg.tau - mu
        _require_finite(geo, f"Lie derivative of metric {tag} along the potential", resid_arr, lam_arr)
    verdict = "soliton" if float(np.max(resid_arr)) <= tol else "not-soliton"
    checks: dict[str, float | None] = {
        "tau = f + lambda": None,
        "f = dk(xi)": None,
        "f/k matches between the two metrics": None,
    }
    if verdict == "soliton" and "torse-forming" in torse.taxonomy:
        checks["tau = f + lambda"] = _norm(pg.tau - torse.f - lam_arr)
        if torse.vertical_checks is not None:
            checks["f = dk(xi)"] = torse.vertical_checks["f = dk(xi)"]
    if other is not None and torse.h is not None and other.h is not None:
        checks["f/k matches between the two metrics"] = _norm(torse.h - other.h)
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
    vr = validate_structure(geo.structure, geo.points, geo.bindings, tol)
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
    pg = geo.of(tag)
    frames = geo.structure.frame_at(geo.points, geo.bindings)
    r04f, rhof = _to_phi_frames(frames, (lowered_curvature(pg), ("l",) * 4), (pg.ricci, ("l", "l")))
    return {"R_1212": r04f[:, 0, 1, 0, 1], "rho_11": rhof[:, 0, 0], "rho_22": rhof[:, 1, 1]}


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
    sol = yamabe_soliton_solve(geo, tag, vertical_potential(S, k_expr), tol)
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
    if torse.vertical_checks is not None and "torse-forming" in torse.taxonomy:
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
    """Reproduce every published number of the cone example as check records.

    Closed forms are parametrized by the constants c, ct (soliton potential
    slopes for g and the associated metric) and kprime (fiber curvature; the
    shipped fiber is flat, so DEFAULT_SUITE_BINDINGS binds kprime = 0), which
    the bindings of `geo` must hold.
    """
    S = geo.structure
    c, ct, kp = geo.bindings["c"], geo.bindings["ct"], geo.bindings["kprime"]
    dim = S.dim

    records: list[CheckRecord] = []

    def add(name, anchor, per_sample, tolerance=tol):
        records.append(record_from_residual(name, anchor, per_sample, tolerance))

    # structure identities
    vr = validate_structure(S, geo.points, geo.bindings, tol)
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
    ts = geo.points[:, 0]
    per_matrix = ts[:, None, None]

    # golden closed forms of the connection
    expected = np.zeros((len(ts), dim, dim, dim))
    expected[:, 0, 1, 1] = -ts
    expected[:, 0, 2, 2] = ts
    expected[:, 1, 0, 1] = expected[:, 1, 1, 0] = 1.0 / ts
    expected[:, 2, 0, 2] = expected[:, 2, 2, 0] = 1.0 / ts
    add(
        "Christoffel symbols of g",
        "Gamma^t_{uu} = -t, Gamma^t_{vv} = t, Gamma^u_{tu} = Gamma^v_{tv} = 1/t, rest 0",
        _max_abs(pg.gamma - expected, 3),
    )

    # phi-frame curvature values
    frame_values = _phi_frame_values(geo, METRIC_G)
    closed = (kp - 1.0) / ts**2
    add("curvature R_1212 in the phi-frame", "R_1212 = (kprime - 1)/t^2",
        np.abs(frame_values["R_1212"] - closed))
    add("Ricci rho_11 in the phi-frame", "rho_11 = (kprime - 1)/t^2",
        np.abs(frame_values["rho_11"] - closed))
    add("Ricci rho_22 in the phi-frame", "rho_22 = (1 - kprime)/t^2",
        np.abs(frame_values["rho_22"] + closed))
    add(
        "scalar curvature of g",
        "tau = 2(kprime - 1)/t^2",
        np.abs(pg.tau - 2.0 * (kp - 1.0) / ts**2),
    )
    add("associated scalar curvature", "tau* = 0", np.abs(pg.tau_star))
    add("Lee form value on xi", "theta*(xi) = 2/t", np.abs(pg.theta_star_xi - 2.0 / ts))
    add(
        "scalar curvature of the associated metric",
        "tau~ = -2/t^2",
        np.abs(pgt.tau + 2.0 / ts**2),
    )

    # associated metric components
    expected = np.zeros((len(ts), dim, dim))
    expected[:, 0, 0] = 1.0
    expected[:, 1, 2] = expected[:, 2, 1] = -ts * ts
    add(
        "associated metric components",
        "g~ = eta otimes eta - t^2 (du otimes dv + dv otimes du)",
        _max_abs(pgt.g - expected, 2),
    )

    # nabla xi for both metrics
    add(
        "Reeb field derivative",
        "nabla_x xi = -(1/t) phi^2 x",
        _max_abs(pg.nabla_xi + (pg.phi @ pg.phi) / per_matrix, 2),
    )
    add(
        "Reeb field derivative, associated metric",
        "nabla~_x xi = -(1/t) phi^2 x",
        _max_abs(pgt.nabla_xi + (pgt.phi @ pgt.phi) / per_matrix, 2),
    )

    # fundamental tensor shape
    fxi = np.einsum("...ijs,...s->...ij", pg.F, pg.xi)
    gphi = np.einsum("...is,...sj->...ij", pg.g, pg.phi)
    add(
        "fundamental tensor on xi",
        "F(x,y,xi) = -h g(x,phi y) with h = 1/t",
        _max_abs(fxi + gphi / per_matrix, 2),
    )
    add(
        "gradient of the Lee scalar",
        "d(theta*(xi)) = -(2/t^2) eta",
        _max_abs(pg.grad_theta_star_xi + (2.0 / ts**2)[:, None] * pg.eta, 1),
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
    tt = tau_tilde_relations(pg, pgt)
    add(
        "scalar curvature transfer",
        "tau~ = -tau* - ((2n+1)/2n) theta*(xi)^2 - 2 xi(theta*(xi))",
        tt["tau~ = -tau* - ((2n+1)/2n) theta*(xi)^2 - 2 xi(theta*(xi))"],
    )
    add(
        "scalar curvature transfer via h",
        "tau~ = -tau* - 2n(2n+1) h^2 - 4n dh(xi)",
        tt["tau~ = -tau* - 2n(2n+1) h^2 - 4n dh(xi)"],
    )

    records.extend(_cross_route_records(geo, tol, "short connection form on F5"))

    # potentials and solitons: one torse-forming fit per metric, shared by
    # both solves and by the records below
    k_expr = parse("c*t", S.chart.coordinates, S.chart.constants)
    kt_expr = parse("ct*t", S.chart.coordinates, S.chart.constants)
    pot = vertical_potential(S, k_expr)
    pott = vertical_potential(S, kt_expr)

    sol_gt = yamabe_soliton_solve(geo, METRIC_GTILDE, pott, tol)
    sol_g = yamabe_soliton_solve(geo, METRIC_G, pot, tol, other=sol_gt.torse)
    torse_g, torse_gt = sol_g.torse, sol_gt.torse
    add(
        "conformal scalar of the g-potential",
        "nabla_x v = c x: f = c, gamma = 0",
        np.maximum(np.abs(torse_g.f - c), _max_abs(torse_g.gamma, 1)),
    )
    add(
        "conformal scalar of the g~-potential",
        "nabla~_x v~ = ct x: f~ = ct, gamma~ = 0",
        np.maximum(np.abs(torse_gt.f - ct), _max_abs(torse_gt.gamma, 1)),
    )

    def flags_ok(torse, slope):
        want = {"torse-forming", "torqued", "concircular"}
        if not want <= torse.taxonomy:
            return False
        return ("concurrent" in torse.taxonomy) == (abs(slope - 1.0) <= tol)

    for metric_name, torse, slope, constant in (("g", torse_g, c, "c"), ("g~", torse_gt, ct, "ct")):
        records.append(CheckRecord(
            name=f"taxonomy of the {metric_name}-potential",
            anchor=f"torse-forming, torqued, concircular; concurrent exactly when {constant} = 1",
            verdict=VERDICT_PASS if flags_ok(torse, slope) else VERDICT_FAIL,
            residual=torse.residual,
            samples=tuple(torse.per_sample_residual.tolist()),
        ))
    add("potential ratio for g", "f/k = 1/t", np.abs(torse_g.h - 1.0 / ts))
    add("potential ratio for g~", "f~/k~ = 1/t", np.abs(torse_gt.h - 1.0 / ts))
    add("potential ratios agree", "f/k = f~/k~", np.abs(torse_g.h - torse_gt.h))
    add(
        "scalar field equation of k = c t",
        "t dk(xi) = k",
        np.abs(ts * torse_g.dk_xi - torse_g.k),
    )
    add(
        "scalar field equation of k~ = ct t",
        "t dk~(xi) = k~",
        np.abs(ts * torse_gt.dk_xi - torse_gt.k),
    )

    def soliton_record(name, anchor, sol, closed):
        dev = np.abs(sol.lambdas - closed)
        ok = sol.verdict == "soliton" and float(np.max(dev)) <= tol
        worst = max(float(np.max(dev)), float(np.max(sol.residuals)))
        return CheckRecord(
            name=name,
            anchor=anchor,
            verdict=VERDICT_PASS if ok else VERDICT_FAIL,
            residual=worst,
            samples=tuple(dev.tolist()),
        )

    records.append(
        soliton_record(
            "Yamabe almost soliton for g",
            "(1/2) L_v g = (tau - lambda) g with lambda = 2(kprime - 1)/t^2 - c",
            sol_g,
            2.0 * (kp - 1.0) / ts**2 - c,
        )
    )
    records.append(
        soliton_record(
            "Yamabe almost soliton for g~",
            "(1/2) L_v~ g~ = (tau~ - lambda~) g~ with lambda~ = -2/t^2 - ct",
            sol_gt,
            -2.0 / ts**2 - ct,
        )
    )
    def theorem_record(name, anchor, value):
        # value None means the premise (soliton + torse-forming) failed upstream
        if value is None:
            return CheckRecord(name=name, anchor=anchor, verdict=VERDICT_FAIL, residual=None)
        return record_from_residual(name, anchor, [value], tol)

    for name, anchor, sol, key in (
        ("conformal scalar balance for g", "tau = f + lambda", sol_g, "tau = f + lambda"),
        ("conformal scalar balance for g~", "tau~ = f~ + lambda~", sol_gt, "tau = f + lambda"),
        ("torqued criterion for g", "f = dk(xi)", sol_g, "f = dk(xi)"),
        ("torqued criterion for g~", "f~ = dk~(xi)", sol_gt, "f = dk(xi)"),
        ("potential ratio transfer", "f/k = f~/k~ certified by both solvers", sol_g,
         "f/k matches between the two metrics"),
    ):
        records.append(theorem_record(name, anchor, sol.theorem_checks[key]))

    # Lie derivative closed forms and the two expansion routes
    # each solve's A is (1/2) L_v of its metric, and doubling undoes the halving exactly
    lg = 2.0 * sol_g.half_lie
    lgt = 2.0 * sol_gt.half_lie
    lgv = lie_derivative_vertical(pg, k_expr.eval_jet(geo.points, geo.bindings))
    lgtv = lie_derivative_vertical(pgt, kt_expr.eval_jet(geo.points, geo.bindings))
    add(
        "Lie derivatives of both metrics",
        "L_v g = 2c g; L_v~ g~ = 2ct g~",
        np.maximum(_max_abs(lg - 2.0 * c * pg.g, 2), _max_abs(lgt - 2.0 * ct * pgt.g, 2)),
    )
    add(
        "Lie derivative expansion for vertical potentials",
        "L_{k xi} m = dk otimes eta + eta otimes dk + k(m(nabla xi, .) + m(., nabla xi))",
        np.maximum(_max_abs(lg - lgv, 2), _max_abs(lgt - lgtv, 2)),
    )

    # contraction replay of the proportionality argument
    half = sol_g.half_lie
    level = pg.tau - sol_g.lambdas
    add(
        "trace of the soliton equation",
        "g^{ij} ((1/2) L_v g)_{ij} = (2n+1)(tau - lambda)",
        np.abs(np.einsum("...ij,...ij->...", pg.ginv, half) - dim * level),
    )
    add(
        "soliton equation on (xi,xi)",
        "((1/2) L_v g)(xi,xi) = tau - lambda",
        np.abs(_dot(np.einsum("...i,...ij->...j", pg.xi, half), pg.xi) - level),
    )

    return records
