"""Classification, torse-forming extraction and Yamabe almost-soliton solving.

Class membership is a pointwise identity, so verdicts aggregate over the
sample set by max residual: one bad point fails the class.  The soliton
solver never raises on a failed proportionality test; "not-soliton" is an
answer, not an error.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import NonVerticalPotential, ZeroPotential
from .expr import Expression, multiply, parse
from .geometry import (
    SampleGeometry,
    antisymmetrized_derivative,
    connection_f5_form,
    curvature_symmetry_residuals,
    f_property_residuals,
    f_tilde_components_from,
    lie_derivative_metric,
    lie_derivative_vertical,
    metric_compatibility_residual,
    nabla_tilde_components_from,
    tau_tilde_relations,
    torse_forming_curvature_residuals,
    vector_field_jets,
)
from .manifold import (
    METRIC_G,
    METRIC_GTILDE,
    AccRStructure,
    builtin_structure,
    check_bindings,
    sample_points,
    validate_structure,
)
from .report import CheckRecord, record_from_residual, VERDICT_FAIL, VERDICT_PASS
from .tensor import COORDINATE, PointTensor, to_phi_frame

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
    "verify_paper_suite",
    "DEFAULT_SUITE_BINDINGS",
]

HOLDS = "holds"
FAILS = "fails"
DEGENERATE = "degenerate"

_F_ZERO_THRESHOLD = 1e-12
_VERTICAL_TOL = 1e-9


@dataclass(frozen=True)
class MembershipEntry:
    name: str
    status: str                    # holds | fails | degenerate
    residual: float
    extras: dict[str, float]       # consequence-identity residuals, when applicable
    samples: int


@dataclass(frozen=True)
class ClassMembership:
    sasaki_like: MembershipEntry
    f5: MembershipEntry
    f5_0: MembershipEntry
    f0: MembershipEntry

    def entries(self) -> tuple[MembershipEntry, ...]:
        return (self.sasaki_like, self.f5, self.f5_0, self.f0)


def sasaki_form_residual(F, g, phi, eta) -> float:
    """max-norm deviation of F from g(phi x,phi y) eta(z) + g(phi x,phi z) eta(y)."""
    gpp = np.einsum("ai,bj,ab->ij", phi, phi, g)
    rhs = np.einsum("ij,z->ijz", gpp, eta) + np.einsum("iz,j->ijz", gpp, eta)
    return float(np.max(np.abs(F - rhs)))


def f5_form_residual(F, g, phi, eta, theta_star_xi, n) -> float:
    """max-norm deviation of F from -(theta*(xi)/2n){g(x,phi y) eta(z) + g(x,phi z) eta(y)}."""
    gphi = np.einsum("is,sj->ij", g, phi)
    shape = np.einsum("ij,z->ijz", gphi, eta) + np.einsum("iz,j->ijz", gphi, eta)
    return float(np.max(np.abs(F + (theta_star_xi / (2 * n)) * shape)))


def check_sasaki_like(geo: SampleGeometry, tol: float = 1e-9) -> MembershipEntry:
    geoms = list(geo.of(METRIC_G))
    worst = 0.0
    for pg in geoms:
        worst = max(worst, sasaki_form_residual(pg.F, pg.g, pg.phi, pg.eta))
    extras: dict[str, float] = {}
    if worst <= tol:
        # the defining form holds; verify its curvature consequences too
        eye = np.eye(geo.structure.dim)
        two_n = 2 * geo.structure.n
        keys = {
            "nabla_x xi = -phi x": 0.0,
            "R(x,y)xi = eta(y) x - eta(x) y": 0.0,
            "rho(x,xi) = 2n eta(x)": 0.0,
            "R(xi,y)z = g(y,z) xi - eta(z) y": 0.0,
            "rho(xi,xi) = 2n": 0.0,
            "nabla~_x xi = -phi x": 0.0,
        }
        for pg, pgt in zip(geoms, geo.of(METRIC_GTILDE)):
            r_xi = np.einsum("lkij,k->lij", pg.r13, pg.xi)
            rhs = np.einsum("j,li->lij", pg.eta, eye) - np.einsum("i,lj->lij", pg.eta, eye)
            keys["R(x,y)xi = eta(y) x - eta(x) y"] = max(
                keys["R(x,y)xi = eta(y) x - eta(x) y"], float(np.max(np.abs(r_xi - rhs)))
            )
            keys["nabla_x xi = -phi x"] = max(
                keys["nabla_x xi = -phi x"], float(np.max(np.abs(pg.nabla_xi + pg.phi)))
            )
            keys["rho(x,xi) = 2n eta(x)"] = max(
                keys["rho(x,xi) = 2n eta(x)"],
                float(np.max(np.abs(pg.ricci @ pg.xi - two_n * pg.eta))),
            )
            r_from = np.einsum("lkij,i->lkj", pg.r13, pg.xi)
            rhs2 = np.einsum("jk,l->lkj", pg.g, pg.xi) - np.einsum("k,lj->lkj", pg.eta, eye)
            keys["R(xi,y)z = g(y,z) xi - eta(z) y"] = max(
                keys["R(xi,y)z = g(y,z) xi - eta(z) y"], float(np.max(np.abs(r_from - rhs2)))
            )
            keys["rho(xi,xi) = 2n"] = max(
                keys["rho(xi,xi) = 2n"], abs(float(pg.xi @ pg.ricci @ pg.xi) - two_n)
            )
            keys["nabla~_x xi = -phi x"] = max(
                keys["nabla~_x xi = -phi x"], float(np.max(np.abs(pgt.nabla_xi + pgt.phi)))
            )
        extras = keys
    status = HOLDS if worst <= tol else FAILS
    return MembershipEntry("sasaki_like", status, worst, extras, len(geo))


def check_f5(
    geo: SampleGeometry, tol: float = 1e-9
) -> tuple[MembershipEntry, MembershipEntry, MembershipEntry]:
    """Membership entries for (F5, F5_0, F0)."""
    res_f5 = 0.0
    res_f50 = 0.0
    f_norm = 0.0
    extras_f5 = {
        "theta* = theta*(xi) eta": 0.0,
        "F(xi,y,z) = 0": 0.0,
        "omega = 0": 0.0,
    }
    for pg in geo.of(METRIC_G):
        f_norm = max(f_norm, float(np.max(np.abs(pg.F))))
        res_f5 = max(res_f5, f5_form_residual(pg.F, pg.g, pg.phi, pg.eta, pg.theta_star_xi, pg.n))
        xi_tsx = float(pg.grad_theta_star_xi @ pg.xi)
        res_f50 = max(
            res_f50, float(np.max(np.abs(pg.grad_theta_star_xi - xi_tsx * pg.eta)))
        )
        extras_f5["theta* = theta*(xi) eta"] = max(
            extras_f5["theta* = theta*(xi) eta"],
            float(np.max(np.abs(pg.theta_star - pg.theta_star_xi * pg.eta))),
        )
        extras_f5["F(xi,y,z) = 0"] = max(
            extras_f5["F(xi,y,z) = 0"],
            float(np.max(np.abs(np.einsum("i,ijz->jz", pg.xi, pg.F)))),
        )
        extras_f5["omega = 0"] = max(extras_f5["omega = 0"], float(np.max(np.abs(pg.omega))))

    degenerate = f_norm <= _F_ZERO_THRESHOLD
    n_samples = len(geo)
    f0 = MembershipEntry("f0", HOLDS if degenerate else FAILS, f_norm, {}, n_samples)
    if degenerate:
        f5 = MembershipEntry("f5", DEGENERATE, res_f5, {}, n_samples)
        f5_0 = MembershipEntry("f5_0", DEGENERATE, res_f50, {}, n_samples)
    else:
        f5_holds = res_f5 <= tol
        f5 = MembershipEntry(
            "f5", HOLDS if f5_holds else FAILS, res_f5, extras_f5 if f5_holds else {}, n_samples
        )
        f5_0 = MembershipEntry(
            "f5_0", HOLDS if (f5_holds and res_f50 <= tol) else FAILS, res_f50, {}, n_samples
        )
    return f5, f5_0, f0


def classify(geo: SampleGeometry, tol: float = 1e-9) -> ClassMembership:
    sasaki = check_sasaki_like(geo, tol)
    f5, f5_0, f0 = check_f5(geo, tol)
    return ClassMembership(sasaki_like=sasaki, f5=f5, f5_0=f5_0, f0=f0)


# -- torse-forming vector fields ----------------------------------------------


@dataclass(frozen=True)
class TorseFormingResult:
    metric_tag: str
    f: np.ndarray                      # conformal scalar per sample
    gamma: np.ndarray                  # generating 1-form per sample, shape (samples, dim)
    residual: float                    # worst least-squares fit error
    per_sample_residual: np.ndarray
    condition_number: float
    taxonomy: frozenset[str]
    vertical: bool
    k: np.ndarray | None               # eta(v) per sample, vertical only
    dk_xi: np.ndarray | None           # dk(xi) per sample, vertical only
    h: np.ndarray | None               # f/k per sample, vertical only
    vertical_checks: dict[str, float] | None
    samples: int


def vertical_potential(S: AccRStructure, k_field: Expression | str) -> tuple[Expression, ...]:
    """Component expressions of k * xi for a scalar field k."""
    if isinstance(k_field, str):
        k_field = parse(k_field, S.chart.coordinates, S.chart.constants)
    return tuple(multiply(k_field, component) for component in S.xi)


def _potential_data(geo: SampleGeometry, tag: str, potential):
    """Per-sample (pg, v, dv) with the zero-potential guard applied."""
    pgs = geo.of(tag)
    v, dv = vector_field_jets(potential, geo.points, geo.bindings)
    vanishing = np.max(np.abs(v), axis=-1) <= _F_ZERO_THRESHOLD
    if vanishing.any():
        where = tuple(round(float(x), 6) for x in geo.points[np.argmax(vanishing)])
        raise ZeroPotential(f"potential vanishes at sample {where}")
    return list(zip(pgs, v, dv))


def torse_forming_extract(
    geo: SampleGeometry,
    tag: str,
    potential: Sequence[Expression],
    tol: float = 1e-9,
) -> TorseFormingResult:
    """Least-squares fit of nabla_j v^i = f delta^i_j + v^i gamma_j per sample.

    The dim^2 equations are linear in the dim+1 unknowns (f, gamma); the fit
    residual doubles as the membership test for the torse-forming condition.
    """
    dim = geo.structure.dim
    data = _potential_data(geo, tag, potential)

    fs, gammas, fit_residuals, conds = [], [], [], []
    vertical_res = 0.0
    ks, dk_xis = [], []
    res_gm = res_v3 = res_fdk = 0.0
    for pg, v, dv in data:
        nth = dv + np.einsum("kis,s->ki", pg.gamma, v)   # nth[i,j] = nabla_j v^i
        M = np.zeros((dim * dim, 1 + dim))
        b = np.zeros(dim * dim)
        for i in range(dim):
            for j in range(dim):
                row = i * dim + j
                M[row, 0] = 1.0 if i == j else 0.0
                M[row, 1 + j] = v[i]
                b[row] = nth[i, j]
        coef, _, _, _ = np.linalg.lstsq(M, b, rcond=None)
        f_val, gamma_form = float(coef[0]), coef[1:]
        fs.append(f_val)
        gammas.append(gamma_form)
        fit_residuals.append(float(np.max(np.abs(M @ coef - b))))
        conds.append(float(np.linalg.cond(M)))

        k_val = float(pg.eta @ v)
        vertical_res = max(vertical_res, float(np.max(np.abs(v - k_val * pg.xi))))
        dk = np.einsum("zm,z->m", pg.deta, v) + np.einsum("z,zm->m", pg.eta, dv)
        ks.append(k_val)
        dk_xis.append(float(dk @ pg.xi))
        # vertical-only identities; meaningful only if verticality holds
        phi2 = pg.phi @ pg.phi
        res_gm = max(
            res_gm, float(np.max(np.abs(gamma_form - (dk - f_val * pg.eta) / k_val)))
        ) if abs(k_val) > _F_ZERO_THRESHOLD else res_gm
        res_v3 = max(
            res_v3,
            float(np.max(np.abs(nth - (-f_val * phi2 + np.einsum("k,i->ki", pg.xi, dk))))),
        )
        res_fdk = max(res_fdk, abs(f_val - float(dk @ pg.xi)))

    f_arr = np.array(fs)
    gamma_arr = np.array(gammas)
    fit_arr = np.array(fit_residuals)
    worst_fit = float(np.max(fit_arr))

    is_tf = worst_fit <= tol
    taxonomy: set[str] = set()
    if is_tf:
        taxonomy.add("torse-forming")
        gamma_of_v = np.array([g_row @ v for (_, v, _), g_row in zip(data, gamma_arr)])
        gamma_norm = float(np.max(np.abs(gamma_arr)))
        if float(np.max(np.abs(gamma_of_v))) <= tol:
            taxonomy.add("torqued")
        if gamma_norm <= tol:
            taxonomy.add("concircular")
            if float(np.max(np.abs(f_arr - 1.0))) <= tol:
                taxonomy.add("concurrent")
        if float(np.max(np.abs(f_arr))) <= tol:
            taxonomy.add("recurrent")
            if gamma_norm <= tol:
                taxonomy.add("parallel")

    vertical = vertical_res <= _VERTICAL_TOL
    k_arr = np.array(ks) if vertical else None
    dk_xi_arr = np.array(dk_xis) if vertical else None
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
        metric_tag=tag,
        f=f_arr,
        gamma=gamma_arr,
        residual=worst_fit,
        per_sample_residual=fit_arr,
        condition_number=float(np.max(conds)),
        taxonomy=frozenset(taxonomy),
        vertical=vertical,
        k=k_arr,
        dk_xi=dk_xi_arr,
        h=h_arr,
        vertical_checks=vchecks,
        samples=len(geo),
    )


# -- Yamabe almost solitons ----------------------------------------------------


@dataclass(frozen=True)
class SolitonSolveResult:
    metric_tag: str
    verdict: str                       # soliton | not-soliton
    lambdas: np.ndarray                # tau_tag - mu per sample
    mu: np.ndarray
    residuals: np.ndarray              # proportionality residual per sample
    taus: np.ndarray
    theorem_checks: dict[str, float | None]
    torse: TorseFormingResult
    samples: int


def proportionality_split(A: np.ndarray, g: np.ndarray, ginv: np.ndarray) -> tuple[float, float]:
    """Best proportionality factor of A against g, and the max-norm remainder.

    mu is extracted by metric trace, which stays well defined for indefinite
    metrics with vanishing entries where entrywise division would not be.
    """
    dim = g.shape[0]
    mu = float(np.einsum("ij,ij->", ginv, A)) / dim
    return mu, float(np.max(np.abs(A - mu * g)))


def yamabe_soliton_solve(
    geo: SampleGeometry,
    tag: str,
    potential: Sequence[Expression],
    tol: float = 1e-9,
    other_potential: Sequence[Expression] | None = None,
) -> SolitonSolveResult:
    """Solve (1/2) L_v metric = (tau - lambda) metric for a vertical potential.

    Per sample: A := (1/2) L_v(metric); mu := trace_metric(A)/(2n+1);
    the verdict is soliton iff max |A - mu metric| <= tol everywhere, and
    then lambda := tau_tag - mu.  When the potential is also torse-forming,
    the claims tau = f + lambda and f = dk(xi) are checked as residuals;
    with a second potential given, f/k of both metrics are compared.
    """
    data = _potential_data(geo, tag, potential)
    for (pg, v, _), point in zip(data, geo.points):
        k_val = float(pg.eta @ v)
        drift = float(np.max(np.abs(v - k_val * pg.xi)))
        if drift > _VERTICAL_TOL:
            where = tuple(round(float(x), 6) for x in point)
            raise NonVerticalPotential(
                f"potential deviates from k*xi by {drift:.3e} at sample {where}"
            )

    mus, resids, lambdas, taus = [], [], [], []
    for (pg, v, dv) in data:
        nth = dv + np.einsum("kis,s->ki", pg.gamma, v)
        lg = np.einsum("kj,ki->ij", pg.g, nth) + np.einsum("ki,kj->ij", pg.g, nth)
        A = (lg + lg.T) / 4.0          # (1/2) L_v g, symmetrized
        mu, resid = proportionality_split(A, pg.g, pg.ginv)
        mus.append(mu)
        resids.append(resid)
        taus.append(pg.tau)
        lambdas.append(pg.tau - mu)

    resid_arr = np.array(resids)
    verdict = "soliton" if float(np.max(resid_arr)) <= tol else "not-soliton"
    lam_arr = np.array(lambdas)
    tau_arr = np.array(taus)

    torse = torse_forming_extract(geo, tag, potential, tol)
    checks: dict[str, float | None] = {
        "tau = f + lambda": None,
        "f = dk(xi)": None,
        "f/k matches between the two metrics": None,
    }
    if verdict == "soliton" and "torse-forming" in torse.taxonomy:
        checks["tau = f + lambda"] = float(np.max(np.abs(tau_arr - torse.f - lam_arr)))
        if torse.vertical_checks is not None:
            checks["f = dk(xi)"] = torse.vertical_checks["f = dk(xi)"]
    if other_potential is not None:
        other_tag = METRIC_GTILDE if tag == METRIC_G else METRIC_G
        other = torse_forming_extract(geo, other_tag, other_potential, tol)
        if torse.h is not None and other.h is not None:
            checks["f/k matches between the two metrics"] = float(
                np.max(np.abs(torse.h - other.h))
            )
    return SolitonSolveResult(
        metric_tag=tag,
        verdict=verdict,
        lambdas=lam_arr,
        mu=np.array(mus),
        residuals=resid_arr,
        taus=tau_arr,
        theorem_checks=checks,
        torse=torse,
        samples=len(geo),
    )


# -- the golden suite ----------------------------------------------------------

DEFAULT_SUITE_BINDINGS = {"c": 1.0, "ct": 1.0, "kprime": 0.0}


def verify_paper_suite(
    S: AccRStructure | None = None,
    bindings: Mapping[str, float] | None = None,
    samples: int = 64,
    seed: int = 42,
    pinned: Sequence[Sequence[float]] = (),
    tol: float = 1e-9,
) -> tuple[list[CheckRecord], list[np.ndarray]]:
    """Reproduce every published number of the cone example as check records.

    Closed forms are parametrized by the constants c, ct (soliton potential
    slopes for g and the associated metric) and kprime (fiber curvature; the
    shipped fiber is flat, so the defaults bind kprime = 0).
    """
    if S is None:
        S = builtin_structure("cone-flat-fiber")
    merged = dict(DEFAULT_SUITE_BINDINGS)
    merged.update(bindings or {})
    check_bindings(S.chart, merged, S.referenced_constants())
    c, ct, kp = merged["c"], merged["ct"], merged["kprime"]
    points = sample_points(S.chart, samples, seed, pinned)
    n = S.n
    two_n = 2 * n
    dim = S.dim

    records: list[CheckRecord] = []

    def add(name, anchor, per_sample, tolerance=tol):
        records.append(record_from_residual(name, anchor, per_sample, tolerance))

    # structure identities
    vr = validate_structure(S, points, merged, tol)
    records.append(
        CheckRecord(
            name="structure identities",
            anchor="phi^2 = -id + eta(x) xi; g(phi x,phi y) = -g(x,y) + eta(x) eta(y); signature (n+1,n)",
            verdict=VERDICT_PASS if vr.passed else VERDICT_FAIL,
            residual=max(vr.residuals.values()),
            samples=None,
        )
    )

    geo = SampleGeometry(S, points, merged)
    pgs = list(geo.of(METRIC_G))
    pgts = list(geo.of(METRIC_GTILDE))
    ts = np.array([p[0] for p in points])

    # golden closed forms of the connection
    def gamma_dev(pg, t):
        expected = np.zeros((dim, dim, dim))
        expected[0, 1, 1] = -t
        expected[0, 2, 2] = t
        expected[1, 0, 1] = expected[1, 1, 0] = 1.0 / t
        expected[2, 0, 2] = expected[2, 2, 0] = 1.0 / t
        return float(np.max(np.abs(pg.gamma - expected)))

    add(
        "Christoffel symbols of g",
        "Gamma^t_{uu} = -t, Gamma^t_{vv} = t, Gamma^u_{tu} = Gamma^v_{tv} = 1/t, rest 0",
        [gamma_dev(pg, t) for pg, t in zip(pgs, ts)],
    )

    # phi-frame curvature values
    frames = [S.frame_at(p, merged) for p in points]
    r1212, rho11, rho22 = [], [], []
    for pg, fr, t in zip(pgs, frames, ts):
        r04f = to_phi_frame(PointTensor(dim, ("l",) * 4, pg.r04, COORDINATE), fr)
        rhof = to_phi_frame(PointTensor(dim, ("l", "l"), pg.ricci, COORDINATE), fr)
        closed = (kp - 1.0) / t**2
        r1212.append(abs(r04f.components[0, 1, 0, 1] - closed))
        rho11.append(abs(rhof.components[0, 0] - closed))
        rho22.append(abs(rhof.components[1, 1] + closed))
    add("curvature R_1212 in the phi-frame", "R_1212 = (kprime - 1)/t^2", r1212)
    add("Ricci rho_11 in the phi-frame", "rho_11 = (kprime - 1)/t^2", rho11)
    add("Ricci rho_22 in the phi-frame", "rho_22 = (1 - kprime)/t^2", rho22)
    add(
        "scalar curvature of g",
        "tau = 2(kprime - 1)/t^2",
        [abs(pg.tau - 2.0 * (kp - 1.0) / t**2) for pg, t in zip(pgs, ts)],
    )
    add("associated scalar curvature", "tau* = 0", [abs(pg.tau_star) for pg in pgs])
    add(
        "Lee form value on xi",
        "theta*(xi) = 2/t",
        [abs(pg.theta_star_xi - 2.0 / t) for pg, t in zip(pgs, ts)],
    )
    add(
        "scalar curvature of the associated metric",
        "tau~ = -2/t^2",
        [abs(pgt.tau + 2.0 / t**2) for pgt, t in zip(pgts, ts)],
    )

    # associated metric components
    def gt_dev(pgt, t):
        expected = np.zeros((dim, dim))
        expected[0, 0] = 1.0
        expected[1, 2] = expected[2, 1] = -t * t
        return float(np.max(np.abs(pgt.g - expected)))

    add(
        "associated metric components",
        "g~ = eta otimes eta - t^2 (du otimes dv + dv otimes du)",
        [gt_dev(pgt, t) for pgt, t in zip(pgts, ts)],
    )

    # nabla xi for both metrics
    def nxi_dev(pg, t):
        phi2 = pg.phi @ pg.phi
        return float(np.max(np.abs(pg.nabla_xi + phi2 / t)))

    add(
        "Reeb field derivative",
        "nabla_x xi = -(1/t) phi^2 x",
        [nxi_dev(pg, t) for pg, t in zip(pgs, ts)],
    )
    add(
        "Reeb field derivative, associated metric",
        "nabla~_x xi = -(1/t) phi^2 x",
        [nxi_dev(pgt, t) for pgt, t in zip(pgts, ts)],
    )

    # fundamental tensor shape
    def fxi_dev(pg, t):
        fxi = np.einsum("ijs,s->ij", pg.F, pg.xi)
        gphi = np.einsum("is,sj->ij", pg.g, pg.phi)
        return float(np.max(np.abs(fxi + gphi / t)))

    add(
        "fundamental tensor on xi",
        "F(x,y,xi) = -h g(x,phi y) with h = 1/t",
        [fxi_dev(pg, t) for pg, t in zip(pgs, ts)],
    )
    add(
        "gradient of the Lee scalar",
        "d(theta*(xi)) = -(2/t^2) eta",
        [
            float(np.max(np.abs(pg.grad_theta_star_xi + (2.0 / t**2) * pg.eta)))
            for pg, t in zip(pgs, ts)
        ],
    )
    add(
        "Lee form is closed",
        "d theta* = 0",
        [float(np.max(np.abs(antisymmetrized_derivative(pg.dtheta_star)))) for pg in pgs],
    )

    # classification
    cm = classify(geo, tol)
    records.append(
        CheckRecord(
            name="class: not Sasaki-like",
            anchor="F(x,y,z) = g(phi x,phi y) eta(z) + g(phi x,phi z) eta(y) must fail",
            verdict=VERDICT_PASS if cm.sasaki_like.status == FAILS else VERDICT_FAIL,
            residual=cm.sasaki_like.residual,
            samples=None,
        )
    )
    records.append(
        CheckRecord(
            name="class: F5",
            anchor="F(x,y,z) = -(theta*(xi)/2n){g(x,phi y) eta(z) + g(x,phi z) eta(y)}",
            verdict=VERDICT_PASS if cm.f5.status == HOLDS else VERDICT_FAIL,
            residual=cm.f5.residual,
            samples=None,
        )
    )
    records.append(
        CheckRecord(
            name="class: F5 with closed Lee form",
            anchor="d(theta*(xi)) = xi(theta*(xi)) eta",
            verdict=VERDICT_PASS if cm.f5_0.status == HOLDS else VERDICT_FAIL,
            residual=cm.f5_0.residual,
            samples=None,
        )
    )
    records.append(
        CheckRecord(
            name="class: not F0",
            anchor="||F|| > 0",
            verdict=VERDICT_PASS if cm.f0.status == FAILS else VERDICT_FAIL,
            residual=cm.f0.residual,
            samples=None,
        )
    )
    add("Lee form omega", "omega = 0", [float(np.max(np.abs(pg.omega))) for pg in pgs])
    add(
        "Lee form theta* shape",
        "theta* = theta*(xi) eta",
        [float(np.max(np.abs(pg.theta_star - pg.theta_star_xi * pg.eta))) for pg in pgs],
    )

    # identity suites, both metrics
    add(
        "metric compatibility",
        "nabla g = 0 and nabla~ g~ = 0",
        [
            max(metric_compatibility_residual(pg), metric_compatibility_residual(pgt))
            for pg, pgt in zip(pgs, pgts)
        ],
    )
    add(
        "curvature symmetries and first Bianchi",
        "R(x,y,z,w) = -R(y,x,z,w) = -R(x,y,w,z) = R(z,w,x,y); cyclic sum 0",
        [
            max(
                max(curvature_symmetry_residuals(pg).values()),
                max(curvature_symmetry_residuals(pgt).values()),
            )
            for pg, pgt in zip(pgs, pgts)
        ],
    )
    add(
        "fundamental tensor properties",
        "F(x,y,z) = F(x,z,y) = F(x,phi y,phi z) + eta(y) F(x,xi,z) + eta(z) F(x,y,xi); F(x,phi y,xi) = (nabla_x eta) y",
        [
            max(
                max(f_property_residuals(pg).values()),
                max(f_property_residuals(pgt).values()),
            )
            for pg, pgt in zip(pgs, pgts)
        ],
    )

    # torse-forming curvature identities
    tf_res = [torse_forming_curvature_residuals(pg) for pg in pgs]
    add(
        "curvature against the Lee scalar",
        "R(x,y)xi = -{dh(x) + h^2 eta(x)} phi^2 y + {dh(y) + h^2 eta(y)} phi^2 x",
        [r["R(x,y)xi = -{dh(x)+h^2 eta(x)} phi^2 y + {dh(y)+h^2 eta(y)} phi^2 x"] for r in tf_res],
    )
    add(
        "Ricci against the Lee scalar",
        "rho(y,xi) = -(2n-1) dh(y) - {dh(xi) + 2n h^2} eta(y); rho(xi,xi) = -2n{dh(xi) + h^2}; R(xi,y)z expansion",
        [
            max(
                r["R(xi,y)z = g(phi y,phi z) grad h - dh(z) phi^2 y + h^2 {eta(z) y - g(y,z) xi}"],
                r["rho(y,xi) = -(2n-1) dh(y) - {dh(xi) + 2n h^2} eta(y)"],
                r["rho(xi,xi) = -2n {dh(xi) + h^2}"],
            )
            for r in tf_res
        ],
    )
    tt = [tau_tilde_relations(pg, pgt) for pg, pgt in zip(pgs, pgts)]
    add(
        "scalar curvature transfer",
        "tau~ = -tau* - ((2n+1)/2n) theta*(xi)^2 - 2 xi(theta*(xi))",
        [r["tau~ = -tau* - ((2n+1)/2n) theta*(xi)^2 - 2 xi(theta*(xi))"] for r in tt],
    )
    add(
        "scalar curvature transfer via h",
        "tau~ = -tau* - 2n(2n+1) h^2 - 4n dh(xi)",
        [r["tau~ = -tau* - 2n(2n+1) h^2 - 4n dh(xi)"] for r in tt],
    )

    # cross-route equalities
    add(
        "associated Christoffels: direct vs correction route",
        "2g(nabla~_x y,z) = 2g(nabla_x y,z) - F(x,y,phi z) - F(y,x,phi z) + F(phi z,x,y) + eta-terms",
        [
            float(np.max(np.abs(nabla_tilde_components_from(pg) - pgt.gamma)))
            for pg, pgt in zip(pgs, pgts)
        ],
    )
    add(
        "associated fundamental tensor: direct vs transfer route",
        "2F~(x,y,z) = F(phi y,z,x) - F(y,phi z,x) + F(phi z,y,x) - F(z,phi y,x) + eta-terms",
        [
            float(np.max(np.abs(f_tilde_components_from(pg) - pgt.F)))
            for pg, pgt in zip(pgs, pgts)
        ],
    )
    add(
        "short connection form on F5",
        "nabla~_x y = nabla_x y - (theta*(xi)/2n){g(x,phi y) + g(phi x,phi y)} xi",
        [
            float(np.max(np.abs(gamma_t - pgt.gamma)))
            for gamma_t, pgt in zip(connection_f5_form(geo.of(METRIC_G)), pgts)
        ],
    )

    # potentials and solitons
    k_expr = parse("c*t", S.chart.coordinates, S.chart.constants)
    kt_expr = parse("ct*t", S.chart.coordinates, S.chart.constants)
    pot = vertical_potential(S, k_expr)
    pott = vertical_potential(S, kt_expr)

    torse_g = torse_forming_extract(geo, METRIC_G, pot, tol)
    torse_gt = torse_forming_extract(geo, METRIC_GTILDE, pott, tol)
    add(
        "conformal scalar of the g-potential",
        "nabla_x v = c x: f = c, gamma = 0",
        [
            max(abs(f - c), float(np.max(np.abs(gm))))
            for f, gm in zip(torse_g.f, torse_g.gamma)
        ],
    )
    add(
        "conformal scalar of the g~-potential",
        "nabla~_x v~ = ct x: f~ = ct, gamma~ = 0",
        [
            max(abs(f - ct), float(np.max(np.abs(gm))))
            for f, gm in zip(torse_gt.f, torse_gt.gamma)
        ],
    )

    def flags_ok(torse, slope):
        want = {"torse-forming", "torqued", "concircular"}
        if not want <= torse.taxonomy:
            return False
        return ("concurrent" in torse.taxonomy) == (abs(slope - 1.0) <= tol)

    records.append(
        CheckRecord(
            name="taxonomy of the g-potential",
            anchor="torse-forming, torqued, concircular; concurrent exactly when c = 1",
            verdict=VERDICT_PASS if flags_ok(torse_g, c) else VERDICT_FAIL,
            residual=torse_g.residual,
            samples=tuple(torse_g.per_sample_residual),
        )
    )
    records.append(
        CheckRecord(
            name="taxonomy of the g~-potential",
            anchor="torse-forming, torqued, concircular; concurrent exactly when ct = 1",
            verdict=VERDICT_PASS if flags_ok(torse_gt, ct) else VERDICT_FAIL,
            residual=torse_gt.residual,
            samples=tuple(torse_gt.per_sample_residual),
        )
    )
    add(
        "potential ratio for g",
        "f/k = 1/t",
        [abs(h - 1.0 / t) for h, t in zip(torse_g.h, ts)],
    )
    add(
        "potential ratio for g~",
        "f~/k~ = 1/t",
        [abs(h - 1.0 / t) for h, t in zip(torse_gt.h, ts)],
    )
    add(
        "potential ratios agree",
        "f/k = f~/k~",
        [abs(a - b) for a, b in zip(torse_g.h, torse_gt.h)],
    )
    add(
        "scalar field equation of k = c t",
        "t dk(xi) = k",
        [abs(t * dkx - k) for t, dkx, k in zip(ts, torse_g.dk_xi, torse_g.k)],
    )
    add(
        "scalar field equation of k~ = ct t",
        "t dk~(xi) = k~",
        [abs(t * dkx - k) for t, dkx, k in zip(ts, torse_gt.dk_xi, torse_gt.k)],
    )

    sol_g = yamabe_soliton_solve(geo, METRIC_G, pot, tol, other_potential=pott)
    sol_gt = yamabe_soliton_solve(geo, METRIC_GTILDE, pott, tol, other_potential=pot)

    def soliton_record(name, anchor, sol, closed):
        dev = np.abs(sol.lambdas - closed)
        ok = sol.verdict == "soliton" and float(np.max(dev)) <= tol
        worst = max(float(np.max(dev)), float(np.max(sol.residuals)))
        return CheckRecord(
            name=name,
            anchor=anchor,
            verdict=VERDICT_PASS if ok else VERDICT_FAIL,
            residual=worst,
            samples=tuple(float(x) for x in dev),
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

    records.append(
        theorem_record(
            "conformal scalar balance for g",
            "tau = f + lambda",
            sol_g.theorem_checks["tau = f + lambda"],
        )
    )
    records.append(
        theorem_record(
            "conformal scalar balance for g~",
            "tau~ = f~ + lambda~",
            sol_gt.theorem_checks["tau = f + lambda"],
        )
    )
    records.append(
        theorem_record(
            "torqued criterion for g",
            "f = dk(xi)",
            sol_g.theorem_checks["f = dk(xi)"],
        )
    )
    records.append(
        theorem_record(
            "torqued criterion for g~",
            "f~ = dk~(xi)",
            sol_gt.theorem_checks["f = dk(xi)"],
        )
    )
    records.append(
        theorem_record(
            "potential ratio transfer",
            "f/k = f~/k~ certified by both solvers",
            sol_g.theorem_checks["f/k matches between the two metrics"],
        )
    )

    # Lie derivative closed forms and the two expansion routes
    lgs = lie_derivative_metric(geo.of(METRIC_G), *vector_field_jets(pot, points, merged))
    lgts = lie_derivative_metric(geo.of(METRIC_GTILDE), *vector_field_jets(pott, points, merged))
    lgvs = lie_derivative_vertical(geo.of(METRIC_G), k_expr.eval_jet(points, merged))
    lgtvs = lie_derivative_vertical(geo.of(METRIC_GTILDE), kt_expr.eval_jet(points, merged))
    lie_dev, lie_routes = [], []
    for pg, pgt, lg, lgt, lgv, lgtv in zip(pgs, pgts, lgs, lgts, lgvs, lgtvs):
        lie_dev.append(
            max(
                float(np.max(np.abs(lg - 2.0 * c * pg.g))),
                float(np.max(np.abs(lgt - 2.0 * ct * pgt.g))),
            )
        )
        lie_routes.append(
            max(float(np.max(np.abs(lg - lgv))), float(np.max(np.abs(lgt - lgtv))))
        )
    add("Lie derivatives of both metrics", "L_v g = 2c g; L_v~ g~ = 2ct g~", lie_dev)
    add(
        "Lie derivative expansion for vertical potentials",
        "L_{k xi} m = dk otimes eta + eta otimes dk + k(m(nabla xi, .) + m(., nabla xi))",
        lie_routes,
    )

    # contraction replay of the proportionality argument
    trace_dev, xixi_dev = [], []
    for pg, lg, sol_lam in zip(pgs, lgs, sol_g.lambdas):
        half = lg / 2.0
        trace_dev.append(
            abs(float(np.einsum("ij,ij->", pg.ginv, half)) - dim * (pg.tau - sol_lam))
        )
        xixi_dev.append(abs(float(pg.xi @ half @ pg.xi) - (pg.tau - sol_lam)))
    add(
        "trace of the soliton equation",
        "g^{ij} ((1/2) L_v g)_{ij} = (2n+1)(tau - lambda)",
        trace_dev,
    )
    add(
        "soliton equation on (xi,xi)",
        "((1/2) L_v g)(xi,xi) = tau - lambda",
        xixi_dev,
    )

    return records, points
