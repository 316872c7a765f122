"""Acceptance gate: every shipped claim, each at its stated tolerance.

Each criterion prints one "ACCEPTANCE n: PASS/FAIL" line (bypassing
capture, so the verdicts are visible in any pytest run) and then asserts.
All closed forms below are for the cone over a flat fiber, so the fiber
curvature parameter is zero throughout.
"""

import numpy as np
import pytest

from accr import analysis
from accr.analysis import classify, yamabe_soliton_solve
from accr.errors import DomainError, NonVerticalPotential
from accr.expr import Evaluation, eval_field_jets, eval_numbers, parse
from accr.geometry import (
    SampleGeometry,
    connection_f5_form,
    curvature_symmetry_residuals,
    f_property_residuals,
    f_tilde_components_from,
    lowered_curvature,
    nabla_tilde_components_from,
    tau_tilde_relations,
    torse_forming_curvature_residuals,
)
from accr.manifold import load_manifold, sample_points, validate_structure

from conftest import associated_metric, fd_gradient, fd_hessian, phi_frame
from test_manifold import cone_json

SAMPLE_COUNT = 64
SEED = 42
TOL = 1e-9


@pytest.fixture(scope="module")
def points(cone):
    return sample_points(cone.chart, SAMPLE_COUNT, SEED)


@pytest.fixture(scope="module")
def ts(points):
    return np.array([p[0] for p in points])


@pytest.fixture(scope="module")
def geoms(cone, points):
    """The geometry of g and of g~ at each sample, each computed as a batch of one."""
    return [
        (geo.of("g"), geo.of("gtilde")) for geo in (SampleGeometry(cone, [p]) for p in points)
    ]


def _finish(capsys, idx, failures):
    ok = not failures
    with capsys.disabled():
        print(f"\nACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, failures


def _bad(failures, name, worst, tol):
    if not worst <= tol:
        failures.append(f"{name}: worst={worst:.3e} tol={tol:.0e}")


def test_criterion_1_golden_closed_forms(capsys, cone, points, ts, geoms):
    """Golden frame curvature and trace values against their closed forms."""
    diffs = {
        "R_1212 = -1/t^2": [],
        "rho_11 = -1/t^2": [],
        "rho_22 = +1/t^2": [],
        "tau = -2/t^2": [],
        "tau* = 0": [],
        "theta*(xi) = 2/t": [],
        "tau~ = -2/t^2": [],
    }
    for p, (pg, pgt) in zip(points, geoms):
        t = p[0]
        (frame,) = eval_numbers([cone.frame], Evaluation(p, 3))
        r04f = phi_frame(lowered_curvature(pg)[0], frame)
        rhof = phi_frame(pg.ricci[0], frame)
        diffs["R_1212 = -1/t^2"].append(abs(r04f[0, 1, 0, 1] - (-1.0 / t**2)))
        diffs["rho_11 = -1/t^2"].append(abs(rhof[0, 0] - (-1.0 / t**2)))
        diffs["rho_22 = +1/t^2"].append(abs(rhof[1, 1] - 1.0 / t**2))
        diffs["tau = -2/t^2"].append(abs(pg.tau[0] - (-2.0 / t**2)))
        diffs["tau* = 0"].append(abs(pg.tau_star[0]))
        diffs["theta*(xi) = 2/t"].append(abs(pg.theta_star_xi[0] - 2.0 / t))
        diffs["tau~ = -2/t^2"].append(abs(pgt.tau[0] - (-2.0 / t**2)))
    failures = []
    for name, values in diffs.items():
        _bad(failures, name, max(values), TOL)
    _finish(capsys, 1, failures)


def test_criterion_2_soliton_reproduction(capsys, cone, points, ts):
    """Soliton verdicts and lambda closed forms for both metrics, three slopes."""
    failures = []
    pot_g = parse("c*t", cone.chart.coordinates, cone.chart.constants)
    pot_gt = parse("ct*t", cone.chart.coordinates, cone.chart.constants)
    for c in (0.5, 1.0, 2.0):
        b = {"c": c, "ct": c}
        geo = SampleGeometry(cone, points, b)
        sol = yamabe_soliton_solve(geo, "g", pot_g)
        if sol.verdict != "soliton":
            failures.append(f"g potential c={c}: verdict {sol.verdict}")
        _bad(failures, f"g residual (c={c})", float(np.max(sol.residuals)), TOL)
        _bad(
            failures,
            f"lambda = -2/t^2 - c (c={c})",
            float(np.max(np.abs(sol.lambdas - (-2.0 / ts**2 - c)))),
            TOL,
        )
        _bad(failures, f"tau = f + lambda (c={c})", analysis._balance_residual(geo.of("g"), sol), TOL)

        sol_t = yamabe_soliton_solve(geo, "gtilde", pot_gt)
        if sol_t.verdict != "soliton":
            failures.append(f"g~ potential c~={c}: verdict {sol_t.verdict}")
        _bad(failures, f"g~ residual (c~={c})", float(np.max(sol_t.residuals)), TOL)
        _bad(
            failures,
            f"lambda~ = -2/t^2 - c~ (c~={c})",
            float(np.max(np.abs(sol_t.lambdas - (-2.0 / ts**2 - c)))),
            TOL,
        )
        _bad(
            failures,
            f"tau~ = f~ + lambda~ (c~={c})",
            analysis._balance_residual(geo.of("gtilde"), sol_t),
            TOL,
        )
    _finish(capsys, 2, failures)


def test_criterion_3_taxonomy(capsys, cone, points):
    """Extraction recovers f = c with vanishing gamma and the right flags."""
    failures = []
    pot = parse("c*t", cone.chart.coordinates, cone.chart.constants)
    for c in (0.5, 1.0, 2.0):
        res = yamabe_soliton_solve(SampleGeometry(cone, points, {"c": c}), "g", pot)
        _bad(failures, f"f = c (c={c})", float(np.max(np.abs(res.f - c))), TOL)
        _bad(failures, f"gamma = 0 (c={c})", float(np.max(np.abs(res.gamma))), 1e-10)
        want = {"torse-forming", "torqued", "concircular"}
        if not want <= res.taxonomy:
            failures.append(f"flags missing at c={c}: {sorted(want - res.taxonomy)}")
        if ("concurrent" in res.taxonomy) != (c == 1.0):
            failures.append(f"concurrent flag wrong at c={c}: {sorted(res.taxonomy)}")
    _finish(capsys, 3, failures)


def test_criterion_4_cross_routes(capsys, cone, points, geoms):
    """Associated-metric quantities agree between direct and relation routes."""
    ntn, tff, short_form = [], [], []
    for pg, pgt in geoms:
        ntn.append(float(np.max(np.abs(nabla_tilde_components_from(pg) - pgt.gamma))))
        tff.append(float(np.max(np.abs(f_tilde_components_from(pg) - pgt.F))))
        short_form.append(float(np.max(np.abs(connection_f5_form(pg) - pgt.gamma))))
    failures = []
    _bad(failures, "Christoffel correction route", max(ntn), TOL)
    _bad(failures, "fundamental tensor transfer route", max(tff), TOL)
    _bad(failures, "short F5 connection form", max(short_form), TOL)
    _finish(capsys, 4, failures)


def test_criterion_5_identity_suites(capsys, cone, points, geoms):
    """Structure identities, F properties, curvature symmetries, trace relations."""
    failures = []
    for record in validate_structure(cone, SampleGeometry(cone, points).jets, tol=TOL):
        if record.residual is not None:
            _bad(failures, record.name, record.residual, TOL)
        elif record.verdict != "pass":
            failures.append(f"{record.name}: {record.verdict}")

    worst = {}

    def track(name, value):
        worst[name] = max(worst.get(name, 0.0), float(np.max(value)))

    for p, (pg, pgt) in zip(points, geoms):
        t = p[0]
        for tag, geom in (("F", pg), ("F~", pgt)):
            for key, value in f_property_residuals(geom).items():
                track(f"{tag}: {key}", value)
            for key, value in curvature_symmetry_residuals(geom).items():
                track(f"{tag} metric: {key}", value)
        track("h = 1/t", abs(pg.h[0] - 1.0 / t))
        for key, value in torse_forming_curvature_residuals(pg).items():
            track(key, value)
        for key, value in tau_tilde_relations(pg, pgt).items():
            track(key, value)
        xi_tsx = float(pg.grad_theta_star_xi[0] @ pg.xi[0])
        track(
            "d(theta*(xi)) = xi(theta*(xi)) eta",
            float(np.max(np.abs(pg.grad_theta_star_xi[0] - xi_tsx * pg.eta[0]))),
        )
    for name, value in worst.items():
        _bad(failures, name, value, TOL)
    _finish(capsys, 5, failures)


def _fd_christoffel(metric_of_point, point, h=1e-5):
    point = np.asarray(point, dtype=float)
    dim = point.size
    dg = np.empty((dim, dim, dim))
    for m in range(dim):
        xp = point.copy()
        xm = point.copy()
        xp[m] += h
        xm[m] -= h
        dg[:, :, m] = (metric_of_point(xp) - metric_of_point(xm)) / (2.0 * h)
    ginv = np.linalg.inv(metric_of_point(point))
    koszul = np.einsum("jli->lij", dg) + np.einsum("ilj->lij", dg) - np.einsum("ijl->lij", dg)
    return 0.5 * np.einsum("kl,lij->kij", ginv, koszul)


def _random_expression(rng, depth):
    """Random expression source over t, u, v, safe on the box (0.3, 1.2)^3."""
    if depth == 0:
        if rng.random() < 0.55:
            return rng.choice(["t", "u", "v"])
        return f"{rng.uniform(0.5, 2.0):.4f}"
    a = _random_expression(rng, depth - 1)
    b = _random_expression(rng, depth - 1)
    roll = rng.random()
    if roll < 0.36:
        op = rng.choice(["+", "-", "*"])
        return f"({a} {op} {b})"
    if roll < 0.48:
        return f"({a} / (({b})^2 + 1.5))"
    if roll < 0.60:
        return f"{rng.choice(['sin', 'cos', 'tanh'])}({a})"
    if roll < 0.70:
        return f"exp(tanh({a}))"
    if roll < 0.82:
        return f"{rng.choice(['ln', 'sqrt'])}(({a})^2 + 1.5)"
    if roll < 0.92:
        return f"({a})^{rng.integers(2, 4)}"
    return f"-({a})"


def test_criterion_6_oracle_equivalence(capsys, cone):
    """AD against finite differences: Christoffels and raw jets."""
    failures = []

    # Christoffels at 32 fresh points, relative 1e-5 against central differences
    oracle_points = sample_points(cone.chart, 32, seed=7)
    worst_gamma = 0.0
    for tag, comp in (
        ("g", lambda p: eval_numbers([cone.g], Evaluation(p, 3))[0]),
        ("gtilde", lambda p: associated_metric(cone, p)),
    ):
        for p in oracle_points:
            pg = SampleGeometry(cone, [p]).of(tag)
            ref = _fd_christoffel(comp, p)
            scale = max(1.0, float(np.max(np.abs(ref))))
            worst_gamma = max(worst_gamma, float(np.max(np.abs(pg.gamma[0] - ref))) / scale)
    _bad(failures, "Christoffel AD vs FD (32 points, both metrics)", worst_gamma, 1e-5)

    # jets on 1000 random expressions, relative 1e-5.  The gradient oracle
    # uses the plain central difference at step 1e-5; the Hessian oracle is
    # Richardson-extrapolated from a coarser base step, since a raw second
    # difference at 1e-5 is pure roundoff.
    rng = np.random.default_rng(2024)
    coords = ("t", "u", "v")
    worst_grad = worst_hess = 0.0
    checked = 0
    while checked < 1000:
        source = _random_expression(rng, depth=int(rng.integers(1, 4)))
        expr = parse(source, coords)
        pt = rng.uniform(0.3, 1.2, size=3)
        try:
            value, grad, hess = (a[0] for a in eval_field_jets([[expr]], Evaluation(pt, 3))[0])
            ref_g = fd_gradient(lambda x: eval_numbers([[expr]], Evaluation(x, 3))[0][0], pt, h=1e-5)
            ref_h = fd_hessian(lambda x: eval_numbers([[expr]], Evaluation(x, 3))[0][0], pt, h=1e-3)
        except DomainError:
            continue  # regenerated; the guard templates make this rare
        if not (np.isfinite(value) and np.all(np.isfinite(ref_h))):
            continue
        checked += 1
        scale_g = max(1.0, float(np.max(np.abs(ref_g))))
        scale_h = max(1.0, float(np.max(np.abs(ref_h))))
        worst_grad = max(worst_grad, float(np.max(np.abs(grad - ref_g))) / scale_g)
        worst_hess = max(worst_hess, float(np.max(np.abs(hess - ref_h))) / scale_h)
    _bad(failures, "jet gradients vs FD (1000 expressions)", worst_grad, 1e-5)
    _bad(failures, "jet hessians vs FD (1000 expressions)", worst_hess, 1e-5)
    _finish(capsys, 6, failures)


def test_criterion_7_classification(capsys, cone, flat, points):
    failures = []
    classes = classify(SampleGeometry(cone, points))
    for name, want in (("sasaki_like", "fail"), ("f5", "pass"), ("f5_0", "pass"), ("f0", "fail")):
        got = classes[name][0].verdict
        if got != want:
            failures.append(f"cone {name}: {got}, expected {want}")

    flat_points = sample_points(flat.chart, SAMPLE_COUNT, SEED)
    flat_f0 = classify(SampleGeometry(flat, flat_points))["f0"][0]
    if flat_f0.verdict != "pass":
        failures.append(f"flat f0: {flat_f0.verdict}, expected pass")
    worst_curv = worst_f = 0.0
    for p in flat_points:
        pg = SampleGeometry(flat, [p]).of("g")
        worst_curv = max(worst_curv, float(np.max(np.abs(pg.r13))))
        worst_f = max(worst_f, float(np.max(np.abs(pg.F))))
    _bad(failures, "flat curvature = 0", worst_curv, 1e-12)
    _bad(failures, "flat F = 0", worst_f, 1e-12)
    _finish(capsys, 7, failures)


def test_criterion_8_negative_controls(capsys, cone, points):
    failures = []

    # quadratic vertical potential: honest not-soliton
    pot = parse("t^2", cone.chart.coordinates)
    geo = SampleGeometry(cone, points)
    sol = yamabe_soliton_solve(geo, "g", pot)
    if sol.verdict != "not-soliton":
        failures.append(f"k = t^2 verdict: {sol.verdict}")
    if float(np.max(sol.residuals)) < 1.0:
        failures.append("k = t^2 residual suspiciously small")

    # perturbed phi: structure validation must fail
    phi = [["0", "0", "0"], ["0", "0", "-1.1"], ["0", "1.1", "0"]]
    broken = load_manifold(cone_json(phi=phi))
    if all(r.verdict == "pass" for r in validate_structure(broken, SampleGeometry(broken, points).jets)):
        failures.append("perturbed phi passed structure validation")

    # non-vertical potential: the precondition check must trip.  With eta = (1+u) dt,
    # eta(xi) = 1 fails, so v = t xi is not eta(v) xi wherever u != 0
    skewed = load_manifold(cone_json(eta=["1+u", "0", "0"]))
    try:
        yamabe_soliton_solve(SampleGeometry(skewed, points), "g", parse("t", skewed.chart.coordinates))
        failures.append("non-vertical potential was accepted")
    except NonVerticalPotential:
        pass
    _finish(capsys, 8, failures)
