"""Classification, and the Yamabe soliton solve of a vertical potential with its torse-forming fit."""

import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import accr.analysis as analysis
import accr.cli as cli
import accr.expr as expr
import accr.geometry as geometry
import accr.manifold as manifold
from accr.analysis import (
    DEFAULT_SUITE_BINDINGS,
    classify,
    f5_form_residual,
    proportionality_split,
    sasaki_form_residual,
    verify_paper_suite,
    yamabe_soliton_solve,
)
from accr.errors import NonVerticalPotential, ZeroPotential
from accr.expr import Evaluation, eval_field_jets, eval_numbers, parse
from accr.geometry import SampleGeometry, lowered_curvature
from accr.jets import Jet2
from accr.manifold import load_manifold, sample_points
from accr.report import VERDICT_DEGENERATE, VERDICT_FAIL, VERDICT_PASS

from conftest import OFFDIAG, OFFDIAG_BINDINGS, ROTATING_NORDEN, VARYING, phi_frame, rel_err
from test_manifold import cone_json
from test_output_contract import CASES


def _k(S, source):
    """The scalar k of a potential k xi on the chart of S."""
    return parse(source, S.chart.coordinates, S.chart.constants)


# The cone with eta = (1+u) dt, so eta(xi) = 1 fails wherever u != 0: there v = k xi
# is not eta(v) xi, and the potential is not vertical
ETA_SKEWED = cone_json(eta=["1+u", "0", "0"])


def _answers(classes):
    """The answer record of each class."""
    return {name: records[0] for name, records in classes.items()}


def test_classify_cone(cone, cone_points, cone_bindings):
    classes = classify(SampleGeometry(cone, cone_points, cone_bindings))
    answers = _answers(classes)
    assert answers["sasaki_like"].verdict == VERDICT_FAIL
    assert answers["f5"].verdict == VERDICT_PASS
    assert answers["f5_0"].verdict == VERDICT_PASS
    assert answers["f0"].verdict == VERDICT_FAIL
    assert list(classes) == ["sasaki_like", "f5", "f5_0", "f0"]
    # F5 consequences come back as records when the form holds
    consequences = {r.anchor: r.residual for r in classes["f5"][1:]}
    assert consequences["theta* = theta*(xi) eta"] < 1e-11
    assert consequences["F(xi,y,z) = 0"] < 1e-11
    assert consequences["omega = 0"] < 1e-11
    # a failing membership keeps a meaningful residual
    assert answers["sasaki_like"].residual > 0.1


def test_classify_rotating_norden(rotating_norden):
    geo = SampleGeometry(rotating_norden, sample_points(rotating_norden.chart, 16, seed=42))
    validation = manifold.validate_structure(rotating_norden, geo.jets, 1e-9)
    assert len(validation) == 8 and all(r.verdict == VERDICT_PASS for r in validation)
    classes = classify(geo)
    sasaki, *consequences = classes["sasaki_like"]
    assert sasaki.verdict == VERDICT_PASS and sasaki.residual <= 1e-12
    assert len(consequences) == 6
    assert max(r.residual for r in consequences) <= 1e-12
    assert all(r.name.startswith("consequence of sasaki_like") for r in consequences)
    assert all(r.verdict == VERDICT_PASS for r in consequences)
    answers = _answers(classes)
    assert answers["f5"].verdict == VERDICT_FAIL and answers["f0"].verdict == VERDICT_FAIL
    assert answers["f5"].residual > 0.9
    # F5_0 fails through its F5 premise and reports that residual, not the 0 of dθ*(ξ)
    assert answers["f5_0"].verdict == VERDICT_FAIL
    assert answers["f5_0"].residual == answers["f5"].residual


def test_classify_flat(flat, flat_points):
    answers = _answers(classify(SampleGeometry(flat, flat_points)))
    assert answers["f0"].verdict == VERDICT_PASS
    assert answers["f0"].residual == 0.0
    # with F identically zero the F5 subclass question is vacuous
    assert answers["f5"].verdict == VERDICT_DEGENERATE
    assert answers["f5_0"].verdict == VERDICT_DEGENERATE
    assert answers["sasaki_like"].verdict == VERDICT_FAIL


_F5_CONSEQUENCES = ["F(xi,y,z) = 0", "omega = 0", "theta* = theta*(xi) eta"]
_SASAKI_CONSEQUENCES = [
    "R(x,y)xi = eta(y) x - eta(x) y", "R(xi,y)z = g(y,z) xi - eta(z) y", "nabla_x xi = -phi x",
    "nabla~_x xi = -phi x", "rho(x,xi) = 2n eta(x)", "rho(xi,xi) = 2n",
]
_CONE_N2_TEXT = (Path(__file__).resolve().parent.parent / "perfbench" / "cone_n2.json").read_text(encoding="utf-8")


# Each structure, its bindings, and its class records in order: the answer of each class
# by name and verdict, each followed by the consequences of the class, by name, where it holds.
@pytest.mark.parametrize("source, bindings, answers, consequences", [
    ("builtin:cone-flat-fiber", {"c": 1.0, "ct": 1.0},
     {"sasaki_like": ("fails", "fail"), "f5": ("holds", "pass"), "f5_0": ("holds", "pass"),
      "f0": ("fails", "fail")},
     {"f5": _F5_CONSEQUENCES}),
    (_CONE_N2_TEXT, {},
     {"sasaki_like": ("fails", "fail"), "f5": ("holds", "pass"), "f5_0": ("holds", "pass"),
      "f0": ("fails", "fail")},
     {"f5": _F5_CONSEQUENCES}),
    ("builtin:flat-cosymplectic", {},
     {"sasaki_like": ("fails", "fail"), "f5": ("degenerate", "degenerate"),
      "f5_0": ("degenerate", "degenerate"), "f0": ("holds", "pass")},
     {}),
    (json.dumps(OFFDIAG), OFFDIAG_BINDINGS,
     {"sasaki_like": ("fails", "fail"), "f5": ("fails", "fail"), "f5_0": ("fails", "fail"),
      "f0": ("fails", "fail")},
     {}),
    (json.dumps(VARYING), OFFDIAG_BINDINGS,
     {"sasaki_like": ("fails", "fail"), "f5": ("fails", "fail"), "f5_0": ("fails", "fail"),
      "f0": ("fails", "fail")},
     {}),
    (json.dumps(ROTATING_NORDEN), {},
     {"sasaki_like": ("holds", "pass"), "f5": ("fails", "fail"), "f5_0": ("fails", "fail"),
      "f0": ("fails", "fail")},
     {"sasaki_like": _SASAKI_CONSEQUENCES}),
], ids=["cone", "cone_n2", "flat", "offdiag", "varying", "rotating_norden"])
def test_class_records_table(source, bindings, answers, consequences):
    if source.startswith("builtin:"):
        S = manifold.builtin_structure(source.split(":", 1)[1])
    else:
        S = load_manifold(source)
    geo = SampleGeometry(S, sample_points(S.chart, 16, seed=42), bindings)
    want = []
    for name, (status, verdict) in answers.items():
        want.append((f"class {name}: {status}", verdict))
        want += [(f"consequence of {name}: {key}", None) for key in consequences.get(name, [])]
    records = analysis.classification_records(geo, 1e-9)
    got = [(r.name, r.verdict if r.name.startswith("class ") else None) for r in records]
    assert got == want


def test_sasaki_form_residual_oracle(cone):
    # data manufactured to satisfy the defining form exactly
    g, phi, xi, eta = eval_numbers([cone.g, cone.phi, cone.xi, cone.eta], Evaluation((2.0, 0.3, -0.4), 3))
    gpp = np.einsum("ai,bj,ab->ij", phi, phi, g)
    F = np.einsum("ij,z->ijz", gpp, eta) + np.einsum("iz,j->ijz", gpp, eta)
    assert sasaki_form_residual(F, g, phi, eta) == 0.0
    assert sasaki_form_residual(F * 1.5, g, phi, eta) > 0.1


def test_f5_form_residual_oracle(cone):
    pg = SampleGeometry(cone, [(2.0, 0.3, -0.4)]).of("g")
    assert f5_form_residual(pg.F, pg.g, pg.phi, pg.eta, pg.theta_star_xi, pg.n)[0] < 1e-13
    assert f5_form_residual(pg.F, pg.g, pg.phi, pg.eta, 2.0 * pg.theta_star_xi, pg.n)[0] > 0.5


def test_perturbed_metric_leaves_f5(cone_points):
    g = [["1", "0", "0"], ["0", "t^2", "0.01*t"], ["0", "0.01*t", "-t^2"]]
    classes = classify(SampleGeometry(load_manifold(cone_json(g=g)), cone_points))
    answers = _answers(classes)
    assert answers["f5"].verdict == VERDICT_FAIL
    assert answers["f5_0"].verdict == VERDICT_FAIL
    assert answers["f0"].verdict == VERDICT_FAIL
    assert len(classes["f5"]) == 1  # no consequences
    assert answers["sasaki_like"].verdict == VERDICT_FAIL and len(classes["sasaki_like"]) == 1


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_torse_forming_extraction_ct(cone, cone_points, c):
    geo = SampleGeometry(cone, cone_points, {"c": c})
    res = yamabe_soliton_solve(geo, "g", _k(cone, "c*t"))
    assert np.max(res.fit_residuals) < 1e-11
    assert np.max(np.abs(res.f - c)) < 1e-11
    assert np.max(np.abs(res.gamma)) < 1e-11
    assert {"torse-forming", "torqued", "concircular"} <= res.taxonomy
    assert ("concurrent" in res.taxonomy) == (c == 1.0)
    assert "recurrent" not in res.taxonomy
    ts = np.array([p[0] for p in cone_points])
    assert np.allclose(res.k, c * ts)
    assert np.allclose(res.f / res.k, 1.0 / ts)  # f/k = 1/t independent of c
    assert np.max(np.abs(res.dk - [c, 0.0, 0.0])) < 1e-11  # dk = c eta
    records = {r.name: r for r in analysis.soliton_records(geo, "g", "c*t", 1e-9)}
    for name in ("generating form of a vertical potential", "vertical potential derivative", "torqued criterion"):
        assert records[name].residual < 1e-9, name


def test_extraction_quadratic_vertical_field(cone, cone_points):
    # v = t^2 xi is torse-forming with f = t and gamma = eta / t, hence
    # not torqued: gamma(v) = t is visible in the fitted form
    geo = SampleGeometry(cone, cone_points)
    res = yamabe_soliton_solve(geo, "g", _k(cone, "t^2"))
    assert np.max(res.fit_residuals) < 1e-10
    assert "torse-forming" in res.taxonomy
    assert "torqued" not in res.taxonomy
    assert "concircular" not in res.taxonomy
    ts = np.array([p[0] for p in cone_points])
    assert np.allclose(res.f, ts)
    assert np.allclose(res.gamma[:, 0], 1.0 / ts)
    assert np.max(np.abs(res.gamma[:, 1:])) < 1e-11
    # f = t but dk(xi) = 2t: the torqued criterion fails measurably
    assert analysis._torqued_residual(geo.of("g"), res) > 0.5


def test_extraction_recurrent_not_parallel(flat, flat_points):
    # on the flat structure v = t xi has f = 0 with nonzero gamma
    res = yamabe_soliton_solve(SampleGeometry(flat, flat_points), "g", _k(flat, "t"))
    assert np.max(res.fit_residuals) < 1e-12
    assert "recurrent" in res.taxonomy
    assert "parallel" not in res.taxonomy
    assert "torqued" not in res.taxonomy


def test_extraction_parallel_field(flat, flat_points):
    res = yamabe_soliton_solve(SampleGeometry(flat, flat_points), "g", _k(flat, "1"))
    assert np.max(res.fit_residuals) == 0.0
    assert {"torse-forming", "torqued", "concircular", "recurrent", "parallel"} <= res.taxonomy
    assert "concurrent" not in res.taxonomy  # f = 0, not 1
    # taxonomy implications hold as sets
    tx = res.taxonomy
    assert ("parallel" not in tx) or ({"recurrent", "concircular"} <= tx)
    assert ("concurrent" not in tx) or ("concircular" in tx)


def test_zero_potential_rejected(cone, cone_points):
    with pytest.raises(ZeroPotential):
        yamabe_soliton_solve(SampleGeometry(cone, cone_points), "g", _k(cone, "0"))


def test_proportionality_split_oracle():
    rng = np.random.default_rng(5)
    g = np.diag([1.0, 4.0, -4.0])
    ginv = np.linalg.inv(g)
    for mu in (-2.0, 0.0, 3.5):
        got_mu, resid = proportionality_split(mu * g, g, ginv)
        assert abs(got_mu - mu) < 1e-12
        assert resid < 1e-12
    # a non-proportional part is reported, never absorbed
    bump = np.zeros((3, 3))
    bump[0, 1] = bump[1, 0] = 0.25
    got_mu, resid = proportionality_split(2.0 * g + bump, g, ginv)
    assert abs(got_mu - 2.0) < 1e-12  # bump is trace-free against ginv
    assert abs(resid - 0.25) < 1e-12


def test_yamabe_soliton_on_cone(cone, cone_points):
    pot, pot_t = _k(cone, "c*t"), _k(cone, "ct*t")
    b = {"c": 1.0, "ct": 1.0}
    geo = SampleGeometry(cone, cone_points, b)
    other = yamabe_soliton_solve(geo, "gtilde", pot_t)
    sol = yamabe_soliton_solve(geo, "g", pot)
    assert sol.verdict == "soliton"
    assert np.max(sol.residuals) < 1e-11
    ts = np.array([p[0] for p in cone_points])
    # lambda(t) = -2/t^2 - c for the flat fiber
    assert np.max(np.abs(sol.lambdas - (-2.0 / ts**2 - 1.0))) < 1e-11
    assert np.isclose(sol.lambdas[0], -1.5)  # pinned t = 2 sample
    assert analysis._torse_forming_soliton(sol)
    assert analysis._balance_residual(geo.of("g"), sol) < 1e-10
    assert analysis._torqued_residual(geo.of("g"), sol) < 1e-10
    assert np.max(np.abs(sol.f / sol.k - other.f / other.k)) < 1e-11  # f/k matches between the two metrics


def test_yamabe_soliton_on_gtilde(cone, cone_points):
    pot = _k(cone, "ct*t")
    for ct in (0.5, 2.0):
        geo = SampleGeometry(cone, cone_points, {"ct": ct})
        sol = yamabe_soliton_solve(geo, "gtilde", pot)
        assert sol.verdict == "soliton"
        ts = np.array([p[0] for p in cone_points])
        assert np.max(np.abs(sol.lambdas - (-2.0 / ts**2 - ct))) < 1e-11
        assert analysis._torse_forming_soliton(sol)
        assert analysis._balance_residual(geo.of("gtilde"), sol) < 1e-10


def test_yamabe_not_soliton(cone, cone_points):
    sol = yamabe_soliton_solve(SampleGeometry(cone, cone_points), "g", _k(cone, "t^2"))
    assert sol.verdict == "not-soliton"
    assert np.max(sol.residuals) > 1.0
    # the theorem premises fail, so their checks are not made
    assert not analysis._torse_forming_soliton(sol)


def test_yamabe_rejects_non_vertical(cone_points):
    S = load_manifold(ETA_SKEWED)
    geo = SampleGeometry(S, cone_points, {"c": 1.0})
    with pytest.raises(NonVerticalPotential):
        yamabe_soliton_solve(geo, "g", _k(S, "t^2"))
    # the solve makes the check, for either metric
    with pytest.raises(NonVerticalPotential):
        yamabe_soliton_solve(geo, "gtilde", _k(S, "c*t"))


def test_verify_paper_suite_all_pass(cone, cone_bindings):
    records = verify_paper_suite(SampleGeometry(cone, sample_points(cone.chart, 16), cone_bindings))
    assert len(records) >= 50
    by_name = {r.name: r for r in records}
    assert len(by_name["Christoffel symbols of g"].samples) == 16
    failing = [r.name for r in records if r.verdict != VERDICT_PASS]
    assert failing == []
    assert all(r.anchor for r in records)
    # anchors speak in formulas, not citations
    assert not any("eq" in r.anchor.lower() or "sec" in r.anchor.lower() for r in records)


def test_verify_paper_suite_other_constants(cone):
    points = sample_points(cone.chart, 8, pinned=((1.0, 0.1, 0.1),))
    records = verify_paper_suite(
        SampleGeometry(cone, points, dict(DEFAULT_SUITE_BINDINGS, c=2.0, ct=0.5))
    )
    assert all(r.verdict == VERDICT_PASS for r in records)


def _suite_record(cone, name):
    geo = SampleGeometry(cone, sample_points(cone.chart, 16), DEFAULT_SUITE_BINDINGS)
    (record,) = [r for r in verify_paper_suite(geo) if r.name == name]
    return record


def test_the_trace_record_fails_when_the_lie_derivative_is_scaled(cone, monkeypatch):
    # mu is g^ij A_ij / dim, so g^ij A_ij = dim (tau - lambda) holds for any A; the record
    # compares div v = tr(nabla v) instead, which a wrong L_v g does not reach
    assert _suite_record(cone, "trace of the soliton equation").verdict == VERDICT_PASS
    lie = analysis.lie_derivative_metric
    monkeypatch.setattr(analysis, "lie_derivative_metric", lambda *args: 1.01 * lie(*args))
    record = _suite_record(cone, "trace of the soliton equation")
    assert record.verdict == VERDICT_FAIL and record.residual > 1e-3


def test_the_transfer_record_fails_when_the_associated_h_is_scaled(cone, monkeypatch):
    # the g-fit's f/k is compared with h~ = theta~*(xi)/2n of g~'s own geometry
    assert _suite_record(cone, "potential ratio transfer").verdict == VERDICT_PASS
    h = geometry.PointGeometry.h
    scaled = property(lambda pg: (1.01 if pg.tag == "gtilde" else 1.0) * h.fget(pg))
    monkeypatch.setattr(geometry.PointGeometry, "h", scaled)
    record = _suite_record(cone, "potential ratio transfer")
    assert record.verdict == VERDICT_FAIL and record.residual > 1e-3


def test_the_xi_xi_record_fails_when_the_lie_derivative_is_scaled(cone, monkeypatch):
    # the solve makes tau - lambda = mu, which A(xi,xi) matches for any A proportional to g; the
    # record compares g(nabla_xi v, xi) instead
    assert _suite_record(cone, "soliton equation on (xi,xi)").verdict == VERDICT_PASS
    lie = analysis.lie_derivative_metric
    monkeypatch.setattr(analysis, "lie_derivative_metric", lambda *args: 1.01 * lie(*args))
    record = _suite_record(cone, "soliton equation on (xi,xi)")
    assert record.verdict == VERDICT_FAIL and record.residual > 1e-3


def test_the_scalar_field_records_fail_when_the_lee_scalar_is_scaled(cone, monkeypatch):
    # dk(xi) is compared with each metric's own h = theta*(xi)/2n, not with the expect block's h
    names = ("scalar field equation of k = c t", "scalar field equation of k~ = ct t")
    assert all(_suite_record(cone, name).verdict == VERDICT_PASS for name in names)
    field = geometry.PointGeometry.theta_star_xi
    monkeypatch.setattr(geometry.PointGeometry, "theta_star_xi", property(lambda pg: 1.01 * field.func(pg)))
    for name in names:
        record = _suite_record(cone, name)
        assert record.verdict == VERDICT_FAIL and record.residual > 1e-3, name


def test_the_n2_cone_expectations_match_sympy():
    """Each closed form of the n = 2 cone's expect block, derived again symbolically."""
    sp = pytest.importorskip("sympy")
    raw = json.loads((Path(__file__).resolve().parent / "cone_n2_expect.json").read_text())
    x = sp.symbols(raw["coordinates"])
    names = dict(zip(raw["coordinates"], x), c=sp.Symbol("c"), ct=sp.Symbol("ct"))
    d, n, t = len(x), raw["n"], x[0]

    def sym(text):
        return sp.sympify(text.replace("^", "**"), locals=names)

    def matrix(rows):
        return sp.Matrix([[sym(e) for e in row] for row in rows])

    g, phi, frame = matrix(raw["g"]), matrix(raw["phi"]), matrix(raw["frame"])
    xi, eta = (sp.Matrix([sym(e) for e in raw[key]]) for key in ("xi", "eta"))
    a = g * phi + eta * eta.T
    gtilde = (a + a.T) / 2

    def geometry_of(m):
        """Gamma^k_ij, R^l_kij as a function, the Ricci tensor and tau of the metric m."""
        inv = m.inv()
        gam = [[[sum(inv[k, l] * (m[j, l].diff(x[i]) + m[i, l].diff(x[j]) - m[i, j].diff(x[l])) for l in range(d))
                 / 2 for j in range(d)] for i in range(d)] for k in range(d)]

        def r13(l, k, i, j):
            return (gam[l][j][k].diff(x[i]) - gam[l][i][k].diff(x[j])
                    + sum(gam[l][i][s] * gam[s][j][k] - gam[l][j][s] * gam[s][i][k] for s in range(d)))

        ricci = sp.Matrix(d, d, lambda a, b: sum(r13(i, a, i, b) for i in range(d)))
        return gam, r13, ricci, sum(inv[a, b] * ricci[a, b] for a in range(d) for b in range(d))

    gam, r13, ricci, tau = geometry_of(g)
    gam_t, _, _, tau_t = geometry_of(gtilde)
    e1, e2 = frame[:, 0], frame[:, 1]
    r1212 = sum(g[l, w] * r13(l, k, i, j) * e1[i] * e2[j] * e1[k] * e2[w]
                for l in range(d) for k in range(d) for i in range(d) for j in range(d) for w in range(d)
                if e1[i] != 0 and e2[j] != 0 and e1[k] != 0 and e2[w] != 0)
    cov = [[[phi[k, j].diff(x[i]) + sum(gam[k][i][s] * phi[s, j] - phi[k, s] * gam[s][i][j] for s in range(d))
             for i in range(d)] for j in range(d)] for k in range(d)]  # (nabla_i phi)^k_j
    F = [[[sum(g[k, z] * cov[k][j][i] for k in range(d)) for z in range(d)] for j in range(d)] for i in range(d)]
    ginv = g.inv()
    theta_star = [sum(ginv[i, j] * phi[s, j] * F[i][s][z] for i in range(d) for j in range(d) for s in range(d))
                  for z in range(d)]
    theta_star_xi = sum(theta_star[z] * xi[z] for z in range(d))

    def fit(gm, k):
        """f of nabla v = f id for v = k xi, once nabla v is checked to have that form."""
        v = k * xi
        nabla_v = sp.Matrix(d, d, lambda i, j: v[i].diff(x[j]) + sum(gm[i][j][s] * v[s] for s in range(d)))
        f = sp.simplify(nabla_v[0, 0])
        assert sp.simplify(nabla_v - f * sp.eye(d)) == sp.zeros(d, d)
        return f

    derived = {
        "christoffel": gam,
        "R_1212": r1212,
        "rho_11": (e1.T * ricci * e1)[0],
        "rho_22": (e2.T * ricci * e2)[0],
        "tau": tau,
        "tau_star": sum(ginv[i, j] * (ricci * phi)[i, j] for i in range(d) for j in range(d)),
        "theta_star_xi": theta_star_xi,
        "tau_tilde": tau_t,
        "gtilde": gtilde.tolist(),
        "grad_theta_star_xi": [theta_star_xi.diff(coordinate) for coordinate in x],
        "h": theta_star_xi / (2 * n),
    }
    for tag, gm, scalar in (("g", gam, tau), ("gtilde", gam_t, tau_t)):
        f = fit(gm, sym(raw["expect"]["potentials"][tag]["k"]))
        # with nabla v = f id, (1/2) L_v m = f m, so mu = f and lambda = tau - f
        derived[f"potentials.{tag}"] = {"f": f, "lambda": scalar - f}
    # tau = -2n(2n-1)/t^2 and theta*(xi) = 2n/t on the cone over a flat fiber
    assert sp.simplify(tau + 2 * n * (2 * n - 1) / t**2) == 0 and sp.simplify(theta_star_xi - 2 * n / t) == 0

    def same(want, got):
        if isinstance(want, dict):
            return all(same(want[key], got[key]) for key in got)
        if isinstance(want, list):
            return all(same(w, e) for w, e in zip(want, got, strict=True))
        return sp.simplify(sym(want) - got) == 0

    expect = raw["expect"]
    for key, got in derived.items():
        want = expect["potentials"][key.split(".")[1]] if key.startswith("potentials.") else expect[key]
        assert same(want, got), key


# -- the closed-form torse-forming fit against per-sample least squares --------


def _potential_jets(geo, k_source):
    """The value and partials of v = k xi, from the jets of the expressions (k)*(xi_i)."""
    S = geo.structure
    potential = [_k(S, f"({k_source})*({xi.unparse()})") for xi in S.xi]
    return eval_field_jets([potential], Evaluation(geo.points, S.dim, geo.bindings))[0][:2]


def _lstsq_fit(geo, tag, k_source):
    """Per-sample np.linalg.lstsq of nabla_j v^i = f delta^i_j + v^i gamma_j."""
    dim = geo.structure.dim
    v, dv = _potential_jets(geo, k_source)
    fs, gammas, residuals = [], [], []
    for gamma, vk, dvk in zip(geo.of(tag).gamma, v, dv):
        nth = dvk + np.einsum("kis,s->ki", gamma, vk)
        M = np.zeros((dim * dim, 1 + dim))
        b = np.zeros(dim * dim)
        for i in range(dim):
            for j in range(dim):
                M[i * dim + j, 0] = 1.0 if i == j else 0.0
                M[i * dim + j, 1 + j] = vk[i]
                b[i * dim + j] = nth[i, j]
        coef = np.linalg.lstsq(M, b, rcond=None)[0]
        fs.append(coef[0])
        gammas.append(coef[1:])
        residuals.append(np.max(np.abs(M @ coef - b)))
    return np.array(fs), np.array(gammas), np.array(residuals)


def _fit_error(f, gamma, v, nth):
    """f I + v gamma^T - nabla v per sample."""
    return f[:, None, None] * np.eye(v.shape[-1]) + np.einsum("...i,...j->...ij", v, gamma) - nth


@pytest.mark.parametrize("k_source", ["c*t", "t^2"])
@pytest.mark.parametrize("tag", ["g", "gtilde"])
@pytest.mark.parametrize("structure", ["cone", "cone_n2", "varying"])
def test_closed_form_fit_matches_lstsq(request, structure, tag, k_source):
    if structure == "varying":  # xi varies, and eta = dt keeps eta(xi) = 1
        S, bindings = load_manifold(json.dumps(dict(VARYING, eta=["1", "0", "0"]))), OFFDIAG_BINDINGS
    else:
        S, bindings = request.getfixturevalue(structure), {"c": 1.5}
    geo = SampleGeometry(S, sample_points(S.chart, 12, seed=3), bindings)
    res = yamabe_soliton_solve(geo, tag, _k(S, k_source))
    # nabla v from v = k xi and dv = xi dk + k dxi, as the jets of the product expressions give them
    v, dv = _potential_jets(geo, k_source)
    pg = geo.of(tag)
    assert np.array_equal(res.nth, dv + np.einsum("...kis,...s->...ki", pg.gamma, v))
    f, gamma, residuals = _lstsq_fit(geo, tag, k_source)
    if structure != "varying":  # an exact solution exists, and both routes find it
        assert rel_err(res.f, f) <= 1e-13
        assert rel_err(res.gamma, gamma) <= 1e-13
        assert rel_err(res.fit_residuals, residuals) <= 1e-13
        return
    # No exact solution exists on VARYING, and the routes project through different duals of v:
    # lstsq through the Euclidean v / |v|^2, the solve through the structure's eta, with eta(v) = k.
    # The solve's error has no eta part and no trace beyond its (eta, xi) entry; lstsq's
    # Frobenius error is the least; and both fail the fit tolerance.
    err = _fit_error(res.f, res.gamma, v, res.nth)
    scale = np.max(np.abs(res.nth))
    assert np.max(np.abs(np.einsum("...i,...ij->...j", pg.eta, err))) <= 1e-13 * scale
    eta_err_xi = np.einsum("...i,...ij,...j->...", pg.eta, err, pg.xi)
    assert np.max(np.abs(np.trace(err, axis1=-2, axis2=-1) - eta_err_xi)) <= 1e-13 * scale
    frobenius = np.linalg.norm(err, axis=(-2, -1))
    assert np.all(np.linalg.norm(_fit_error(f, gamma, v, res.nth), axis=(-2, -1)) <= frobenius)
    assert np.max(res.fit_residuals) > 1e-9 and np.max(residuals) > 1e-9


@pytest.mark.parametrize("tag", ["g", "gtilde"])
def test_the_fit_scales_exactly_with_the_potential(cone, cone_points, tag):
    # k and 2^700 k: nabla v and eta(v) = k scale by exactly 2^700, so f does too, and
    # gamma, a quotient by k, not at all
    fits = [yamabe_soliton_solve(SampleGeometry(cone, cone_points, {"c": c}), tag, _k(cone, "c*t"))
            for c in (1.0, 2.0**700)]
    assert np.array_equal(fits[1].f, 2.0**700 * fits[0].f)
    assert np.array_equal(fits[1].gamma, fits[0].gamma)


@functools.cache
def _fit_geometry(structure):
    S = load_manifold(json.dumps(OFFDIAG)) if structure == "offdiag" else manifold.builtin_structure("cone-flat-fiber")
    return SampleGeometry(S, sample_points(S.chart, 8, seed=11), OFFDIAG_BINDINGS)


# k = s (a t^p exp(b u) + c) with a, c > 0 never vanishes.  The fit residual is absolute,
# not relative to |nabla v|, so |b| <= 1 keeps |k| and |dk| below about 1e5 on the cone's
# domain, where round-off in the fit stays far below its 1e-9 tolerance.
_NONVANISHING_K = st.builds(
    "{}*({}*t^({})*exp(({})*u)+{})".format,
    st.sampled_from([-1, 1]),
    st.floats(0.1, 10.0),
    st.integers(-3, 3),
    st.one_of(st.floats(-1.0, -0.1), st.floats(0.1, 1.0)),
    st.floats(0.1, 10.0),
)


@pytest.mark.parametrize("tag", ["g", "gtilde"])
@pytest.mark.parametrize("structure", ["cone", "offdiag"])
@seed(20261020)
@given(k_source=_NONVANISHING_K)
@settings(max_examples=40, deadline=2000)
def test_torse_forming_is_a_property_of_the_structure_not_of_k(structure, tag, k_source):
    # nabla v = xi dk + k nabla xi, so f/k and gamma - d ln k are those of k = 1 for every
    # nonvanishing k, and the fit passes or fails with the structure alone
    geo = _fit_geometry(structure)
    unit = yamabe_soliton_solve(geo, tag, _k(geo.structure, "1"))
    sol = yamabe_soliton_solve(geo, tag, _k(geo.structure, k_source))
    assert rel_err(sol.f / sol.k, unit.f) <= 1e-12
    assert rel_err(sol.gamma - sol.dk / sol.k[:, None], unit.gamma) <= 1e-12
    torse_forming = float(np.max(sol.fit_residuals)) <= 1e-9
    assert torse_forming == (structure == "cone")


# -- batched helpers against the same helper at each sample ----------------------


@pytest.mark.parametrize("tag", ["g", "gtilde"])
@pytest.mark.parametrize("structure", ["cone", "cone_n2"])
def test_batched_form_residuals_match_per_sample(request, structure, tag):
    S = request.getfixturevalue(structure)
    points = sample_points(S.chart, 8, seed=9)
    pg = SampleGeometry(S, points).of(tag)
    sasaki = sasaki_form_residual(pg.F, pg.g, pg.phi, pg.eta)
    f5 = f5_form_residual(pg.F, pg.g, pg.phi, pg.eta, pg.theta_star_xi, pg.n)
    rng = np.random.default_rng(4)
    A = pg.g * rng.uniform(0.5, 2.0, size=(len(points), 1, 1))
    A = (A + np.swapaxes(A, -1, -2)) / 2.0
    mu, resid = proportionality_split(A, pg.g, pg.ginv)
    assert sasaki.shape == f5.shape == mu.shape == resid.shape == (len(points),)
    for k, pt in enumerate(points):
        single = SampleGeometry(S, [pt]).of(tag)
        F, g, phi, eta = single.F, single.g, single.phi, single.eta
        assert rel_err(sasaki[k], sasaki_form_residual(F, g, phi, eta)[0]) <= 1e-13
        f5_k = f5_form_residual(F, g, phi, eta, single.theta_star_xi, single.n)[0]
        assert rel_err(f5[k], f5_k) <= 1e-13
        mu_k, resid_k = proportionality_split(A[k : k + 1], single.g, single.ginv)
        assert rel_err(mu[k], mu_k[0]) <= 1e-13 and rel_err(resid[k], resid_k[0]) <= 1e-13


# OFFDIAG and VARYING with a dense frame, regular on their domain (each row is
# diagonally dominant there), with no entry 0 or 1 that makes a product exact.
DENSE_FRAME = [["1.1", "u/4", "0.3"], ["t/3", "0.9", "v/5"], ["0.2", "-t*v/6", "1+u*v/7"]]
DENSELY_FRAMED = {"offdiag": dict(OFFDIAG, frame=DENSE_FRAME), "varying": dict(VARYING, frame=DENSE_FRAME)}


@pytest.mark.parametrize("tag", ["g", "gtilde"])
@pytest.mark.parametrize("structure", ["cone", "cone_n2", "rotating_norden", "offdiag", "varying"])
def test_phi_frame_values_match_the_transform_of_every_slot(request, structure, tag):
    if structure in DENSELY_FRAMED:
        S, bindings = load_manifold(json.dumps(DENSELY_FRAMED[structure])), OFFDIAG_BINDINGS
    else:
        S, bindings = request.getfixturevalue(structure), {}
    points = sample_points(S.chart, 8, seed=17)
    geo = SampleGeometry(S, points, bindings)
    (frames,) = eval_numbers([S.frame], Evaluation(points, S.dim, bindings))
    pg = geo.of(tag)
    r04f, rhof = phi_frame(lowered_curvature(pg), frames), phi_frame(pg.ricci, frames)
    want = {"R_1212": r04f[:, 0, 1, 0, 1], "rho_11": rhof[:, 0, 0], "rho_22": rhof[:, 1, 1]}
    got = analysis._phi_frame_values(geo, tag)
    assert got.keys() == want.keys()
    for key, w in want.items():
        assert got[key].shape == w.shape == (len(points),), key
        assert np.max(np.abs(got[key] - w)) <= 1e-13 * np.max(np.abs(w)), key
        if structure.startswith("cone"):
            assert np.array_equal(got[key], w), key


# -- compute once, and errors that name the offending sample --------------------


def test_verify_paper_suite_computes_each_fit_and_geometry_once(monkeypatch, capsys):
    calls = {}

    def counting(name, *modules, key=None):
        original = getattr(modules[0], name)
        key = key or name
        calls[key] = 0

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)

    counting("yamabe_soliton_solve", analysis)
    counting("PointGeometry", geometry)  # the geometry of one metric tag over the samples
    counting("func", geometry.SampleGeometry.jets, key="structure jets")  # g, phi, xi and eta
    counting("eval_field_jets", analysis, key="potential jets")  # analysis evaluates no other field's jets
    counting("sample_points", manifold, cli)
    counting("check_bindings", manifold, cli, analysis)
    counting("lie_derivative_metric", geometry, analysis)  # once per soliton solve
    evaluated = []  # the fields of each evaluation of values alone, and of each potential's jets
    for name in ("eval_numbers", "eval_field_jets"):
        def recorded(fields, *args, _evaluate=getattr(analysis, name), _name=name):
            evaluated.append((_name, fields))
            return _evaluate(fields, *args)
        monkeypatch.setattr(analysis, name, recorded)
    assert cli.main(["verify-paper", "--samples", "8"]) == 0
    assert "51 checks: 51 pass" in capsys.readouterr().out
    assert calls == {
        "yamabe_soliton_solve": 2,
        "PointGeometry": 2,
        "structure jets": 1,
        "potential jets": 2,
        "sample_points": 1,
        "check_bindings": 2,  # the structure's constants, then the expectations'
        "lie_derivative_metric": 2,
    }
    # every expectation but the potentials' k is evaluated in one call, and each potential once
    cone = manifold.builtin_structure("cone-flat-fiber")
    expected = [e for key, _, value in cone.expect if not key.endswith(".k") for e in np.ravel(value)]
    potentials = {key: value for key, _, value in cone.expect if key.endswith(".k")}
    numbers = [fields for name, fields in evaluated if name == "eval_numbers"]
    assert numbers == [[list(np.ravel(value)) for key, _, value in cone.expect if not key.endswith(".k")],
                       [cone.frame]]
    assert sum(len(field) for field in numbers[0]) == len(expected) == 51
    jets = [fields for name, fields in evaluated if name == "eval_field_jets"]
    assert jets == [[[potentials[f"potentials.{tag}.k"]]] for tag in ("g", "gtilde")]  # one [[k]] field per solve
    # one soliton solve evaluates its potential once, for the fit and the solve alike
    calls.update(dict.fromkeys(calls, 0))
    argv = ["soliton", "--builtin", "cone-flat-fiber", "--potential-k", "c*t", "--const", "c=1"]
    assert cli.main([*argv, "--samples", "8"]) == 0
    assert calls["potential jets"] == 1 and calls["yamabe_soliton_solve"] == 1
    # a report with a potential reads both metrics from one evaluation of the structure jets
    calls.update(dict.fromkeys(calls, 0))
    argv = ["report", "--builtin", "cone-flat-fiber", "--potential-k", "c*t", "--const", "c=1"]
    assert cli.main([*argv, "--samples", "8"]) == 0
    assert calls["structure jets"] == 1 and calls["PointGeometry"] == 2 and calls["potential jets"] == 1


@pytest.mark.parametrize("workload", ["verify-cone", "report-n2", "soliton-cone", "curvature-g-n2"])
def test_a_benchmark_run_computes_each_geometry_field_once(monkeypatch, capsys, workload):
    computes, built, evaluations = {}, [], []

    def counted(name, compute):
        def count(pg):
            computes[pg.tag, name] = computes.get((pg.tag, name), 0) + 1
            return compute(pg)
        return count

    for name, field in vars(geometry.PointGeometry).items():
        if isinstance(field, functools.cached_property):
            monkeypatch.setattr(field, "func", counted(name, field.func))

    class Recorded(geometry.SampleGeometry):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def recorded(name, evaluate):
        def record(fields, *args):
            evaluations.append((name, fields))
            return evaluate(fields, *args)
        return record

    seeded, evaluated = [], []  # the coordinates seeded; per node evaluated as a jet, its evaluator call

    def seed(index, value, dim, _seed=Jet2.seed):
        seeded.append(index)
        return _seed(index, value, dim)

    def evaluate(node, coordinates, bindings, kept, _evaluate=expr._evaluate):
        if id(node) not in kept and isinstance(coordinates[0], Jet2):
            evaluated.append((len(evaluations) - 1, node))
        return _evaluate(node, coordinates, bindings, kept)

    monkeypatch.setattr(geometry, "SampleGeometry", Recorded)
    for module in (expr, manifold, geometry, analysis):  # every binding of the two evaluators
        for name in ("eval_field_jets", "eval_numbers"):
            if name in vars(module):
                monkeypatch.setattr(module, name, recorded(name, vars(module)[name]))
    monkeypatch.setattr(Jet2, "seed", staticmethod(seed))
    monkeypatch.setattr(expr, "_evaluate", evaluate)
    assert cli.main(CASES[workload][0]) == 0
    capsys.readouterr()
    assert computes and max(computes.values()) == 1, computes
    (geo,) = built
    S = geo.structure
    structure = [S.g, S.phi, S.xi, S.eta]
    jets = [fields for name, fields in evaluations if name == "eval_field_jets"]
    numbers = [fields for name, fields in evaluations if name == "eval_numbers"]

    def reads_structure(fields):  # by field: the loader shares one Expression per entry text
        return any(f is s for f in fields for s in structure)

    # g, phi, xi and eta are evaluated once, together, as jets; validation reads their values
    assert [fields for fields in jets if reads_structure(fields)] == [structure]
    assert not any(reads_structure(fields) for fields in numbers)
    # values alone are evaluated only for verify-paper's expectations, in one call, and for the
    # frame, once, where the phi-frame values are read
    expectations = [[list(np.ravel(value)) for key, _, value in S.expect if not key.endswith(".k")]]
    assert numbers == {"verify-cone": expectations + [[S.frame]], "curvature-g-n2": [[S.frame]]}.get(workload, [])
    # g~'s jets are evaluated once where g~ is read, and g's never: they are structure jets
    assert jets.count([S.associated_metric()]) == (0 if workload == "curvature-g-n2" else 1)
    # one evaluation serves the command: each coordinate is seeded once, and no AST node is
    # evaluated as a jet twice
    assert sorted(seeded) == list(range(S.dim))
    assert len({id(node) for _, node in evaluated}) == len(evaluated) > 0
    # g~'s products read the jets of g's, phi's and eta's entries, and evaluate none of their nodes
    if workload != "curvature-g-n2":
        gtilde = next(i for i, (_, fields) in enumerate(evaluations) if fields == [S.associated_metric()])
        entries = [e for row in S.g + S.phi for e in row] + list(S.xi) + list(S.eta)
        structure_nodes = {id(node) for e in entries for node in expr._nodes(e.ast)}
        in_gtilde = [node for call, node in evaluated if call == gtilde]
        assert in_gtilde and not any(id(node) in structure_nodes for node in in_gtilde)
    # the curvature pass reads the metric's second derivatives once and keeps no dgamma
    assert [pg.tag for pg in geo._geometry.values() if {"_curvature", "_d2g"} <= vars(pg).keys()] == []
    if workload == "report-n2":
        assert "_d2g" not in vars(geo.of("gtilde"))


def test_non_vertical_sample_is_named(cone):
    # with eta = (1+u) dt, v = t xi is vertical exactly where u = 0: samples 1 and 2 are not
    points = [[1.0, 0.0, 0.5], [2.0, 0.5, -1.0], [3.0, 0.25, 0.0], [1.5, 0.0, 0.0]]
    S = load_manifold(ETA_SKEWED)
    with pytest.raises(NonVerticalPotential) as err:
        yamabe_soliton_solve(SampleGeometry(S, points), "g", _k(S, "t"))
    assert str(err.value) == "potential deviates from k*xi by 1.000e+00 at sample 1 (t=2.0, u=0.5, v=-1.0)"
    # vanishing at the last two samples names the first of them
    with pytest.raises(ZeroPotential, match=r"at sample 2 \(t=3\.0, u=0\.25, v=0\.0\)$"):
        yamabe_soliton_solve(SampleGeometry(cone, points), "g", _k(cone, "t*v"))
