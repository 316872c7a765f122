"""Classification, torse-forming extraction, and the Yamabe soliton solver."""

import functools

import numpy as np
import pytest

import accr.analysis as analysis
import accr.cli as cli
import accr.geometry as geometry
import accr.manifold as manifold
from accr.analysis import (
    DEFAULT_SUITE_BINDINGS,
    DEGENERATE,
    FAILS,
    HOLDS,
    check_f5,
    check_sasaki_like,
    classify,
    f5_form_residual,
    proportionality_split,
    sasaki_form_residual,
    torse_forming_extract,
    verify_paper_suite,
    vertical_potential,
    yamabe_soliton_solve,
)
from accr.errors import NonVerticalPotential, ZeroPotential
from accr.expr import parse
from accr.geometry import SampleGeometry, vector_field_jets
from accr.manifold import load_manifold, sample_points
from accr.report import VERDICT_PASS

from conftest import rel_err
from test_manifold import cone_json
from test_output_contract import CASES

COORDS = ("t", "u", "v")


def _exprs(*sources, constants=("c",)):
    return tuple(parse(s, COORDS, constants) for s in sources)


def test_classify_cone(cone, cone_points, cone_bindings):
    cm = classify(SampleGeometry(cone, cone_points, cone_bindings))
    assert cm.sasaki_like.status == FAILS
    assert cm.f5.status == HOLDS
    assert cm.f5_0.status == HOLDS
    assert cm.f0.status == FAILS
    assert [e.name for e in cm.entries()] == ["sasaki_like", "f5", "f5_0", "f0"]
    # F5 consequences come back as extras when the form holds
    assert cm.f5.extras["theta* = theta*(xi) eta"] < 1e-11
    assert cm.f5.extras["F(xi,y,z) = 0"] < 1e-11
    assert cm.f5.extras["omega = 0"] < 1e-11
    # a failing membership keeps a meaningful residual
    assert cm.sasaki_like.residual > 0.1


def test_classify_rotating_norden(rotating_norden):
    geo = SampleGeometry(rotating_norden, sample_points(rotating_norden.chart, 16, seed=42))
    validation = analysis.validation_records(geo, 1e-9)
    assert len(validation) == 8 and all(r.verdict == VERDICT_PASS for r in validation)
    cm = classify(geo)
    assert cm.sasaki_like.status == HOLDS and cm.sasaki_like.residual <= 1e-12
    assert len(cm.sasaki_like.extras) == 6
    assert max(cm.sasaki_like.extras.values()) <= 1e-12
    records = analysis.classification_records(geo, 1e-9)
    consequences = [r for r in records if r.name.startswith("consequence of sasaki_like")]
    assert len(consequences) == 6 and all(r.verdict == VERDICT_PASS for r in consequences)
    assert cm.f5.status == FAILS and cm.f0.status == FAILS
    assert cm.f5.residual > 0.9
    # F5_0 fails through its F5 premise and reports that residual, not the 0 of dθ*(ξ)
    assert cm.f5_0.status == FAILS
    assert cm.f5_0.residual == cm.f5.residual


def test_classify_flat(flat, flat_points):
    cm = classify(SampleGeometry(flat, flat_points))
    assert cm.f0.status == HOLDS
    assert cm.f0.residual == 0.0
    # with F identically zero the F5 subclass question is vacuous
    assert cm.f5.status == DEGENERATE
    assert cm.f5_0.status == DEGENERATE
    assert cm.sasaki_like.status == FAILS


def test_sasaki_form_residual_oracle(cone):
    # data manufactured to satisfy the defining form exactly
    g, phi, xi, eta = cone.values_at((2.0, 0.3, -0.4))
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
    geo = SampleGeometry(load_manifold(cone_json(g=g)), cone_points)
    f5, f5_0, f0 = check_f5(geo)
    assert f5.status == FAILS
    assert f5_0.status == FAILS
    assert f0.status == FAILS
    assert f5.extras == {}
    sasaki = check_sasaki_like(geo)
    assert sasaki.status == FAILS and sasaki.extras == {}


def test_vertical_potential_builder(cone):
    pot = vertical_potential(cone, "c*t")
    values = [e.eval_number((2.0, 0.3, -0.4), {"c": 1.5}) for e in pot]
    assert np.allclose(values, [3.0, 0.0, 0.0])
    # an Expression is accepted as well
    pot2 = vertical_potential(cone, parse("t", cone.chart.coordinates))
    assert [e.eval_number((2.0, 0.3, -0.4)) for e in pot2] == [2.0, 0.0, 0.0]


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_torse_forming_extraction_ct(cone, cone_points, c):
    pot = vertical_potential(cone, "c*t")
    res = torse_forming_extract(SampleGeometry(cone, cone_points, {"c": c}), "g", pot)
    assert res.residual < 1e-11
    assert np.max(np.abs(res.f - c)) < 1e-11
    assert np.max(np.abs(res.gamma)) < 1e-11
    assert {"torse-forming", "torqued", "concircular"} <= res.taxonomy
    assert ("concurrent" in res.taxonomy) == (c == 1.0)
    assert "recurrent" not in res.taxonomy
    assert res.vertical
    ts = np.array([p[0] for p in cone_points])
    assert np.allclose(res.k, c * ts)
    assert np.allclose(res.h, 1.0 / ts)  # f/k = 1/t independent of c
    assert np.max(np.abs(res.dk_xi - c)) < 1e-11
    for name, value in res.vertical_checks.items():
        assert value < 1e-9, name


def test_extraction_quadratic_vertical_field(cone, cone_points):
    # v = t^2 xi is torse-forming with f = t and gamma = eta / t, hence
    # not torqued: gamma(v) = t is visible in the fitted form
    pot = _exprs("t^2", "0", "0")
    res = torse_forming_extract(SampleGeometry(cone, cone_points), "g", pot)
    assert res.residual < 1e-10
    assert "torse-forming" in res.taxonomy
    assert "torqued" not in res.taxonomy
    assert "concircular" not in res.taxonomy
    ts = np.array([p[0] for p in cone_points])
    assert np.allclose(res.f, ts)
    assert np.allclose(res.gamma[:, 0], 1.0 / ts)
    assert np.max(np.abs(res.gamma[:, 1:])) < 1e-11
    assert res.vertical
    # f = t but dk(xi) = 2t: the torqued criterion fails measurably
    assert res.vertical_checks["f = dk(xi)"] > 0.5


def test_extraction_non_vertical_field(cone, cone_points):
    pot = _exprs("0", "t^2", "0")
    res = torse_forming_extract(SampleGeometry(cone, cone_points), "g", pot)
    assert not res.vertical
    assert res.k is None and res.h is None and res.vertical_checks is None
    assert res.residual > 1.0  # nowhere near torse-forming
    assert res.taxonomy == frozenset()


def test_extraction_recurrent_not_parallel(flat, flat_points):
    # on the flat structure v = t xi has f = 0 with nonzero gamma
    pot = tuple(parse(s, flat.chart.coordinates) for s in ("t", "0", "0"))
    res = torse_forming_extract(SampleGeometry(flat, flat_points), "g", pot)
    assert res.residual < 1e-12
    assert "recurrent" in res.taxonomy
    assert "parallel" not in res.taxonomy
    assert "torqued" not in res.taxonomy


def test_extraction_parallel_field(flat, flat_points):
    pot = tuple(parse(s, flat.chart.coordinates) for s in ("1", "0", "0"))
    res = torse_forming_extract(SampleGeometry(flat, flat_points), "g", pot)
    assert res.residual == 0.0
    assert {"torse-forming", "torqued", "concircular", "recurrent", "parallel"} <= res.taxonomy
    assert "concurrent" not in res.taxonomy  # f = 0, not 1
    # taxonomy implications hold as sets
    tx = res.taxonomy
    assert ("parallel" not in tx) or ({"recurrent", "concircular"} <= tx)
    assert ("concurrent" not in tx) or ("concircular" in tx)


def test_zero_potential_rejected(cone, cone_points):
    pot = _exprs("0", "0", "0")
    with pytest.raises(ZeroPotential):
        torse_forming_extract(SampleGeometry(cone, cone_points), "g", pot)


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
    pot = vertical_potential(cone, "c*t")
    pot_t = vertical_potential(cone, "ct*t")
    b = {"c": 1.0, "ct": 1.0}
    geo = SampleGeometry(cone, cone_points, b)
    other = torse_forming_extract(geo, "gtilde", pot_t)
    sol = yamabe_soliton_solve(geo, "g", pot, other=other)
    assert sol.verdict == "soliton"
    assert np.max(sol.residuals) < 1e-11
    ts = np.array([p[0] for p in cone_points])
    # lambda(t) = -2/t^2 - c for the flat fiber
    assert np.max(np.abs(sol.lambdas - (-2.0 / ts**2 - 1.0))) < 1e-11
    assert np.isclose(sol.lambdas[0], -1.5)  # pinned t = 2 sample
    assert sol.theorem_checks["tau = f + lambda"] < 1e-10
    assert sol.theorem_checks["f = dk(xi)"] < 1e-10
    assert sol.theorem_checks["f/k matches between the two metrics"] < 1e-11


def test_yamabe_soliton_on_gtilde(cone, cone_points):
    pot = vertical_potential(cone, "ct*t")
    for ct in (0.5, 2.0):
        sol = yamabe_soliton_solve(SampleGeometry(cone, cone_points, {"ct": ct}), "gtilde", pot)
        assert sol.verdict == "soliton"
        ts = np.array([p[0] for p in cone_points])
        assert np.max(np.abs(sol.lambdas - (-2.0 / ts**2 - ct))) < 1e-11
        assert sol.theorem_checks["tau = f + lambda"] < 1e-10
        assert sol.theorem_checks["f/k matches between the two metrics"] is None


def test_yamabe_not_soliton(cone, cone_points):
    pot = _exprs("t^2", "0", "0")
    sol = yamabe_soliton_solve(SampleGeometry(cone, cone_points), "g", pot)
    assert sol.verdict == "not-soliton"
    assert np.max(sol.residuals) > 1.0
    # the theorem premises fail, so their checks stay unevaluated
    assert sol.theorem_checks["tau = f + lambda"] is None


def test_yamabe_rejects_non_vertical(cone, cone_points):
    pot = _exprs("0", "t^2", "0")
    with pytest.raises(NonVerticalPotential):
        yamabe_soliton_solve(SampleGeometry(cone, cone_points), "g", pot)
    mixed = _exprs("1", "1", "0")
    with pytest.raises(NonVerticalPotential):
        yamabe_soliton_solve(SampleGeometry(cone, cone_points), "g", mixed)


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


# -- the closed-form torse-forming fit against per-sample least squares --------


def _lstsq_fit(geo, tag, potential):
    """Per-sample np.linalg.lstsq of nabla_j v^i = f delta^i_j + v^i gamma_j."""
    dim = geo.structure.dim
    v, dv = vector_field_jets(potential, geo.points, geo.bindings)
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


@pytest.mark.parametrize("k_source", ["c*t", "t^2"])
@pytest.mark.parametrize("tag", ["g", "gtilde"])
@pytest.mark.parametrize("structure", ["cone", "cone_n2"])
def test_closed_form_fit_matches_lstsq(request, structure, tag, k_source):
    S = request.getfixturevalue(structure)
    geo = SampleGeometry(S, sample_points(S.chart, 12, seed=3), {"c": 1.5})
    res = torse_forming_extract(geo, tag, vertical_potential(S, k_source))
    f, gamma, residuals = _lstsq_fit(geo, tag, vertical_potential(S, k_source))
    assert rel_err(res.f, f) <= 1e-13
    assert rel_err(res.gamma, gamma) <= 1e-13
    assert rel_err(res.per_sample_residual, residuals) <= 1e-13


def test_closed_form_fit_keeps_the_non_vertical_residual(cone, cone_points):
    pot = _exprs("0", "t^2", "0")
    geo = SampleGeometry(cone, cone_points)
    res = torse_forming_extract(geo, "g", pot)
    f, gamma, residuals = _lstsq_fit(geo, "g", pot)
    assert res.residual > 1.0
    assert rel_err(res.per_sample_residual, residuals) <= 1e-13
    assert rel_err(res.f, f) <= 1e-13 and rel_err(res.gamma, gamma) <= 1e-13


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


# -- compute once, and errors that name the offending sample --------------------


def test_verify_paper_suite_computes_each_fit_and_geometry_once(monkeypatch, capsys):
    calls = {}

    def counting(name, *modules):
        original = getattr(modules[0], name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)

    counting("torse_forming_extract", analysis)
    counting("PointGeometry", geometry)  # the geometry of one metric tag over the samples
    counting("jets_at", manifold.AccRStructure)
    counting("vector_field_jets", geometry, analysis)
    counting("sample_points", manifold, cli)
    counting("check_bindings", manifold, cli, analysis)
    counting("lie_derivative_metric", geometry, analysis)  # once per soliton solve
    assert cli.main(["verify-paper", "--samples", "8"]) == 0
    assert "51 checks: 51 pass" in capsys.readouterr().out
    assert calls == {
        "torse_forming_extract": 2,
        "PointGeometry": 2,
        "jets_at": 1,
        "vector_field_jets": 2,
        "sample_points": 1,
        "check_bindings": 1,
        "lie_derivative_metric": 2,
    }
    # one soliton solve evaluates its potential once, for the fit and the solve alike
    calls.update(dict.fromkeys(calls, 0))
    argv = ["soliton", "--builtin", "cone-flat-fiber", "--potential-k", "c*t", "--const", "c=1"]
    assert cli.main([*argv, "--samples", "8"]) == 0
    assert calls["vector_field_jets"] == 1 and calls["torse_forming_extract"] == 1
    # a report with a potential reads both metrics from one evaluation of the structure jets
    calls.update(dict.fromkeys(calls, 0))
    argv = ["report", "--builtin", "cone-flat-fiber", "--potential-k", "c*t", "--const", "c=1"]
    assert cli.main([*argv, "--samples", "8"]) == 0
    assert calls["jets_at"] == 1 and calls["PointGeometry"] == 2 and calls["vector_field_jets"] == 1


@pytest.mark.parametrize("workload", ["verify-cone", "report-n2", "soliton-cone"])
def test_a_benchmark_run_computes_each_geometry_field_once(monkeypatch, capsys, workload):
    computes, built = {}, []

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

    monkeypatch.setattr(geometry, "SampleGeometry", Recorded)
    assert cli.main(CASES[workload][0]) == 0
    capsys.readouterr()
    assert computes and max(computes.values()) == 1, computes
    (geo,) = built
    # dgamma is let go once r13 is kept, whether or not dtheta_star was read
    assert [pg.tag for pg in geo._geometry.values() if {"r13", "dgamma"} <= vars(pg).keys()] == []
    if workload == "report-n2":
        assert "dgamma" not in vars(geo.of("gtilde"))


def test_non_vertical_sample_is_named(cone):
    # v = t d_t + u d_u is vertical exactly where u = 0: samples 1 and 2 are not
    points = [[1.0, 0.0, 0.5], [2.0, 0.5, -1.0], [3.0, 0.25, 0.0], [1.5, 0.0, 0.0]]
    pot = _exprs("t", "u", "0")
    with pytest.raises(NonVerticalPotential) as err:
        yamabe_soliton_solve(SampleGeometry(cone, points), "g", pot)
    assert str(err.value) == "potential deviates from k*xi by 5.000e-01 at sample (2.0, 0.5, -1.0)"
    # vanishing at the last two samples names the first of them
    with pytest.raises(ZeroPotential, match=r"at sample \(3\.0, 0\.25, 0\.0\)"):
        torse_forming_extract(SampleGeometry(cone, points), "g", _exprs("t*v", "0", "0"))
