"""Connection, curvature, and fundamental-tensor pipeline on the builtins."""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from accr import cli, geometry
from accr.errors import DomainError
from accr.expr import Evaluation, eval_field_jets, eval_numbers, parse
from accr.geometry import (
    PointGeometry,
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
)
from accr.manifold import StructureJets, load_manifold, sample_points, validate_structure

from conftest import OFFDIAG, OFFDIAG_BINDINGS, VARYING, associated_metric, fd_gradient, phi_frame, rel_err
from test_manifold import cone_json

POINT = (2.0, 0.3, -0.4)
COORDS = ("t", "u", "v")

# The array fields of a PointGeometry, in declaration order: the structure
# fields and the metric with its inverse, which are taken at construction,
# then the fields computed on first read.  dgamma is not a field: it lives
# only in the curvature pass, and the tests build it with _dgamma.
FIELDS = (
    "phi", "xi", "eta", "deta", "g", "dg", "ginv",
    "gamma", "r13", "ricci", "tau", "tau_star", "nabla_xi", "nabla_eta",
    "F", "theta_star", "dtheta_star", "theta_star_xi", "grad_theta_star_xi", "omega",
)


@pytest.fixture(scope="module")
def pg_g(cone):
    return SampleGeometry(cone, [POINT]).of("g")


@pytest.fixture(scope="module")
def pg_gt(cone):
    return SampleGeometry(cone, [POINT]).of("gtilde")


def _d2g(geo, tag):
    """The second derivatives of the metric `tag` over the samples of geo, evaluated again."""
    S = geo.structure
    metric = S.g if tag == "g" else S.associated_metric()
    (jets,) = eval_field_jets([metric], Evaluation(geo.points, S.dim, geo.bindings))
    return jets.second


def _dgamma(geo, tag):
    """dgamma[k,i,j,m] = d_m Gamma^k_{ij} of the metric `tag`, built as the curvature pass builds it."""
    return geometry._christoffel_derivative(geo.of(tag), geometry._koszul_derivative(_d2g(geo, tag)))


def test_unknown_metric_tag(cone):
    with pytest.raises(ValueError):
        SampleGeometry(cone, [POINT]).of("h")


def test_christoffel_frozen_values(pg_g):
    expected = np.zeros((3, 3, 3))
    expected[0, 1, 1] = -2.0  # Gamma^t_uu = -t
    expected[0, 2, 2] = 2.0  # Gamma^t_vv = t
    expected[1, 0, 1] = expected[1, 1, 0] = 0.5  # Gamma^u_tu = 1/t
    expected[2, 0, 2] = expected[2, 2, 0] = 0.5  # Gamma^v_tv = 1/t
    assert np.allclose(pg_g.gamma[0], expected, atol=1e-14)
    # symmetric in the two lower slots
    assert np.max(np.abs(pg_g.gamma[0] - pg_g.gamma[0].transpose(0, 2, 1))) == 0.0


def test_christoffel_wrapper(cone):
    geo = SampleGeometry(cone, POINT)  # one point is a batch of one
    pg = geo.of("g")
    assert pg.tag == "g"
    assert _dgamma(geo, "g").shape == (1, 3, 3, 3, 3)
    assert np.allclose(geo.points, [POINT])


def _fd_christoffel(metric_of_point, point, h=1e-5):
    """Koszul formula from central-difference metric derivatives."""
    point = np.asarray(point, dtype=float)
    dim = point.size
    dg = np.empty((dim, dim, dim))  # dg[i,j,m] = d_m g_ij
    for m in range(dim):
        xp = point.copy()
        xm = point.copy()
        xp[m] += h
        xm[m] -= h
        dg[:, :, m] = (metric_of_point(xp) - metric_of_point(xm)) / (2.0 * h)
    ginv = np.linalg.inv(metric_of_point(point))
    koszul = (
        np.einsum("jli->lij", dg) + np.einsum("ilj->lij", dg) - np.einsum("ijl->lij", dg)
    )
    return 0.5 * np.einsum("kl,lij->kij", ginv, koszul)


def test_christoffel_matches_finite_differences(cone, cone_points):
    for tag, comp in (
        ("g", lambda p: eval_numbers([cone.g], Evaluation(p, 3))[0]),
        ("gtilde", lambda p: associated_metric(cone, p)),
    ):
        for pt in cone_points[:8]:
            pg = SampleGeometry(cone, [pt]).of(tag)
            ref = _fd_christoffel(comp, pt)
            assert rel_err(pg.gamma[0], ref) < 1e-5


def _eta_of_nabla_xi(pg):
    """max |eta(nabla_x xi)|, which vanishes wherever g(xi, xi) = 1."""
    return np.max(np.abs(np.einsum("...k,...ki->...i", pg.eta, pg.nabla_xi)))


def test_nabla_xi_both_metrics(cone, cone_points):
    for tag in ("g", "gtilde"):
        pg = SampleGeometry(cone, [POINT]).of(tag)
        assert np.allclose(pg.nabla_xi[0], np.diag([0.0, 0.5, 0.5]), atol=1e-13)
        batch = SampleGeometry(cone, cone_points).of(tag)
        assert batch.nabla_xi.shape == (len(cone_points), 3, 3)
        assert np.array_equal(batch.nabla_xi[0], pg.nabla_xi[0])
        assert _eta_of_nabla_xi(batch) <= 1e-9


def test_nabla_xi_identity_violation():
    # xi scaled by t breaks g(xi,xi)=1: eta(nabla_x xi) picks it up, and validation fails it
    S = load_manifold(cone_json(xi=["t", "0", "0"]))
    assert _eta_of_nabla_xi(SampleGeometry(S, [POINT]).of("g")) > 1e-9
    records = {r.anchor: r for r in validate_structure(S, SampleGeometry(S, [POINT]).jets)}
    assert records["g(xi, xi) = 1"].verdict == "fail" and records["g(xi, xi) = 1"].residual > 1e-9


def test_curvature_frozen_values(cone, pg_g):
    (frame,) = eval_numbers([cone.frame], Evaluation(POINT, 3))
    r_frame = phi_frame(lowered_curvature(pg_g)[0], frame)
    assert np.isclose(r_frame[0, 1, 0, 1], -0.25, atol=1e-13)
    rho_frame = phi_frame(pg_g.ricci[0], frame)
    assert np.allclose(rho_frame, np.diag([-0.25, 0.25, 0.0]), atol=1e-13)
    assert np.isclose(pg_g.tau[0], -0.5, atol=1e-13)
    assert np.isclose(pg_g.tau_star[0], 0.0, atol=1e-13)
    # the associated metric has the same scalar curvature here
    assert np.isclose(SampleGeometry(cone, [POINT]).of("gtilde").tau[0], -0.5, atol=1e-13)


def test_fundamental_tensor_frozen_values(pg_g):
    assert np.isclose(pg_g.theta_star_xi[0], 1.0, atol=1e-13)
    assert np.allclose(pg_g.theta_star[0], [1.0, 0.0, 0.0], atol=1e-13)
    assert np.allclose(pg_g.omega[0], 0.0, atol=1e-13)
    assert np.allclose(pg_g.grad_theta_star_xi[0], [-0.5, 0.0, 0.0], atol=1e-13)
    # F(d_u, d_v, xi) = -h g(d_u, phi d_v) with h = 1/t: equals t at t=2
    assert np.isclose(pg_g.F[0, 1, 2, 0], 2.0, atol=1e-13)
    # symmetric in the last two slots
    assert np.max(np.abs(pg_g.F[0] - pg_g.F[0].transpose(0, 2, 1))) < 1e-14
    assert np.isclose(pg_g.h[0], 0.5, atol=1e-14)
    assert np.allclose(pg_g.grad_h[0], [-0.25, 0.0, 0.0], atol=1e-14)


def test_flat_structure_is_flat(flat, flat_points):
    for pt in flat_points[:6]:
        pg = SampleGeometry(flat, [pt]).of("g")
        assert np.max(np.abs(pg.gamma)) == 0.0
        assert np.max(np.abs(pg.r13)) == 0.0
        assert np.max(np.abs(pg.F)) == 0.0
        assert pg.tau[0] == 0.0 and pg.tau_star[0] == 0.0
        assert pg.theta_star_xi[0] == 0.0
        assert np.max(np.abs(pg.nabla_xi)) == 0.0


def test_identity_suites_on_cone(cone, cone_points):
    for tag in ("g", "gtilde"):
        for pt in cone_points:
            pg = SampleGeometry(cone, [pt]).of(tag)
            assert metric_compatibility_residual(pg)[0] < 1e-11
            for name, res in curvature_symmetry_residuals(pg).items():
                assert res[0] < 1e-11, (tag, name)
            for name, res in f_property_residuals(pg).items():
                assert res[0] < 1e-11, (tag, name)


def test_torse_forming_curvature_identities(cone, cone_points):
    for pt in cone_points:
        pg = SampleGeometry(cone, [pt]).of("g")
        for name, res in torse_forming_curvature_residuals(pg).items():
            assert res[0] < 1e-10, name


def test_tau_tilde_relations(cone, cone_points):
    for pt in cone_points:
        geo = SampleGeometry(cone, [pt])
        for name, res in tau_tilde_relations(geo.of("g"), geo.of("gtilde")).items():
            assert res[0] < 1e-10, name


def test_f_tilde_transfer_route(cone, cone_points):
    for pt in cone_points[:8]:
        geo = SampleGeometry(cone, [pt])
        via = f_tilde_components_from(geo.of("g"))[0]
        direct = geo.of("gtilde").F[0]
        assert np.max(np.abs(via - direct)) < 1e-11


def _doctored(S, field, value):
    """The geometry of g at POINT with one field replaced before its first read."""
    pg = SampleGeometry(S, [POINT]).of("g")
    vars(pg)[field] = value
    return pg


def test_f_tilde_transfer_detects_perturbation(cone, pg_g, pg_gt):
    # the two routes are independent: biasing the input F must surface
    doctored = _doctored(cone, "F", pg_g.F * 1.01)
    assert np.max(np.abs(f_tilde_components_from(doctored) - pg_gt.F)) > 1e-4
    assert np.max(np.abs(f_tilde_components_from(pg_g) - pg_gt.F)) < 1e-12


def test_nabla_tilde_routes(cone, cone_points):
    for pt in cone_points[:8]:
        geo = SampleGeometry(cone, [pt])
        pg = geo.of("g")
        direct = geo.of("gtilde").gamma[0]
        assert np.max(np.abs(nabla_tilde_components_from(pg)[0] - direct)) < 1e-11
        assert np.max(np.abs(connection_f5_form(pg)[0] - direct)) < 1e-11


def test_nabla_tilde_detects_perturbation(cone, pg_g, pg_gt):
    doctored = _doctored(cone, "gamma", pg_g.gamma * 1.01)
    assert np.max(np.abs(nabla_tilde_components_from(doctored) - pg_gt.gamma)) > 1e-4


def test_vector_field_jets():
    exprs = [parse(s, COORDS) for s in ("t^2", "u*v", "0")]
    value, partial, _ = eval_field_jets([exprs], Evaluation(POINT, 3))[0]
    assert np.allclose(value, [4.0, -0.12, 0.0])
    assert np.allclose(partial[0], [4.0, 0.0, 0.0])
    assert np.allclose(partial[1], [0.0, -0.4, 0.3])


def _nabla(pg, exprs, point, bindings):
    """nth[..., k, i] = nabla_i v^k of the vector field with component expressions `exprs`."""
    v, dv, _ = eval_field_jets([exprs], Evaluation([point], 3, bindings))[0]
    return dv + np.einsum("...kis,...s->...ki", pg.gamma, v)


def test_lie_derivative_closed_form(cone, cone_points):
    # for the vertical field with k = c t the Lie derivative is 2c * metric
    for c in (1.0, 2.0):
        exprs = [parse(s, COORDS, ("c",)) for s in ("c*t", "0", "0")]
        for pt in cone_points[:6]:
            pg = SampleGeometry(cone, [pt]).of("g")
            lg = lie_derivative_metric(pg, _nabla(pg, exprs, pt, {"c": c}))[0]
            (g,) = eval_numbers([cone.g], Evaluation(pt, 3))
            assert np.max(np.abs(lg - 2.0 * c * g)) < 1e-12


def test_lie_derivative_two_routes_agree(cone, cone_points):
    k = parse("c*t", COORDS, ("c",))
    exprs = [parse(s, COORDS, ("c",)) for s in ("c*t", "0", "0")]
    b = {"c": 1.5}
    for tag in ("g", "gtilde"):
        for pt in cone_points[:6]:
            pg = SampleGeometry(cone, [pt]).of(tag)
            a = lie_derivative_metric(pg, _nabla(pg, exprs, pt, b))
            jet = k.eval_jet(Evaluation([pt], 3, b))
            v = lie_derivative_vertical(pg, jet.value, jet.grad)
            assert np.max(np.abs(a - v)) < 1e-12


def test_exterior_derivative():
    # d of a scalar is its gradient
    d = parse("t^2*u", COORDS).eval_jet(Evaluation(POINT, 3)).grad
    assert np.allclose(d, [2 * 2.0 * 0.3, 4.0, 0.0])
    # d of the 1-form t^2 du is 2t dt wedge du
    one_form = [parse(s, COORDS) for s in ("0", "t^2", "0")]
    d2 = antisymmetrized_derivative(eval_field_jets([one_form], Evaluation(POINT, 3))[0].partial)
    expected = np.zeros((3, 3))
    expected[0, 1] = 4.0
    expected[1, 0] = -4.0
    assert np.allclose(d2, expected)
    # eta itself is closed
    eta_form = [parse(s, COORDS) for s in ("1", "0", "0")]
    (eta_jets,) = eval_field_jets([eta_form], Evaluation(POINT, 3))
    assert np.max(np.abs(antisymmetrized_derivative(eta_jets.partial))) == 0.0


def test_point_geometry_shapes(cone, pg_g):
    assert pg_g.dim == 3 and pg_g.n == 1
    assert pg_g.r13.shape == (1, 3, 3, 3, 3)
    assert lowered_curvature(pg_g).shape == (1, 3, 3, 3, 3)
    assert _dgamma(SampleGeometry(cone, [POINT]), "g").shape == (1, 3, 3, 3, 3)
    assert pg_g.F.shape == (1, 3, 3, 3)
    assert pg_g.nabla_eta.shape == (1, 3, 3)
    assert pg_g.tau.shape == pg_g.theta_star_xi.shape == (1,)


def test_ricci_consistent_with_r13(pg_g, pg_gt):
    for pg in (pg_g, pg_gt):
        assert np.allclose(pg.ricci[0], np.einsum("iaib->ab", pg.r13[0]), atol=1e-15)
        assert np.isclose(pg.tau[0], float(np.einsum("ab,ab->", pg.ginv[0], pg.ricci[0])))


# the bindings of each structure the batch tests run on
_BINDINGS = {"cone": {}, "cone_n2": {}, "cone_n3": {}, "offdiag": OFFDIAG_BINDINGS}


@pytest.mark.parametrize("tag", ["g", "gtilde"])
@pytest.mark.parametrize("structure", ["cone", "cone_n2", "cone_n3", "offdiag"])
def test_batch_matches_per_point(request, structure, tag):
    S = request.getfixturevalue(structure)
    points = sample_points(S.chart, 12, seed=5)
    geo = SampleGeometry(S, points, _BINDINGS[structure])
    batch, dgamma = geo.of(tag), _dgamma(geo, tag)
    for k, pt in enumerate(points):
        one = SampleGeometry(S, [pt], _BINDINGS[structure])
        single = one.of(tag)
        for field in FIELDS:
            got = getattr(batch, field)[k]
            want = getattr(single, field)[0]
            assert np.shape(got) == np.shape(want), field
            assert rel_err(got, want) <= 1e-13, field
        assert rel_err(lowered_curvature(batch)[k], lowered_curvature(single)[0]) <= 1e-13
        assert rel_err(dgamma[k], _dgamma(one, tag)[0]) <= 1e-13


def test_field_list_is_complete(cone):
    pg = SampleGeometry(cone, [POINT]).of("g")
    taken = {key for key, value in vars(pg).items() if isinstance(value, np.ndarray)}
    lazy = {key for key, value in vars(PointGeometry).items()
            if isinstance(value, functools.cached_property)}
    assert {key for key in taken | lazy if not key.startswith("_")} == set(FIELDS)


@pytest.mark.parametrize("tag", ["g", "gtilde"])
@pytest.mark.parametrize("structure", ["cone", "cone_n2", "cone_n3", "offdiag"])
def test_fields_do_not_depend_on_read_order(request, structure, tag):
    S = request.getfixturevalue(structure)
    points = sample_points(S.chart, 6, seed=3)
    forward = SampleGeometry(S, points, _BINDINGS[structure]).of(tag)
    backward = SampleGeometry(S, points, _BINDINGS[structure]).of(tag)
    for field in reversed(FIELDS):
        getattr(backward, field)
    for field in FIELDS:
        a, b = getattr(forward, field), getattr(backward, field)
        # bit for bit, the sign of zero included
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
    assert lowered_curvature(forward).tobytes() == lowered_curvature(backward).tobytes()


@pytest.mark.parametrize("first", ["r13", "dtheta_star"])
@pytest.mark.parametrize("tag", ["g", "gtilde"])
def test_no_geometry_keeps_dgamma_or_the_metric_second_derivatives(monkeypatch, cone_n2, tag, first):
    calls, koszul_derivative = [], geometry._koszul_derivative

    def counted(d2g):
        calls.append(tag)
        return koszul_derivative(d2g)

    points = sample_points(cone_n2.chart, 4, seed=3)
    geo = SampleGeometry(cone_n2, points)
    dgamma, d2g = _dgamma(geo, tag), _d2g(geo, tag)  # built apart, before the pass runs
    monkeypatch.setattr(geometry, "_koszul_derivative", counted)

    def held():  # every array a geometry keeps, those inside a kept tuple included
        return [array for pg in geo._geometry.values() for value in vars(pg).values()
                for array in (value if isinstance(value, tuple) else (value,)) if isinstance(array, np.ndarray)]

    for field in (first, {"r13": "dtheta_star", "dtheta_star": "r13"}[first]):
        getattr(geo.of(tag), field)
        for want in (dgamma, d2g):
            assert not any(a.shape == want.shape and np.array_equal(a, want) for a in held()), field
    assert len(calls) == 1  # one curvature pass per metric, whichever field is read first


def test_soliton_computes_only_the_fields_it_reads(monkeypatch, capsys):
    built = []

    class Recorded(SampleGeometry):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(geometry, "SampleGeometry", Recorded)
    argv = ["soliton", "--builtin", "cone-flat-fiber", "--metric", "gtilde",
            "--potential-k", "ct*t", "--const", "ct=1", "--samples", "8", "--expect-soliton"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    (geo,) = built
    assert list(geo._geometry) == ["gtilde"]  # the geometry of g was never built
    computed = set(vars(geo._geometry["gtilde"]))
    assert {"gamma", "tau"} <= computed
    assert not {"F", "theta_star", "omega"} & computed


@pytest.mark.parametrize("tag", ["g", "gtilde"])
def test_derivative_fields_match_finite_differences(offdiag, tag):
    # A non-diagonal metric: a diagonal one hides a wrong contraction order.
    def at(x):
        return SampleGeometry(offdiag, [x], OFFDIAG_BINDINGS).of(tag)

    for pt in sample_points(offdiag.chart, 4, seed=8):
        geo = SampleGeometry(offdiag, [pt], OFFDIAG_BINDINGS)
        pg = geo.of(tag)
        for field, derivative in (
            ("gamma", _dgamma(geo, tag)),
            ("theta_star", pg.dtheta_star),
            ("theta_star_xi", pg.grad_theta_star_xi),
        ):
            ref = fd_gradient(lambda x: getattr(at(x), field)[0], pt)
            assert rel_err(derivative[0], ref) < 1e-7, field


@pytest.mark.parametrize("tag", ["g", "gtilde"])
@pytest.mark.parametrize("structure", ["cone", "cone_n2", "offdiag"])
def test_dtheta_star_matches_the_full_derivative_of_F(request, structure, tag):
    # The reference route builds d_m F[i,j,z] in full and contracts it last;
    # the field contracts ginv phi^T into cov_phi and its derivative first.
    S = request.getfixturevalue(structure)
    geo = SampleGeometry(S, sample_points(S.chart, 8, seed=4), _BINDINGS[structure])
    pg = geo.of(tag)
    phi, dphi, gamma, dgamma = pg.phi, pg._dphi, pg.gamma, _dgamma(geo, tag)
    dcov_phi = (
        pg._d2phi
        + np.einsum("...kism,...sj->...kjim", dgamma, phi)
        + np.einsum("...kis,...sjm->...kjim", gamma, dphi)
        - np.einsum("...sijm,...ks->...kjim", dgamma, phi)
        - np.einsum("...sij,...ksm->...kjim", gamma, dphi)
    )
    dF = np.einsum("...kzm,...kji->...ijzm", pg.dg, pg._cov_phi) + np.einsum(
        "...kz,...kjim->...ijzm", pg.g, dcov_phi
    )
    dginv_phi = np.einsum("...ijm,...sj->...ism", pg._dginv, phi) + np.einsum("...ij,...sjm->...ism", pg.ginv, dphi)
    ref = np.einsum("...ism,...isz->...zm", dginv_phi, pg.F) + np.einsum("...is,...iszm->...zm", pg._ginv_phi, dF)
    assert rel_err(pg.dtheta_star, ref) <= 1e-13


@pytest.mark.parametrize("tag", ["g", "gtilde"])
def test_xi_and_eta_jet_terms_match_finite_differences(tag):
    S = load_manifold(json.dumps(VARYING))

    def at(x):
        return SampleGeometry(S, [x], OFFDIAG_BINDINGS).of(tag)

    def values(x, field):
        return eval_numbers([field], Evaluation(x, 3, OFFDIAG_BINDINGS))[0]

    for pt in sample_points(S.chart, 4, seed=8):
        pg = at(pt)
        ref = fd_gradient(lambda x: at(x).theta_star[0], pt)
        assert rel_err(pg.dtheta_star[0], ref) < 1e-7
        ref = fd_gradient(lambda x: at(x).theta_star_xi[0], pt)
        assert rel_err(pg.grad_theta_star_xi[0], ref) < 1e-7
        dxi = fd_gradient(lambda x: values(x, S.xi), pt)  # [k, i] = d_i xi^k
        ref = dxi + np.einsum("kis,s->ki", pg.gamma[0], pg.xi[0])
        assert rel_err(pg.nabla_xi[0], ref) < 1e-7
        deta = fd_gradient(lambda x: values(x, S.eta), pt)  # [j, i] = d_i eta_j
        ref = deta.T - np.einsum("sij,s->ij", pg.gamma[0], pg.eta[0])
        assert rel_err(pg.nabla_eta[0], ref) < 1e-7


def test_batch_is_read_only(cone, cone_points):
    geo = SampleGeometry(cone, cone_points)
    batch = geo.of("g")
    with pytest.raises(ValueError):
        batch.gamma[0, 0, 1, 1] = 1.0
    with pytest.raises(ValueError):
        batch.F[0][...] = 0.0
    with pytest.raises(ValueError):
        geo.of("gtilde").ginv[0, 0, 0] += 1.0
    with pytest.raises(ValueError):
        geo.points[0, 0] = 1.0
    for field in FIELDS:
        assert not getattr(batch, field).flags.writeable, field
    with pytest.raises(AttributeError):
        batch.gamma = np.zeros_like(batch.gamma)
    # the sample set is a copy: the caller's points stay writable and unshared
    assert cone_points.flags.writeable and not np.shares_memory(geo.points, cone_points)


def test_batch_domain_error_matches_single_sample(cone):
    # one sample outside the domain of an expression
    expr = parse("ln(u) + t", COORDS)
    points = np.array([[1.0, 0.5, 0.0], [1.0, -0.25, 0.0], [1.0, 2.0, 0.0]])
    with pytest.raises(DomainError) as alone:
        expr.eval_jet(Evaluation(points[1], 3))
    with pytest.raises(DomainError) as batched:
        expr.eval_jet(Evaluation(points, 3))
    assert str(alone.value).endswith(" at sample 0 (t=1.0, u=-0.25, v=0.0)")
    assert str(batched.value) == str(alone.value).replace(" at sample 0 (", " at sample 1 (")
    # one sample outside the chart's open box
    points = np.array([[2.0, 0.3, -0.4], [6.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(DomainError) as alone:
        SampleGeometry(cone, [points[1]]).of("g")
    with pytest.raises(DomainError) as batched:
        SampleGeometry(cone, points).of("g")
    assert str(batched.value) == str(alone.value)


def _per_sample_helpers(pg, pgt):
    """Each residual helper and cross route, on the geometry of one tag and its partner."""
    out = {
        "metric compatibility": metric_compatibility_residual(pg),
        **curvature_symmetry_residuals(pg),
        **f_property_residuals(pg),
        **torse_forming_curvature_residuals(pg),
        **tau_tilde_relations(pg, pgt),
    }
    if pg.tag == "g":
        out["nabla~ by correction"] = nabla_tilde_components_from(pg)
        out["F~ by transfer"] = f_tilde_components_from(pg)
        out["nabla~ by the short form"] = connection_f5_form(pg)
    return out


@pytest.mark.parametrize("tag", ["g", "gtilde"])
@pytest.mark.parametrize("structure", ["cone", "cone_n2", "offdiag"])
def test_batched_helpers_match_per_sample(request, structure, tag):
    S = request.getfixturevalue(structure)
    points = sample_points(S.chart, 8, seed=21)
    other = "gtilde" if tag == "g" else "g"
    b = _BINDINGS[structure]
    geo = SampleGeometry(S, points, b)
    batched = _per_sample_helpers(geo.of(tag), geo.of(other))
    for k, pt in enumerate(points):
        one = SampleGeometry(S, [pt], b)
        single = _per_sample_helpers(one.of(tag), one.of(other))
        assert single.keys() == batched.keys()
        for name, value in single.items():
            got = batched[name][k]
            assert np.shape(got) == np.shape(value[0]), name
            assert rel_err(got, value[0]) <= 1e-13, name


# -- the einsum forms of the contractions computed by batched matmul ------------


def _einsum_fields(geo, tag):
    """Each field computed by matmul, and dgamma, as an einsum over the fields it reads."""
    pg = geo.of(tag)
    g, ginv, dg, phi, gamma, dgamma = pg.g, pg.ginv, pg.dg, pg.phi, pg.gamma, _dgamma(geo, tag)
    dginv, C, d2g, dphi, cov, F, G = pg._dginv, pg._koszul, _d2g(geo, tag), pg._dphi, pg._cov_phi, pg.F, pg._ginv_phi
    dC = (np.einsum("...jlim->...lijm", d2g) + np.einsum("...iljm->...lijm", d2g)
          - np.einsum("...ijlm->...lijm", d2g))
    dcov_g = (  # G[i,s] d_m cov_phi[k,s,i], term by term
        np.einsum("...is,...ksim->...km", G, pg._d2phi)
        + np.einsum("...it,...kitm->...km", np.einsum("...is,...ts->...it", G, phi), dgamma)
        + np.einsum("...kit,...itm->...km", gamma, np.einsum("...is,...tsm->...itm", G, dphi))
        - np.einsum("...kt,...tm->...km", phi, np.einsum("...is,...tism->...tm", G, dgamma))
        - np.einsum("...ktm,...t->...km", dphi, np.einsum("...is,...tis->...t", G, gamma))
    )
    dG = np.einsum("...ijm,...sj->...ism", dginv, phi) + np.einsum("...ij,...sjm->...ism", ginv, dphi)
    return {
        "_dginv": -np.einsum("...kbm,...bl->...klm", np.einsum("...ka,...abm->...kbm", ginv, dg), ginv),
        "gamma": 0.5 * np.einsum("...kl,...lij->...kij", ginv, C),
        "dgamma": 0.5 * (np.einsum("...klm,...lij->...kijm", dginv, C) + np.einsum("...kl,...lijm->...kijm", ginv, dC)),
        "r13": (np.einsum("...ljki->...lkij", dgamma) - np.einsum("...likj->...lkij", dgamma)
                + np.einsum("...lim,...mjk->...lkij", gamma, gamma) - np.einsum("...ljm,...mik->...lkij", gamma, gamma)),
        "_cov_phi": dphi + np.einsum("...kis,...sj->...kji", gamma, phi) - np.einsum("...sij,...ks->...kji", gamma, phi),
        "F": np.einsum("...kz,...kji->...ijz", g, cov),
        "dtheta_star": (np.einsum("...ism,...isz->...zm", dG, F)
                        + np.einsum("...kzm,...k->...zm", dg, np.einsum("...is,...ksi->...k", G, cov))
                        + np.einsum("...kz,...km->...zm", g, dcov_g)),
    }


def _einsum_helpers(pg):
    """The residual helpers and cross routes computed by matmul, as einsums, with the scale
    of the terms each compares."""
    g, phi, eta, xi, F, gamma = pg.g, pg.phi, pg.eta, pg.xi, pg.F, pg.gamma
    nabla_g = (np.einsum("...ijk->...kij", pg.dg) - np.einsum("...lki,...lj->...kij", gamma, g)
               - np.einsum("...lkj,...il->...kij", gamma, g))
    phi_F_phi = np.einsum("...ijb,...bz->...ijz", np.einsum("...iab,...aj->...ijb", F, phi), phi)
    total = (F - phi_F_phi - np.einsum("...j,...iz->...ijz", eta, np.einsum("...isz,...s->...iz", F, xi))
             - np.einsum("...z,...ij->...ijz", eta, np.einsum("...ijs,...s->...ij", F, xi)))
    out = {
        "lowered curvature": (np.einsum("...lw,...lkij->...ijkw", g, pg.r13), lowered_curvature(pg), None),
        "metric compatibility": (np.max(np.abs(nabla_g), axis=(1, 2, 3)), metric_compatibility_residual(pg),
                                 np.max(np.abs(pg.dg))),
        "F properties": (np.max(np.abs(total), axis=(1, 2, 3)),
                         f_property_residuals(pg)["F(x,y,z) = F(x,phi y,phi z) + eta(y) F(x,xi,z) + eta(z) F(x,y,xi)"],
                         np.max(np.abs(F))),
    }
    if pg.tag == "g":
        Fxi = np.einsum("...ijs,...s->...ij", F, xi)
        pFp = np.einsum("...ai,...bj,...ab->...ij", phi, phi, Fxi)
        swap = (np.einsum("...aj,...azi->...ijz", phi, F) - np.einsum("...bz,...jbi->...ijz", phi, F)
                + np.einsum("...az,...aji->...ijz", phi, F) - np.einsum("...bj,...zbi->...ijz", phi, F))
        cz = Fxi + pFp.swapaxes(-1, -2) + np.einsum("...aj,...ia->...ij", phi, Fxi)
        cy = Fxi + pFp.swapaxes(-1, -2) + np.einsum("...az,...ia->...iz", phi, Fxi)
        cx = Fxi + pFp.swapaxes(-1, -2) + Fxi.swapaxes(-1, -2) + pFp
        two_ft = (swap + np.einsum("...ij,...z->...ijz", cz, eta) + np.einsum("...iz,...j->...ijz", cy, eta)
                  + np.einsum("...jz,...i->...ijz", cx, eta))
        out["F~ by transfer"] = (two_ft / 2.0, f_tilde_components_from(pg), np.max(np.abs(two_ft)))
        omega_phi = np.einsum("...a,...aj->...j", pg.omega, phi)
        corr = (-np.einsum("...bz,...ijb->...ijz", phi, F) - np.einsum("...bz,...jib->...ijz", phi, F)
                + np.einsum("...az,...aij->...ijz", phi, F))
        ax = Fxi + pFp.swapaxes(-1, -2) - np.einsum("...j,...z->...jz", omega_phi, eta)
        ay = Fxi + pFp.swapaxes(-1, -2) - np.einsum("...i,...z->...iz", omega_phi, eta)
        az = (np.einsum("...s,...sij->...ij", xi, F) - Fxi.swapaxes(-1, -2) - np.einsum("...aj,...ia->...ij", phi, Fxi)
              - Fxi - np.einsum("...ai,...ja->...ij", phi, Fxi))
        corr = (corr + np.einsum("...jz,...i->...ijz", ax, eta) + np.einsum("...iz,...j->...ijz", ay, eta)
                - np.einsum("...ij,...z->...ijz", az, eta))
        nt = gamma + 0.5 * np.einsum("...kz,...ijz->...kij", pg.ginv, corr)
        out["nabla~ by correction"] = (nt, nabla_tilde_components_from(pg), np.max(np.abs(nt)))
    return out


def _structure_jets(S, point, bindings):
    """The structure jets at one point (d,) or a batch (N, d), evaluated as SampleGeometry.jets evaluates them."""
    return StructureJets(*eval_field_jets([S.g, S.phi, S.xi, S.eta], Evaluation(point, S.dim, bindings)))


def _einsum_associated_jets(sj):
    """g~ = g phi + eta (x) eta and its jets, every product-rule term as an einsum."""
    (g, dg, d2g), (phi, dphi, d2phi), (eta, deta, d2eta) = sj.g, sj.phi, sj.eta
    e = np.einsum
    value = e("...is,...sj->...ij", g, phi) + e("...i,...j->...ij", eta, eta)
    partial = (e("...ism,...sj->...ijm", dg, phi) + e("...is,...sjm->...ijm", g, dphi)
               + e("...im,...j->...ijm", deta, eta) + e("...i,...jm->...ijm", eta, deta))
    second = (e("...isml,...sj->...ijml", d2g, phi) + e("...ism,...sjl->...ijml", dg, dphi)
              + e("...isl,...sjm->...ijml", dg, dphi) + e("...is,...sjml->...ijml", g, d2phi)
              + e("...iml,...j->...ijml", d2eta, eta) + e("...im,...jl->...ijml", deta, deta)
              + e("...il,...jm->...ijml", deta, deta) + e("...i,...jml->...ijml", eta, d2eta))
    return [(x + np.swapaxes(x, i, i + 1)) / 2.0 for x, i in ((value, -2), (partial, -3), (second, -4))]


def _near(got, want, scale=None):
    """Within 1e-13 relative to the largest entry of the reference, or of a given scale."""
    scale = np.max(np.abs(want)) if scale is None else scale
    return np.shape(got) == np.shape(want) and np.max(np.abs(got - want)) <= 1e-13 * scale


@pytest.mark.parametrize("tag", ["g", "gtilde"])
@pytest.mark.parametrize("structure", ["offdiag", "varying", "cone_n2"])
def test_matmul_contractions_match_their_einsum_forms(request, structure, tag):
    if structure == "varying":
        S = load_manifold(json.dumps(VARYING))
    else:
        S = request.getfixturevalue(structure)
    bindings = {"cone_n2": {}}.get(structure, OFFDIAG_BINDINGS)
    points = sample_points(S.chart, 8, seed=17)
    geo = SampleGeometry(S, points, bindings)
    pg = geo.of(tag)
    for field, want in _einsum_fields(geo, tag).items():
        got = _dgamma(geo, tag) if field == "dgamma" else getattr(pg, field)
        assert _near(got, want), field
    for name, (want, got, scale) in _einsum_helpers(pg).items():
        assert _near(got, want, scale), name
    gtilde = S.associated_metric()
    for point_or_batch in (points, points[3]):
        (jets,) = eval_field_jets([gtilde], Evaluation(point_or_batch, S.dim, bindings))
        for got, want in zip(jets, _einsum_associated_jets(_structure_jets(S, point_or_batch, bindings))):
            assert _near(got, want)


# Entries of g, phi and eta: literal 0 and +-1, a constant, t, u*v, and sin or exp of those
_ATOMS = ("0", "1", "-1", "2.5", "c", "t", "u*v")
_ENTRY = st.one_of(st.sampled_from(_ATOMS),
                   st.builds("{}({})".format, st.sampled_from(("sin", "exp")), st.sampled_from(_ATOMS)))


@seed(20261019)
@settings(max_examples=100, deadline=None)
@given(st.lists(_ENTRY, min_size=18, max_size=18))
def test_associated_metric_expression_jets_match_the_product_rule(entries):
    # the structure identities need not hold, so g phi need not be symmetric
    upper = iter(entries[:6])
    g = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            g[i][j] = g[j][i] = next(upper)
    phi = [entries[6:9], entries[9:12], entries[12:15]]
    S = load_manifold(json.dumps(dict(OFFDIAG, g=g, phi=phi, eta=entries[15:])))
    points = sample_points(S.chart, 4, seed=11)
    (jets,) = eval_field_jets([S.associated_metric()], Evaluation(points, 3, OFFDIAG_BINDINGS))
    want_jets = _einsum_associated_jets(_structure_jets(S, points, OFFDIAG_BINDINGS))
    for k, (got, want) in enumerate(zip(jets, want_jets)):
        assert _near(got, want), k
        assert np.array_equal(got, np.swapaxes(got, -2 - k, -1 - k)), k  # exactly, in (i, j)


# -- the premises of the in-place d^4 chain -------------------------------------


def _structure(request, name):
    """A test structure by name, with the bindings its expressions read."""
    if name == "varying":
        return load_manifold(json.dumps(VARYING)), OFFDIAG_BINDINGS
    return request.getfixturevalue(name), OFFDIAG_BINDINGS if name == "offdiag" else {}


@pytest.mark.parametrize("structure", ["cone", "cone_n2", "offdiag", "varying"])
def test_metric_jets_are_exactly_symmetric_in_their_metric_slots(request, structure):
    S, bindings = _structure(request, structure)
    points = sample_points(S.chart, 8, seed=3)
    gtilde = eval_field_jets([S.associated_metric()], Evaluation(points, S.dim, bindings))[0]
    for jets in (SampleGeometry(S, points, bindings).jets.g, gtilde):
        for k, array in enumerate(jets):
            axes = (-2 - k, -1 - k)  # the metric slots come before the derivative axes
            assert np.array_equal(array, np.swapaxes(array, *axes)), k


@pytest.mark.parametrize("tag", ["g", "gtilde"])
@pytest.mark.parametrize("structure", ["cone", "cone_n2", "offdiag", "varying"])
def test_koszul_derivative_equals_its_three_view_form(request, structure, tag):
    S, bindings = _structure(request, structure)
    d2g = _d2g(SampleGeometry(S, sample_points(S.chart, 8, seed=3), bindings), tag)
    three_views = (np.einsum("...jlim->...lijm", d2g) + np.einsum("...iljm->...lijm", d2g)
                   - np.einsum("...ijlm->...lijm", d2g))
    got = geometry._koszul_derivative(d2g)
    assert got.tobytes() == three_views.tobytes()
