"""Connection, curvature, and fundamental-tensor pipeline on the builtins."""

import dataclasses

import numpy as np
import pytest

from accr.errors import DomainError
from accr.expr import parse
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
    metric_compatibility_residual,
    nabla_tilde_components_from,
    tau_tilde_relations,
    torse_forming_curvature_residuals,
    vector_field_jets,
)
from accr.manifold import load_manifold, sample_points, validate_structure
from accr.tensor import to_phi_frame

from conftest import OFFDIAG_BINDINGS, associated_metric, fd_gradient, rel_err
from test_manifold import cone_json

POINT = (2.0, 0.3, -0.4)
COORDS = ("t", "u", "v")


@pytest.fixture(scope="module")
def pg_g(cone):
    return SampleGeometry(cone, [POINT]).of("g")


@pytest.fixture(scope="module")
def pg_gt(cone):
    return SampleGeometry(cone, [POINT]).of("gtilde")


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
    assert pg.dgamma.shape == (1, 3, 3, 3, 3)
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
        ("g", lambda p: cone.values_at(p).g),
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
    assert "g(xi, xi) = 1" in validate_structure(S, [POINT]).failing()


def test_curvature_frozen_values(cone, pg_g):
    frame = cone.frame_at(POINT)
    r_frame = to_phi_frame(pg_g.r04[0], ("l",) * 4, frame)
    assert np.isclose(r_frame[0, 1, 0, 1], -0.25, atol=1e-13)
    rho_frame = to_phi_frame(pg_g.ricci[0], ("l", "l"), frame)
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


def test_f_tilde_transfer_detects_perturbation(pg_g, pg_gt):
    # the two routes are independent: biasing the input F must surface
    doctored = dataclasses.replace(pg_g, F=pg_g.F * 1.01)
    assert np.max(np.abs(f_tilde_components_from(doctored) - pg_gt.F)) > 1e-4
    assert np.max(np.abs(f_tilde_components_from(pg_g) - pg_gt.F)) < 1e-12


def test_f_tilde_transfer_requires_g(pg_gt):
    with pytest.raises(ValueError):
        f_tilde_components_from(pg_gt)


def test_nabla_tilde_routes(cone, cone_points):
    for pt in cone_points[:8]:
        geo = SampleGeometry(cone, [pt])
        pg = geo.of("g")
        direct = geo.of("gtilde").gamma[0]
        assert np.max(np.abs(nabla_tilde_components_from(pg)[0] - direct)) < 1e-11
        assert np.max(np.abs(connection_f5_form(pg)[0] - direct)) < 1e-11


def test_nabla_tilde_detects_perturbation(cone, pg_g, pg_gt):
    doctored = dataclasses.replace(pg_g, gamma=pg_g.gamma * 1.01)
    assert np.max(np.abs(nabla_tilde_components_from(doctored) - pg_gt.gamma)) > 1e-4


def test_vector_field_jets():
    exprs = [parse(s, COORDS) for s in ("t^2", "u*v", "0")]
    value, partial = vector_field_jets(exprs, POINT)
    assert np.allclose(value, [4.0, -0.12, 0.0])
    assert np.allclose(partial[0], [4.0, 0.0, 0.0])
    assert np.allclose(partial[1], [0.0, -0.4, 0.3])


def test_lie_derivative_closed_form(cone, cone_points):
    # for the vertical field with k = c t the Lie derivative is 2c * metric
    for c in (1.0, 2.0):
        exprs = [parse(s, COORDS, ("c",)) for s in ("c*t", "0", "0")]
        for pt in cone_points[:6]:
            pg = SampleGeometry(cone, [pt]).of("g")
            lg = lie_derivative_metric(pg, *vector_field_jets(exprs, [pt], {"c": c}))[0]
            g = cone.values_at(pt).g
            assert np.max(np.abs(lg - 2.0 * c * g)) < 1e-12


def test_lie_derivative_two_routes_agree(cone, cone_points):
    k = parse("c*t", COORDS, ("c",))
    exprs = [parse(s, COORDS, ("c",)) for s in ("c*t", "0", "0")]
    b = {"c": 1.5}
    for tag in ("g", "gtilde"):
        for pt in cone_points[:6]:
            pg = SampleGeometry(cone, [pt]).of(tag)
            a = lie_derivative_metric(pg, *vector_field_jets(exprs, [pt], b))
            v = lie_derivative_vertical(pg, k.eval_jet([pt], b))
            assert np.max(np.abs(a - v)) < 1e-12


def test_lie_derivative_shape_check(pg_g):
    with pytest.raises(ValueError):
        lie_derivative_metric(pg_g, *vector_field_jets([parse("t", COORDS)], [POINT]))


def test_exterior_derivative():
    # d of a scalar is its gradient
    d = parse("t^2*u", COORDS).eval_jet(POINT).grad
    assert np.allclose(d, [2 * 2.0 * 0.3, 4.0, 0.0])
    # d of the 1-form t^2 du is 2t dt wedge du
    one_form = [parse(s, COORDS) for s in ("0", "t^2", "0")]
    d2 = antisymmetrized_derivative(vector_field_jets(one_form, POINT)[1])
    expected = np.zeros((3, 3))
    expected[0, 1] = 4.0
    expected[1, 0] = -4.0
    assert np.allclose(d2, expected)
    # eta itself is closed
    eta_form = [parse(s, COORDS) for s in ("1", "0", "0")]
    assert np.max(np.abs(antisymmetrized_derivative(vector_field_jets(eta_form, POINT)[1]))) == 0.0


def test_point_geometry_shapes(pg_g):
    assert pg_g.dim == 3 and pg_g.n == 1
    assert pg_g.r13.shape == (1, 3, 3, 3, 3)
    assert pg_g.r04.shape == (1, 3, 3, 3, 3)
    assert pg_g.dgamma.shape == (1, 3, 3, 3, 3)
    assert pg_g.F.shape == (1, 3, 3, 3)
    assert pg_g.dF.shape == (1, 3, 3, 3, 3)
    assert pg_g.nabla_eta.shape == (1, 3, 3)
    assert pg_g.tau.shape == pg_g.theta_star_xi.shape == (1,)


def test_ricci_consistent_with_r13(pg_g, pg_gt):
    for pg in (pg_g, pg_gt):
        assert np.allclose(pg.ricci[0], np.einsum("iaib->ab", pg.r13[0]), atol=1e-15)
        assert np.isclose(pg.tau[0], float(np.einsum("ab,ab->", pg.ginv[0], pg.ricci[0])))


# the bindings of each structure the batch tests run on
_BINDINGS = {"cone": {}, "cone_n2": {}, "offdiag": OFFDIAG_BINDINGS}


@pytest.mark.parametrize("tag", ["g", "gtilde"])
@pytest.mark.parametrize("structure", ["cone", "cone_n2", "offdiag"])
def test_batch_matches_per_point(request, structure, tag):
    S = request.getfixturevalue(structure)
    points = sample_points(S.chart, 12, seed=5)
    batch = SampleGeometry(S, points, _BINDINGS[structure]).of(tag)
    for k, pt in enumerate(points):
        single = SampleGeometry(S, [pt], _BINDINGS[structure]).of(tag)
        for field in dataclasses.fields(PointGeometry):
            if field.name in ("tag", "n"):
                continue
            got = getattr(batch, field.name)[k]
            want = getattr(single, field.name)[0]
            assert np.shape(got) == np.shape(want), field.name
            assert rel_err(got, want) <= 1e-13, field.name


@pytest.mark.parametrize("tag", ["g", "gtilde"])
def test_derivative_fields_match_finite_differences(offdiag, tag):
    # A non-diagonal metric: a diagonal one hides a wrong contraction order.
    def at(x):
        return SampleGeometry(offdiag, [x], OFFDIAG_BINDINGS).of(tag)

    for pt in sample_points(offdiag.chart, 4, seed=8):
        pg = at(pt)
        for field, derivative in (
            ("gamma", "dgamma"),
            ("F", "dF"),
            ("theta_star", "dtheta_star"),
            ("theta_star_xi", "grad_theta_star_xi"),
        ):
            ref = fd_gradient(lambda x: getattr(at(x), field)[0], pt)
            assert rel_err(getattr(pg, derivative)[0], ref) < 1e-7, derivative


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
    # the sample set is a copy: the caller's points stay writable and unshared
    assert cone_points.flags.writeable and not np.shares_memory(geo.points, cone_points)


def test_batch_domain_error_matches_single_sample(cone):
    # one sample outside the domain of an expression
    expr = parse("ln(u) + t", COORDS)
    points = np.array([[1.0, 0.5, 0.0], [1.0, -0.25, 0.0], [1.0, 2.0, 0.0]])
    with pytest.raises(DomainError) as alone:
        expr.eval_jet(points[1])
    with pytest.raises(DomainError) as batched:
        expr.eval_jet(points)
    assert str(batched.value) == str(alone.value)
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
