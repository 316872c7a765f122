"""Connection, curvature, and fundamental-tensor pipeline on the builtins."""

import dataclasses

import numpy as np
import pytest

from accr.errors import DomainError, IdentityViolation
from accr.expr import parse
from accr.geometry import (
    PointGeometry,
    christoffel,
    connection_f5_form,
    curvature,
    curvature_symmetry_residuals,
    exterior_derivative,
    f_property_residuals,
    f_tilde_components_from,
    f_tilde_via_relation,
    fundamental_tensor,
    lie_derivative_metric,
    lie_derivative_vertical,
    metric_compatibility_residual,
    nabla_tilde_components_from,
    nabla_tilde_via_relation,
    nabla_xi,
    point_geometry,
    tau_tilde_relations,
    torse_forming_curvature_residuals,
    vector_field_jets,
)
from accr.manifold import load_manifold, sample_points
from accr.tensor import PointTensor, to_phi_frame

from conftest import rel_err
from test_manifold import cone_json

POINT = (2.0, 0.3, -0.4)
COORDS = ("t", "u", "v")


@pytest.fixture(scope="module")
def pg_g(cone):
    return point_geometry(cone, "g", POINT)


@pytest.fixture(scope="module")
def pg_gt(cone):
    return point_geometry(cone, "gtilde", POINT)


def test_unknown_metric_tag(cone):
    with pytest.raises(ValueError):
        point_geometry(cone, "h", POINT)


def test_christoffel_frozen_values(pg_g):
    expected = np.zeros((3, 3, 3))
    expected[0, 1, 1] = -2.0  # Gamma^t_uu = -t
    expected[0, 2, 2] = 2.0  # Gamma^t_vv = t
    expected[1, 0, 1] = expected[1, 1, 0] = 0.5  # Gamma^u_tu = 1/t
    expected[2, 0, 2] = expected[2, 2, 0] = 0.5  # Gamma^v_tv = 1/t
    assert np.allclose(pg_g.gamma, expected, atol=1e-14)
    # symmetric in the two lower slots
    assert np.max(np.abs(pg_g.gamma - pg_g.gamma.transpose(0, 2, 1))) == 0.0


def test_christoffel_wrapper(cone):
    conn = christoffel(cone, "g", POINT)
    assert conn.metric_tag == "g"
    assert conn.dgamma is not None
    assert np.allclose(conn.point, POINT)


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
    from accr.manifold import AssociatedMetric

    am = AssociatedMetric(cone)
    for tag, comp in (("g", lambda p: cone.values_at(p).g), ("gtilde", am.components_at)):
        for pt in cone_points[:8]:
            pg = point_geometry(cone, tag, pt)
            ref = _fd_christoffel(comp, pt)
            assert rel_err(pg.gamma, ref) < 1e-5


def test_nabla_xi_both_metrics(cone, cone_points):
    for tag in ("g", "gtilde"):
        t = nabla_xi(cone, tag, POINT)
        assert np.allclose(t.components, np.diag([0.0, 0.5, 0.5]), atol=1e-13)
        batch = nabla_xi(cone, tag, cone_points)
        assert batch.components.shape == (len(cone_points), 3, 3)
        assert np.array_equal(batch.components[0], t.components)


def test_nabla_xi_identity_violation():
    # xi scaled by t breaks g(xi,xi)=1, and eta(nabla_x xi) picks it up
    S = load_manifold(cone_json(xi=["t", "0", "0"]))
    with pytest.raises(IdentityViolation):
        nabla_xi(S, "g", POINT)


def test_curvature_frozen_values(cone, pg_g):
    curv = curvature(cone, "g", POINT)
    frame = cone.frame_at(POINT)
    r_frame = to_phi_frame(curv.r04, frame)
    assert np.isclose(r_frame.components[0, 1, 0, 1], -0.25, atol=1e-13)
    rho_frame = to_phi_frame(curv.ricci, frame)
    assert np.allclose(rho_frame.components, np.diag([-0.25, 0.25, 0.0]), atol=1e-13)
    assert np.isclose(curv.tau, -0.5, atol=1e-13)
    assert np.isclose(curv.tau_star, 0.0, atol=1e-13)
    # the associated metric has the same scalar curvature here
    assert np.isclose(point_geometry(cone, "gtilde", POINT).tau, -0.5, atol=1e-13)


def test_fundamental_tensor_frozen_values(cone, pg_g):
    fund = fundamental_tensor(cone, "g", POINT)
    assert np.isclose(fund.theta_star_xi, 1.0, atol=1e-13)
    assert np.allclose(fund.theta_star.components, [1.0, 0.0, 0.0], atol=1e-13)
    assert np.allclose(fund.omega.components, 0.0, atol=1e-13)
    assert np.allclose(fund.grad_theta_star_xi.components, [-0.5, 0.0, 0.0], atol=1e-13)
    # F(d_u, d_v, xi) = -h g(d_u, phi d_v) with h = 1/t: equals t at t=2
    assert np.isclose(fund.F.components[1, 2, 0], 2.0, atol=1e-13)
    # symmetric in the last two slots
    assert np.max(np.abs(fund.F.components - fund.F.components.transpose(0, 2, 1))) < 1e-14
    assert np.isclose(pg_g.h, 0.5, atol=1e-14)
    assert np.allclose(pg_g.grad_h, [-0.25, 0.0, 0.0], atol=1e-14)


def test_flat_structure_is_flat(flat, flat_points):
    for pt in flat_points[:6]:
        pg = point_geometry(flat, "g", pt)
        assert np.max(np.abs(pg.gamma)) == 0.0
        assert np.max(np.abs(pg.r13)) == 0.0
        assert np.max(np.abs(pg.F)) == 0.0
        assert pg.tau == 0.0 and pg.tau_star == 0.0
        assert pg.theta_star_xi == 0.0
        assert np.max(np.abs(pg.nabla_xi)) == 0.0


def test_identity_suites_on_cone(cone, cone_points):
    for tag in ("g", "gtilde"):
        for pt in cone_points:
            pg = point_geometry(cone, tag, pt)
            assert metric_compatibility_residual(pg) < 1e-11
            for name, res in curvature_symmetry_residuals(pg).items():
                assert res < 1e-11, (tag, name)
            for name, res in f_property_residuals(pg).items():
                assert res < 1e-11, (tag, name)


def test_torse_forming_curvature_identities(cone, cone_points):
    for pt in cone_points:
        pg = point_geometry(cone, "g", pt)
        for name, res in torse_forming_curvature_residuals(pg).items():
            assert res < 1e-10, name


def test_tau_tilde_relations(cone, cone_points):
    for pt in cone_points:
        pg = point_geometry(cone, "g", pt)
        pgt = point_geometry(cone, "gtilde", pt)
        for name, res in tau_tilde_relations(pg, pgt).items():
            assert res < 1e-10, name


def test_f_tilde_transfer_route(cone, cone_points):
    for pt in cone_points[:8]:
        via = f_tilde_via_relation(cone, pt)
        direct = fundamental_tensor(cone, "gtilde", pt)
        assert np.max(np.abs(via.components - direct.F.components)) < 1e-11


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
        direct = christoffel(cone, "gtilde", pt)
        corrected = nabla_tilde_via_relation(cone, pt)
        short = connection_f5_form(point_geometry(cone, "g", pt))
        assert np.max(np.abs(corrected.gamma - direct.gamma)) < 1e-11
        assert np.max(np.abs(short - direct.gamma)) < 1e-11


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
            pg = point_geometry(cone, "g", pt)
            lg = lie_derivative_metric(pg, *vector_field_jets(exprs, pt, {"c": c}))
            g = cone.values_at(pt).g
            assert np.max(np.abs(lg - 2.0 * c * g)) < 1e-12


def test_lie_derivative_two_routes_agree(cone, cone_points):
    k = parse("c*t", COORDS, ("c",))
    exprs = [parse(s, COORDS, ("c",)) for s in ("c*t", "0", "0")]
    b = {"c": 1.5}
    for tag in ("g", "gtilde"):
        for pt in cone_points[:6]:
            pg = point_geometry(cone, tag, pt)
            a = lie_derivative_metric(pg, *vector_field_jets(exprs, pt, b))
            v = lie_derivative_vertical(pg, k.eval_jet(pt, b))
            assert np.max(np.abs(a - v)) < 1e-12


def test_lie_derivative_shape_check(pg_g):
    with pytest.raises(ValueError):
        lie_derivative_metric(pg_g, *vector_field_jets([parse("t", COORDS)], POINT))


def test_exterior_derivative():
    scalar = parse("t^2*u", COORDS)
    d = exterior_derivative(scalar, POINT)
    assert d.variance == ("l",)
    assert np.allclose(d.components, [2 * 2.0 * 0.3, 4.0, 0.0])
    # d of the 1-form t^2 du is 2t dt wedge du
    one_form = [parse(s, COORDS) for s in ("0", "t^2", "0")]
    d2 = exterior_derivative(one_form, POINT)
    assert d2.variance == ("l", "l")
    expected = np.zeros((3, 3))
    expected[0, 1] = 4.0
    expected[1, 0] = -4.0
    assert np.allclose(d2.components, expected)
    # eta itself is closed
    eta_form = [parse(s, COORDS) for s in ("1", "0", "0")]
    assert np.max(np.abs(exterior_derivative(eta_form, POINT).components)) == 0.0


def test_point_geometry_shapes(pg_g):
    assert pg_g.dim == 3 and pg_g.n == 1
    assert pg_g.r13.shape == (3, 3, 3, 3)
    assert pg_g.r04.shape == (3, 3, 3, 3)
    assert pg_g.dgamma.shape == (3, 3, 3, 3)
    assert pg_g.F.shape == (3, 3, 3)
    assert pg_g.dF.shape == (3, 3, 3, 3)
    assert pg_g.nabla_eta.shape == (3, 3)


def test_ricci_consistent_with_r13(pg_g, pg_gt):
    for pg in (pg_g, pg_gt):
        assert np.allclose(pg.ricci, np.einsum("iaib->ab", pg.r13), atol=1e-15)
        assert np.isclose(pg.tau, float(np.einsum("ab,ab->", pg.ginv, pg.ricci)))


@pytest.mark.parametrize("tag", ["g", "gtilde"])
@pytest.mark.parametrize("structure", ["cone", "cone_n2"])
def test_batch_matches_per_point(request, structure, tag):
    S = request.getfixturevalue(structure)
    points = sample_points(S.chart, 12, seed=5)
    batch = point_geometry(S, tag, points)
    assert batch.batched and len(batch) == len(points)
    for k, pt in enumerate(points):
        single = point_geometry(S, tag, pt)
        assert not single.batched
        assert batch[k].point == single.point
        for field in dataclasses.fields(PointGeometry):
            if field.name in ("tag", "point", "n"):
                continue
            got = getattr(batch, field.name)[k]
            want = getattr(single, field.name)
            assert np.shape(got) == np.shape(want), field.name
            assert rel_err(got, want) <= 1e-13, field.name


def test_batch_is_read_only(cone, cone_points):
    batch = point_geometry(cone, "g", cone_points)
    with pytest.raises(ValueError):
        batch.gamma[0, 0, 1, 1] = 1.0
    with pytest.raises(ValueError):
        batch[0].F[...] = 0.0
    with pytest.raises(ValueError):
        point_geometry(cone, "gtilde", POINT).ginv[0, 0] += 1.0


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
        point_geometry(cone, "g", points[1])
    with pytest.raises(DomainError) as batched:
        point_geometry(cone, "g", points)
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
@pytest.mark.parametrize("structure", ["cone", "cone_n2"])
def test_batched_helpers_match_per_sample(request, structure, tag):
    S = request.getfixturevalue(structure)
    points = sample_points(S.chart, 8, seed=21)
    other = "gtilde" if tag == "g" else "g"
    pg, pgt = point_geometry(S, tag, points), point_geometry(S, other, points)
    batched = _per_sample_helpers(pg, pgt)
    for k in range(len(points)):
        single = _per_sample_helpers(pg[k], pgt[k])
        assert single.keys() == batched.keys()
        for name, value in single.items():
            got = batched[name][k]
            assert np.shape(got) == np.shape(value), name
            assert rel_err(got, value) <= 1e-13, name
            if np.ndim(value) == 0:
                assert isinstance(value, float), name
