"""Structure loading, defining identities, associated metric, sampling."""

import json

import numpy as np
import pytest

from accr.errors import (
    DimensionMismatch,
    DomainError,
    ManifoldParseError,
    UnboundConstant,
    UnknownBuiltin,
)
from accr.manifold import (
    associated_metric_jets,
    builtin_names,
    builtin_structure,
    check_bindings,
    latin_hypercube,
    load_manifold,
    sample_points,
    validate_structure,
)
from accr.tensor import signature_of

from conftest import associated_metric, fd_gradient


def cone_json(**overrides):
    base = {
        "name": "test-cone",
        "n": 1,
        "coordinates": ["t", "u", "v"],
        "domain": {"t": [0.5, 5.0], "u": [-3.0, 3.0], "v": [-3.0, 3.0]},
        "constants": ["c"],
        "g": [["1", "0", "0"], ["0", "t^2", "0"], ["0", "0", "-t^2"]],
        "phi": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
        "xi": ["1", "0", "0"],
        "eta": ["1", "0", "0"],
    }
    base.update(overrides)
    return json.dumps(base)


def test_builtin_names():
    assert builtin_names() == ("cone-flat-fiber", "flat-cosymplectic")
    with pytest.raises(UnknownBuiltin):
        builtin_structure("nope")


def test_builtins_satisfy_defining_identities(cone, flat, cone_points, flat_points):
    for S, pts in ((cone, cone_points), (flat, flat_points)):
        report = validate_structure(S, pts)
        assert report.passed, report.failing()
        assert report.signature == (2, 1)
        assert max(report.residuals.values()) <= 1e-12


def test_builtin_metadata(cone):
    assert cone.name == "cone-flat-fiber"
    assert cone.n == 1 and cone.dim == 3
    assert cone.source_sha256 is not None and len(cone.source_sha256) == 64
    assert cone.referenced_constants() == frozenset()
    assert cone.chart.constants == ("c", "ct", "kprime")


def test_load_manifold_roundtrip():
    S = load_manifold(cone_json())
    assert S.name == "test-cone"
    assert S.chart.coordinates == ("t", "u", "v")
    assert S.chart.domain[0] == (0.5, 5.0)
    pts = sample_points(S.chart, 8, seed=1)
    assert validate_structure(S, pts).passed
    # bytes input works too and hashes identically to the text
    S2 = load_manifold(cone_json().encode("utf-8"))
    assert S2.source_sha256 == S.source_sha256


def test_load_rejects_bad_json():
    with pytest.raises(ManifoldParseError):
        load_manifold("{not json")
    with pytest.raises(ManifoldParseError):
        load_manifold("[1, 2]")


def test_load_rejects_missing_and_unknown_keys():
    raw = json.loads(cone_json())
    del raw["xi"]
    with pytest.raises(ManifoldParseError, match="missing field"):
        load_manifold(json.dumps(raw))
    with pytest.raises(ManifoldParseError, match="unknown field"):
        load_manifold(cone_json(extra="x"))


def test_load_rejects_asymmetric_metric():
    g = [["1", "0", "0"], ["0", "t^2", "1"], ["0", "0", "-t^2"]]
    with pytest.raises(ManifoldParseError, match="symmetric input is required"):
        load_manifold(cone_json(g=g))
    # symmetry is judged on the AST, so numerically equal but textually
    # different off-diagonal entries are rejected as well
    g = [["1", "0", "0"], ["0", "t^2", "t*t"], ["0", "t^2", "-t^2"]]
    with pytest.raises(ManifoldParseError, match="symmetric input is required"):
        load_manifold(cone_json(g=g))


def test_load_rejects_bad_domains():
    with pytest.raises(ManifoldParseError):
        load_manifold(cone_json(domain={"t": [0.5, 5.0], "u": [-3, 3]}))
    with pytest.raises(ManifoldParseError):
        load_manifold(cone_json(domain={"t": [5.0, 0.5], "u": [-3, 3], "v": [-3, 3]}))
    with pytest.raises(ManifoldParseError):
        load_manifold(cone_json(domain={"t": [0.5, "x"], "u": [-3, 3], "v": [-3, 3]}))
    # JSON booleans are not numbers, although Python's bool is an int
    with pytest.raises(ManifoldParseError, match="domain"):
        load_manifold(cone_json(domain={"t": [0.5, 5.0], "u": [False, True], "v": [-3, 3]}))


def test_load_rejects_shape_and_name_problems():
    with pytest.raises(ManifoldParseError):
        load_manifold(cone_json(n=0))
    with pytest.raises(ManifoldParseError, match="n must be"):
        load_manifold(cone_json(n=True))
    with pytest.raises(DimensionMismatch):
        load_manifold(cone_json(coordinates=["t", "u", "v", "w"], n=1))
    with pytest.raises(ManifoldParseError):
        load_manifold(cone_json(coordinates=["t", "t", "v"]))
    with pytest.raises(ManifoldParseError, match="collide"):
        load_manifold(cone_json(constants=["t"]))
    with pytest.raises(ManifoldParseError):
        load_manifold(cone_json(xi=["1", "0"]))
    with pytest.raises(ManifoldParseError):
        load_manifold(cone_json(phi=[["0", "0"], ["0", "0"]]))
    with pytest.raises(ManifoldParseError):
        load_manifold(cone_json(name=7))


def test_perturbed_phi_fails_validation(cone_points):
    phi = [["0", "0", "0"], ["0", "0", "-1.1"], ["0", "1.1", "0"]]
    S = load_manifold(cone_json(phi=phi))
    report = validate_structure(S, cone_points)
    assert not report.passed
    # phi^2 picks up exactly the factor 1.21 on the fiber block
    assert abs(report.residuals["phi^2 = -id + eta(x) xi"] - 0.21) < 1e-12
    assert "phi^2 = -id + eta(x) xi" in report.failing()
    # the compatibility of g with phi fails too
    assert report.residuals["g(phi x, phi y) = -g(x, y) + eta(x) eta(y)"] > 0.2


def test_wrong_signature_detected(cone_points):
    g = [["1", "0", "0"], ["0", "t^2", "0"], ["0", "0", "t^2"]]
    phi = [["0", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]  # keeps phi^2 failing anyway
    S = load_manifold(cone_json(g=g, phi=phi))
    report = validate_structure(S, cone_points)
    assert report.signature != report.expected_signature
    assert not report.passed


def test_associated_metric_components(cone, cone_points):
    gt = associated_metric_jets(cone.jets_at((2.0, 0.3, -0.4))).value
    assert np.allclose(gt, [[1.0, 0, 0], [0, 0, -4.0], [0, -4.0, 0]], atol=1e-14)
    # the associated metric is itself a B-metric for the same structure
    for pt in cone_points:
        g, phi, xi, eta = cone.values_at(pt)
        gtp = associated_metric_jets(cone.jets_at(pt)).value
        compat = np.einsum("ai,bj,ab->ij", phi, phi, gtp) + gtp - np.outer(eta, eta)
        assert np.max(np.abs(compat)) < 1e-12
        assert np.max(np.abs(gtp @ xi - eta)) < 1e-12
        assert signature_of(gtp) == (2, 1)


def test_associated_metric_jets_match_fd(cone):
    pt = np.array([1.7, 0.2, 0.9])
    jets = associated_metric_jets(cone.jets_at(pt))
    assert np.allclose(jets.value, associated_metric(cone, pt))
    for i in range(3):
        for j in range(3):
            ref = fd_gradient(lambda x, i=i, j=j: associated_metric(cone, x)[i, j], pt)
            assert np.max(np.abs(jets.partial[i, j] - ref)) < 1e-8


def test_latin_hypercube_stratification(cone):
    pts = latin_hypercube(cone.chart, 12, seed=42)
    assert len(pts) == 12
    arr = np.array(pts)
    for axis in range(3):
        lo, hi = cone.chart.domain[axis]
        assert np.all(arr[:, axis] > lo) and np.all(arr[:, axis] < hi)
        strata = np.floor((arr[:, axis] - lo) / (hi - lo) * 12).astype(int)
        assert sorted(strata) == list(range(12))  # exactly one point per stratum
    assert latin_hypercube(cone.chart, 0).shape == (0, 3)


def test_sampling_is_deterministic(cone):
    a = sample_points(cone.chart, 16, seed=42)
    b = sample_points(cone.chart, 16, seed=42)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = sample_points(cone.chart, 16, seed=43)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_sampling_pins_points_first(cone):
    pin = (2.0, 0.3, -0.4)
    pts = sample_points(cone.chart, 5, seed=42, pinned=(pin,))
    assert isinstance(pts, np.ndarray) and pts.shape == (5, 3)
    assert np.array_equal(pts[0], pin)
    assert np.array_equal(pts[1:], latin_hypercube(cone.chart, 4, seed=42))
    with pytest.raises(DomainError):
        sample_points(cone.chart, 5, pinned=((0.5, 0.0, 0.0),))  # boundary is outside
    with pytest.raises(ValueError):
        sample_points(cone.chart, 1, pinned=((2.0, 0.0, 0.0), (3.0, 0.0, 0.0)))


def test_domain_enforcement(cone):
    with pytest.raises(DomainError):
        cone.values_at((0.5, 0.0, 0.0))  # closed endpoint excluded
    with pytest.raises(DomainError):
        cone.values_at((6.0, 0.0, 0.0))
    with pytest.raises(DimensionMismatch):
        cone.values_at((2.0, 0.0))
    # interior works
    vals = cone.values_at((0.500001, 0.0, 0.0))
    assert vals.g.shape == (3, 3)


def test_check_bindings(cone):
    check_bindings(cone.chart, {"c": 1.0}, ["c"])
    with pytest.raises(UnboundConstant) as e:
        check_bindings(cone.chart, {}, ["c"])
    assert e.value.name == "c"
    with pytest.raises(DomainError):
        check_bindings(cone.chart, {"c": float("nan")}, ["c"])


def test_structure_jets_shapes(cone):
    sj = cone.jets_at((2.0, 0.3, -0.4))
    assert sj.g.value.shape == (3, 3)
    assert sj.g.partial.shape == (3, 3, 3)
    assert sj.g.second.shape == (3, 3, 3, 3)
    # dg_uu/dt = 2t = 4 at t=2; second derivative 2
    assert np.isclose(sj.g.partial[1, 1, 0], 4.0)
    assert np.isclose(sj.g.second[1, 1, 0, 0], 2.0)
    assert not sj.xi.partial.any()


def test_values_and_frame_at_a_batch(cone, cone_points):
    points = np.array(cone_points[:5])
    values = cone.values_at(points, {})
    frames = cone.frame_at(points)
    for k, pt in enumerate(cone_points[:5]):
        single = cone.values_at(pt)
        for got, want in zip(values, single):
            assert got.shape[1:] == want.shape
            assert np.array_equal(got[k], want)
        assert np.array_equal(frames[k], cone.frame_at(pt))


def test_validation_reports_the_first_wrong_signature():
    # g_vv = t^2 (u - 1): Lorentzian where u < 1, Riemannian where u > 1
    g = [["1", "0", "0"], ["0", "t^2", "0"], ["0", "0", "t^2*(u-1)"]]
    S = load_manifold(cone_json(g=g))
    report = validate_structure(S, [(2.0, 0.0, 0.0), (2.0, 2.0, 0.0), (2.0, 0.5, 0.0)])
    assert report.signature == (3, 0)
    assert "signature" in report.failing()
    assert validate_structure(S, [(2.0, 0.0, 0.0), (2.0, 0.5, 0.0)]).signature == (2, 1)
