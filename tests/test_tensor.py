"""Pointwise tensor algebra: index gymnastics, frames, symmetry probes."""

import numpy as np
import pytest

from accr.errors import (
    BasisMismatch,
    SingularFrame,
    SingularMetric,
    TensorError,
    VarianceMismatch,
)
from accr.tensor import (
    COORDINATE,
    PHI_FRAME,
    MetricAtPoint,
    PointTensor,
    contract,
    metric_invert,
    raise_lower,
    signature_of,
    symmetry_check,
    to_phi_frame,
)

POINT = (2.0, 0.3, -0.4)


@pytest.fixture(scope="module")
def cone_values(cone):
    return cone.values_at(POINT)


@pytest.fixture(scope="module")
def cone_metric(cone_values):
    return MetricAtPoint.from_components(cone_values.g)


def test_point_tensor_validation():
    with pytest.raises(VarianceMismatch):
        PointTensor(3, ("u", "x"), np.zeros((3, 3)))
    with pytest.raises(TensorError):
        PointTensor(3, ("u", "l"), np.zeros((3, 2)))
    with pytest.raises(TensorError):
        PointTensor(2, ("l",), np.array([1.0, np.nan]))
    with pytest.raises(TensorError):
        PointTensor(2, ("l", "l"), np.eye(2), basis="weird")
    t = PointTensor(3, ("u", "l"), np.eye(3))
    assert t.rank == 2 and t.basis == COORDINATE


def test_signature_of():
    assert signature_of(np.diag([1.0, 4.0, -4.0])) == (2, 1)
    assert signature_of(np.diag([1.0, 0.0, -1.0])) == (1, 1)
    assert signature_of(np.zeros((3, 3))) == (0, 0)
    assert signature_of(np.eye(3)) == (3, 0)


def test_metric_invert(cone_metric):
    # cone metric at t=2: diag(1, 4, -4)
    assert np.allclose(cone_metric.g.components, np.diag([1.0, 4.0, -4.0]))
    assert np.allclose(cone_metric.g_inv.components, np.diag([1.0, 0.25, -0.25]))
    assert cone_metric.signature == (2, 1)
    assert cone_metric.g_inv.variance == ("u", "u")


def test_metric_invert_errors():
    with pytest.raises(VarianceMismatch):
        metric_invert(PointTensor(2, ("u", "u"), np.eye(2)))
    with pytest.raises(TensorError):
        metric_invert(PointTensor(2, ("l", "l"), np.array([[1.0, 0.5], [0.0, 1.0]])))
    with pytest.raises(SingularMetric):
        metric_invert(PointTensor(2, ("l", "l"), np.zeros((2, 2))))
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMetric):
        metric_invert(PointTensor(2, ("l", "l"), singular))


def test_raise_lower_cone_values(cone_values, cone_metric):
    # lowering phi's upper slot at t=2 gives [[0,0,0],[0,0,-4],[0,-4,0]]
    phi = PointTensor(3, ("u", "l"), cone_values.phi)
    lowered = raise_lower(phi, 0, cone_metric)
    assert lowered.variance == ("l", "l")
    assert np.allclose(lowered.components, [[0, 0, 0], [0, 0, -4.0], [0, -4.0, 0]])
    # lowering xi gives eta
    xi = PointTensor(3, ("u",), cone_values.xi)
    assert np.allclose(raise_lower(xi, 0, cone_metric).components, cone_values.eta)
    # raise then lower round-trips
    back = raise_lower(lowered, 0, cone_metric)
    assert np.allclose(back.components, phi.components, atol=1e-15)


def test_raise_lower_errors(cone_metric):
    t = PointTensor(3, ("u",), np.ones(3))
    with pytest.raises(TensorError):
        raise_lower(t, 1, cone_metric)
    framey = PointTensor(3, ("u",), np.ones(3), basis=PHI_FRAME)
    with pytest.raises(BasisMismatch):
        raise_lower(framey, 0, cone_metric)


def test_contract_traces_identity(cone_metric):
    mixed = raise_lower(cone_metric.g, 0, cone_metric)  # delta^a_b
    assert np.allclose(mixed.components, np.eye(3), atol=1e-15)
    trace = contract(mixed, 0, 1)
    assert trace.rank == 0
    assert np.isclose(float(trace.components), 3.0)


def test_contract_errors():
    t = PointTensor(3, ("l", "l"), np.eye(3))
    with pytest.raises(VarianceMismatch):
        contract(t, 0, 1)
    m = PointTensor(3, ("u", "l"), np.eye(3))
    with pytest.raises(TensorError):
        contract(m, 0, 0)
    with pytest.raises(TensorError):
        contract(m, 0, 5)


def test_to_phi_frame_metric(cone, cone_values):
    frame = cone.frame_at(POINT)
    g = PointTensor(3, ("l", "l"), cone_values.g)
    framed = to_phi_frame(g, frame)
    assert framed.basis == PHI_FRAME
    assert np.allclose(framed.components, np.diag([1.0, -1.0, 1.0]), atol=1e-14)


def test_to_phi_frame_mixed_variance(cone, cone_values):
    # xi expressed in the frame is the last frame vector: components (0, 0, 1)
    frame = cone.frame_at(POINT)
    xi = PointTensor(3, ("u",), cone_values.xi)
    framed = to_phi_frame(xi, frame)
    assert np.allclose(framed.components, [0.0, 0.0, 1.0], atol=1e-14)
    # full contractions are basis invariant
    eta = PointTensor(3, ("l",), cone_values.eta)
    framed_eta = to_phi_frame(eta, frame)
    assert np.isclose(framed_eta.components @ framed.components, eta.components @ xi.components)


def test_to_phi_frame_errors(cone):
    frame = cone.frame_at(POINT)
    already = PointTensor(3, ("u",), np.ones(3), basis=PHI_FRAME)
    with pytest.raises(BasisMismatch):
        to_phi_frame(already, frame)
    with pytest.raises(SingularFrame):
        to_phi_frame(PointTensor(3, ("u",), np.ones(3)), np.ones((3, 3)))
    with pytest.raises(TensorError):
        to_phi_frame(PointTensor(3, ("u",), np.ones(3)), np.eye(2))


def test_symmetry_check():
    sym = PointTensor(3, ("l", "l"), np.diag([1.0, 2.0, 3.0]))
    assert symmetry_check(sym, (1, 0), 1.0) == 0.0
    anti = PointTensor(2, ("l", "l"), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert symmetry_check(anti, (1, 0), -1.0) == 0.0
    assert symmetry_check(anti, (1, 0), 1.0) == 2.0
    with pytest.raises(TensorError):
        symmetry_check(sym, (0, 0), 1.0)


def test_to_phi_frame_batch_matches_per_point(cone, cone_points):
    points = np.array(cone_points[:6])
    frames = cone.frame_at(points)
    assert frames.shape == (6, 3, 3)
    rng = np.random.default_rng(8)
    for variance in (("l",) * 4, ("u", "l"), ("u",)):
        comps = rng.normal(size=(6,) + (3,) * len(variance))
        batch = to_phi_frame(PointTensor(3, variance, comps), frames)
        assert batch.basis == PHI_FRAME and batch.components.shape == comps.shape
        for k in range(6):
            single = to_phi_frame(PointTensor(3, variance, comps[k]), cone.frame_at(cone_points[k]))
            assert np.max(np.abs(batch.components[k] - single.components)) <= 1e-13


def test_to_phi_frame_batch_rejects_one_singular_frame():
    frames = np.stack([np.eye(3), np.ones((3, 3)), np.eye(3)])
    with pytest.raises(SingularFrame):
        to_phi_frame(PointTensor(3, ("l",), np.ones((3, 3))), frames)


def test_signature_of_stack():
    stack = np.stack([np.diag([1.0, 4.0, -4.0]), np.eye(3), np.diag([1.0, 0.0, -1.0])])
    pos, neg = signature_of(stack)
    assert pos.tolist() == [2, 3, 1] and neg.tolist() == [1, 0, 1]
