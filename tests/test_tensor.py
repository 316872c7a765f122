"""Multilinear algebra on component arrays: frames, signatures, the metric inverse."""

import numpy as np
import pytest

from accr.errors import SingularFrame, SingularMetric, TensorError
from accr.geometry import SampleGeometry
from accr.manifold import load_manifold
from accr.tensor import signature_of, to_phi_frame

from test_manifold import cone_json

POINT = (2.0, 0.3, -0.4)


@pytest.fixture(scope="module")
def cone_values(cone):
    return cone.values_at(POINT)


def test_signature_of():
    assert signature_of(np.diag([1.0, 4.0, -4.0])) == (2, 1)
    assert signature_of(np.diag([1.0, 0.0, -1.0])) == (1, 1)
    assert signature_of(np.zeros((3, 3))) == (0, 0)
    assert signature_of(np.eye(3)) == (3, 0)


def test_metric_invert(cone):
    # cone metric at t=2: diag(1, 4, -4); the geometry carries its inverse
    pg = SampleGeometry(cone, [POINT]).of("g")
    assert np.allclose(pg.g[0], np.diag([1.0, 4.0, -4.0]))
    assert np.allclose(pg.ginv[0], np.diag([1.0, 0.25, -0.25]))
    assert signature_of(pg.g[0]) == (2, 1)


def test_contract_traces_identity(cone):
    # raising an index of g gives the identity, whose trace is the dimension
    pg = SampleGeometry(cone, [POINT]).of("g")
    mixed = pg.ginv[0] @ pg.g[0]
    assert np.allclose(mixed, np.eye(3), atol=1e-15)
    assert np.isclose(np.trace(mixed), 3.0)


def test_metric_invert_errors():
    zero = [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
    rank_two = [["1", "1", "0"], ["1", "1", "0"], ["0", "0", "t^2"]]
    for g in (zero, rank_two):
        with pytest.raises(SingularMetric):
            SampleGeometry(load_manifold(cone_json(g=g)), [POINT]).of("g")
    # g~ = eta (x) eta where g = 0: raised by of(), before any field is read
    with pytest.raises(SingularMetric):
        SampleGeometry(load_manifold(cone_json(g=zero)), [POINT]).of("gtilde")


def test_to_phi_frame_metric(cone, cone_values):
    frame = cone.frame_at(POINT)
    framed = to_phi_frame(cone_values.g, ("l", "l"), frame)
    assert np.allclose(framed, np.diag([1.0, -1.0, 1.0]), atol=1e-14)


def test_to_phi_frame_mixed_variance(cone, cone_values):
    # xi expressed in the frame is the last frame vector: components (0, 0, 1)
    frame = cone.frame_at(POINT)
    framed = to_phi_frame(cone_values.xi, ("u",), frame)
    assert np.allclose(framed, [0.0, 0.0, 1.0], atol=1e-14)
    # full contractions are basis invariant
    framed_eta = to_phi_frame(cone_values.eta, ("l",), frame)
    assert np.isclose(framed_eta @ framed, cone_values.eta @ cone_values.xi)


def test_point_tensor_validation(cone):
    # the components' variance letters and shape are checked before any transform
    frame = cone.frame_at(POINT)
    with pytest.raises(TensorError):
        to_phi_frame(np.zeros((3, 3)), ("u", "x"), frame)
    with pytest.raises(TensorError):
        to_phi_frame(np.zeros((3, 2)), ("u", "l"), frame)


def test_to_phi_frame_errors():
    with pytest.raises(SingularFrame):
        to_phi_frame(np.ones(3), ("u",), np.ones((3, 3)))
    with pytest.raises(TensorError):
        to_phi_frame(np.ones(3), ("u",), np.eye(2))


def test_to_phi_frame_batch_matches_per_point(cone, cone_points):
    points = np.array(cone_points[:6])
    frames = cone.frame_at(points)
    assert frames.shape == (6, 3, 3)
    rng = np.random.default_rng(8)
    for variance in (("l",) * 4, ("u", "l"), ("u",)):
        comps = rng.normal(size=(6,) + (3,) * len(variance))
        batch = to_phi_frame(comps, variance, frames)
        assert batch.shape == comps.shape
        for k in range(6):
            single = to_phi_frame(comps[k], variance, cone.frame_at(cone_points[k]))
            assert np.max(np.abs(batch[k] - single)) <= 1e-13


def test_to_phi_frame_batch_rejects_one_singular_frame():
    frames = np.stack([np.eye(3), np.ones((3, 3)), np.eye(3)])
    with pytest.raises(SingularFrame, match="at sample 1$"):
        to_phi_frame(np.ones((3, 3)), ("l",), frames)


def test_to_phi_frame_inverts_the_frame_only_for_a_contravariant_slot(monkeypatch):
    frames = np.stack([np.eye(3), 2.0 * np.eye(3)])
    inverted = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
    assert to_phi_frame(np.ones((2, 3, 3)), ("l", "l"), frames)[1].tolist() == (4.0 * np.ones((3, 3))).tolist()
    assert inverted == []
    assert to_phi_frame(np.ones((2, 3)), ("u",), frames)[1].tolist() == [0.5, 0.5, 0.5]
    assert len(inverted) == 1


def test_signature_of_stack():
    stack = np.stack([np.diag([1.0, 4.0, -4.0]), np.eye(3), np.diag([1.0, 0.0, -1.0])])
    pos, neg = signature_of(stack)
    assert pos.tolist() == [2, 3, 1] and neg.tolist() == [1, 0, 1]
