"""Multilinear algebra on component arrays: the frame check, signatures, the metric inverse."""

import numpy as np
import pytest

from accr import geometry
from accr.cli import main
from accr.errors import SingularFrame, SingularMetric
from accr.geometry import SampleGeometry
from accr.manifold import load_manifold
from accr.tensor import _check_frames, signature_of

from test_manifold import cone_json
from test_output_contract import CASES

POINT = (2.0, 0.3, -0.4)


def _chart_of(stack):
    """Coordinate names and points (N, d) for a stack (N, d, d): sample k at t = k + 1, the rest 0."""
    points = np.zeros(stack.shape[:2])
    points[:, 0] = np.arange(1.0, len(stack) + 1)
    return ("t", "u", "v")[:stack.shape[-1]], points


def test_signature_of():
    assert signature_of(np.diag([1.0, 4.0, -4.0])) == (2, 1)
    assert signature_of(np.diag([1.0, 0.0, -1.0])) == (1, 1)
    assert signature_of(np.zeros((3, 3))) == (0, 0)
    assert signature_of(np.eye(3)) == (3, 0)
    # g + g^T would overflow; the eigenvalue 1 counts as zero next to 1e308
    assert signature_of(np.diag([1.0, 1e308, -1e308])) == (1, 1)


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


def test_the_frame_check_rejects_one_singular_frame():
    frames = np.stack([np.eye(3), np.ones((3, 3)), np.eye(3)])
    with pytest.raises(SingularFrame, match=r"at sample 1 \(t=2\.0, u=0\.0, v=0\.0\)$"):
        _check_frames(frames, *_chart_of(frames))


@pytest.fixture()
def linalg_calls(monkeypatch):
    """Counts of np.linalg.inv and np.linalg.svd calls while the test runs."""
    calls = {"inv": 0, "svd": 0}
    for name in calls:
        def counted(*args, _call=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_a_regular_stack_is_inverted_once_and_never_decomposed(cone, cone_points, linalg_calls):
    regular = np.stack([np.eye(3), 2.0 * np.eye(3)])
    _check_frames(regular, *_chart_of(regular))
    assert linalg_calls == {"inv": 1, "svd": 0}
    SampleGeometry(cone, cone_points).of("gtilde")
    assert linalg_calls == {"inv": 2, "svd": 0}


@pytest.mark.parametrize("case", ["verify-cone", "report-n2", "soliton-cone"])
def test_the_benchmark_commands_decompose_no_matrix(capsys, linalg_calls, case):
    assert main(CASES[case][0]) == 0
    capsys.readouterr()
    assert linalg_calls["svd"] == 0


def test_verify_paper_inverts_each_stack_once(capsys, linalg_calls):
    # the metrics g and g~, and the frames, proven regular once before R and rho are framed
    assert main(CASES["verify-cone"][0]) == 0
    capsys.readouterr()
    assert linalg_calls == {"inv": 3, "svd": 0}


def _conditioned(cond2):
    """A symmetric 3x3 matrix with singular values 1, 1 and 1/cond2, off the coordinate axes.

    Its Frobenius product ||A||_F ||A^-1||_F is sqrt(2) cond2, up to rounding.
    """
    q = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
    return q @ np.diag([1.0, 1.0, 1.0 / cond2]) @ q.T


def _svd_verdict(stack):
    """The singular-value test alone: the first k with sigma_min <= 1e-12 sigma_max, and its values."""
    svals = np.linalg.svd(stack, compute_uv=False)
    flagged = svals[:, -1] <= 1e-12 * svals[:, 0]
    k = int(np.argmax(flagged))
    return (k, svals[k]) if flagged[k] else None


# The inverse proves a stack regular up to a Frobenius product of 1e11; above that the
# SVD decides, and from cond_2 = 1e12 on it finds the stack singular.
@pytest.mark.parametrize("cond2, decomposed", [
    (0.99e11 / np.sqrt(2.0), False),
    (1.01e11 / np.sqrt(2.0), True),
    (0.99e12, True),
    (1.01e12, True),
])
@pytest.mark.parametrize("path", ["metric", "frame"])
def test_the_inverse_screen_keeps_the_singular_value_verdict(linalg_calls, path, cond2, decomposed):
    stack = np.stack([np.diag([1.0, 2.0, -1.0]), _conditioned(cond2)])
    verdict = _svd_verdict(stack)
    linalg_calls["svd"] = 0
    expected_inverse = np.linalg.inv(stack)
    if path == "metric":
        invert = lambda: geometry._inverse(stack, "g", *_chart_of(stack))
        expected = (expected_inverse + np.swapaxes(expected_inverse, -1, -2)) / 2.0
        error = SingularMetric, ("metric g is numerically singular at sample {0} (t={t!r}, u=0.0, v=0.0), "
                                 "with singular values {1}")
    else:
        invert = lambda: _check_frames(stack, *_chart_of(stack)) is None  # nothing on a regular stack
        expected = True
        error = SingularFrame, "frame vectors are linearly dependent at sample {0} (t={t!r}, u=0.0, v=0.0)"
    if verdict is None:
        assert np.array_equal(invert(), expected)
    else:
        with pytest.raises(error[0]) as raised:
            invert()
        assert str(raised.value) == error[1].format(*verdict, t=verdict[0] + 1.0)
        assert verdict[0] == 1
    assert (verdict is None) == (cond2 < 1e12)
    assert linalg_calls["svd"] == decomposed


@pytest.mark.parametrize("path", ["metric", "frame"])
def test_an_overflowing_screen_defers_to_the_singular_values(path):
    # ||A||_F^2 overflows: the screen raises no warning, and the SVD names the sample
    stack = np.stack([np.eye(2), np.diag([1e200, 1e-200])])
    if path == "metric":
        with pytest.raises(SingularMetric, match="singular values"):
            geometry._inverse(stack, "g", *_chart_of(stack))
    else:
        with pytest.raises(SingularFrame, match=r"at sample 1 \(t=2\.0, u=0\.0\)$"):
            _check_frames(stack, *_chart_of(stack))


def test_signature_of_stack():
    stack = np.stack([np.diag([1.0, 4.0, -4.0]), np.eye(3), np.diag([1.0, 0.0, -1.0])])
    pos, neg = signature_of(stack)
    assert pos.tolist() == [2, 3, 1] and neg.tolist() == [1, 0, 1]
