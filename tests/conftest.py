"""Shared fixtures and finite-difference oracles for the test suite."""

import json

import numpy as np
import pytest

from accr.manifold import builtin_structure, load_manifold, sample_points

# Bindings under which the cone manifold carries flat fibers and unit
# soliton constants. Most closed-form expectations below assume these.
CONE_BINDINGS = {"c": 1.0, "ct": 1.0, "kprime": 0.0}


@pytest.fixture(scope="session")
def cone():
    return builtin_structure("cone-flat-fiber")


@pytest.fixture(scope="session")
def flat():
    return builtin_structure("flat-cosymplectic")


# The cone with two flat fiber pairs (n = 2, dimension 5), phi pairing u_i
# with v_i; the same structure as the benchmark's perfbench/cone_n2.json.
CONE_N2 = {
    "name": "cone-flat-fiber-n2",
    "n": 2,
    "coordinates": ["t", "u1", "v1", "u2", "v2"],
    "domain": {"t": [0.5, 5.0], "u1": [-3.0, 3.0], "v1": [-3.0, 3.0], "u2": [-3.0, 3.0], "v2": [-3.0, 3.0]},
    "constants": ["c", "ct"],
    "g": [
        ["1", "0", "0", "0", "0"],
        ["0", "t^2", "0", "0", "0"],
        ["0", "0", "-t^2", "0", "0"],
        ["0", "0", "0", "t^2", "0"],
        ["0", "0", "0", "0", "-t^2"],
    ],
    "phi": [
        ["0", "0", "0", "0", "0"],
        ["0", "0", "-1", "0", "0"],
        ["0", "1", "0", "0", "0"],
        ["0", "0", "0", "0", "-1"],
        ["0", "0", "0", "1", "0"],
    ],
    "xi": ["1", "0", "0", "0", "0"],
    "eta": ["1", "0", "0", "0", "0"],
    "frame": [
        ["0", "0", "0", "0", "1"],
        ["1/t", "0", "0", "0", "0"],
        ["0", "1/t", "0", "0", "0"],
        ["0", "0", "1/t", "0", "0"],
        ["0", "0", "0", "1/t", "0"],
    ],
}


@pytest.fixture(scope="session")
def cone_n2():
    return load_manifold(json.dumps(CONE_N2))


# Not an almost contact B-metric structure (it fails validation): a chart
# whose g and associated metric are non-diagonal and non-singular, for the
# oracles that a diagonal metric cannot tell from a wrong contraction order.
# It has coordinate-dependent off-diagonal entries, one AST repeated across
# g, phi and eta, and the entries -1, 2*c and c/2; bind c = 0.3.
OFFDIAG = {
    "name": "off-diagonal-test",
    "n": 1,
    "coordinates": ["t", "u", "v"],
    "domain": {"t": [0.5, 2.0], "u": [-1.0, 1.0], "v": [-1.0, 1.0]},
    "constants": ["c"],
    "g": [["1", "u*v/4", "0"], ["u*v/4", "t^2", "c/2"], ["0", "c/2", "-t^2"]],
    "phi": [["0", "0", "0"], ["u*v/4", "0", "-1"], ["2*c", "1", "0"]],
    "xi": ["1", "0", "0"],
    "eta": ["1", "u*v/4", "0"],
}
OFFDIAG_BINDINGS = {"c": 0.3}


@pytest.fixture(scope="session")
def offdiag():
    return load_manifold(json.dumps(OFFDIAG))


@pytest.fixture(scope="session")
def cone_bindings():
    return dict(CONE_BINDINGS)


@pytest.fixture(scope="session")
def cone_points(cone):
    # Deterministic sample set with the reference point t=2 pinned first.
    return sample_points(cone.chart, 16, seed=42, pinned=((2.0, 0.3, -0.4),))


@pytest.fixture(scope="session")
def flat_points(flat):
    return sample_points(flat.chart, 16, seed=42)


def fd_gradient(func, x, h=1e-5):
    """Central-difference gradient of a function of a point tuple.

    The function may return a number or an array; the derivative axis comes last.
    """
    x = np.asarray(x, dtype=float)
    out = []
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out.append((np.asarray(func(xp)) - np.asarray(func(xm))) / (2.0 * h))
    return np.stack(out, axis=-1)


def _fd_hessian_step(func, x, h):
    dim = x.size
    out = np.empty((dim, dim))
    f0 = func(x)
    for i in range(dim):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[i, i] = (func(xp) - 2.0 * f0 + func(xm)) / (h * h)
        for j in range(i + 1, dim):
            xpp = x.copy()
            xpm = x.copy()
            xmp = x.copy()
            xmm = x.copy()
            xpp[[i, j]] += h
            xmm[[i, j]] -= h
            xpm[i] += h
            xpm[j] -= h
            xmp[i] -= h
            xmp[j] += h
            val = (func(xpp) - func(xpm) - func(xmp) + func(xmm)) / (4.0 * h * h)
            out[i, j] = val
            out[j, i] = val
    return out


def fd_hessian(func, x, h=1e-3):
    """Richardson-extrapolated central-difference Hessian.

    A plain second difference at step 1e-5 loses ~1e-5 relative accuracy to
    roundoff, so the oracle runs at a coarser base step and extrapolates.
    """
    x = np.asarray(x, dtype=float)
    d1 = _fd_hessian_step(func, x, h)
    d2 = _fd_hessian_step(func, x, h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale
