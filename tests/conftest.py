"""Shared fixtures and finite-difference oracles for the test suite."""

import json
import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from accr.expr import Evaluation, eval_numbers
from accr.manifold import builtin_structure, load_manifold, sample_points

# Every property test runs the same examples on every run, and no example database is written.
# Each test's own @settings keep its max_examples and deadline.  Hypothesis also caches the
# constants it reads from local source files under its home directory, and skips the cache where
# that directory cannot be made, as under the null device: so no .hypothesis/ is written at all.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
set_hypothesis_home_dir(os.devnull)

# The cone's unit soliton constants. Most closed-form expectations below assume these.
CONE_BINDINGS = {"c": 1.0, "ct": 1.0}


@pytest.fixture(scope="session")
def cone():
    return builtin_structure("cone-flat-fiber")


@pytest.fixture(scope="session")
def flat():
    return builtin_structure("flat-cosymplectic")


def cone_with_fibers(n):
    """The cone with n flat fiber pairs (dimension 2n+1), phi pairing u_i with v_i."""
    d = 2 * n + 1
    coordinates = ["t"] + [f"{axis}{i}" for i in range(1, n + 1) for axis in "uv"]
    g, phi, frame = ([["0"] * d for _ in range(d)] for _ in range(3))
    g[0][0] = frame[0][d - 1] = "1"
    for i in range(n):
        u, v = 2 * i + 1, 2 * i + 2
        g[u][u], g[v][v] = "t^2", "-t^2"
        phi[u][v], phi[v][u] = "-1", "1"
    for k in range(1, d):
        frame[k][k - 1] = "1/t"
    return {
        "name": f"cone-flat-fiber-n{n}",
        "n": n,
        "coordinates": coordinates,
        "domain": {c: [0.5, 5.0] if c == "t" else [-3.0, 3.0] for c in coordinates},
        "constants": ["c", "ct"],
        "g": g,
        "phi": phi,
        "xi": ["1"] + ["0"] * (d - 1),
        "eta": ["1"] + ["0"] * (d - 1),
        "frame": frame,
    }


# The same structure as the benchmark's perfbench/cone_n2.json.
CONE_N2 = cone_with_fibers(2)


@pytest.fixture(scope="session")
def cone_n2():
    return load_manifold(json.dumps(CONE_N2))


@pytest.fixture(scope="session")
def cone_n3():
    return load_manifold(json.dumps(cone_with_fibers(3)))


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

# OFFDIAG with a non-constant xi, and phi varying inside the fiber block as
# well, so no term on the jets of phi, xi or eta is skipped or vanishes; bind
# c = 0.3.
VARYING = dict(
    OFFDIAG, xi=["1", "u*v/4", "t/2"],
    phi=[["0", "0", "0"], ["u*v/4", "0", "-1-t*u/8"], ["2*c", "1+v*t/8", "0"]],
)


@pytest.fixture(scope="session")
def offdiag():
    return load_manifold(json.dumps(OFFDIAG))


# A Sasaki-like structure (Ivanov, Manev and Manev, J. Geom. Phys. 105 (2016) 136-148):
# the cone's phi, xi and eta on g = dt^2 + cos 2t (du^2 - dv^2) + 2 sin 2t du dv, with
# the phi-frame e_1 = cos t d/du + sin t d/dv, phi e_1 and xi.  It is not F5, F5_0 or
# F0, and its off-diagonal metric is regular everywhere.
ROTATING_NORDEN = {
    "name": "rotating-norden",
    "n": 1,
    "coordinates": ["t", "u", "v"],
    "domain": {"t": [0.1, 1.4], "u": [-3.0, 3.0], "v": [-3.0, 3.0]},
    "g": [["1", "0", "0"], ["0", "cos(2*t)", "sin(2*t)"], ["0", "sin(2*t)", "-cos(2*t)"]],
    "phi": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
    "xi": ["1", "0", "0"],
    "eta": ["1", "0", "0"],
    "frame": [["0", "0", "1"], ["cos(t)", "-sin(t)", "0"], ["sin(t)", "cos(t)", "0"]],
}


@pytest.fixture(scope="session")
def rotating_norden():
    return load_manifold(json.dumps(ROTATING_NORDEN))


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


def swap(raw):
    """The structure dict `raw` with g replaced by its associated metric g~, as expression text,
    and no expect block; phi, xi and eta stay.

    Where the structure identities hold, swap(raw) is again a structure, the geometry of its g is
    that of g~ on raw, and the g of swap(swap(raw)) is -g + 2 eta (x) eta.
    """
    gtilde = load_manifold(json.dumps(raw)).associated_metric()
    swapped = {key: value for key, value in raw.items() if key != "expect"}
    swapped["g"] = [[entry.unparse() for entry in row] for row in gtilde]
    return swapped


def associated_metric(S, points, bindings=None):
    """Reference components of g~ = sym(g phi + eta (x) eta) from the structure values, at a batch (N, d).

    Independent of the jets, so finite differences of it check the jets of g~.
    """
    g, phi, eta = eval_numbers([S.g, S.phi, S.eta], Evaluation(points, S.dim, bindings))
    gt = np.einsum("...is,...sj->...ij", g, phi) + np.einsum("...i,...j->...ij", eta, eta)
    return (gt + np.swapaxes(gt, -1, -2)) / 2.0


def phi_frame(components, frames):
    """Covariant components in the frame whose columns are e_1..e_2n, xi, every slot transformed.

    One frame (d, d) for the components of one point, or frames (N, d, d)
    for components with a leading sample axis.  Each slot is contracted with
    the frame by its own einsum: the oracle of the phi-frame values, which
    contract only the entries they read.
    """
    slots = "abcd"[:np.ndim(components) - np.ndim(frames) + 2]
    for slot in slots:
        components = np.einsum(f"...{slots},...{slot}z->...{slots.replace(slot, 'z')}", components, frames)
    return components


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
