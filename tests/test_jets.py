"""Second-order jet arithmetic against closed forms and finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accr.errors import DomainError
from accr.jets import (
    FUNCTIONS,
    Jet2,
    absolute,
    cos,
    exp,
    general_pow,
    int_pow,
    ln,
    sin,
    sqrt,
    tan,
    tanh,
)

from conftest import constant_jet, fd_gradient, fd_hessian


def test_seed_and_constant():
    x = Jet2.seed(0, 2.0, 3)
    assert x.value == 2.0
    assert np.array_equal(x.grad, [1.0, 0.0, 0.0])
    assert np.array_equal(x.hess, np.zeros((3, 3)))
    c = constant_jet(7.5, 2)
    assert c.value == 7.5
    assert not c.grad.any()
    assert not c.hess.any()
    with pytest.raises(ValueError):
        Jet2.seed(3, 1.0, 3)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Jet2(1.0, np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Jet2(1.0, np.zeros(2), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Jet2(1.0, np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_polynomial_jet():
    # f(x, y) = x*y + y^2 at (2, 3): grad (3, 8), hess [[0,1],[1,2]].
    x = Jet2.seed(0, 2.0, 2)
    y = Jet2.seed(1, 3.0, 2)
    f = x * y + y * y
    assert f.value == 15.0
    assert np.allclose(f.grad, [3.0, 8.0])
    assert np.allclose(f.hess, [[0.0, 1.0], [1.0, 2.0]])


def test_quotient_jet():
    # f(x, y) = x / y at (1, 2).
    x = Jet2.seed(0, 1.0, 2)
    y = Jet2.seed(1, 2.0, 2)
    f = x / y
    assert np.isclose(f.value, 0.5)
    assert np.allclose(f.grad, [0.5, -0.25])
    assert np.allclose(f.hess, [[0.0, -0.25], [-0.25, 0.25]])


def test_scalar_mixing():
    x = Jet2.seed(0, 3.0, 1)
    f = 2.0 + x * 3 - 1.0
    assert f.value == 10.0
    g = 1.0 - x
    assert g.value == -2.0 and g.grad[0] == -1.0
    h = 6.0 / x
    assert np.isclose(h.value, 2.0)
    assert np.isclose(h.grad[0], -6.0 / 9.0)
    assert np.isclose(h.hess[0, 0], 12.0 / 27.0)


def test_unary_functions_closed_form():
    t = 0.7
    x = Jet2.seed(0, t, 1)
    cases = [
        (sin(x), math.sin(t), math.cos(t), -math.sin(t)),
        (cos(x), math.cos(t), -math.sin(t), -math.cos(t)),
        (exp(x), math.exp(t), math.exp(t), math.exp(t)),
        (ln(x), math.log(t), 1.0 / t, -1.0 / t**2),
        (sqrt(x), math.sqrt(t), 0.5 / math.sqrt(t), -0.25 * t**-1.5),
        (tanh(x), math.tanh(t), 1.0 - math.tanh(t) ** 2, -2.0 * math.tanh(t) * (1.0 - math.tanh(t) ** 2)),
        (tan(x), math.tan(t), 1.0 + math.tan(t) ** 2, 2.0 * math.tan(t) * (1.0 + math.tan(t) ** 2)),
        (absolute(-x), t, 1.0, 0.0),
    ]
    for got, v, d1, d2 in cases:
        assert np.isclose(got.value, v, rtol=1e-14)
        assert np.isclose(got.grad[0], d1, rtol=1e-13)
        assert np.isclose(got.hess[0, 0], d2, rtol=1e-13, atol=1e-15)


def test_absolute_branches():
    x = Jet2.seed(0, -0.7, 1)
    f = absolute(x)
    assert f.value == 0.7 and f.grad[0] == -1.0
    assert absolute(-3.0) == 3.0
    with pytest.raises(DomainError):
        absolute(Jet2.seed(0, 0.0, 1))


def test_integer_powers():
    x = Jet2.seed(0, -2.0, 1)
    f = int_pow(x, 3)
    assert f.value == -8.0 and f.grad[0] == 12.0 and f.hess[0, 0] == -12.0
    g = int_pow(x, -2)
    assert np.isclose(g.value, 0.25)
    assert np.isclose(g.grad[0], 0.25)  # d/dx x^-2 = -2 x^-3 = 0.25 at -2
    assert int_pow(x, 0) == 1.0
    assert int_pow(3.0, 4) == 81.0
    assert int_pow(2.0, -2) == 0.25
    with pytest.raises(DomainError):
        int_pow(0.0, -1)
    with pytest.raises(DomainError):
        int_pow(constant_jet(0.0, 1), -1)


def test_general_pow():
    x = Jet2.seed(0, 3.0, 1)
    f = general_pow(2.0, x)  # 2^x
    assert np.isclose(f.value, 8.0)
    assert np.isclose(f.grad[0], 8.0 * math.log(2.0))
    # an integral exponent through exp and ln agrees with repeated multiplication
    g = general_pow(x, 3.0)
    p = int_pow(x, 3)
    assert np.isclose(g.value, p.value) and np.isclose(g.grad[0], p.grad[0])
    # non-integer exponent on a jet base
    h = general_pow(x, 0.5)
    assert np.isclose(h.value, math.sqrt(3.0))
    with pytest.raises(DomainError):
        general_pow(-1.0, x)


def test_domain_errors():
    with pytest.raises(DomainError):
        ln(0.0)
    with pytest.raises(DomainError):
        ln(Jet2.seed(0, -1.0, 1))
    with pytest.raises(DomainError):
        sqrt(-4.0)
    with pytest.raises(DomainError):
        constant_jet(0.0, 1).reciprocal()
    with pytest.raises(DomainError):
        Jet2.seed(0, 1.0, 1) / 0.0


def test_dimension_mismatch():
    a = Jet2.seed(0, 1.0, 2)
    b = Jet2.seed(0, 1.0, 3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_functions_table():
    assert set(FUNCTIONS) == {"sin", "cos", "tan", "exp", "ln", "sqrt", "abs", "tanh"}
    assert FUNCTIONS["abs"] is absolute


def _sample_functions():
    # Each entry works on jets and on plain floats alike, on the box
    # (0.2, 1.5)^3 where every composition stays inside its domain.
    return [
        lambda x, y, z: x * y + y * z * z - 3.0 * x,
        lambda x, y, z: sin(x * y) + cos(z),
        lambda x, y, z: exp(x - y) * sqrt(z + 0.5),
        lambda x, y, z: ln(x + y) / (z + 2.0),
        lambda x, y, z: tanh(x * z) + tan(y * 0.5),
        lambda x, y, z: int_pow(x + 2.0 * y, 3) / (1.0 + z * z),
        lambda x, y, z: sqrt(x * x + y * y + z * z),
        lambda x, y, z: exp(sin(x) * cos(y)) + int_pow(z, -2),
    ]


def test_jets_match_finite_differences():
    rng = np.random.default_rng(7)
    for func in _sample_functions():
        for _ in range(4):
            pt = rng.uniform(0.2, 1.5, size=3)
            jets = [Jet2.seed(i, pt[i], 3) for i in range(3)]
            got = func(*jets)

            def scalar(x, f=func):
                return float(f(x[0], x[1], x[2]))

            ref_g = fd_gradient(scalar, pt, h=1e-5)
            ref_h = fd_hessian(scalar, pt, h=1e-3)
            scale_g = max(1.0, float(np.max(np.abs(ref_g))))
            scale_h = max(1.0, float(np.max(np.abs(ref_h))))
            assert np.max(np.abs(got.grad - ref_g)) / scale_g < 1e-6
            assert np.max(np.abs(got.hess - ref_h)) / scale_h < 1e-6


def test_hessian_symmetry_is_exact():
    # Bitwise symmetry, not just allclose: the propagation rules only ever
    # add symmetric pieces.
    rng = np.random.default_rng(3)
    for _ in range(20):
        pt = rng.uniform(0.3, 1.2, size=4)
        jets = [Jet2.seed(i, pt[i], 4) for i in range(4)]
        x, y, z, w = jets
        f = exp(x * y) / (z + w) + sin(w * x) * ln(y + z) - int_pow(x + y, 4)
        assert np.array_equal(f.hess, f.hess.T)


_vals = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


def _poly_jets(u, v):
    x = Jet2.seed(0, u, 2)
    y = Jet2.seed(1, v, 2)
    a = x * x + 2.0 * y
    b = x * y - 1.0
    c = y * y * y + x
    return a, b, c


def _assert_jets_close(p, q, tol=1e-12):
    scale = max(1.0, abs(p.value), float(np.max(np.abs(p.grad))), float(np.max(np.abs(p.hess))))
    assert abs(p.value - q.value) <= tol * scale
    assert np.max(np.abs(p.grad - q.grad)) <= tol * scale
    assert np.max(np.abs(p.hess - q.hess)) <= tol * scale


@given(_vals, _vals)
@settings(max_examples=200, deadline=None)
def test_distributive_law(u, v):
    a, b, c = _poly_jets(u, v)
    _assert_jets_close((a + b) * c, a * c + b * c)


@given(_vals, _vals)
@settings(max_examples=200, deadline=None)
def test_associative_product(u, v):
    a, b, c = _poly_jets(u, v)
    _assert_jets_close((a * b) * c, a * (b * c))


@given(st.floats(min_value=0.5, max_value=3.0), _vals)
@settings(max_examples=200, deadline=None)
def test_reciprocal_inverse(u, v):
    a, _, _ = _poly_jets(u, v)  # a = u^2 + 2v can still vanish; shift it
    a = a + 7.0  # u^2 + 2v + 7 >= 0.25 + -6 + 7 > 0 on the strategy box
    one = a * a.reciprocal()
    _assert_jets_close(one, constant_jet(1.0, 2), tol=1e-11)
