"""Expression grammar, error reporting, and evaluation semantics."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accr.errors import (
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    UnboundConstant,
    UnknownIdentifier,
)
from accr.cli import main
from accr.expr import (
    BinOp,
    Call,
    Const,
    Coord,
    Expression,
    Neg,
    Num,
    _evaluate,
    eval_jets,
    multiply,
    parse,
)
from accr.jets import FUNCTIONS, Jet2
from accr.manifold import load_manifold, sample_points

from conftest import CONE_BINDINGS, CONE_N2, OFFDIAG_BINDINGS

COORDS = ("t", "u", "v")


def test_ast_shapes():
    assert parse("t^2", COORDS).ast == BinOp("^", Coord(0), Num(2.0))
    assert parse("-t^2", COORDS).ast == Neg(BinOp("^", Coord(0), Num(2.0)))
    assert parse("sin(u)", COORDS).ast == Call("sin", Coord(1))
    assert parse("c", COORDS, ["c"]).ast == Const("c")
    # right associativity of the caret
    assert parse("2^3^2", COORDS).ast == BinOp("^", Num(2.0), BinOp("^", Num(3.0), Num(2.0)))
    # the outer exponent is not a literal, so this takes the exp/ln route
    assert np.isclose(parse("2^3^2", COORDS).eval_number((1.0, 0.0, 0.0)), 512.0)


def test_precedence():
    p = (0.0, 0.0, 0.0)
    assert parse("1+2*3", COORDS).eval_number(p) == 7.0
    assert parse("(1+2)*3", COORDS).eval_number(p) == 9.0
    assert parse("2-3-4", COORDS).eval_number(p) == -5.0
    assert parse("12/3/2", COORDS).eval_number(p) == 2.0
    assert parse("-2^2", COORDS).eval_number(p) == -4.0
    assert parse("2^-2", COORDS).eval_number(p) == 0.25


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as e:
        parse("t +", COORDS)
    assert e.value.offset == 3
    with pytest.raises(ExprSyntaxError) as e:
        parse("2t", COORDS)
    assert e.value.offset == 1
    with pytest.raises(ExprSyntaxError) as e:
        parse("t $ u", COORDS)
    assert e.value.offset == 2
    with pytest.raises(ExprSyntaxError) as e:
        parse("sin(t", COORDS)
    assert e.value.offset == 5
    with pytest.raises(ExprSyntaxError) as e:
        parse("(t+u", COORDS)
    assert e.value.offset == 4
    with pytest.raises(ExprSyntaxError) as e:
        parse("", COORDS)
    assert e.value.offset == 0


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as e:
        parse("t + q", COORDS)
    assert e.value.name == "q" and e.value.offset == 4
    # an undeclared function name is an unknown identifier at its position
    with pytest.raises(UnknownIdentifier) as e:
        parse("foo(t)", COORDS)
    assert e.value.name == "foo" and e.value.offset == 0
    # constants must be declared to be visible
    with pytest.raises(UnknownIdentifier):
        parse("c*t", COORDS)


def test_unbound_constant():
    e = parse("c*t", COORDS, ["c"])
    assert e.referenced_constants() == frozenset({"c"})
    with pytest.raises(UnboundConstant):
        e.eval_number((2.0, 0.0, 0.0))
    with pytest.raises(UnboundConstant):
        e.eval_jet((2.0, 0.0, 0.0), {"other": 1.0})
    assert e.eval_number((2.0, 0.0, 0.0), {"c": 3.0}) == 6.0


def test_dimension_mismatch():
    e = parse("t+u", COORDS)
    with pytest.raises(DimensionMismatch):
        e.eval_number((1.0, 2.0))
    with pytest.raises(DimensionMismatch):
        e.eval_jet((1.0, 2.0, 3.0, 4.0))


def test_duplicate_coordinates_rejected():
    with pytest.raises(ValueError):
        parse("t", ("t", "t", "v"))


def test_integer_exponent_negative_base():
    e = parse("t^3", COORDS)
    assert e.eval_number((-2.0, 0.0, 0.0)) == -8.0
    j = e.eval_jet((-2.0, 0.0, 0.0))
    assert j.value == -8.0 and j.grad[0] == 12.0
    # a non-integer exponent needs a positive base
    with pytest.raises(DomainError):
        parse("t^0.5", COORDS).eval_number((-4.0, 0.0, 0.0))
    assert np.isclose(parse("t^0.5", COORDS).eval_number((4.0, 0.0, 0.0)), 2.0)
    # negative literal exponents stay on the exact integer path
    assert parse("t^-2", COORDS).eval_number((-2.0, 0.0, 0.0)) == 0.25


def test_division_by_zero():
    with pytest.raises(DomainError):
        parse("1/t", COORDS).eval_number((0.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        parse("u/(t-t)", COORDS).eval_jet((1.0, 1.0, 1.0))


def test_constant_only_expression_jets():
    j = parse("3.5", COORDS).eval_jet((1.0, 2.0, 3.0))
    assert j.value == 3.5 and not j.grad.any() and not j.hess.any()
    j = parse("c^2", COORDS, ["c"]).eval_jet((1.0, 2.0, 3.0), {"c": 3.0})
    assert j.value == 9.0 and not j.grad.any()


def test_eval_jet_agrees_with_eval_number():
    corpus = [
        "t^2*sin(u) + exp(v/2)",
        "sqrt(t+2)*ln(u+3)",
        "tanh(t*u) - cos(v)^2",
        "a*t - b/(u+4)",
        "abs(t-5) + tan(u/3)",
    ]
    rng = np.random.default_rng(11)
    bindings = {"a": 1.25, "b": -0.5}
    for source in corpus:
        e = parse(source, COORDS, ("a", "b"))
        for _ in range(5):
            pt = rng.uniform(0.1, 1.4, size=3)
            assert np.isclose(
                e.eval_jet(pt, bindings).value, e.eval_number(pt, bindings), rtol=1e-12
            )


def test_multiply():
    a = parse("k*t", COORDS, ["k"])
    b = parse("u+1", COORDS, ["m"])
    p = multiply(a, b)
    assert p.eval_number((2.0, 3.0, 0.0), {"k": 2.0}) == 16.0
    assert p.constants == ("k", "m")
    with pytest.raises(ValueError):
        multiply(a, parse("x", ("x", "y")))


def test_unparse_readable():
    assert parse("t^2", COORDS).unparse() == "t^2.0"
    assert parse("-(t+u)*v", COORDS).unparse() == "-(t+u)*v"
    assert str(parse("sin(t*u)", COORDS)) == "sin(t*u)"


# -- property: unparse/parse round-trips the AST exactly --------------------

_nums = st.builds(Num, st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False))
_leaves = st.one_of(
    _nums,
    st.builds(Coord, st.integers(min_value=0, max_value=2)),
    st.builds(Const, st.sampled_from(["c", "k2"])),
)


def _extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), children),
        st.builds(lambda op, l, r: BinOp(op, l, r), st.sampled_from("+-*/"), children, children),
        st.builds(lambda l, k: BinOp("^", l, Num(float(k))), children, st.integers(0, 4)),
    )


_asts = st.recursive(_leaves, _extend, max_leaves=25)


@given(_asts)
@settings(max_examples=300, deadline=None)
def test_unparse_parse_round_trip(ast):
    expr = Expression(ast, COORDS, ("c", "k2"))
    text = expr.unparse()
    reparsed = parse(text, COORDS, ("c", "k2"))
    assert reparsed.ast == ast
    # printing is idempotent
    assert reparsed.unparse() == text


def test_eval_number_on_a_batch():
    e = parse("t^2*sin(u) + exp(v/2) - 1/t", COORDS)
    points = np.array([[0.5, 0.1, 0.2], [1.5, -0.3, 0.4], [2.0, 0.7, -0.1]])
    batch = e.eval_number(points)
    assert batch.shape == (3,)
    for value, pt in zip(batch, points):
        assert np.isclose(value, e.eval_number(pt), rtol=1e-15)
    assert parse("3", COORDS).eval_number(points).tolist() == [3.0, 3.0, 3.0]
    # a domain error anywhere in the batch is raised for the whole batch
    with pytest.raises(DomainError, match="-0.3 is not positive"):
        parse("ln(u)", COORDS).eval_number(points)
    with pytest.raises(DomainError):
        parse("1/(t-2)", COORDS).eval_number(points)


# -- the shared jet evaluator against the per-expression algorithm -----------


def _reference_jets(expressions, point, bindings):
    """Fresh seeds for every expression and no folding or deduplication."""
    values = np.asarray(point, dtype=float)
    d = values.shape[-1]
    jets = []
    for e in expressions:
        seeds = [Jet2.seed(i, values[..., i], d) for i in range(d)]
        result = _evaluate(e.ast, seeds, bindings)
        if not isinstance(result, Jet2):
            result = Jet2.constant(result, d, values.shape[:-1])
        jets.append(result)
    axis = values.ndim - 1
    return tuple(np.stack([getattr(j, f) for j in jets], axis) for f in ("value", "grad", "hess"))


def _fields(S):
    """The expressions of g, phi, xi and eta, matrices in row-major order."""
    return [[e for row in S.g for e in row], [e for row in S.phi for e in row], list(S.xi), list(S.eta)]


def _structure_expressions(S):
    """g, phi, xi and eta of a structure, in the order jets_at evaluates them."""
    return [e for field in _fields(S) for e in field]


_BINDINGS = {"cone": CONE_BINDINGS, "flat": {}, "cone_n2": {"c": 1.0, "ct": 1.0},
             "offdiag": OFFDIAG_BINDINGS}


@pytest.mark.parametrize("batch", [False, True], ids=["point", "batch"])
@pytest.mark.parametrize("structure", sorted(_BINDINGS))
def test_eval_jets_equals_the_per_expression_reference(request, structure, batch):
    S = request.getfixturevalue(structure)
    bindings = _BINDINGS[structure]
    points = np.array(sample_points(S.chart, 6, seed=13))
    point = points if batch else points[2]
    expressions = _structure_expressions(S)
    want = _reference_jets(expressions, point, bindings)
    got = eval_jets(expressions, point, bindings)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)
    # jets_at splits the same arrays into the four fields
    sj = S.jets_at(point, bindings)
    assert sj.g.value.shape == np.shape(point)[:-1] + (S.dim, S.dim)
    for field, expressions_of_field in zip(sj, _fields(S)):
        for got_f, want_f in zip(field, _reference_jets(expressions_of_field, point, bindings)):
            assert np.array_equal(got_f, want_f.reshape(got_f.shape))
    # one expression: eval_jet is the same evaluation
    for e in expressions[:4]:
        jet = e.eval_jet(point, bindings)
        value, grad, hess = _reference_jets([e], point, bindings)
        assert np.array_equal(jet.value, value[..., 0]) and np.array_equal(jet.grad, grad[..., 0, :])
        assert np.array_equal(jet.hess, hess[..., 0, :, :])


def _n2_with(**entries):
    """The n = 2 cone's definition with some entries replaced; `q` is declared, never bound.

    A key names the field and the index, as in g_0_1 or xi_1.
    """
    raw = copy.deepcopy(CONE_N2)
    raw["constants"] = ["c", "ct", "q"]
    for key, text in entries.items():
        field, *index = key.split("_")
        if len(index) == 2:
            i, j = int(index[0]), int(index[1])
            raw[field][i][j] = text
            if field == "g":
                raw[field][j][i] = text
        else:
            raw[field][int(index[0])] = text
    return raw


# Each case pairs errors in two fields: the first in g, phi, xi, eta order is
# reported, whether or not the offending entry is folded.
_ERROR_CASES = {
    "folded ln(0) in g": ({"g_0_0": "ln(0)"}, DomainError, "argument 0.0 is not positive"),
    "unbound in phi before folded ln(0) in eta": (
        {"phi_1_2": "q*t", "eta_0": "ln(0)"}, UnboundConstant, "constant 'q' has no bound value"),
    "domain error in g before folded unbound in phi": (
        {"g_1_1": "ln(t-10)", "phi_0_0": "q"}, DomainError, "is not positive"),
    "folded unbound in xi": ({"xi_1": "2*q"}, UnboundConstant, "constant 'q' has no bound value"),
}


@pytest.mark.parametrize("case", sorted(_ERROR_CASES))
def test_eval_jets_errors_match_the_reference(case):
    entries, error, message = _ERROR_CASES[case]
    S = load_manifold(json.dumps(_n2_with(**entries)))
    points = np.array(sample_points(S.chart, 4, seed=3))
    for point in (points[1], points):
        with pytest.raises(error) as want:
            _reference_jets(_structure_expressions(S), point, {"c": 1.0, "ct": 1.0})
        with pytest.raises(error) as got:
            S.jets_at(point, {"c": 1.0, "ct": 1.0})
        assert message in str(want.value)
        assert str(got.value) == str(want.value)


def test_folded_entry_errors_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for entries, message in (
        ({"g_0_0": "ln(0)"}, "DomainError: argument 0.0 is not positive"),
        ({"xi_1": "q"}, "UnboundConstant: constant 'q' has no bound value"),
    ):
        path.write_text(json.dumps(_n2_with(**entries)))
        assert main(["curvature", str(path), "--samples", "4"]) == 2
        assert capsys.readouterr().err == f"accr: {message}\n"
