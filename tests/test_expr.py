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
    ExprError,
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
    Evaluation,
    Expression,
    Neg,
    Num,
    eval_field_jets,
    eval_numbers,
    parse,
)
from accr.jets import FUNCTIONS, Jet2
from accr.manifold import load_manifold, sample_points

from conftest import CONE_BINDINGS, CONE_N2, OFFDIAG_BINDINGS, constant_jet

COORDS = ("t", "u", "v")


def _eval_number(e, points, bindings=None):
    """The values of one expression, evaluated on its own, at a batch of points (N, d)."""
    return eval_numbers([[e]], Evaluation(points, len(e.coords), bindings))[0][..., 0]


def _eval_jet(e, points, bindings=None):
    """The jet of one expression, evaluated on its own: its number where it reads no coordinate."""
    return e.eval_jet(Evaluation(points, len(e.coords), bindings))


def test_ast_shapes():
    assert parse("t^2", COORDS).ast == BinOp("^", Coord(0), Num(2.0))
    assert parse("-t^2", COORDS).ast == Neg(BinOp("^", Coord(0), Num(2.0)))
    assert parse("sin(u)", COORDS).ast == Call("sin", Coord(1))
    assert parse("c", COORDS, ["c"]).ast == Const("c")
    # right associativity of the caret
    assert parse("2^3^2", COORDS).ast == BinOp("^", Num(2.0), BinOp("^", Num(3.0), Num(2.0)))
    # the outer exponent is not a literal, so this takes the exp/ln route
    assert np.isclose(_eval_number(parse("2^3^2", COORDS), [(1.0, 0.0, 0.0)]), 512.0)


def test_nodes_of_different_classes_differ_even_with_equal_fields(cone_points):
    assert Num(1.0) != Coord(1) and len({Num(1.0), Coord(1)}) == 2
    assert Num(1.0) == Num(1) and hash(Num(1.0)) == hash(Num(1))
    one, u = parse("1", COORDS), parse("u", COORDS)
    value, grad, _ = eval_field_jets([[one, u]], Evaluation(cone_points, 3))[0]
    assert np.all(value[:, 0] == 1.0) and np.array_equal(value[:, 1], cone_points[:, 1])
    assert not grad[:, 0].any() and np.all(grad[:, 1, 1] == 1.0)


def test_precedence():
    p = [(0.0, 0.0, 0.0)]
    assert _eval_number(parse("1+2*3", COORDS), p) == 7.0
    assert _eval_number(parse("(1+2)*3", COORDS), p) == 9.0
    assert _eval_number(parse("2-3-4", COORDS), p) == -5.0
    assert _eval_number(parse("12/3/2", COORDS), p) == 2.0
    assert _eval_number(parse("-2^2", COORDS), p) == -4.0
    assert _eval_number(parse("2^-2", COORDS), p) == 0.25


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


@pytest.mark.parametrize("shape", [
    lambda k: "+".join(["t"] * k),               # k levels of tree from a loop of the parser
    lambda k: "(" * (k - 1) + "t" + ")" * (k - 1),  # k levels of parser recursion, one of tree
    lambda k: "-" * (k - 1) + "t",
    lambda k: "^".join(["t"] * k),
    lambda k: "sin(" * (k - 1) + "t" + ")" * (k - 1),
], ids=["sum", "parentheses", "signs", "exponents", "calls"])
def test_nesting_is_bounded_at_100_levels(shape):
    e = parse(shape(100), COORDS)
    # every stage that walks the tree runs at the bound
    assert e == parse(shape(100), COORDS) and hash(e) == hash(parse(shape(100), COORDS))
    assert e.unparse() and e.referenced_constants() == frozenset()
    with np.errstate(over="ignore"):
        _eval_jet(e, [(1.0, 0.0, 0.0)])
    with pytest.raises(ExprError, match="^expression nests deeper than 100 levels$"):
        parse(shape(101), COORDS)


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
        _eval_number(e, [(2.0, 0.0, 0.0)])
    with pytest.raises(UnboundConstant):
        _eval_jet(e, [(2.0, 0.0, 0.0)], {"other": 1.0})
    assert _eval_number(e, [(2.0, 0.0, 0.0)], {"c": 3.0}) == 6.0


def test_dimension_mismatch():
    e = parse("t+u", COORDS)
    with pytest.raises(DimensionMismatch):
        _eval_number(e, [(1.0, 2.0)])
    with pytest.raises(DimensionMismatch):
        _eval_jet(e, [(1.0, 2.0, 3.0, 4.0)])


def test_duplicate_coordinates_rejected():
    with pytest.raises(ValueError):
        parse("t", ("t", "t", "v"))


def test_integer_exponent_negative_base():
    e = parse("t^3", COORDS)
    assert _eval_number(e, [(-2.0, 0.0, 0.0)]) == -8.0
    j = _eval_jet(e, [(-2.0, 0.0, 0.0)])
    assert j.value == -8.0 and j.grad[0, 0] == 12.0
    # a non-integer exponent needs a positive base
    with pytest.raises(DomainError):
        _eval_number(parse("t^0.5", COORDS), [(-4.0, 0.0, 0.0)])
    assert np.isclose(_eval_number(parse("t^0.5", COORDS), [(4.0, 0.0, 0.0)]), 2.0)
    # negative literal exponents stay on the exact integer path
    assert _eval_number(parse("t^-2", COORDS), [(-2.0, 0.0, 0.0)]) == 0.25


def test_a_zeroth_power_is_the_number_one():
    # x^0 is the constant 1, for a jet as for a number
    for text in ("t^0", "(t*u+1)^0", "sin(t)^-0"):
        result = _eval_jet(parse(text, COORDS), [(2.0, 0.5, 0.0), (-3.0, 1.0, 2.0)])
        assert type(result) is float and result == 1.0


def test_a_zeroth_power_entry_is_the_entry_one():
    evaluation = Evaluation([(2.0, 0.5, 0.0), (-3.0, 1.0, 2.0)], 3)
    zeroth, one = eval_field_jets([[parse("t^0", COORDS)], [parse("1", COORDS)]], evaluation)
    assert zeroth.value.tobytes() == one.value.tobytes()
    for got, want in ((zeroth.partial, one.partial), (zeroth.second, one.second)):
        assert got.shape == want.shape and not got.any()


def test_division_by_zero():
    with pytest.raises(DomainError):
        _eval_number(parse("1/t", COORDS), [(0.0, 1.0, 1.0)])
    with pytest.raises(DomainError):
        _eval_jet(parse("u/(t-t)", COORDS), [(1.0, 1.0, 1.0)])


def test_overflow_is_a_domain_error_naming_the_first_sample():
    points = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0], [4.0, 0.5, 0.0]])
    e = parse("exp(300*t)", COORDS)  # finite at t = 1 only
    for evaluate in (lambda p: _eval_number(e, p), lambda p: _eval_jet(e, p),
                     lambda p: eval_field_jets([[e]], Evaluation(p, 3))):
        with pytest.raises(DomainError, match=r"^exp\(300\.0\*t\) is not finite at sample 1 \(t=3\.0, u=0\.0, v=0\.0\)$"):
            evaluate(points)
    # the point of a batch of one is sample 0
    with pytest.raises(DomainError, match=r"^exp\(300\.0\*t\) is not finite at sample 0 \(t=3\.0, u=0\.0, v=0\.0\)$"):
        _eval_number(e, points[1:2])
    # inf - inf is NaN in the value; t^1000 leaves NaN (inf * 0) in a symmetric Hessian
    with pytest.raises(DomainError, match="at sample 1 "):
        _eval_number(parse("exp(300*t) - exp(300*t)", COORDS), points)
    with pytest.raises(DomainError, match="at sample 0 "):
        _eval_jet(parse("t^1000", COORDS), points[1:])
    # finite values whose sum overflows are no error
    big = parse("t*1e308", COORDS)
    near = np.array([[1.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
    assert _eval_number(big, near).tolist() == [1e308, 1.5e308]
    assert _eval_jet(big, near).grad[:, 0].tolist() == [1e308, 1e308]
    # a coordinate-free expression fails at every sample, the first included
    for text in ("exp(1000)", "sin(10^400)"):
        with pytest.raises(DomainError, match="at sample 0 "):
            eval_field_jets([[parse(text, COORDS)]], Evaluation(points, 3))


def test_a_jet_that_overflows_marks_every_sample_at_fault(cone_points):
    # exp(1000 t) overflows at t > 0.7098, its gradient at t > 0.7029 and its Hessian at t > 0.6960
    points = np.concatenate([cone_points, [[0.69, 0.0, 0.0], [0.7, 0.0, 0.0], [0.705, 0.0, 0.0]]])
    with pytest.raises(DomainError) as raised:
        _eval_jet(parse("exp(t*1000)", COORDS), points)
    with np.errstate(over="ignore"):
        value = np.exp(1000.0 * points[:, 0])
        finite = np.isfinite(value) & np.isfinite(1e3 * value) & np.isfinite(1e6 * value)
    assert str(raised.value) == "exp(t*1000.0) is not finite at sample 0 (t=2.0, u=0.3, v=-0.4)"
    assert raised.value.bad.tolist() == (~finite).tolist()
    # at t = 0.7 only the Hessian overflows, at t = 0.705 the gradient too, and t = 0.61 is a cone point
    assert finite.tolist()[-3:] == [True, False, False] and finite.sum() == 2


def test_constant_only_expression_jets():
    j = eval_field_jets([[parse("3.5", COORDS)]], Evaluation([(1.0, 2.0, 3.0)], 3))[0]
    assert j.value == 3.5 and not j.partial.any() and not j.second.any()
    j = eval_field_jets([[parse("c^2", COORDS, ["c"])]], Evaluation([(1.0, 2.0, 3.0)], 3, {"c": 3.0}))[0]
    assert j.value == 9.0 and not j.partial.any()


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
            pt = rng.uniform(0.1, 1.4, size=(1, 3))
            assert np.isclose(
                _eval_jet(e, pt, bindings).value, _eval_number(e, pt, bindings), rtol=1e-12
            )


def test_unparse_readable():
    assert parse("t^2", COORDS).unparse() == "t^2.0"
    assert parse("-(t+u)*v", COORDS).unparse() == "-(t+u)*v"
    assert parse("sin(t*u)", COORDS).unparse() == "sin(t*u)"


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
    batch = _eval_number(e, points)
    assert batch.shape == (3,)
    for value, pt in zip(batch, points):
        assert np.isclose(value, _eval_number(e, [pt]), rtol=1e-15)
    assert _eval_number(parse("3", COORDS), points).tolist() == [3.0, 3.0, 3.0]
    # a domain error anywhere in the batch is raised for the whole batch
    with pytest.raises(DomainError, match="-0.3 is not positive"):
        _eval_number(parse("ln(u)", COORDS), points)
    with pytest.raises(DomainError):
        _eval_number(parse("1/(t-2)", COORDS), points)


@pytest.mark.parametrize("func, x", [("exp", 0.523), ("tanh", 0.501), ("ln", 0.662), ("tan", 0.713)])
def test_a_folded_call_and_a_call_on_a_coordinate_agree_bit_for_bit(func, x):
    # a call that reads no coordinate runs through the same numpy kernel as one on a batch
    folded, on_t = parse(f"{func}({x!r})", COORDS), parse(f"{func}(t)", COORDS)
    evaluation = Evaluation([[x, 0.0, 0.0], [x, 1.0, -2.0]], 3)
    (values,) = eval_numbers([[folded, on_t]], evaluation)
    (jets,) = eval_field_jets([[folded, on_t]], evaluation)
    assert values[:, 0].tolist() == values[:, 1].tolist() == jets.value[:, 0].tolist() == jets.value[:, 1].tolist()
    assert _eval_number(folded, [(x, 0.0, 0.0)]) == _eval_number(on_t, [(x, 0.0, 0.0)])


# -- the shared jet evaluator against the per-expression algorithm -----------


def _as_jet(result, point):
    """A jet, or the number of a coordinate-free expression as a constant jet at the batch."""
    if isinstance(result, Jet2):
        return result
    return constant_jet(result, np.shape(point)[-1], np.shape(point)[:-1])


def _reference_jets(expressions, point, bindings):
    """Fresh seeds for every expression and no folding or deduplication.

    Each expression goes through an Evaluation of its own, so an error names
    it and the first offending sample as the evaluation under test does.
    """
    values = np.asarray(point, dtype=float)
    jets = [_as_jet(_eval_jet(e, values, bindings), values) for e in expressions]  # nothing kept between them
    axis = values.ndim - 1
    return tuple(np.stack([getattr(j, f) for j in jets], axis) for f in ("value", "grad", "hess"))


def _fields(S):
    """The expressions of g, phi, xi and eta, matrices in row-major order."""
    return [[e for row in S.g for e in row], [e for row in S.phi for e in row], list(S.xi), list(S.eta)]


def _structure_expressions(S):
    """g, phi, xi and eta of a structure, in the order SampleGeometry.jets evaluates them."""
    return [e for field in _fields(S) for e in field]


_BINDINGS = {"cone": CONE_BINDINGS, "flat": {}, "cone_n2": {"c": 1.0, "ct": 1.0},
             "offdiag": OFFDIAG_BINDINGS}


@pytest.mark.parametrize("batch", [False, True], ids=["point", "batch"])
@pytest.mark.parametrize("structure", sorted(_BINDINGS))
def test_eval_jets_equals_the_per_expression_reference(request, structure, batch):
    S = request.getfixturevalue(structure)
    bindings = _BINDINGS[structure]
    points = np.array(sample_points(S.chart, 6, seed=13))
    point = points if batch else points[2:3]
    expressions = _structure_expressions(S)
    want = _reference_jets(expressions, point, bindings)
    got = eval_field_jets([expressions], Evaluation(point, S.dim, bindings))[0]
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)
    # as four fields, the same arrays in each field's shape
    sj = eval_field_jets([S.g, S.phi, S.xi, S.eta], Evaluation(point, S.dim, bindings))
    assert sj[0].value.shape == np.shape(point)[:-1] + (S.dim, S.dim)
    for field, expressions_of_field in zip(sj, _fields(S)):
        for got_f, want_f in zip(field, _reference_jets(expressions_of_field, point, bindings)):
            assert np.array_equal(got_f, want_f.reshape(got_f.shape))
    # values alone: each expression evaluated on its own, and the same values as four fields
    want_values = np.stack([_eval_number(e, point, bindings) for e in expressions], -1)
    (got_values,) = eval_numbers([expressions], Evaluation(point, S.dim, bindings))
    assert got_values.shape == want_values.shape and np.array_equal(got_values, want_values)
    for field, want_f in zip(eval_numbers([S.g, S.phi, S.xi, S.eta], Evaluation(point, S.dim, bindings)), _fields(S)):
        want_f = np.stack([_eval_number(e, point, bindings) for e in want_f], -1)
        assert np.array_equal(field, want_f.reshape(field.shape))
    # one expression: eval_jet is the same evaluation
    for e in expressions[:4]:
        jet = _as_jet(_eval_jet(e, point, bindings), point)
        value, grad, hess = _reference_jets([e], point, bindings)
        assert np.array_equal(jet.value, value[..., 0]) and np.array_equal(jet.grad, grad[..., 0, :])
        assert np.array_equal(jet.hess, hess[..., 0, :, :])


def test_eval_numbers_of_no_fields_is_an_empty_list():
    assert eval_numbers([], Evaluation([(1.0, 0.0, 0.0)], 3)) == []
    assert eval_numbers([], Evaluation(np.ones((4, 3)), 3, {"c": 1.0})) == []


def test_eval_field_jets_of_no_fields_is_an_empty_list():
    assert eval_field_jets([], Evaluation([(1.0, 0.0, 0.0)], 3)) == []
    assert eval_field_jets([], Evaluation(np.ones((4, 3)), 3, {"c": 1.0})) == []


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
    for point in (points[1:2], points):
        with pytest.raises(error) as want:
            _reference_jets(_structure_expressions(S), point, {"c": 1.0, "ct": 1.0})
        with pytest.raises(error) as got:
            eval_field_jets([S.g, S.phi, S.xi, S.eta], Evaluation(point, S.dim, {"c": 1.0, "ct": 1.0}))
        assert message in str(want.value)
        assert str(got.value) == str(want.value)
        # the values alone fail on the same expression, with the same message
        with pytest.raises(error) as got:
            eval_numbers([S.g, S.phi, S.xi, S.eta], Evaluation(point, S.dim, {"c": 1.0, "ct": 1.0}))
        assert str(got.value) == str(want.value)


def test_folded_entry_errors_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for entries, message in (
        # folded, so every sample is at fault: the first is named
        ({"g_0_0": "ln(0)"}, "DomainError: ln(0.0): argument 0.0 is not positive at sample 0 (t="),
        ({"xi_1": "q"}, "UnboundConstant: constant 'q' has no bound value\n"),
    ):
        path.write_text(json.dumps(_n2_with(**entries)))
        assert main(["curvature", str(path), "--samples", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"accr: {message}") and err.count("\n") == 1
