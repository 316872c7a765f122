"""Every record type is immutable: its fields can be neither assigned nor deleted."""

import copy
import pickle

import numpy as np
import pytest

from accr import analysis, expr, manifold, report
from accr.geometry import SampleGeometry
from accr.jets import Jet2


def _soliton(cone, points):
    k = expr.parse("ct*t", cone.chart.coordinates, cone.chart.constants)
    return analysis.yamabe_soliton_solve(SampleGeometry(cone, points, {"ct": 1.0}), "gtilde", k)


# One instance of each record type, made by the code that makes it in a run.
RECORDS = {
    "Jet2": lambda cone, points: Jet2.seed(0, 2.0, 3),
    "Num": lambda cone, points: expr.Num(1.0),
    "Coord": lambda cone, points: expr.Coord(0),
    "Const": lambda cone, points: expr.Const("c"),
    "Neg": lambda cone, points: expr.Neg(expr.Coord(0)),
    "BinOp": lambda cone, points: expr.BinOp("+", expr.Num(1.0), expr.Coord(0)),
    "Call": lambda cone, points: expr.Call("sin", expr.Coord(0)),
    "_Token": lambda cone, points: expr._tokenize("t")[0],
    "Expression": lambda cone, points: cone.g[1][1],
    "Chart": lambda cone, points: cone.chart,
    "AccRStructure": lambda cone, points: cone,
    "StructureJets": lambda cone, points: SampleGeometry(cone, points).jets,
    "FieldJets": lambda cone, points: SampleGeometry(cone, points).jets.g,
    "CheckRecord": lambda cone, points: analysis.classify(SampleGeometry(cone, points))["f5"][0],
    "Report": lambda cone, points: report.Report("builtin:x", {}, (), 1.0),
    "SolitonSolveResult": _soliton,
}


@pytest.fixture(params=sorted(RECORDS))
def record(request, cone, cone_points):
    made = RECORDS[request.param](cone, cone_points)
    assert type(made).__name__ == request.param
    return made


def _fields(record):
    return getattr(record, "_fields", None) or record.__slots__


def test_every_record_type_is_listed():
    modules = (analysis, expr, manifold, report)
    records = {name for m in modules for name, obj in vars(m).items()
               if isinstance(obj, type) and obj.__module__ == m.__name__
               and (hasattr(obj, "__slots__") or hasattr(obj, "_fields")) and not issubclass(obj, Exception)}
    assert records | {"Jet2"} == set(RECORDS)


def test_a_field_cannot_be_assigned_or_deleted(record):
    for name in _fields(record):
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before


def test_a_record_takes_no_new_attribute(record):
    with pytest.raises(AttributeError):
        record.extra = 1


# The records whose fields Record.__init__ sets, from one positional argument per slot.
BARE = {cls.__name__: cls for cls in (expr.Num, expr.Coord, expr.Const, expr.Neg, expr.BinOp, expr.Call,
                                      expr.Expression, manifold.Chart)}


@pytest.mark.parametrize("name", sorted(BARE))
def test_a_record_sets_its_fields_in_slot_order(name):
    made = BARE[name](*range(len(BARE[name].__slots__)))
    assert [getattr(made, field) for field in made.__slots__] == list(range(len(made.__slots__)))


@pytest.mark.parametrize("extra", [-1, 1], ids=["one too few", "one too many"])
@pytest.mark.parametrize("name", sorted(BARE))
def test_a_record_built_with_a_wrong_field_count_is_a_type_error(name, extra):
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        BARE[name](*range(len(BARE[name].__slots__) + extra))


def test_ast_nodes_copy_pickle_and_repr_by_their_fields():
    node = expr.BinOp("*", expr.Neg(expr.Coord(0)), expr.Call("sin", expr.Const("c")))
    assert copy.deepcopy(node) == node and pickle.loads(pickle.dumps(node)) == node
    assert repr(node) == "BinOp(op='*', left=Neg(operand=Coord(index=0)), right=Call(func='sin', arg=Const(name='c')))"


def test_a_structure_repr_leaves_out_its_source(cone):
    assert "source" not in repr(cone) and repr(cone).startswith("AccRStructure(chart=Chart(n=1, ")


def test_a_jet_copies_by_value_and_compares_by_identity():
    jet = Jet2.seed(1, np.array([1.0, 2.0]), 3)
    twin = copy.copy(jet)
    assert twin is not jet and twin != jet  # jets compare by identity
    assert all(np.array_equal(getattr(twin, f), getattr(jet, f)) for f in ("value", "grad", "hess"))
