"""Fuzz the input contract: expressions drawn from the grammar, with edge literals, through every command.

The expressions go in as a potential, as an entry of a structure's g, phi,
xi or eta (five structures), and as an entry of the cone's expect block; the
pinned points and the constants' values are drawn too.  A structure file with
one flaw drawn (a coordinate's domain, an entry's JSON type, an expect key or
rank) goes to every command that reads one, under a drawn --tolerance.  Each case runs
`accr` in-process with every warning an error.  The oracle: the exit code is
0, 1 or 2; an error prints one `accr:` line or argparse's usage, and a line
that names a sample names it `sample K (c=v, ...)`, every coordinate with its
value; a report is JSON, and none of its records passes with an inf or NaN
residual.
"""

import contextlib
import copy
import io
import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from accr.cli import main
from accr.jets import FUNCTIONS
from accr.manifold import builtin_structure

from conftest import CONE_N2, ROTATING_NORDEN, swap
from test_manifold import cone_json

# Literals at the edges of float arithmetic: the largest float, a power that overflows, a
# subnormal, a zero base under a negative exponent, tan next to its pole, and an ordinary number.
_EDGES = ("1e308", "2^1024", "1e-320", "0^-1", "tan(1.5707963267948966)", "0.523")
_LEAVES = st.sampled_from(("t", "u", "v", "c", "0", "1", "2", "0.5") + _EDGES)


def _extend(inner):
    return st.one_of(
        st.builds("-{}".format, inner),
        st.builds("{}{}{}".format, inner, st.sampled_from("+-*/^"), inner),
        st.builds("({}{}{})".format, inner, st.sampled_from("+-*/^"), inner),
        st.builds("{}({})".format, st.sampled_from(sorted(FUNCTIONS)), inner),
    )


EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=6)
_RUNS = settings(max_examples=400, deadline=5000)


# A coordinate of a pinned point: an edge of its interval, an edge of float arithmetic, or no
# number; and the value of a bound constant, mostly an ordinary one.
_POINT_VALUES = st.sampled_from(("lo", "hi", "0", "-0", "1e-320", "1e308", "-1e308", "inf", "nan", "x"))
_CONST_VALUES = st.sampled_from(("0.3", "0.3", "2", "0", "-1", "1e-320", "1e308", "-1e308", "inf", "nan",
                                 "x"))


def _drawn_options():
    """--samples and --seed; zero to two --point pins, each the middle of the box or that point with one
    coordinate drawn; zero to two --const bindings of c, ct or the undeclared k."""
    return st.tuples(
        st.sampled_from((["--samples", "1"], ["--samples", "3"], ["--samples", "4", "--seed", "7"])),
        st.lists(st.one_of(st.none(), st.tuples(st.integers(0, 4), _POINT_VALUES)), max_size=2),
        st.lists(st.tuples(st.sampled_from(("c", "ct", "k")), _CONST_VALUES), max_size=2,
                 unique_by=lambda binding: binding[0]),
    )


def _in_chart(entry, raw):
    """A drawn expression over t, u and v, read over the first three coordinates of `raw`'s chart."""
    names = dict(zip("tuv", raw["coordinates"]))
    return re.sub(r"\b[tuv]\b", lambda m: names[m.group()], entry)


def _argv_options(raw, drawn):
    """The options that `_drawn_options` drew, over the chart of the structure dict `raw`."""
    samples, pins, consts = drawn
    argv = list(samples)
    coordinates = raw["coordinates"]
    for pin in pins:
        values = [repr(sum(raw["domain"][name]) / 2) for name in coordinates]
        if pin is not None:
            axis, value = pin[0] % len(coordinates), pin[1]
            lo, hi = raw["domain"][coordinates[axis]]
            values[axis] = repr({"lo": lo, "hi": hi}.get(value, value))
        argv += ["--point", ",".join(f"{name}={value}" for name, value in zip(coordinates, values))]
    for name, value in consts:
        argv += ["--const", f"{name}={value}"]
    return argv


# "sample K" not followed by each coordinate's name and value, as in "sample 1 (t=2.0, u=0.0, v=0.0)"
_UNNAMED_SAMPLE = re.compile(r"\bsample \d+\b(?! \((\w+=[^,()]+, )*\w+=[^,()]+\))")


def _check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            rc = main([*argv, "--format", "json"])
        except SystemExit as exc:  # argparse's usage error
            rc = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 1, 2), (argv, rc, err)
    if err.startswith("usage:"):
        assert rc == 2 and out == "" and "error:" in err.splitlines()[-1], (argv, err)
        return
    if err:
        assert rc in (1, 2) and out == "", (argv, rc, out, err)
        assert err.startswith("accr: ") and err.count("\n") == 1, (argv, err)
        assert not _UNNAMED_SAMPLE.search(err), (argv, err)
        return
    assert rc in (0, 1), (argv, rc)
    for record in json.loads(out)["checks"]:
        residual = record["residual"]
        if residual is not None and not math.isfinite(residual):
            assert record["verdict"] != "pass", (argv, record)


@pytest.fixture(scope="module")
def structure_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


_PAPER_CONE = json.loads(builtin_structure("cone-flat-fiber").source)


@_RUNS
@given(
    potential=EXPRESSIONS,
    metric=st.sampled_from(([], ["--metric", "gtilde"])),
    expect=st.sampled_from(([], ["--expect-soliton"])),
    options=_drawn_options(),
)
def test_a_drawn_potential_keeps_the_contract(potential, metric, expect, options):
    # the = keeps a potential that starts with "-" from reading as an option
    _check_contract(["soliton", "--builtin", "cone-flat-fiber", f"--potential-k={potential}",
                     *metric, *expect, *_argv_options(_PAPER_CONE, options)])


# The commands that run a drawn structure: each metric of curvature and of report, with and without a potential.
_COMMANDS = (["validate"], ["classify"], ["curvature"], ["curvature", "--metric", "gtilde"], ["report"],
             ["report", "--potential-k", "t"], ["report", "--metric", "gtilde"],
             ["report", "--metric", "gtilde", "--potential-k", "t"])

_CONE = json.loads(cone_json())
# The structures whose entries are drawn: the cone, flat-cosymplectic, the n = 2 cone, the
# Sasaki-like rotating-Norden example and the cone with g and g~ swapped.
_STRUCTURES = {
    "cone": _CONE,
    "flat-cosymplectic": json.loads(builtin_structure("flat-cosymplectic").source),
    "cone_n2": CONE_N2,
    "rotating-norden": ROTATING_NORDEN,
    "swapped cone": swap(_CONE),
}


@_RUNS
@given(
    structure=st.sampled_from(sorted(_STRUCTURES)),
    entry=EXPRESSIONS,
    field=st.sampled_from(("g", "phi", "xi", "eta")),
    place=st.sampled_from(((0, 0), (1, 1), (2, 2), (0, 1), (1, 2))),
    symmetric=st.booleans(),
    command=st.sampled_from(_COMMANDS),
    options=_drawn_options(),
)
def test_a_drawn_structure_entry_keeps_the_contract(structure_dir, structure, entry, field, place, symmetric,
                                                    command, options):
    raw = copy.deepcopy(_STRUCTURES[structure])
    entry = _in_chart(entry, raw)
    i, j = place
    if field in ("xi", "eta"):
        raw[field][i] = entry
    else:
        raw[field][i][j] = entry
        if symmetric:
            raw[field][j][i] = entry
    path = structure_dir / "drawn.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    _check_contract([*command, str(path), *_argv_options(raw, options)])


def _places(value, path=()):
    """The path of every expression string in an expect block, a nested dict or list of them."""
    if isinstance(value, str):
        return [path]
    items = value.items() if isinstance(value, dict) else enumerate(value)
    return [place for key, inner in items for place in _places(inner, path + (key,))]


_EXPECT_PLACES = _places(_PAPER_CONE["expect"])


@settings(max_examples=150, deadline=5000)
@given(
    entry=EXPRESSIONS,
    place=st.sampled_from(_EXPECT_PLACES),
    options=_drawn_options(),
)
def test_a_drawn_expectation_keeps_the_contract(structure_dir, entry, place, options):
    raw = copy.deepcopy(_PAPER_CONE)
    inner = raw["expect"]
    for key in place[:-1]:
        inner = inner[key]
    inner[place[-1]] = entry
    path = structure_dir / "expected.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    _check_contract(["verify-paper", str(path), *_argv_options(raw, options)])


# One coordinate's domain: tiny, huge, wider than the float range, negative, straddling 0, reversed,
# with equal ends, with an end that is no number (a string or NaN), or an int past the float range.
_DOMAINS = ([1e-300, 2e-300], [1e300, 1e308], [-1e308, 1e308], [-5.0, -0.5], [-1.0, 1.0], [5.0, 0.5],
            [1.0, 1.0], ["0", 1.0], [math.nan, 1.0], [0, 10 ** 400])
# A value of the wrong JSON type for an entry (a number, null or a list) or for a row (a string).
_WRONG_TYPES = (1, 2.5, None, ["1"], "1")
# An expect key that is unknown, or a quantity given at the wrong rank.
_WRONG_EXPECT = (
    ("tau", ["0", "0", "0"]),
    ("christoffel", [["0", "0", "0"]] * 3),
    ("gtilde", "1"),
    ("grad_theta_star_xi", ["0", "0"]),
    ("tauu", "0"),
    ("potentials", "c*t"),
    ("potentials", {"h": {"k": "t"}}),
    ("potentials", {"g": {"kk": "c*t"}}),
)
_FILE_STRUCTURES = dict(_STRUCTURES, **{"paper cone": _PAPER_CONE})


@settings(max_examples=300, deadline=5000)
@given(
    structure=st.sampled_from(sorted(_FILE_STRUCTURES)),
    flaw=st.one_of(
        st.tuples(st.just("domain"), st.integers(0, 4), st.sampled_from(_DOMAINS)),
        st.tuples(st.just("entry"), st.sampled_from(("g", "phi", "xi", "eta")),
                  st.sampled_from(((1,), (0, 2), (1, 1))), st.sampled_from(_WRONG_TYPES)),
        st.tuples(st.just("expect"), st.sampled_from(_WRONG_EXPECT)),
    ),
    command=st.sampled_from((*_COMMANDS, ["verify-paper"], ["soliton", "--potential-k", "t"])),
    tolerance=st.sampled_from(((), ["--tolerance", "1e-320"], ["--tolerance", "1e308"], ["--tolerance", "0"],
                               ["--tolerance=-1"], ["--tolerance", "nan"], ["--tolerance", "inf"],
                               ["--tolerance", "x"])),
    options=_drawn_options(),
)
def test_a_drawn_flaw_in_a_structure_file_keeps_the_contract(structure_dir, structure, flaw, command, tolerance,
                                                             options):
    raw = copy.deepcopy(_FILE_STRUCTURES[structure])
    argv = _argv_options(raw, options)  # the pins of the structure as it was
    if flaw[0] == "domain":
        _, axis, interval = flaw
        raw["domain"][raw["coordinates"][axis % len(raw["coordinates"])]] = interval
    elif flaw[0] == "entry":
        _, field, place, value = flaw
        target = raw[field]
        place = place[:1] if field in ("xi", "eta") else place
        for i in place[:-1]:
            target = target[i]
        target[place[-1]] = value
    else:
        key, value = flaw[1]
        raw["expect"] = dict(raw.get("expect", {}), **{key: value})
    path = structure_dir / "flawed.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    _check_contract([*command, str(path), *argv, *tolerance])
