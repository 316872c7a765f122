"""Fuzz the input contract: expressions drawn from the grammar, with edge literals, through every command.

The expressions go in as a potential, as an entry of a structure's g, phi,
xi or eta (five structures), and as an entry of the cone's expect block; the
pinned points and the constants' values are drawn too.  Each case runs
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
    command=st.sampled_from((["validate"], ["classify"], ["curvature"], ["curvature", "--metric", "gtilde"],
                             ["report"], ["report", "--potential-k", "t"])),
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
