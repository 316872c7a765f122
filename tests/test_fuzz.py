"""Fuzz the input contract: expressions drawn from the grammar, with edge literals, through every command.

Each case runs `accr` in-process with every warning an error.  The oracle:
the exit code is 0, 1 or 2; an exit 2 prints one `accr:` line or argparse's
usage; a report is JSON, and none of its records passes with an inf or NaN
residual.
"""

import contextlib
import copy
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from accr.cli import main
from accr.jets import FUNCTIONS

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


def _options():
    """--samples, --seed and, or not, a binding of the constant c."""
    return st.tuples(
        st.sampled_from((["--samples", "1"], ["--samples", "3"], ["--samples", "4", "--seed", "7"])),
        st.sampled_from(([], ["--const", "c=0.3"])),
    ).map(lambda parts: parts[0] + parts[1])


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
        return
    assert rc in (0, 1), (argv, rc)
    for record in json.loads(out)["checks"]:
        residual = record["residual"]
        if residual is not None and not math.isfinite(residual):
            assert record["verdict"] != "pass", (argv, record)


@pytest.fixture(scope="module")
def structure_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@_RUNS
@given(
    potential=EXPRESSIONS,
    metric=st.sampled_from(([], ["--metric", "gtilde"])),
    expect=st.sampled_from(([], ["--expect-soliton"])),
    options=_options(),
)
def test_a_drawn_potential_keeps_the_contract(potential, metric, expect, options):
    # the = keeps a potential that starts with "-" from reading as an option
    _check_contract(["soliton", "--builtin", "cone-flat-fiber", f"--potential-k={potential}",
                     *metric, *expect, *options])


_CONE = json.loads(cone_json())


@_RUNS
@given(
    entry=EXPRESSIONS,
    field=st.sampled_from(("g", "phi", "xi", "eta")),
    place=st.sampled_from(((0, 0), (1, 1), (2, 2), (0, 1), (1, 2))),
    symmetric=st.booleans(),
    command=st.sampled_from((["validate"], ["classify"], ["curvature"], ["curvature", "--metric", "gtilde"],
                             ["report"], ["report", "--potential-k", "t"])),
    options=_options(),
)
def test_a_drawn_structure_entry_keeps_the_contract(structure_dir, entry, field, place, symmetric, command,
                                                    options):
    raw = copy.deepcopy(_CONE)
    i, j = place
    if field in ("xi", "eta"):
        raw[field][i] = entry
    else:
        raw[field][i][j] = entry
        if symmetric:
            raw[field][j][i] = entry
    path = structure_dir / "drawn.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    _check_contract([*command, str(path), *options])
