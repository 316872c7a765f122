"""Check records and report serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from accr.report import (
    VERDICT_FAIL,
    VERDICT_NA,
    VERDICT_PASS,
    CheckRecord,
    Report,
    _dumps,
    record_from_residual,
)


def test_check_record_validation():
    with pytest.raises(ValueError):
        CheckRecord(name="x", anchor="y", verdict="maybe")
    r = CheckRecord(name="x", anchor="y", verdict=VERDICT_NA)
    assert r.residual is None and r.samples is None
    assert r.to_dict()["samples"] is None


def test_record_from_residual_aggregates_by_max():
    r = record_from_residual("worst", "max over samples", [1e-12, 3e-10, 2e-11], 1e-9)
    assert r.verdict == VERDICT_PASS
    assert r.residual == 3e-10
    assert r.samples == (1e-12, 3e-10, 2e-11)
    assert record_from_residual("w", "a", [2e-9], 1e-9).verdict == VERDICT_FAIL
    assert record_from_residual("empty", "a", [], 1e-9).residual == 0.0


def test_record_from_residual_fails_on_a_nan_in_any_sample():
    for values in ([0.0, float("nan")], [float("nan"), 0.0], [1e-12, float("nan"), 3e-10]):
        r = record_from_residual("worst", "max over samples", values, 1e-9)
        assert r.verdict == VERDICT_FAIL and math.isnan(r.residual), values
        assert '"residual": NaN' in _dumps(r.to_dict())


def _report():
    checks = (
        record_from_residual("alpha", "a = b", [1e-13], 1e-9),
        record_from_residual("beta", "c = d", [2.0], 1e-9),
        CheckRecord(name="value", anchor="tau", verdict=VERDICT_NA, samples=(1.0, 2.0)),
    )
    return Report(manifold="builtin:x", config={"samples": 2}, checks=checks, wall_ms=12.5)


def test_report_json_round_trip():
    rep = _report()
    data = json.loads(rep.to_json())
    assert data["manifold"] == "builtin:x"
    assert data["config"] == {"samples": 2}
    assert [c["name"] for c in data["checks"]] == ["alpha", "beta", "value"]
    assert data["checks"][2]["samples"] == [1.0, 2.0]
    assert data["wall_ms"] == 12.5
    # keys are sorted for byte-stable output
    assert rep.to_json() == json.dumps(data, indent=2, sort_keys=True)


def test_report_table():
    text = _report().to_table()
    assert "manifold: builtin:x" in text
    assert "3 checks: 1 fail, 1 n/a, 1 pass" in text
    assert "wall: 12.5 ms" in text
    lines = [l for l in text.splitlines() if l.startswith(("alpha", "beta", "value"))]
    assert len(lines) == 3
    assert "pass" in lines[0] and "fail" in lines[1] and "n/a" in lines[2]


def test_report_failed():
    rep = _report()
    assert [c.name for c in rep.checks if c.verdict == VERDICT_FAIL] == ["beta"]


# Report-shaped values: str-keyed dicts, lists and tuples, floats of every
# kind (plain, numpy, signed zeros, NaN, infinities), ints, bools, None,
# and strings with non-ASCII and control characters.
_floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 2.0**-1074, 1e16]),
    st.floats().map(np.float64),
)
_scalars = st.one_of(
    _floats, st.integers(), st.booleans(), st.none(), st.text(), st.just("\x00\x1f\u00e9\u2603\U0001f600")
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.lists(_floats),  # a record's samples
        st.dictionaries(st.text(), inner),
    ),
    max_leaves=20,
)


@given(_values)
@settings(max_examples=200, deadline=None)
def test_writer_matches_json_dumps(value):
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


# Float matrices, such as the echoed sample points: rows of one width or ragged, lists
# or tuples, with empty rows, NaN, infinities, signed zeros, subnormals and extremes.
_entries = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 2.0**-1030,
                     1e300, -1e300, 1e-300, -1e-300]),
)
_rows = st.one_of(st.lists(_entries, max_size=4), st.lists(_entries, max_size=4).map(tuple))
_matrices = st.one_of(
    st.integers(0, 4).flatmap(
        lambda width: st.lists(st.lists(_entries, min_size=width, max_size=width), min_size=1, max_size=5)),
    st.lists(_rows, max_size=5),
    st.lists(_rows, max_size=5).map(tuple),
)
_documents = st.recursive(
    st.one_of(_matrices, st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)


@seed(20261019)
@given(_documents)
@settings(max_examples=200, deadline=1000)
def test_writer_matches_json_dumps_on_float_matrices(value):
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [np.int64(3), [1.0, np.int64(3)], {"a": {"b": np.int64(3)}}])
def test_writer_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _dumps(value)


def test_writer_takes_only_str_keys():
    with pytest.raises(TypeError):
        _dumps({1: 2.0})


def test_writer_keeps_the_sign_of_zero_after_a_repeated_value():
    value = [0.0, -0.0, 1.5, 1.5, -0.0, float("nan"), float("nan"), 0.0]
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)
    assert _dumps({"a": [-0.0], "b": [0.0]}) == json.dumps({"a": [-0.0], "b": [0.0]}, indent=2)
