"""Structure loading, defining identities, associated metric, sampling."""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from accr import manifold
from accr.errors import (
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    ManifoldParseError,
    UnboundConstant,
    UnknownBuiltin,
)
from accr.expr import Evaluation, eval_field_jets, eval_numbers
from accr.geometry import SampleGeometry
from accr.manifold import (
    AccRStructure,
    builtin_names,
    builtin_structure,
    check_bindings,
    latin_hypercube,
    load_manifold,
    sample_points,
    validate_structure,
)
from accr.tensor import signature_of

from conftest import (
    CONE_N2, OFFDIAG, OFFDIAG_BINDINGS, ROTATING_NORDEN, VARYING, associated_metric, fd_gradient, swap,
)


def cone_json(**overrides):
    base = {
        "name": "test-cone",
        "n": 1,
        "coordinates": ["t", "u", "v"],
        "domain": {"t": [0.5, 5.0], "u": [-3.0, 3.0], "v": [-3.0, 3.0]},
        "constants": ["c"],
        "g": [["1", "0", "0"], ["0", "t^2", "0"], ["0", "0", "-t^2"]],
        "phi": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
        "xi": ["1", "0", "0"],
        "eta": ["1", "0", "0"],
    }
    base.update(overrides)
    return json.dumps(base)


def test_builtin_names():
    assert builtin_names() == ("cone-flat-fiber", "flat-cosymplectic")
    with pytest.raises(UnknownBuiltin):
        builtin_structure("nope")


def test_builtins_satisfy_defining_identities(cone, flat, cone_points, flat_points):
    for S, pts in ((cone, cone_points), (flat, flat_points)):
        records = validate_structure(S, SampleGeometry(S, pts).jets)
        assert len(records) == 8 and all(r.verdict == "pass" for r in records), records
        assert records[-1].name == "structure: signature"
        assert max(r.residual for r in records[:-1]) <= 1e-12


def test_builtin_metadata(cone):
    assert cone.name == "cone-flat-fiber"
    assert cone.n == 1 and cone.dim == 3
    assert cone.source_sha256 is not None and len(cone.source_sha256) == 64
    assert cone.referenced_constants() == frozenset()
    assert cone.chart.constants == ("c", "ct")


def _with_source(S, source):
    return AccRStructure(S.chart, S.g, S.phi, S.xi, S.eta, S.frame, S.name, source)


@seed(20261019)
@given(st.binary(max_size=300))
@settings(max_examples=200, deadline=None)
def test_the_source_digest_is_sha256(cone, data):
    assert _with_source(cone, data).source_sha256 == hashlib.sha256(data).hexdigest()


def test_the_source_digest_falls_back_to_hashlib(cone, monkeypatch):
    for lean in ("_sha2", "_sha256"):  # a None entry makes the import raise ImportError
        monkeypatch.setitem(sys.modules, lean, None)
    assert _with_source(cone, b"abc").source_sha256 == hashlib.sha256(b"abc").hexdigest()
    assert _with_source(cone, None).source_sha256 is None


def test_load_manifold_roundtrip():
    S = load_manifold(cone_json())
    assert S.name == "test-cone"
    assert S.chart.coordinates == ("t", "u", "v")
    assert S.chart.domain[0] == (0.5, 5.0)
    pts = sample_points(S.chart, 8, seed=1)
    assert all(r.verdict == "pass" for r in validate_structure(S, SampleGeometry(S, pts).jets))
    # bytes input works too and hashes identically to the text
    S2 = load_manifold(cone_json().encode("utf-8"))
    assert S2.source_sha256 == S.source_sha256


def test_load_rejects_bad_json():
    with pytest.raises(ManifoldParseError):
        load_manifold("{not json")
    with pytest.raises(ManifoldParseError):
        load_manifold("[1, 2]")


@pytest.mark.parametrize("data", [b"\xff\xfe{}", '{"name": "\udc80"}'], ids=["bytes", "lone-surrogate"])
def test_load_rejects_text_that_is_not_utf8(data):
    with pytest.raises(ManifoldParseError, match="^not UTF-8 text: "):
        load_manifold(data)


def test_load_rejects_missing_and_unknown_keys():
    raw = json.loads(cone_json())
    del raw["xi"]
    with pytest.raises(ManifoldParseError, match="missing field"):
        load_manifold(json.dumps(raw))
    with pytest.raises(ManifoldParseError, match="unknown field"):
        load_manifold(cone_json(extra="x"))


def test_load_rejects_asymmetric_metric():
    g = [["1", "0", "0"], ["0", "t^2", "1"], ["0", "0", "-t^2"]]
    with pytest.raises(ManifoldParseError, match="symmetric input is required"):
        load_manifold(cone_json(g=g))
    # symmetry is judged on the AST, so numerically equal but textually
    # different off-diagonal entries are rejected as well
    g = [["1", "0", "0"], ["0", "t^2", "t*t"], ["0", "t^2", "-t^2"]]
    with pytest.raises(ManifoldParseError, match="symmetric input is required"):
        load_manifold(cone_json(g=g))


def test_load_parses_each_distinct_entry_once(monkeypatch):
    calls = []

    def counting_parse(text, *args):
        calls.append(text)
        return parse(text, *args)

    parse = manifold.parse
    monkeypatch.setattr(manifold, "parse", counting_parse)
    S = load_manifold(json.dumps(CONE_N2))
    assert sorted(calls) == ["-1", "-t^2", "0", "1", "1/t", "t^2"]
    assert S.g[1][1] is S.g[3][3] and S.g[0][1] is S.phi[0][0]  # one Expression per entry text


def test_the_n2_cone_is_the_benchmark_structure():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "cone_n2.json"
    assert json.loads(path.read_text()) == CONE_N2


def test_a_repeated_bad_entry_raises_as_before():
    # the error names the first place of the entry, whose text is parsed once
    with pytest.raises(ExprSyntaxError) as first:
        manifold.parse("t^", ("t", "u", "v"), ("c",))
    g = [["1", "t^", "0"], ["t^", "t^2", "0"], ["0", "0", "t^"]]
    with pytest.raises(ManifoldParseError) as repeated:
        load_manifold(cone_json(g=g))
    assert str(repeated.value) == f"g[0][1]: {first.value}" == "g[0][1]: expected a value (offset 2)"
    g = [["1", "0", "0"], ["0", 7, "0"], ["0", "0", 7]]
    with pytest.raises(ManifoldParseError, match=r"^g\[1\]\[1\] must be an expression string$"):
        load_manifold(cone_json(g=g))


def _christoffel(where=None, value=None):
    """A 3x3x3 Christoffel expectation of zeros, with `value` at the index (k, i, j) `where`."""
    array = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    if where is not None:
        k, i, j = where
        array[k][i][j] = value
    return array


@pytest.mark.parametrize("expect, message", [
    ({"tau": "1/t", "sigma": "0"}, "unknown field: expect.sigma"),
    ({"potentials": {"h": {"k": "t"}}}, "unknown field: expect.potentials.h"),
    ({"potentials": {"g": {"k": "t", "mu": "0"}}}, "unknown field: expect.potentials.g.mu"),
    ({"christoffel": _christoffel((1, 0, 2), 7)}, "expect.christoffel[1][0][2] must be an expression string"),
    ({"tau": ["1/t"]}, "expect.tau must be an expression string"),
    ({"potentials": {"gtilde": {"f": None}}}, "expect.potentials.gtilde.f must be an expression string"),
    ({"christoffel": _christoffel()[:2]}, "expect.christoffel must be a list of 3 entries"),
    ({"gtilde": [["1", "0", "0"], ["0", "0"], ["0", "0", "0"]]}, "expect.gtilde[1] must be a list of 3 entries"),
    ({"grad_theta_star_xi": "0"}, "expect.grad_theta_star_xi must be a list of 3 entries"),
    ({"h": "sinh(t)"}, "expect.h: unknown identifier 'sinh' (offset 0)"),
    ({"christoffel": _christoffel((0, 1, 1), "1/s")}, "expect.christoffel[0][1][1]: unknown identifier 's' (offset 2)"),
    ({"tau": "2*(kprime-1)/t^2"}, "expect.tau: unknown identifier 'kprime' (offset 3)"),  # not declared
    ({"rho_11": "1/t^"}, "expect.rho_11: expected a value (offset 4)"),
    ("tau", "expect must be an object"),
    ({"potentials": ["c*t"]}, "expect.potentials must be an object"),
])
def test_a_malformed_expect_block_is_a_parse_error(expect, message):
    with pytest.raises(ManifoldParseError) as err:
        load_manifold(cone_json(expect=expect))
    assert str(err.value) == message


def test_an_expect_block_keeps_each_text_and_shares_the_parse_cache():
    S = load_manifold(cone_json(expect={"tau": "-2/t^2", "h": "1/t", "gtilde": [["1", "0", "0"]] * 3,
                                        "potentials": {"g": {"k": "c*t", "f": "c"}}}))
    keys = [key for key, _, _ in S.expect]
    assert keys == ["tau", "h", "gtilde", "potentials.g.k", "potentials.g.f"]
    texts = {key: text for key, text, _ in S.expect}
    assert texts["tau"] == "-2/t^2" and texts["gtilde"] == "[[1, 0, 0], [1, 0, 0], [1, 0, 0]]"
    values = {key: value for key, _, value in S.expect}
    assert values["gtilde"][1][0] is S.g[0][0] and values["gtilde"][2][1] is S.g[0][1]  # "1" and "0"
    assert load_manifold(cone_json()).expect == ()


def test_the_n2_expectations_ride_on_the_benchmark_structure():
    raw = json.loads((Path(__file__).resolve().parent / "cone_n2_expect.json").read_text())
    assert set(raw.pop("expect")) == set(manifold._EXPECT) and raw == CONE_N2


def test_load_rejects_bad_domains():
    with pytest.raises(ManifoldParseError):
        load_manifold(cone_json(domain={"t": [0.5, 5.0], "u": [-3, 3]}))
    with pytest.raises(ManifoldParseError):
        load_manifold(cone_json(domain={"t": [5.0, 0.5], "u": [-3, 3], "v": [-3, 3]}))
    with pytest.raises(ManifoldParseError):
        load_manifold(cone_json(domain={"t": [0.5, "x"], "u": [-3, 3], "v": [-3, 3]}))
    # JSON booleans are not numbers, although Python's bool is an int
    with pytest.raises(ManifoldParseError, match="domain"):
        load_manifold(cone_json(domain={"t": [0.5, 5.0], "u": [False, True], "v": [-3, 3]}))
    # an int past the float range is not finite, and is no TypeError
    with pytest.raises(ManifoldParseError, match=r"domain\[u\]"):
        load_manifold(cone_json(domain={"t": [0.5, 5.0], "u": [-3, 10**400], "v": [-3, 3]}))
    # finite ends whose width overflows would make sampling draw u = inf
    with pytest.raises(ManifoldParseError, match=r"domain\[u\] .* finite width"):
        load_manifold(cone_json(domain={"t": [0.5, 5.0], "u": [-1e308, 1e308], "v": [-3, 3]}))


def test_load_rejects_shape_and_name_problems():
    with pytest.raises(ManifoldParseError):
        load_manifold(cone_json(n=0))
    with pytest.raises(ManifoldParseError, match="n must be"):
        load_manifold(cone_json(n=True))
    with pytest.raises(DimensionMismatch):
        load_manifold(cone_json(coordinates=["t", "u", "v", "w"], n=1))
    with pytest.raises(ManifoldParseError):
        load_manifold(cone_json(coordinates=["t", "t", "v"]))
    with pytest.raises(ManifoldParseError, match="collide"):
        load_manifold(cone_json(constants=["t"]))
    # a string is not a list of names, although it iterates as one
    with pytest.raises(ManifoldParseError, match="^coordinates must be a list of names$"):
        load_manifold(cone_json(coordinates="tuv"))
    with pytest.raises(ManifoldParseError, match="^constants must be a list of names$"):
        load_manifold(cone_json(constants="c"))
    with pytest.raises(ManifoldParseError):
        load_manifold(cone_json(xi=["1", "0"]))
    with pytest.raises(ManifoldParseError):
        load_manifold(cone_json(phi=[["0", "0"], ["0", "0"]]))
    with pytest.raises(ManifoldParseError):
        load_manifold(cone_json(name=7))


def test_perturbed_phi_fails_validation(cone_points):
    phi = [["0", "0", "0"], ["0", "0", "-1.1"], ["0", "1.1", "0"]]
    S = load_manifold(cone_json(phi=phi))
    records = {r.anchor: r for r in validate_structure(S, SampleGeometry(S, cone_points).jets)}
    # phi^2 picks up exactly the factor 1.21 on the fiber block
    assert abs(records["phi^2 = -id + eta(x) xi"].residual - 0.21) < 1e-12
    assert records["phi^2 = -id + eta(x) xi"].verdict == "fail"
    # the compatibility of g with phi fails too
    assert records["g(phi x, phi y) = -g(x, y) + eta(x) eta(y)"].residual > 0.2


def test_wrong_signature_detected(cone_points):
    g = [["1", "0", "0"], ["0", "t^2", "0"], ["0", "0", "t^2"]]
    phi = [["0", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]  # keeps phi^2 failing anyway
    S = load_manifold(cone_json(g=g, phi=phi))
    signature = validate_structure(S, SampleGeometry(S, cone_points).jets)[-1]
    assert (signature.name, signature.verdict) == ("structure: signature", "fail")


def test_associated_metric_components(cone, cone_points):
    gtilde = cone.associated_metric()
    assert [[e.unparse() for e in row] for row in gtilde] == [
        ["1.0*1.0", "0.0", "0.0"], ["0.0", "0.0", "(t^2.0*-1.0+-t^2.0*1.0)/2.0"],
        ["0.0", "(t^2.0*-1.0+-t^2.0*1.0)/2.0", "0.0"]]
    assert all(gtilde[i][j] is gtilde[j][i] for i in range(3) for j in range(3))
    gt = eval_field_jets([gtilde], Evaluation((2.0, 0.3, -0.4), 3))[0].value
    assert np.allclose(gt, [[1.0, 0, 0], [0, 0, -4.0], [0, -4.0, 0]], atol=1e-14)
    # the associated metric is itself a B-metric for the same structure
    for pt in cone_points:
        g, phi, xi, eta = eval_numbers([cone.g, cone.phi, cone.xi, cone.eta], Evaluation(pt, 3))
        gtp = eval_field_jets([gtilde], Evaluation(pt, 3))[0].value
        compat = np.einsum("ai,bj,ab->ij", phi, phi, gtp) + gtp - np.outer(eta, eta)
        assert np.max(np.abs(compat)) < 1e-12
        assert np.max(np.abs(gtp @ xi - eta)) < 1e-12
        assert signature_of(gtp) == (2, 1)


def test_associated_metric_jets_match_fd(cone):
    # OFFDIAG and VARYING turn on every product-rule term that the cone's literal phi and eta skip
    pt = np.array([1.7, 0.2, 0.9])
    for S, bindings in ((cone, None), (load_manifold(json.dumps(OFFDIAG)), OFFDIAG_BINDINGS),
                        (load_manifold(json.dumps(VARYING)), OFFDIAG_BINDINGS)):
        value, partial, _ = eval_field_jets([S.associated_metric()], Evaluation(pt, 3, bindings))[0]
        assert np.allclose(value, associated_metric(S, pt, bindings))
        for i in range(3):
            for j in range(3):
                ref = fd_gradient(lambda x, i=i, j=j: associated_metric(S, x, bindings)[i, j], pt)
                assert np.max(np.abs(partial[i, j] - ref)) < 1e-8


def test_associated_metric_jets_that_overflow_are_a_domain_error():
    # g's jets are finite; eta (x) eta = 1e300 t^4 overflows from t ~ 116
    domain = {"t": [0.5, 2e4], "u": [-3.0, 3.0], "v": [-3.0, 3.0]}
    S = load_manifold(cone_json(eta=["1e150*t^2", "0", "0"], domain=domain))
    points = np.array([[1.0, 0.0, 0.0], [200.0, 0.0, 0.0], [1e4, 0.0, 0.0]])
    entry = r"1e\+150\*t\^2\.0\*\(1e\+150\*t\^2\.0\) is not finite"
    with pytest.raises(DomainError, match=rf"^metric gtilde: {entry} at sample 1 \(t=200\.0, u=0\.0, v=0\.0\)$"):
        SampleGeometry(S, points).of("gtilde")
    with pytest.raises(DomainError, match=rf"^{entry} at sample 0 \(t=200\.0, u=0\.0, v=0\.0\)$"):
        eval_field_jets([S.associated_metric()], Evaluation(points[1], 3))
    value, _, second = eval_field_jets([S.associated_metric()], Evaluation(points[0], 3))[0]
    assert value[0, 0] == 1e150 * 1e150 and np.isfinite(second).all()
    # eta (x) eta = exp(600 t) is finite up to t ~ 1.183, and its second t-derivative
    # 3.6e5 exp(600 t) only up to t ~ 1.162
    S = load_manifold(cone_json(eta=["exp(300*t)", "0", "0"]))
    points = np.array([[1.0, 0.0, 0.0], [1.17, 0.0, 0.0]])
    assert np.isfinite(associated_metric(S, points)).all()
    with pytest.raises(DomainError, match=r"^metric gtilde: .* is not finite at sample 1 \(t=1\.17, "):
        SampleGeometry(S, points).of("gtilde")


def test_latin_hypercube_stratification(cone):
    pts = latin_hypercube(cone.chart, 12, seed=42)
    assert len(pts) == 12
    arr = np.array(pts)
    for axis in range(3):
        lo, hi = cone.chart.domain[axis]
        assert np.all(arr[:, axis] > lo) and np.all(arr[:, axis] < hi)
        strata = np.floor((arr[:, axis] - lo) / (hi - lo) * 12).astype(int)
        assert sorted(strata) == list(range(12))  # exactly one point per stratum
    assert latin_hypercube(cone.chart, 0).shape == (0, 3)


def test_sampling_is_deterministic(cone):
    a = sample_points(cone.chart, 16, seed=42)
    b = sample_points(cone.chart, 16, seed=42)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = sample_points(cone.chart, 16, seed=43)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_latin_hypercube_stream_is_pinned(cone):
    # random.Random(42).random() keeps its sequence across Python versions; a change
    # of sampler changes these values and every report, so it must show here
    assert [[repr(float(x)) for x in row] for row in latin_hypercube(cone.chart, 3, seed=42)] == [
        ["2.3763344965009106", "-0.8463650050114735", "-1.91910533491421"],
        ["4.569236139121417", "1.493548354646486", "-0.5032068803267458"],
        ["1.4885443080209302", "-1.9903604814139477", "2.160678230976636"],
    ]


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError), ("42", TypeError)])
def test_sampling_rejects_a_negative_or_non_integer_seed(cone, seed, error):
    # random.Random alone would seed with abs(-1) and with hash(1.5) or hash("42")
    with pytest.raises(error, match="seed must be"):
        sample_points(cone.chart, 4, seed=seed)
    with pytest.raises(error, match="seed must be"):  # even when the pins fill the budget
        sample_points(cone.chart, 1, seed=seed, pinned=((2.0, 0.0, 0.0),))


def test_sampling_pins_points_first(cone):
    pin = (2.0, 0.3, -0.4)
    pts = sample_points(cone.chart, 5, seed=42, pinned=(pin,))
    assert isinstance(pts, np.ndarray) and pts.shape == (5, 3)
    assert np.array_equal(pts[0], pin)
    assert np.array_equal(pts[1:], latin_hypercube(cone.chart, 4, seed=42))
    with pytest.raises(DomainError):
        sample_points(cone.chart, 5, pinned=((0.5, 0.0, 0.0),))  # boundary is outside
    with pytest.raises(ValueError):
        sample_points(cone.chart, 1, pinned=((2.0, 0.0, 0.0), (3.0, 0.0, 0.0)))


def test_domain_enforcement(cone):
    with pytest.raises(DomainError):
        SampleGeometry(cone, (0.5, 0.0, 0.0)).jets  # closed endpoint excluded
    with pytest.raises(DomainError):
        SampleGeometry(cone, (6.0, 0.0, 0.0)).jets
    with pytest.raises(DimensionMismatch):
        SampleGeometry(cone, (2.0, 0.0)).jets
    # interior works
    sj = SampleGeometry(cone, (0.500001, 0.0, 0.0)).jets
    assert sj.g.value.shape == (1, 3, 3)


def test_check_bindings(cone):
    check_bindings(cone.chart, {"c": 1.0}, ["c"])
    with pytest.raises(UnboundConstant) as e:
        check_bindings(cone.chart, {}, ["c"])
    assert e.value.name == "c"
    with pytest.raises(DomainError):
        check_bindings(cone.chart, {"c": float("nan")}, ["c"])


def test_structure_jets_shapes(cone):
    sj = SampleGeometry(cone, [(2.0, 0.3, -0.4)]).jets
    assert sj.g.value.shape == (1, 3, 3)
    assert sj.g.partial.shape == (1, 3, 3, 3)
    assert sj.g.second.shape == (1, 3, 3, 3, 3)
    assert sj.xi.value.shape == (1, 3) and sj.xi.second.shape == (1, 3, 3, 3)
    # dg_uu/dt = 2t = 4 at t=2; second derivative 2
    assert np.isclose(sj.g.partial[0, 1, 1, 0], 4.0)
    assert np.isclose(sj.g.second[0, 1, 1, 0, 0], 2.0)
    assert not sj.xi.partial.any()


@pytest.mark.parametrize("structure", ["cone", "cone_n2"])
def test_literal_fields_have_zero_jets_that_own_no_memory(request, structure):
    S = request.getfixturevalue(structure)
    for point in (sample_points(S.chart, 8, seed=3), sample_points(S.chart, 1, seed=3)[0]):
        sj = eval_field_jets([S.g, S.phi, S.xi, S.eta], Evaluation(point, S.dim))
        for field in sj[1:]:  # phi, xi and eta: literal in every shipped structure
            for jet in field[1:]:
                # every stride 0: the whole array reads one element of a zero scalar
                assert not jet.flags.writeable and not any(jet.strides) and not jet.any()
        # g reads t: its jets stay dense
        for jet in sj[0][1:]:
            assert all(jet.strides) and jet.any()


def test_values_and_frame_at_a_batch(cone, cone_points):
    points = np.array(cone_points[:5])
    fields = [cone.g, cone.phi, cone.xi, cone.eta, cone.frame]
    values = eval_numbers(fields, Evaluation(points, 3, {}))
    for k, pt in enumerate(cone_points[:5]):
        single = eval_numbers(fields, Evaluation(pt, 3))
        for got, want in zip(values, single):
            assert got.shape[1:] == want.shape
            assert np.array_equal(got[k], want)


def test_one_wrong_signature_in_a_mixed_batch_fails_the_signature_record():
    # g_vv = t^2 (u - 1): Lorentzian where u < 1, Riemannian where u > 1
    g = [["1", "0", "0"], ["0", "t^2", "0"], ["0", "0", "t^2*(u-1)"]]
    S = load_manifold(cone_json(g=g))
    for points, verdict in (([(2.0, 0.0, 0.0), (2.0, 2.0, 0.0), (2.0, 0.5, 0.0)], "fail"),
                            ([(2.0, 0.0, 0.0), (2.0, 0.5, 0.0)], "pass")):
        signature = validate_structure(S, SampleGeometry(S, points).jets)[-1]
        assert (signature.name, signature.verdict) == ("structure: signature", verdict)


@pytest.mark.parametrize("structure, exact", [
    ("cone", True), ("cone_n2", True), ("rotating_norden", True), ("offdiag", False), ("varying", False),
])
def test_the_g_of_the_swap_of_the_swap_is_minus_g_plus_twice_eta_eta(cone, structure, exact):
    # an identity of structures: OFFDIAG and VARYING are none, and there it fails, a negative control
    raw = {"cone": json.loads(cone.source), "cone_n2": CONE_N2, "rotating_norden": ROTATING_NORDEN,
           "offdiag": OFFDIAG, "varying": VARYING}[structure]
    S, twice = (load_manifold(json.dumps(r)) for r in (raw, swap(swap(raw))))
    points = sample_points(S.chart, 16, seed=42)
    bindings = OFFDIAG_BINDINGS if structure in ("offdiag", "varying") else {}
    g, eta, g_twice = eval_numbers([S.g, S.eta, twice.g], Evaluation(points, S.dim, bindings))
    want = -g + 2.0 * np.einsum("...i,...j->...ij", eta, eta)
    if exact:
        assert np.array_equal(g_twice, want)
    else:
        assert np.max(np.abs(g_twice - want)) > 0.1 * np.max(np.abs(want))  # 0.45 at these points
