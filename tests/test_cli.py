"""Command-line interface: exit codes, output schema, determinism."""

import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from accr import analysis, cli
from accr.cli import build_parser, main
from accr.errors import AccrError
from accr.manifold import builtin_structure
from accr.report import VERDICT_FAIL, CheckRecord

from conftest import CONE_N2, OFFDIAG, ROTATING_NORDEN, VARYING, swap
from test_manifold import cone_json
from test_output_contract import CASES

CONE = ["--builtin", "cone-flat-fiber"]
PIN = ["--point", "t=2,u=0.3,v=-0.4"]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--format", "json")
    return rc, json.loads(out), err


@pytest.fixture()
def broken_phi_file(tmp_path):
    phi = [["0", "0", "0"], ["0", "0", "-1.1"], ["0", "1.1", "0"]]
    path = tmp_path / "broken.json"
    path.write_text(cone_json(phi=phi), encoding="utf-8")
    return str(path)


def test_validate_builtin(capsys):
    rc, out, err = run(capsys, "validate", *CONE, "--samples", "8")
    assert rc == 0 and err == ""
    assert "structure: signature" in out
    assert "8 checks: 8 pass" in out


def test_validate_builtin_prefix_input(capsys):
    rc, out, _ = run(capsys, "validate", "builtin:flat-cosymplectic", "--samples", "4")
    assert rc == 0
    assert "manifold: builtin:flat-cosymplectic" in out


def test_validate_json_schema(capsys):
    rc, data, _ = run_json(capsys, "validate", *CONE, "--samples", "4")
    assert rc == 0
    assert data["manifold"] == "builtin:cone-flat-fiber"
    assert set(data) == {"manifold", "config", "checks", "wall_ms"}
    cfg = data["config"]
    assert cfg["command"] == "validate" and cfg["samples"] == 4 and cfg["seed"] == 42
    assert len(cfg["sample_points"]) == 4
    for check in data["checks"]:
        assert set(check) == {"name", "anchor", "verdict", "residual", "samples"}
        assert check["verdict"] == "pass"


def test_json_output_is_deterministic(capsys):
    rc1, d1, _ = run_json(capsys, "classify", *CONE, "--samples", "6")
    rc2, d2, _ = run_json(capsys, "classify", *CONE, "--samples", "6")
    assert rc1 == rc2 == 0
    d1.pop("wall_ms")
    d2.pop("wall_ms")
    assert d1 == d2


_CONE_N2_FILE = str(Path(__file__).resolve().parent.parent / "perfbench" / "cone_n2.json")
_COMMANDS = (
    ["validate"],
    ["classify"],
    ["curvature", "--metric", "gtilde"],
    ["soliton", "--potential-k", "t"],
    ["report", "--potential-k", "t"],
)


@pytest.mark.parametrize("source", [CONE, ["--builtin", "flat-cosymplectic"], [_CONE_N2_FILE]],
                         ids=["cone", "flat", "cone_n2"])
def test_json_output_is_json_dumps_indent_2_sorted(capsys, source):
    commands = _COMMANDS + ((["verify-paper"],) if source == CONE else ())
    for command in commands:
        rc, out, err = run(capsys, *command, *source, "--samples", "5", "--format", "json")
        assert rc == 0 and err == "", command
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", command


def test_validate_broken_structure(capsys, broken_phi_file):
    rc, data, _ = run_json(capsys, "validate", broken_phi_file, "--samples", "8")
    assert rc == 1
    assert data["manifold"].startswith("sha256:")
    failed = {c["name"] for c in data["checks"] if c["verdict"] == "fail"}
    assert "structure: phi^2 = -id + eta(x) xi" in failed


def test_classify_answers_do_not_gate(capsys):
    # the cone is honestly not Sasaki-like; that answer is not a failure
    rc, out, _ = run(capsys, "classify", *CONE, "--samples", "8")
    assert rc == 0
    assert "class sasaki_like: fails" in out
    assert "class f5: holds" in out
    assert "class f5_0: holds" in out
    assert "class f0: fails" in out


def test_a_failing_consequence_gates_classify_and_report(capsys, monkeypatch):
    # classify and report gate on the same records: every pass/fail check but the class answers
    classify = analysis.classify

    def classify_with_a_failing_consequence(geo, tol=1e-9):
        classes = classify(geo, tol)
        answer, consequence, *rest = classes["f5"]
        failing = CheckRecord(consequence.name, consequence.anchor, VERDICT_FAIL, residual=1.0)
        return {**classes, "f5": [answer, failing, *rest]}

    monkeypatch.setattr(analysis, "classify", classify_with_a_failing_consequence)
    for command in ("classify", "report"):
        rc, out, _ = run(capsys, command, *CONE, "--samples", "4")
        assert rc == 1 and "consequence of f5: F(xi,y,z) = 0" in out, command


def test_classify_flat_degenerate(capsys):
    rc, out, _ = run(capsys, "classify", "--builtin", "flat-cosymplectic", "--samples", "8")
    assert rc == 0
    assert "class f5: degenerate" in out
    assert "class f0: holds" in out


def test_classify_gates_on_validation(capsys, broken_phi_file):
    rc, _, _ = run(capsys, "classify", broken_phi_file, "--samples", "8")
    assert rc == 1


def test_curvature_pinned_point(capsys):
    rc, data, _ = run_json(capsys, "curvature", *CONE, *PIN, "--samples", "1")
    assert rc == 0
    by_name = {c["name"]: c for c in data["checks"]}
    assert np.isclose(by_name["scalar curvature"]["samples"][0], -0.5)
    assert np.isclose(by_name["associated scalar curvature"]["samples"][0], 0.0)
    assert np.isclose(by_name["Lee scalar"]["samples"][0], 1.0)
    assert np.isclose(by_name["phi-frame R_1212"]["samples"][0], -0.25)
    assert np.isclose(by_name["phi-frame rho_11"]["samples"][0], -0.25)
    assert np.isclose(by_name["phi-frame rho_22"]["samples"][0], 0.25)
    assert by_name["metric compatibility"]["verdict"] == "pass"


def test_curvature_gtilde(capsys):
    rc, data, _ = run_json(capsys, "curvature", *CONE, *PIN, "--samples", "1", "--metric", "gtilde")
    assert rc == 0
    by_name = {c["name"]: c for c in data["checks"]}
    assert np.isclose(by_name["scalar curvature"]["samples"][0], -0.5)
    assert by_name["metric compatibility (associated metric)"]["verdict"] == "pass"


def test_soliton_solve(capsys):
    rc, data, _ = run_json(
        capsys, "soliton", *CONE, *PIN, "--samples", "1",
        "--potential-k", "c*t", "--const", "c=1",
    )
    assert rc == 0
    by_name = {c["name"]: c for c in data["checks"]}
    assert "Yamabe almost soliton for g: soliton" in by_name
    assert np.isclose(by_name["soliton function lambda"]["samples"][0], -1.5)
    assert by_name["theorem: tau = f + lambda"]["verdict"] == "pass"
    assert by_name["theorem: f = dk(xi)"]["verdict"] == "pass"
    assert any(n.startswith("taxonomy:") and "concurrent" in n for n in by_name)


def test_soliton_gtilde_expectation(capsys):
    rc, _, _ = run(
        capsys, "soliton", *CONE, "--samples", "8", "--metric", "gtilde",
        "--potential-k", "ct*t", "--const", "ct=2", "--expect-soliton",
    )
    assert rc == 0


def test_soliton_negative_control(capsys):
    args = ["soliton", *CONE, "--samples", "8", "--potential-k", "t^2"]
    rc, out, _ = run(capsys, *args)
    assert rc == 0  # not gated without the expectation flag
    assert "Yamabe almost soliton for g: not-soliton" in out
    rc, out, _ = run(capsys, *args, "--expect-soliton")
    assert rc == 1


def _solved(taxonomy, word, fit="pass"):
    """The records of `soliton`, by name and verdict, for a fit with this verdict and taxonomy
    and a solve with this word; "{m}" stands for the metric's name."""
    records = [("torse-forming fit", fit), (f"taxonomy: {taxonomy}", "n/a"), ("conformal scalar f", "n/a")]
    if "torse-forming" in taxonomy:
        records += [("generating form of a vertical potential", "pass"),
                    ("vertical potential derivative", "pass"), ("torqued criterion", "n/a")]
    records += [(f"Yamabe almost soliton for {{m}}: {word}", "pass" if word == "soliton" else "fail"),
                ("soliton function lambda", "n/a")]
    if word == "soliton":
        records += [("theorem: tau = f + lambda", "pass"), ("theorem: f = dk(xi)", "pass")]
    return records


_SOLITON = _solved("concircular, concurrent, torqued, torse-forming", "soliton")
_NOT_SOLITON = _solved("torse-forming", "not-soliton")
_RECURRENT = _solved("recurrent, torse-forming", "not-soliton")
_NOT_TORSE_FORMING = _solved("none", "not-soliton", fit="fail")
_OFF_VERTICAL = ("accr: NonVerticalPotential: potential deviates from k*xi by {} "
                 "at sample 0 (t=0.6170371774846838, u=0.2027644999797451, v=-0.5555960849066455)\n")


# Each structure and potential k: the soliton records for either metric, by name and verdict,
# or the one stderr line of the typed error, and the exit code of `report` with that potential.
@pytest.mark.parametrize("structure, k, records, report_rc", [
    ("cone", "t", _SOLITON, 0),
    ("cone", "t^2", _NOT_SOLITON, 0),
    ("cone", "c*t", _SOLITON, 0),
    ("cone_n2", "t", _SOLITON, 0),
    ("cone_n2", "t^2", _NOT_SOLITON, 0),
    ("cone_n2", "c*t", _SOLITON, 0),
    ("flat", "t", _RECURRENT, 0),
    ("flat", "t^2", _RECURRENT, 0),
    ("rotating_norden", "t", _NOT_TORSE_FORMING, 1),
    ("rotating_norden", "t^2", _NOT_TORSE_FORMING, 1),
    ("offdiag", "t", _NOT_TORSE_FORMING, 1),
    ("offdiag", "t^2", _NOT_TORSE_FORMING, 1),
    ("varying", "t", _OFF_VERTICAL.format("4.894e-04"), 1),
    ("varying", "t^2", _OFF_VERTICAL.format("3.020e-04"), 1),
])
@pytest.mark.parametrize("metric", ["g", "gtilde"])
def test_soliton_records_table(capsys, tmp_path, structure, k, records, report_rc, metric):
    sources = {"cone": (CONE, ["c=1", "ct=1"]), "cone_n2": ([_CONE_N2_FILE], ["c=1", "ct=1"]),
               "flat": (["--builtin", "flat-cosymplectic"], []), "rotating_norden": (ROTATING_NORDEN, []),
               "offdiag": (OFFDIAG, ["c=0.3"]), "varying": (VARYING, ["c=0.3"])}
    source, consts = sources[structure]
    if isinstance(source, dict):
        path = tmp_path / f"{structure}.json"
        path.write_text(json.dumps(source), encoding="utf-8")
        source = [str(path)]
    argv = [*source, "--metric", metric, "--potential-k", k, "--samples", "16", "--seed", "42",
            "--format", "json", *(arg for c in consts for arg in ("--const", c))]
    m = "g" if metric == "g" else "g~"
    for command, extra in (("soliton", ["--expect-soliton"]), ("report", [])):
        rc, out, err = run(capsys, command, *argv, *extra)
        if isinstance(records, str):
            assert (rc, out, err) == (1, "", records), command
            continue
        want = [(name.format(m=m), verdict) for name, verdict in records]
        got = [(c["name"], c["verdict"]) for c in json.loads(out)["checks"]]
        assert got[-len(want):] == want, command
        if command == "soliton":
            assert len(got) == len(want) and rc == (0 if records is _SOLITON else 1)
        else:
            assert rc == report_rc


_STRUCTURES = {"cone": CONE, "flat": ["--builtin", "flat-cosymplectic"], "cone_n2": [_CONE_N2_FILE],
               "offdiag": OFFDIAG, "varying": VARYING, "rotating_norden": ROTATING_NORDEN}


def _source(tmp_path, structure):
    """The argv that names one of _STRUCTURES, and binds the constant c = 0.3 of OFFDIAG and VARYING."""
    source = _STRUCTURES[structure]
    if isinstance(source, dict):
        path = tmp_path / f"{structure}.json"
        path.write_text(json.dumps(source), encoding="utf-8")
        source = [str(path), *(["--const", "c=0.3"] if "constants" in source else [])]
    return source


# Each command's exit code on each structure, in the order of _STRUCTURES.  OFFDIAG and VARYING
# fail validation, rotating-Norden is Sasaki-like but not F5, VARYING's potential is not vertical,
# and flat-cosymplectic is F0, which fails the suite's F5 class records.
@pytest.mark.parametrize("command, codes", [
    (["validate"], [0, 0, 0, 1, 1, 0]),
    (["classify"], [0, 0, 0, 1, 1, 0]),
    (["curvature", "--metric", "g"], [0, 0, 0, 1, 1, 0]),
    (["curvature", "--metric", "gtilde"], [0, 0, 0, 1, 1, 0]),
    (["report"], [0, 0, 0, 1, 1, 1]),
    (["report", "--potential-k", "t", "--expect-soliton"], [0, 1, 0, 1, 1, 1]),
    (["soliton", "--potential-k", "t"], [0, 0, 0, 0, 1, 0]),
    (["soliton", "--potential-k", "t", "--expect-soliton"], [0, 1, 0, 1, 1, 1]),
    (["verify-paper"], [0, 1, 0, 1, 1, 1]),
], ids=lambda value: " ".join(value) if isinstance(value[0], str) else None)
def test_exit_codes_table(capsys, tmp_path, command, codes):
    got = [run(capsys, *command, *_source(tmp_path, structure), "--samples", "16")[0] for structure in _STRUCTURES]
    assert got == codes


# Each g~ record of a structure is the g record of its swap, with the g~ marks dropped from its name.
@pytest.mark.parametrize("structure", ["cone", "cone_n2", "rotating_norden", "offdiag"])
@pytest.mark.parametrize("command", [["curvature"], ["soliton", "--potential-k", "t"]], ids=["curvature", "soliton"])
def test_the_gtilde_records_are_the_g_records_of_the_swap(capsys, tmp_path, command, structure):
    raw = {"cone": json.loads(builtin_structure("cone-flat-fiber").source), "cone_n2": CONE_N2,
           "rotating_norden": ROTATING_NORDEN, "offdiag": OFFDIAG}[structure]
    records = []
    for metric, source in (("gtilde", raw), ("g", swap(raw))):
        path = tmp_path / f"{metric}.json"
        path.write_text(json.dumps(source), encoding="utf-8")
        consts = ["--const", "c=0.3"] if structure == "offdiag" else []
        rc, data, err = run_json(capsys, *command, str(path), "--metric", metric, "--samples", "16", *consts)
        assert err == ""
        records.append([(c["name"].replace(" (associated metric)", "").replace("g~", "g"), c["verdict"],
                         c["samples"]) for c in data["checks"]])
    assert records[0] == records[1]
    assert len(records[0]) >= 5


def _swap_checks(capsys, tmp_path, command, structure, swapped):
    """The JSON checks of `command` on one of _STRUCTURES, or on its swap, at 16 samples."""
    raw = _STRUCTURES[structure]
    if not isinstance(raw, dict):
        raw = json.loads(builtin_structure(raw[-1]).source) if raw[0] == "--builtin" else CONE_N2
    path = tmp_path / f"{structure}.json"
    path.write_text(json.dumps(swap(raw) if swapped else raw), encoding="utf-8")
    consts = ["--const", "c=0.3"] if structure in ("offdiag", "varying") else []
    rc, data, err = run_json(capsys, *command, str(path), "--samples", "16", *consts)
    assert err == ""
    return data["checks"]


# The classes are those of the structure, whichever of its two metrics is named g.
@pytest.mark.parametrize("structure", sorted(_STRUCTURES))
def test_classify_gives_the_same_class_answers_on_the_swap(capsys, tmp_path, structure):
    answers = [[(c["name"], c["verdict"]) for c in _swap_checks(capsys, tmp_path, ["classify"], structure, swapped)
                if c["name"].startswith("class ")] for swapped in (False, True)]
    assert answers[0] == answers[1]
    assert len(answers[0]) == 4


# The transfer formulas from g to g~ hold on the swap of a structure, where they map g~ to
# -g + 2 eta (x) eta; on the swap of OFFDIAG, which is not a structure, they fail.
@pytest.mark.parametrize("structure, verdict", [
    ("cone", "pass"), ("cone_n2", "pass"), ("rotating_norden", "pass"), ("offdiag", "fail"),
])
def test_the_transfer_routes_of_report_on_the_swap(capsys, tmp_path, structure, verdict):
    checks = {c["name"]: c["verdict"] for c in _swap_checks(capsys, tmp_path, ["report"], structure, True)}
    assert [checks["associated Christoffels: direct vs correction route"],
            checks["associated fundamental tensor: direct vs transfer route"]] == [verdict, verdict]


def test_soliton_requires_potential(capsys):
    rc, _, err = run(capsys, "soliton", *CONE, "--samples", "4")
    assert rc == 2
    assert "--potential-k" in err


def test_soliton_unbound_constant(capsys):
    rc, _, err = run(capsys, "soliton", *CONE, "--samples", "4", "--potential-k", "c*t")
    assert rc == 2
    assert "'c'" in err


def test_soliton_zero_potential_exit_code(capsys):
    # a vanishing potential is a precondition failure: exit 1, not 2
    rc, _, err = run(capsys, "soliton", *CONE, "--samples", "4", "--potential-k", "0")
    assert rc == 1
    assert "ZeroPotential" in err


def test_any_package_error_exits_2_with_one_line(capsys, monkeypatch):
    # a subclass of AccrError that no handler names is still a load error, not a traceback
    class FreshError(AccrError):
        pass

    def raising(geo, args, tol):
        raise FreshError("no such thing")

    monkeypatch.setitem(cli._CHECKS, "validate", raising)
    rc, out, err = run(capsys, "validate", *CONE, "--samples", "2")
    assert (rc, out, err) == (2, "", "accr: FreshError: no such thing\n")


@pytest.mark.parametrize("potential", ["t^1000", "exp(800*t)"])
def test_soliton_overflowing_potential_is_a_domain_error(capsys, potential):
    rc, out, err = run(capsys, "soliton", *CONE, "--potential-k", potential, "--samples", "3")
    assert rc == 2 and out == ""
    # the potential as given, not its product with xi's component
    named = {"t^1000": "t^1000.0", "exp(800*t)": "exp(800.0*t)"}[potential]
    assert err.startswith(f"accr: DomainError: {named} is not finite at sample 0 (t=")
    assert err.count("\n") == 1  # no warning, no traceback


@pytest.mark.parametrize("potential", ["sqrt(t*1e-320)", "ln(t*1e-320)"])
def test_a_potential_whose_second_derivative_divides_by_zero_is_a_domain_error(capsys, potential):
    # t*1e-320 is subnormal: the second derivative of sqrt divides by v^(3/2), that of ln by
    # v^2, and each divisor underflows to 0
    rc, out, err = run(capsys, "soliton", *CONE, "--potential-k", potential, "--samples", "4")
    assert rc == 2 and out == ""
    assert err.startswith(f"accr: DomainError: {potential} is not finite at sample 0 (t=")
    assert err.count("\n") == 1  # no warning, no traceback


@pytest.fixture()
def huge_phi_file(tmp_path):
    """The n = 2 cone with phi's (t, t) entry 1e308: phi^2 and g(phi x, phi y) overflow."""
    raw = json.loads(json.dumps(CONE_N2))
    raw["phi"][0][0] = "1e308"
    path = tmp_path / "huge_phi.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command, rc, err", [
    (["validate"], 1, ""),
    (["classify"], 1, ""),
    (["report"], 1, "accr: SingularMetric: metric gtilde is numerically singular at sample 0"),
    (["soliton", "--potential-k", "t"], 0, ""),
], ids=["validate", "classify", "report", "soliton"])
def test_an_overflowing_structure_warns_nothing_and_keeps_its_verdicts(capsys, huge_phi_file, command, rc, err):
    got_rc, out, got_err = run(capsys, *command, huge_phi_file, "--samples", "4", "--format", "json")
    assert got_rc == rc and got_err.startswith(err) and "Warning" not in got_err
    assert got_err.count("\n") == (1 if err else 0)  # the report's message on one line, however many values
    if not out:
        return
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    overflowed = ("structure: phi^2 = -id + eta(x) xi" if command[0] != "soliton"
                  else "vertical potential derivative")
    assert (checks[overflowed]["verdict"], checks[overflowed]["residual"]) == ("fail", np.inf)


@pytest.mark.filterwarnings("error")  # an overflow ends the run, with no numpy warning
@pytest.mark.parametrize("argv", [
    ["soliton", *CONE, "--potential-k", "1e308", "--const", "ct=1"],
    ["soliton", *CONE, "--metric", "gtilde", "--potential-k=-1e308", "--const", "ct=1"],
    ["report", *CONE, "--potential-k", "1e308"],
], ids=["soliton-g", "soliton-gtilde", "report"])
def test_a_potential_whose_fit_overflows_is_a_domain_error(capsys, argv):
    # the potential's jets are finite, but at the pinned t = 0.6 the trace of nabla v,
    # 2k/t, overflows and the fit built on it with it
    rc, out, err = run(capsys, *argv, "--point", "t=0.6,u=0,v=0", "--samples", "4")
    assert rc == 2 and out == ""
    assert err == "accr: DomainError: torse-forming fit of the potential is not finite at sample 0 (t=0.6, u=0.0, v=0.0)\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["report", "--builtin", "flat-cosymplectic", "--potential-k", "1e150*t"],
    ["verify-paper", "--const", "c=1e103", "--const", "ct=1e103"],
], ids=["report-flat", "verify-paper"])
def test_a_potential_of_finite_jets_near_the_float_limit_is_fitted(capsys, argv):
    # the fit is linear in nabla v and divides only by k = eta(v), so it forms nothing of
    # order |v|^2 or more; the verdicts may still fail on absolute residuals, but the fit
    # is no domain error
    rc, out, err = run(capsys, *argv, "--samples", "4")
    assert rc in (0, 1) and err == ""
    assert "conformal scalar" in out


def test_a_structure_with_eta_xi_not_one_makes_the_potential_non_vertical(capsys, tmp_path):
    # with eta = (1+u) dt, v = t d_t has eta(v) xi = (1+u) v: vertical only where u = 0
    path = tmp_path / "eta.json"
    path.write_text(cone_json(eta=["1+u", "0", "0"]), encoding="utf-8")
    argv = ["soliton", str(path), "--potential-k", "t", "--samples", "4"]
    rc, out, err = run(capsys, *argv, "--point", "t=1,u=0,v=0.5", "--point", "t=2,u=0.5,v=-1")
    assert rc == 1 and out == ""
    assert err == ("accr: NonVerticalPotential: potential deviates from k*xi by 1.000e+00 "
                   "at sample 1 (t=2.0, u=0.5, v=-1.0)\n")


def test_verticality_is_judged_relative_to_the_potential(capsys, tmp_path):
    # the cone with xi = (1/49) d_t: v = 1e10 t xi drifts from eta(v) xi by about 1e-8 in
    # round-off, which is about 1e-17 of |v|, so the potential is vertical
    g = [["2401", "0", "0"], ["0", "t^2", "0"], ["0", "0", "-t^2"]]
    path = tmp_path / "xi49.json"
    path.write_text(cone_json(g=g, xi=["1/49", "0", "0"], eta=["49", "0", "0"]), encoding="utf-8")
    rc, out, err = run(capsys, "soliton", str(path), "--potential-k", "1e10*t", "--samples", "64")
    assert rc == 0 and err == "" and "torse-forming fit" in out


@pytest.mark.filterwarnings("error")
def test_a_lie_derivative_that_overflows_is_a_domain_error(capsys, tmp_path):
    # g = 1e300 times the cone's metric: v = 1e160 t xi = 1e10 t d_t has a finite fit,
    # but g(nabla v, .) of order 1e310 overflows
    g = [["1e300", "0", "0"], ["0", "1e300*t^2", "0"], ["0", "0", "-1e300*t^2"]]
    path = tmp_path / "huge.json"
    path.write_text(cone_json(g=g, xi=["1e-150", "0", "0"], eta=["1e150", "0", "0"]), encoding="utf-8")
    rc, out, err = run(capsys, "soliton", str(path), "--potential-k", "1e160*t", "--samples", "4")
    assert rc == 2 and out == ""
    assert err.startswith("accr: DomainError: Lie derivative of metric g along the potential is not finite "
                          "at sample 0 (t=")
    assert err.count("\n") == 1


# An argument outside the domain of the jet arithmetic names the expression and the first
# offending sample.  Samples 0 and 4 are the first with t < 2 and t < 1 at the default
# seed; the second of two pinned points is the only one with t = 2.
_PINS = ("--point", "t=3,u=0,v=0", "--point", "t=2,u=0,v=0")


@pytest.mark.parametrize("potential, pins, message", [
    ("ln(t-1)", (), "ln(t-1.0): argument -0.4584411653475441 is not positive at sample 4 (t=0.54155883"),
    ("sqrt(t-2)", (), "sqrt(t-2.0): argument -0.6957770787843318 is not positive at sample 0 (t=1.30422292"),
    ("1/(t-2)", _PINS, "1.0/(t-2.0): division by zero at sample 1 (t=2.0, u=0.0, v=0.0)\n"),
    ("(t-2)^-2", _PINS, "(t-2.0)^-2.0: zero base with negative exponent at sample 1 (t=2.0, u=0.0, v=0.0)\n"),
])
def test_domain_errors_name_the_expression_and_sample(capsys, potential, pins, message):
    rc, out, err = run(capsys, "report", *CONE, "--potential-k", potential, "--samples", "8", *pins)
    assert rc == 2 and out == ""
    assert err.startswith(f"accr: DomainError: {message}") and err.count("\n") == 1


def test_curvature_overflowing_metric_is_a_domain_error(capsys, tmp_path):
    g = [["1", "0", "0"], ["0", "exp(1000*t)", "0"], ["0", "0", "-t^2"]]
    path = tmp_path / "overflow.json"
    path.write_text(cone_json(g=g), encoding="utf-8")
    for command in ("curvature", "validate"):
        rc, out, err = run(capsys, command, str(path), "--samples", "3")
        assert rc == 2 and out == ""
        assert err.startswith("accr: DomainError: exp(1000.0*t) is not finite at sample 0 (t=")
        assert err.count("\n") == 1


def test_curvature_of_an_overflowing_associated_metric_is_a_domain_error(capsys, tmp_path):
    # g's jets are finite, but g~ = g phi + eta (x) eta overflows at every sample
    path = tmp_path / "overflow.json"
    path.write_text(cone_json(eta=["1e200", "0", "0"]), encoding="utf-8")
    rc, out, err = run(capsys, "curvature", str(path), "--metric", "gtilde", "--samples", "4")
    assert rc == 2 and out == ""
    assert err == ("accr: DomainError: metric gtilde: 1e+200*1e+200 is not finite at sample 0 "
                   "(t=2.426927104341063, u=-1.389176440926784, v=2.6628559899742905)\n")


def test_validate_fails_where_a_derivative_does_as_curvature_does(capsys, tmp_path):
    # abs(u) - abs(u) has the finite value 0 but no derivative at u = 0; validation reads
    # the structure jets, so it ends as curvature does, with the same message
    g = [["1", "0", "0"], ["0", "t^2+abs(u)-abs(u)", "0"], ["0", "0", "-t^2"]]
    path = tmp_path / "kink.json"
    path.write_text(cone_json(g=g), encoding="utf-8")
    for command in ("validate", "curvature"):
        rc, out, err = run(capsys, command, str(path), "--point", "t=2,u=0,v=0", "--samples", "4")
        assert rc == 2 and out == ""
        assert err == ("accr: DomainError: t^2.0+abs(u)-abs(u): abs is not differentiable at zero "
                       "at sample 0 (t=2.0, u=0.0, v=0.0)\n")


def test_verify_paper_expecting_a_frame_value_without_a_frame_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "frameless.json"
    path.write_text(cone_json(constants=["c", "ct"], expect={"R_1212": "-1/t^2"}), encoding="utf-8")
    rc, out, err = run(capsys, "verify-paper", str(path), "--samples", "4")
    assert rc == 2 and out == ""
    assert err == "accr: ManifoldParseError: structure declares no frame\n"


def test_verify_paper_on_a_structure_without_a_frame_reads_no_frame(capsys, tmp_path):
    # no expectation reads the frame, so its three golden records are n/a like the others not given
    path = tmp_path / "frameless.json"
    path.write_text(cone_json(constants=["c", "ct"]), encoding="utf-8")
    rc, data, err = run_json(capsys, "verify-paper", str(path), "--samples", "4")
    assert rc == 0 and err == ""
    verdicts = [c["verdict"] for c in data["checks"]]
    assert (len(verdicts), verdicts.count("n/a"), verdicts.count("pass")) == (51, 33, 18)
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["curvature R_1212 in the phi-frame"]["anchor"] == "expect.R_1212 is not given"


def test_validate_a_metric_near_the_float_limit_ends_in_a_verdict(capsys, tmp_path):
    # g + g^T overflows where g ~ 1e307; the signature is still decided, with no traceback
    path = tmp_path / "huge.json"
    path.write_text(cone_json(domain={"t": [1e153, 1e154], "u": [-3.0, 3.0], "v": [-3.0, 3.0]}),
                    encoding="utf-8")
    rc, data, err = run_json(capsys, "validate", str(path), "--samples", "16")
    assert rc == 1 and err == ""
    (signature,) = [c for c in data["checks"] if c["name"] == "structure: signature"]
    assert signature["verdict"] == "fail"


def _kernel_refuses_oversized_requests() -> bool:
    """Linux overcommit modes 0 and 2 refuse one request larger than memory and swap."""
    try:
        return Path("/proc/sys/vm/overcommit_memory").read_text().strip() in ("0", "2")
    except OSError:
        return False


@pytest.mark.skipif(not _kernel_refuses_oversized_requests(),
                    reason="the kernel may grant the request, and filling it would exhaust memory")
def test_too_many_samples_for_memory_is_a_usage_error(capsys):
    # numpy asks for 745 GiB at once and is refused; nothing is allocated
    rc, out, err = run(capsys, "validate", *CONE, "--samples", "100000000000")
    assert rc == 2 and out == ""
    assert err == "accr: out of memory for --samples 100000000000; use fewer samples\n"


@pytest.mark.parametrize("samples", ["99999999999999999999", "1152921504606846976"])
def test_samples_past_the_address_space_are_a_usage_error(capsys, samples):
    # 1e20 >= 2^63 is past any array length, and 2^60 floats past any array size: each is
    # refused before numpy is asked, so nothing is allocated
    rc, out, err = run(capsys, "validate", *CONE, "--samples", samples)
    assert rc == 2 and out == ""
    assert err == f"accr: out of memory for --samples {samples}; use fewer samples\n"


def test_curvature_singular_metric_exit_code(capsys, tmp_path):
    g = [["1", "0", "0"], ["0", "t^2", "0"], ["0", "0", "0"]]
    path = tmp_path / "degenerate.json"
    path.write_text(cone_json(g=g), encoding="utf-8")
    rc, _, err = run(capsys, "curvature", str(path), "--samples", "4")
    assert rc == 1
    assert "SingularMetric" in err


def test_curvature_of_gtilde_peak_traced_memory_on_the_n2_cone(capsys):
    # the traced peak is 2.22 MB (2.21-2.22 MB when g~'s second derivatives were made inside
    # dgamma), and 2.54 MB when g~'s second derivatives are kept past dgamma, their one reader
    argv = ["curvature", _CONE_N2_FILE, "--metric", "gtilde", "--samples", "64", "--format", "json"]
    assert main(argv) == 0  # warm: imports and first-call caches are not counted
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 2.40e6


def test_report_peak_traced_memory_on_the_n2_cone(capsys):
    # the traced peak of one report is 2.61 MB, against 2.80 MB when g~'s dgamma was kept
    # after r13, its last reader, and 4.53 MB when r04, g~'s second derivatives, dgamma
    # and the zero jets of the literal fields were all kept; the bound adds 0.23 MB to
    # the measured value
    argv = ["report", _CONE_N2_FILE, "--potential-k", "c*t", "--const", "c=1", "--samples", "64",
            "--format", "json"]
    assert main(argv) == 0  # warm: imports and first-call caches are not counted
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 2.84e6


def _accr_owned(obj) -> bool:
    """Whether obj is a function, frame, code object or instance of an accr module."""
    if isinstance(obj, types.FunctionType):
        module = obj.__module__
    elif isinstance(obj, types.FrameType):
        module = obj.f_globals.get("__name__")
    elif isinstance(obj, types.CodeType):
        return f"{os.sep}accr{os.sep}" in obj.co_filename
    else:
        module = type(obj).__module__
    return (module or "").split(".")[0] == "accr"


@pytest.mark.parametrize("argv", [
    CASES["verify-cone"][0], CASES["report-n2"][0], CASES["soliton-cone"][0],
    ["curvature", *CONE, "--samples", "8", "--format", "json"],
], ids=["verify-cone", "report-n2", "soliton-cone", "curvature"])
def test_a_run_leaves_no_accr_reference_cycle(capsys, argv):
    # What a run leaves to the cycle collector stays alive until the next collection.
    # The expected remainder is argparse's: each parser and its argument groups refer
    # to each other, and take its ArgumentParser.__init__.<locals>.identity along.
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        owned = [obj for obj in gc.garbage if _accr_owned(obj)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert not owned, [getattr(obj, "__qualname__", type(obj).__qualname__) for obj in owned]


def test_verify_paper(capsys):
    rc, out, _ = run(capsys, "verify-paper", "--samples", "16")
    assert rc == 0
    assert "51 checks: 51 pass" in out


def test_verify_paper_runs_on_a_structure_without_expectations(capsys):
    # flat-cosymplectic has no expect block and declares no constants: its golden and potential
    # records read n/a, and the suite's F5 class records fail, because the flat structure is F0
    rc, data, err = run_json(capsys, "verify-paper", "--builtin", "flat-cosymplectic", "--samples", "2")
    assert rc == 1 and err == "" and data["config"]["const"] == {}
    checks = {c["name"]: c for c in data["checks"]}
    na = [c for c in data["checks"] if c["verdict"] == "n/a"]
    assert len(checks) == 51 and len(na) == 33
    assert all(c["residual"] is None and c["anchor"].startswith("expect.") for c in na)
    assert checks["scalar curvature of g"]["anchor"] == "expect.tau is not given"
    assert checks["Yamabe almost soliton for g"]["anchor"] == "expect.potentials.g.k is not given"
    failed = {name for name, c in checks.items() if c["verdict"] == "fail"}
    assert failed == {"class: F5", "class: F5 with closed Lee form", "class: not F0"}


_CONE_N2_EXPECT = Path(__file__).resolve().parent / "cone_n2_expect.json"


@pytest.mark.parametrize("scale", [None, "(1+1e-6)"])
def test_verify_paper_on_the_n2_cone_reads_its_own_expectations(capsys, tmp_path, scale):
    path = _CONE_N2_EXPECT
    if scale is not None:  # the negative control: tau off by 1e-6 relative
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw["expect"]["tau"] = f"({raw['expect']['tau']})*{scale}"
        path = tmp_path / "cone_n2_wrong_tau.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
    rc, data, err = run_json(capsys, "verify-paper", str(path))
    failed = [c["name"] for c in data["checks"] if c["verdict"] != "pass"]
    assert err == "" and len(data["checks"]) == 51
    assert (rc, failed) == ((0, []) if scale is None else (1, ["scalar curvature of g"]))


def test_verify_paper_other_constants(capsys):
    rc, _, _ = run(capsys, "verify-paper", "--samples", "8", "--const", "c=2", "--const", "ct=0.5")
    assert rc == 0


def test_verify_paper_impossible_tolerance(capsys):
    rc, data, _ = run_json(capsys, "verify-paper", "--samples", "8", "--tolerance", "1e-18")
    assert rc == 1
    failed = [c for c in data["checks"] if c["verdict"] == "fail"]
    assert failed
    # honest magnitudes survive: rounding-level residuals are reported as
    # numbers, and checks whose premise broke carry residual null, never 0
    assert any(c["residual"] is not None and c["residual"] > 1e-17 for c in failed)
    assert all(c["residual"] is None or c["residual"] >= 0.0 for c in failed)


def test_report_full(capsys):
    rc, data, _ = run_json(
        capsys, "report", *CONE, "--samples", "6",
        "--potential-k", "c*t", "--const", "c=1", "--expect-soliton",
    )
    assert rc == 0
    names = [c["name"] for c in data["checks"]]
    assert any(n.startswith("structure:") for n in names)
    assert any(n.startswith("class ") for n in names)
    assert "associated Christoffels: direct vs correction route" in names
    assert "associated fundamental tensor: direct vs transfer route" in names
    assert "short connection form (F5 structures)" in names
    assert any(n.startswith("Yamabe almost soliton") for n in names)


def test_report_expect_soliton_needs_a_potential(capsys):
    rc, out, err = run(capsys, "report", *CONE, "--samples", "4", "--expect-soliton")
    assert rc == 2 and out == ""
    assert "--potential-k" in err


def test_report_and_verify_paper_share_each_check(capsys):
    # the same per-sample residuals, whichever command reports them
    _, report, _ = run_json(capsys, "report", *CONE, "--samples", "16", "--seed", "7")
    _, suite, _ = run_json(capsys, "verify-paper", *CONE, "--samples", "16", "--seed", "7")
    reported = {c["name"]: c["samples"] for c in report["checks"]}
    verified = {c["name"]: c["samples"] for c in suite["checks"]}
    for report_name, suite_name in (
        ("associated Christoffels: direct vs correction route",) * 2,
        ("associated fundamental tensor: direct vs transfer route",) * 2,
        ("short connection form (F5 structures)", "short connection form on F5"),
    ):
        assert reported[report_name] == verified[suite_name]
    # verify-paper takes the worse of the two metrics at each sample
    for report_name, suite_name in (
        ("metric compatibility", "metric compatibility"),
        ("curvature symmetries", "curvature symmetries and first Bianchi"),
        ("fundamental tensor properties", "fundamental tensor properties"),
    ):
        both = np.maximum(reported[report_name], reported[f"{report_name} (associated metric)"])
        assert len(both) == 16 and both.tolist() == verified[suite_name]


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    rc, out, _ = run(
        capsys, "validate", *CONE, "--samples", "4", "--format", "json", "-o", str(out_path)
    )
    assert rc == 0
    assert out == ""  # quiet when writing to a file
    data = json.loads(out_path.read_text(encoding="utf-8"))
    assert data["manifold"] == "builtin:cone-flat-fiber"


def test_an_output_file_in_a_missing_directory_exits_2(capsys, tmp_path):
    out_path = tmp_path / "missing" / "report.json"
    rc, out, err = run(capsys, "validate", *CONE, "--samples", "4", "-o", str(out_path))
    assert (rc, out) == (2, "")
    assert err == f"accr: [Errno 2] No such file or directory: '{out_path}'\n"
    assert not out_path.parent.exists()


def test_usage_errors(capsys, tmp_path):
    assert run(capsys, "validate", "missing.json")[0] == 2
    assert run(capsys, "validate", "--builtin", "nope")[0] == 2
    f = tmp_path / "m.json"
    f.write_text(cone_json(), encoding="utf-8")
    assert run(capsys, "validate", str(f), "--builtin", "cone-flat-fiber")[0] == 2
    assert run(capsys, "validate")[0] == 2
    assert run(capsys, "validate", *CONE, "--samples", "0")[0] == 2
    assert run(capsys, "validate", *CONE, "--tolerance", "-1")[0] == 2


def test_bad_point_specs(capsys):
    assert run(capsys, "validate", *CONE, "--point", "t=2")[0] == 2
    assert run(capsys, "validate", *CONE, "--point", "q=1,u=0,v=0")[0] == 2
    assert run(capsys, "validate", *CONE, "--point", "t=x,u=0,v=0")[0] == 2
    # a pinned point outside the open domain is a load-time error
    assert run(capsys, "validate", *CONE, "--point", "t=0.5,u=0,v=0")[0] == 2


def test_bad_const_specs(capsys):
    assert run(capsys, "validate", *CONE, "--const", "c")[0] == 2
    assert run(capsys, "validate", *CONE, "--const", "c=x")[0] == 2
    # non-finite values are refused even where no expression reads the constant
    for value in ("nan", "inf"):
        rc, _, err = run(capsys, "validate", "--builtin", "flat-cosymplectic", "--const", f"c={value}")
        assert rc == 2 and "not finite" in err


def test_undeclared_const_is_a_usage_error(capsys):
    # a misspelt constant must not pass silently with the defaults in its place
    rc, out, err = run(capsys, "verify-paper", "--samples", "2", "--const", "kprim=0.5")
    assert rc == 2 and out == ""
    assert err.startswith("accr: --const kprim:") and "declared: c, ct" in err
    rc, out, err = run(capsys, "validate", "--builtin", "flat-cosymplectic", "--const", "zzz=1")
    assert rc == 2 and out == "" and "--const zzz:" in err


def test_a_const_bound_twice_is_a_usage_error(capsys):
    # the last value used to win silently; one user value may still override a suite default
    rc, out, err = run(capsys, "soliton", *CONE, "--potential-k", "c*t", "--const", "c=1", "--const", "c=2")
    assert rc == 2 and out == ""
    assert err == "accr: --const c: bound more than once\n"
    rc, data, _ = run_json(capsys, "verify-paper", "--samples", "2", "--const", "c=2")
    assert rc == 0 and data["config"]["const"]["c"] == 2.0


def test_a_coordinate_bound_twice_in_one_point_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "verify-paper", "--point", "t=1,u=0,v=0,t=3", "--samples", "2")
    assert rc == 2 and out == ""
    assert err == "accr: --point t: bound more than once in 't=1,u=0,v=0,t=3'\n"


def test_a_malformed_expect_block_exits_2_in_every_command(capsys, tmp_path):
    christoffel = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    christoffel[1][0][2] = 7
    path = tmp_path / "bad_expect.json"
    path.write_text(cone_json(expect={"christoffel": christoffel}), encoding="utf-8")
    for command in _COMMANDS + (["verify-paper"],):
        rc, out, err = run(capsys, *command, str(path), "--samples", "2")
        assert (rc, out) == (2, ""), command
        assert err == "accr: ManifoldParseError: expect.christoffel[1][0][2] must be an expression string\n"


def test_an_expectation_that_reads_an_unbound_constant_exits_2(capsys, tmp_path):
    frame = [["0", "0", "1"], ["1/t", "0", "0"], ["0", "1/t", "0"]]
    path = tmp_path / "tau_of_a.json"
    path.write_text(cone_json(constants=["a"], frame=frame, expect={"tau": "a/t^2"}), encoding="utf-8")
    rc, out, err = run(capsys, "verify-paper", str(path), "--samples", "2")
    assert (rc, out, err) == (2, "", "accr: UnboundConstant: constant 'a' has no bound value\n")
    rc, data, _ = run_json(capsys, "verify-paper", str(path), "--samples", "2", "--const", "a=-2")
    assert rc == 0 and [c["verdict"] for c in data["checks"] if c["name"] == "scalar curvature of g"] == ["pass"]


def test_boolean_structure_fields_exit_2(capsys, tmp_path):
    path = tmp_path / "bool_n.json"
    path.write_text(cone_json(n=True), encoding="utf-8")
    rc, out, err = run(capsys, "validate", str(path), "--samples", "2")
    assert rc == 2 and out == ""
    assert err == "accr: ManifoldParseError: n must be a positive integer\n"


def _src_env():
    """The environment with this checkout's `src` first on the import path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_python_dash_m_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "accr", "validate", "--builtin", "cone-flat-fiber", "--samples", "2"],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "8 checks: 8 pass" in done.stdout


# Runs accr.cli.main in a fresh interpreter, then prints which of NumPy's RNG,
# OpenSSL's binding and the dataclass code generator it loaded.
_LOADED = (
    "import json, sys\n"
    "from accr.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted({'numpy.random', '_hashlib', 'dataclasses'} & sys.modules.keys())))\n"
    "sys.exit(code)\n"
)


def _run_fresh(*argv):
    done = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=_src_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    *out, loaded = done.stdout.splitlines()
    return "\n".join(out), json.loads(loaded)


@pytest.mark.parametrize("argv", [
    ["soliton", *CONE, "--metric", "gtilde", "--potential-k", "ct*t", "--const", "ct=1", "--samples", "8"],
    ["verify-paper", *CONE, "--samples", "8"],
])
def test_a_builtin_run_loads_neither_numpy_random_nor_openssl(argv):
    assert _run_fresh(*argv)[1] == []


def test_a_file_is_identified_by_the_sha256_of_its_bytes(tmp_path):
    source = cone_json().replace(", ", ",\r\n").encode("utf-8")  # CRLF line ends are part of the bytes
    path = tmp_path / "cone.json"
    path.write_bytes(source)
    out, loaded = _run_fresh("report", str(path), "--samples", "4", "--format", "json")
    assert json.loads(out)["manifold"] == f"sha256:{hashlib.sha256(source).hexdigest()}"
    assert loaded == []


def test_the_n2_cone_report_loads_no_openssl_dataclasses_or_numpy_random():
    out, loaded = _run_fresh("report", _CONE_N2_FILE, "--potential-k", "c*t", "--const", "c=1",
                             "--samples", "64", "--seed", "42", "--format", "json")
    assert json.loads(out)["manifold"].startswith("sha256:")
    assert loaded == []


def test_a_file_that_is_not_utf8_exits_2_with_one_line(capsys, tmp_path):
    path = tmp_path / "bom16.json"
    path.write_bytes(b"\xff\xfe{}")
    rc, out, err = run(capsys, "validate", str(path), "--samples", "2")
    assert rc == 2 and out == ""
    assert err.startswith("accr: ManifoldParseError: not UTF-8 text: ") and err.count("\n") == 1


def test_point_counts_toward_samples(capsys):
    rc, data, _ = run_json(capsys, "validate", *CONE, *PIN, "--samples", "3")
    assert rc == 0
    pts = data["config"]["sample_points"]
    assert len(pts) == 3
    assert pts[0] == [2.0, 0.3, -0.4]


def test_non_finite_tolerance_is_a_usage_error(capsys):
    for value in ("nan", "inf"):
        rc, out, err = run(capsys, "validate", *CONE, "--samples", "4", "--tolerance", value)
        assert rc == 2 and out == ""
        assert err.startswith("accr: --tolerance")


def test_negative_seed_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "validate", *CONE, "--samples", "4", "--seed", "-1")
    assert rc == 2 and out == ""
    assert err.startswith("accr: --seed")


def test_more_pins_than_samples_is_a_usage_error(capsys):
    rc, out, err = run(
        capsys, "validate", *CONE, "--samples", "1", *PIN, "--point", "t=3,u=0,v=0"
    )
    assert rc == 2 and out == ""
    assert "2 --point pins exceed --samples 1" in err


def test_subcommand_options_and_defaults():
    common = {"input": None, "builtin": None, "samples": 64, "seed": 42, "point": [], "const": [],
              "tolerance": 1e-9, "format": "table", "output": None}
    solve = {**common, "metric": "g", "potential_k": None, "expect_soliton": False}
    expected = {
        "validate": common,
        "classify": common,
        "curvature": {**common, "metric": "g"},
        "soliton": solve,
        "verify-paper": common,
        "report": solve,
    }
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(expected)
    for command, defaults in expected.items():
        options = {s for action in sub.choices[command]._actions for s in action.option_strings}
        names = {"--" + key.replace("_", "-") for key in defaults if key != "input"}
        assert options == {"-h", "--help", "-o", *names}, command
        assert vars(parser.parse_args([command])) == {"command": command, **defaults}, command
    # the shared options keep no state between parses
    args = parser.parse_args(["report", "--point", "t=1,u=0,v=0", "--const", "c=2"])
    assert (args.point, args.const) == (["t=1,u=0,v=0"], ["c=2"])
    assert vars(parser.parse_args(["validate"])) == {"command": "validate", **common}


_COMMAND_NAMES = ("validate", "classify", "curvature", "soliton", "verify-paper", "report")
_ARGV_SURFACE = [
    ["-h"],
    *([name, "-h"] for name in _COMMAND_NAMES),
    [],
    ["nope"],
    ["validate", "--bogus"],
    ["soliton", "--samples", "x"],
    ["curvature", "--metric", "h"],
    ["--", "validate"],
    ["report", "a.json", "b.json"],
    ["soliton", "--pot", "t", "--samp", "3", "--expect"],
    ["report", "--", "x.json"],
]


def _parse_outcome(capsys, parse, argv):
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", _ARGV_SURFACE, ids=lambda argv: " ".join(argv) or "(none)")
def test_main_parses_as_the_whole_parser_tree(capsys, monkeypatch, argv):
    # help, usage errors and parsed options, each as build_parser() gives them
    def echo(args):
        print(sorted(vars(args).items()))
        return 0

    monkeypatch.setattr(cli, "_run", echo)
    whole = _parse_outcome(capsys, lambda argv: echo(build_parser().parse_args(argv)), argv)
    assert _parse_outcome(capsys, main, argv) == whole


@pytest.mark.parametrize("case", ["verify-cone", "report-n2", "soliton-cone"])
def test_a_benchmark_command_builds_one_parser(capsys, monkeypatch, case):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argv = CASES[case][0]
    assert main(argv) == 0
    capsys.readouterr()
    assert built == [f"accr {argv[0]}"]


@pytest.mark.parametrize("shape", ["sum", "parentheses"])
def test_a_structure_entry_nested_too_deep_exits_2(capsys, tmp_path, shape):
    entry = "+".join(["t"] * 1200) if shape == "sum" else "(" * 400 + "t" + ")" * 400
    path = tmp_path / "deep.json"
    path.write_text(cone_json(g=[[entry, "0", "0"], ["0", "t^2", "0"], ["0", "0", "-t^2"]]), encoding="utf-8")
    rc, out, err = run(capsys, "report", str(path), "--samples", "2")
    assert (rc, out, err) == (
        2, "", "accr: ManifoldParseError: g[0][0]: expression nests deeper than 100 levels\n")


def test_a_potential_nested_too_deep_exits_2(capsys):
    rc, out, err = run(capsys, "soliton", *CONE, "--potential-k", "+".join(["t"] * 1500), "--samples", "2")
    assert (rc, out, err) == (2, "", "accr: ExprError: expression nests deeper than 100 levels\n")


# The example's cone with only the domain of t moved, far from 1 either way: every residual is still
# judged against the absolute tolerance 1e-9, so round-off of order 1e-16 relative to terms of
# order 1e8 (or 1e-8) fails these records today.
_RESCALED_CONE_FAILURES = {
    (5e3, 5e4): [
        "Yamabe almost soliton for g", "Yamabe almost soliton for g~",
        "conformal scalar balance for g", "conformal scalar balance for g~",
        "torqued criterion for g", "torqued criterion for g~",
        "Lie derivatives of both metrics", "Lie derivative expansion for vertical potentials",
    ],
    (1e-4, 1e-3): [
        "curvature R_1212 in the phi-frame", "Ricci rho_11 in the phi-frame", "Ricci rho_22 in the phi-frame",
        "scalar curvature of g", "scalar curvature of the associated metric", "gradient of the Lee scalar",
        "scalar curvature transfer", "scalar curvature transfer via h",
        "Yamabe almost soliton for g", "Yamabe almost soliton for g~",
    ],
}


def _rescaled_cone_checks(capsys, tmp_path, t_domain):
    raw = json.loads(builtin_structure("cone-flat-fiber").source)
    raw["domain"]["t"] = list(t_domain)
    path = tmp_path / "rescaled.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    rc, report, err = run_json(capsys, "verify-paper", str(path), "--samples", "64", "--seed", "42")
    assert err == "" and len(report["checks"]) == 51
    return rc, report["checks"]


@pytest.mark.parametrize("t_domain", sorted(_RESCALED_CONE_FAILURES), ids=["small-t", "large-t"])
def test_a_rescaled_cone_fails_its_absolute_residuals_today(capsys, tmp_path, t_domain):
    rc, checks = _rescaled_cone_checks(capsys, tmp_path, t_domain)
    failed = [c["name"] for c in checks if c["verdict"] == VERDICT_FAIL]
    assert (rc, failed) == (1, _RESCALED_CONE_FAILURES[t_domain])
    # the balance and torqued records read no residual where the solve was not a soliton
    unsolved = [c["name"] for c in checks if c["verdict"] == VERDICT_FAIL and c["residual"] is None]
    assert unsolved == (failed[2:6] if t_domain == (5e3, 5e4) else [])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: every residual is absolute, so a change of "
                                       "the chart's scale fails records that a relative rule would pass")
@pytest.mark.parametrize("t_domain", sorted(_RESCALED_CONE_FAILURES), ids=["small-t", "large-t"])
def test_a_rescaled_cone_passes_every_check(capsys, tmp_path, t_domain):
    rc, checks = _rescaled_cone_checks(capsys, tmp_path, t_domain)
    assert (rc, [c["verdict"] for c in checks]) == (0, ["pass"] * 51)
