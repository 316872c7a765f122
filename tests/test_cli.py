"""Command-line interface: exit codes, output schema, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from accr.cli import main

from test_manifold import cone_json

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


def test_curvature_singular_metric_exit_code(capsys, tmp_path):
    g = [["1", "0", "0"], ["0", "t^2", "0"], ["0", "0", "0"]]
    path = tmp_path / "degenerate.json"
    path.write_text(cone_json(g=g), encoding="utf-8")
    rc, _, err = run(capsys, "curvature", str(path), "--samples", "4")
    assert rc == 1
    assert "SingularMetric" in err


def test_verify_paper(capsys):
    rc, out, _ = run(capsys, "verify-paper", "--samples", "16")
    assert rc == 0
    assert "51 checks: 51 pass" in out


def test_verify_paper_needs_the_suite_constants(capsys):
    rc, out, err = run(capsys, "verify-paper", "--builtin", "flat-cosymplectic", "--samples", "2")
    assert rc == 2 and out == ""
    assert "c, ct, kprime" in err and "UnknownIdentifier" not in err


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
    assert err.startswith("accr: --const kprim:") and "declared: c, ct, kprime" in err
    rc, out, err = run(capsys, "validate", "--builtin", "flat-cosymplectic", "--const", "zzz=1")
    assert rc == 2 and out == "" and "--const zzz:" in err


def test_boolean_structure_fields_exit_2(capsys, tmp_path):
    path = tmp_path / "bool_n.json"
    path.write_text(cone_json(n=True), encoding="utf-8")
    rc, out, err = run(capsys, "validate", str(path), "--samples", "2")
    assert rc == 2 and out == ""
    assert err == "accr: ManifoldParseError: n must be a positive integer\n"


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "accr", "validate", "--builtin", "cone-flat-fiber", "--samples", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "8 checks: 8 pass" in done.stdout


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
