"""The output contract: what the benchmark's workloads print, pinned by fingerprint.

Each case runs one command in-process and compares the sha256 of its stdout,
with the wall time masked, against a fixed fingerprint.  A change meant to
keep the output must leave every fingerprint as it is; a change that alters
the output on purpose updates the fingerprints here and says so.
"""
import hashlib
import re
from pathlib import Path

import pytest

from accr.cli import main

from test_manifold import cone_json

CONE_N2 = str(Path(__file__).resolve().parent.parent / "perfbench" / "cone_n2.json")
_WALL = re.compile(r'"wall_ms": [^,\n}]*|^wall: .*$', re.MULTILINE)

# The workloads of perfbench/run.py at seed 42, one in table format, then three more
# commands on the n = 2 cone; each exits 0.
CASES = {
    "verify-cone": (
        ["verify-paper", "--builtin", "cone-flat-fiber", "--samples", "64", "--seed", "42", "--format", "json"],
        "83b8cc8f2015dddaa07c3e514816b2ebc94e0c2465a3e96102cfde7245161d73",
    ),
    "report-n2": (
        ["report", CONE_N2, "--potential-k", "c*t", "--const", "c=1", "--samples", "64", "--seed", "42",
         "--format", "json"],
        "a4d525823014cf98e93f1f8904b1d592816bd727a1d551aff4a5a48244d31c5b",
    ),
    "soliton-cone": (
        ["soliton", "--builtin", "cone-flat-fiber", "--metric", "gtilde", "--potential-k", "ct*t",
         "--const", "ct=1", "--expect-soliton", "--samples", "256", "--seed", "42", "--format", "json"],
        "f2042d9df3cc69016d34688dc7907905b2d4c38eee9c2dc1a051bf5e393c2d21",
    ),
    "report-n2-table": (
        ["report", CONE_N2, "--potential-k", "c*t", "--const", "c=1", "--samples", "16", "--format", "table"],
        "771c09e1f4d7fcd41a2d80087b7e86c7589f1853130e356d9e63fc85c0942531",
    ),
    # the commands that read the lowered curvature, the phi-frame values and the structure jets
    "curvature-g-n2": (
        ["curvature", CONE_N2, "--metric", "g", "--samples", "64", "--seed", "42", "--format", "json"],
        "5aa909e8c687379f56345fbc2878d91efa1160f2146b323131bccfb1237002a4",
    ),
    "curvature-gtilde-n2": (
        ["curvature", CONE_N2, "--metric", "gtilde", "--samples", "64", "--seed", "42", "--format", "json"],
        "945ce07b79796890b42c5adc95f4d54f90439f96130478d8fca073eebb767e5c",
    ),
    "classify-n2": (
        ["classify", CONE_N2, "--samples", "64", "--seed", "42", "--format", "json"],
        "3e8ce4d2f91b77260eb8f5c15db434667597f161ca89df6b8c3f04f837a60e92",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_its_fingerprint(capsys, case):
    argv, fingerprint = CASES[case]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    masked = _WALL.sub("WALL", out)
    assert masked.count("WALL") == 1
    assert hashlib.sha256(masked.encode("utf-8")).hexdigest() == fingerprint


# The two singular paths on a cone whose metric or frame degenerates at t = 2, with a
# regular sample pinned first: each exits 1 with one stderr line and no stdout.
SINGULAR = {
    "metric": (
        {"g": [["1", "0", "0"], ["0", "t^2", "0"], ["0", "0", "-(t-2)^2"]]},
        "accr: SingularMetric: metric g is numerically singular at sample 1 (t=2.0, u=0.0, v=0.0), "
        "with singular values [4. 1. 0.]\n",
    ),
    "frame": (
        {"frame": [["0", "0", "1"], ["1/t", "0", "0"], ["0", "t-2", "0"]]},
        "accr: SingularFrame: frame vectors are linearly dependent at sample 1 (t=2.0, u=0.0, v=0.0)\n",
    ),
}


@pytest.mark.parametrize("case", sorted(SINGULAR))
def test_a_singular_input_prints_its_error(capsys, tmp_path, case):
    overrides, stderr = SINGULAR[case]
    path = tmp_path / f"singular-{case}.json"
    path.write_text(cone_json(**overrides), encoding="utf-8")
    argv = ["curvature", str(path), "--samples", "4", "--point", "t=1,u=0,v=0", "--point", "t=2,u=0,v=0"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", stderr)
