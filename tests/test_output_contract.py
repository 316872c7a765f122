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
        "0a223dbf31eaca78eb5cef38facc30bcb51225fe3a0d1faff9ff89033653dbb7",
    ),
    "report-n2": (
        ["report", CONE_N2, "--potential-k", "c*t", "--const", "c=1", "--samples", "64", "--seed", "42",
         "--format", "json"],
        "00a42f96b2e5077fb0a26df0e5aeee1bddec590500b7ed03e7ced479f78d1400",
    ),
    "soliton-cone": (
        ["soliton", "--builtin", "cone-flat-fiber", "--metric", "gtilde", "--potential-k", "ct*t",
         "--const", "ct=1", "--expect-soliton", "--samples", "256", "--seed", "42", "--format", "json"],
        "4777015676a5a6df406c221b58060a7d8cf8fb40157e3e38d13a7e437a534682",
    ),
    "report-n2-table": (
        ["report", CONE_N2, "--potential-k", "c*t", "--const", "c=1", "--samples", "16", "--format", "table"],
        "fd460601af3002bc5832789b946aaf7c18b0f10c6c19eeb8ab6aa4249ed29518",
    ),
    # the commands that read the lowered curvature, the phi-frame values and the structure jets
    "curvature-g-n2": (
        ["curvature", CONE_N2, "--metric", "g", "--samples", "64", "--seed", "42", "--format", "json"],
        "a373098af3e53978ea4094cdc07a4847b5229eaa8b61790b221bb668e0bb3aa9",
    ),
    "curvature-gtilde-n2": (
        ["curvature", CONE_N2, "--metric", "gtilde", "--samples", "64", "--seed", "42", "--format", "json"],
        "d4c82ac991c59e2690c0fd0fd874fb0f5c848117306042381ac35b69ffb4dfe4",
    ),
    "classify-n2": (
        ["classify", CONE_N2, "--samples", "64", "--seed", "42", "--format", "json"],
        "dd5bd36f5a1010a98239f5d8228ff2de8dd88da153734cd5fdea45eca582b069",
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
        "accr: SingularMetric: metric g is numerically singular at sample 1 (singular values [4. 1. 0.])\n",
    ),
    "frame": (
        {"frame": [["0", "0", "1"], ["1/t", "0", "0"], ["0", "t-2", "0"]]},
        "accr: SingularFrame: frame vectors are linearly dependent at sample 1\n",
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
