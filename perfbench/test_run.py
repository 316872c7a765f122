"""Smoke test of the benchmark: every workload at tiny N, both modes.

    python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 2


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_and_every_gate_passes(workload, trace):
    header, result = run.run(workload, seed=3, seconds=0, trace=trace, samples=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert header["failed_frac"] == 0.0 and header["samples"] == TINY
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in metrics.items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    if trace:
        assert metrics["expr.eval_jet.calls_per_sample"]["value"] > 0


def test_gate_rejects_changed_verdicts_and_output():
    gate = run.Gate([["a", "pass"]])
    record = {"checks": [{"name": "a", "verdict": "pass"}], "wall_ms": 1.0}
    assert gate.check(0, json.dumps(record))
    assert gate.check(0, json.dumps(dict(record, wall_ms=2.5)))
    assert not gate.check(1, json.dumps(record))
    assert not gate.check(0, json.dumps(dict(record, checks=[{"name": "a", "verdict": "fail"}])))
    assert not gate.check(0, json.dumps(dict(record, extra=1)))
    assert (gate.attempted, gate.failed) == (5, 3)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-cone", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
