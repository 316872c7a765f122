"""Check records and report serialization.

Every check carries an anchor: the formula or statement it tests, spelled
in plain ASCII so a reader can match it against the source of the claim
without decoding internal naming.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_DEGENERATE = "degenerate"
VERDICT_NA = "n/a"

_VERDICTS = (VERDICT_PASS, VERDICT_FAIL, VERDICT_DEGENERATE, VERDICT_NA)


@dataclass(frozen=True)
class CheckRecord:
    name: str
    anchor: str
    verdict: str
    residual: float | None = None
    samples: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"verdict {self.verdict!r} not in {_VERDICTS}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "verdict": self.verdict,
            "residual": self.residual,
            "samples": list(self.samples) if self.samples is not None else None,
        }


def record_from_residual(
    name: str, anchor: str, per_sample, tol: float
) -> CheckRecord:
    """Pass/fail record from per-sample residuals aggregated by max."""
    values = tuple(np.asarray(per_sample, dtype=float).tolist())
    worst = max(values) if values else 0.0
    verdict = VERDICT_PASS if worst <= tol else VERDICT_FAIL
    return CheckRecord(name=name, anchor=anchor, verdict=verdict, residual=worst, samples=values)


@dataclass(frozen=True)
class Report:
    manifold: str
    config: dict
    checks: tuple[CheckRecord, ...]
    wall_ms: float

    def to_dict(self) -> dict:
        return {
            "manifold": self.manifold,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "wall_ms": self.wall_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_table(self) -> str:
        lines = [f"manifold: {self.manifold}"]
        for key in sorted(self.config):
            lines.append(f"  {key}: {self.config[key]}")
        lines.append("")
        width = max((len(c.name) for c in self.checks), default=4)
        lines.append(f"{'check':<{width}}  {'verdict':<10} {'residual':>12}  anchor")
        lines.append("-" * (width + 60))
        for c in self.checks:
            res = f"{c.residual:.3e}" if c.residual is not None else "-"
            lines.append(f"{c.name:<{width}}  {c.verdict:<10} {res:>12}  {c.anchor}")
        counts = {}
        for c in self.checks:
            counts[c.verdict] = counts.get(c.verdict, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines.append("")
        lines.append(f"{len(self.checks)} checks: {summary}")
        lines.append(f"wall: {self.wall_ms:.1f} ms")
        return "\n".join(lines)

    def failed(self) -> list[CheckRecord]:
        return [c for c in self.checks if c.verdict == VERDICT_FAIL]
