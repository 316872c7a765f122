"""Check records and report serialization.

Every check carries an anchor: the formula or statement it tests, spelled
in plain ASCII so a reader can match it against the source of the claim
without decoding internal naming.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii
from math import copysign, inf, nan
from typing import NamedTuple

import numpy as np

from .record import Value

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_DEGENERATE = "degenerate"
VERDICT_NA = "n/a"

_VERDICTS = (VERDICT_PASS, VERDICT_FAIL, VERDICT_DEGENERATE, VERDICT_NA)

_INFINITE = {inf: "Infinity", -inf: "-Infinity"}
_FLOAT = frozenset((float,))
_ROW = frozenset((list, tuple))


class CheckRecord(Value):
    __slots__ = ("name", "anchor", "verdict", "residual", "samples")

    def __init__(self, name: str, anchor: str, verdict: str, residual: float | None = None,
                 samples: tuple[float, ...] | None = None):
        if verdict not in _VERDICTS:
            raise ValueError(f"verdict {verdict!r} not in {_VERDICTS}")
        super().__init__(name, anchor, verdict, residual, samples)

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
    """Pass/fail record from per-sample residuals aggregated by max; a NaN in any sample fails it."""
    per_sample = np.asarray(per_sample, dtype=float)
    values = tuple(per_sample.tolist())
    worst = nan if np.isnan(per_sample).any() else max(values, default=0.0)  # max skips a later NaN
    verdict = VERDICT_PASS if worst <= tol else VERDICT_FAIL
    return CheckRecord(name=name, anchor=anchor, verdict=verdict, residual=worst, samples=values)


class Report(NamedTuple):
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
        return _dumps(self.to_dict())

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


def _dumps(obj) -> str:
    """The text of json.dumps(obj, indent=2, sort_keys=True), byte for byte.

    Dict keys must be str; any other key, and any value json.dumps rejects,
    raises TypeError.  Each distinct nonzero float is spelled once per call;
    a zero is spelled by its sign, since 0.0 and -0.0 are one dict key.  A
    list of plain floats, such as a record's samples, is joined in one pass.
    A matrix of plain floats (equal-length, non-empty rows), such as the
    sample points, is spelled in one pass, float.__repr__ on every entry,
    unless an entry is infinite or NaN.  The recursion is the module-level
    _encode, so no closure refers to itself and the float memo goes with the
    call, without waiting for the cycle collector.
    """
    spelled: dict[float, str] = {}

    def number(x: float) -> str:
        if not x:
            return "-0.0" if copysign(1.0, x) < 0.0 else "0.0"
        text = spelled.get(x)
        if text is None:
            if x != x:
                return "NaN"
            text = spelled[x] = _INFINITE.get(x) or float.__repr__(x)
        return text

    return _encode(obj, "\n", number)


def _matrix(rows, indent: str) -> str | None:
    """The text of rows as a float matrix, or None if they are none or hold inf or NaN."""
    width = len(rows[0]) if _ROW.issuperset(map(type, rows)) else 0
    if not width or any(len(row) != width for row in rows):
        return None
    flat = [x for row in rows for x in row]
    if not _FLOAT.issuperset(map(type, flat)):
        return None
    inner, entry = indent + "  ", indent + "    "
    row = "[" + entry + ("," + entry).join(("%s",) * width) + inner + "]"
    text = ("[" + inner + ("," + inner).join((row,) * len(rows)) + indent + "]") % tuple(
        map(float.__repr__, flat))
    return None if "n" in text else text  # inf, nan: JSON spells them otherwise


def _encode(o, indent: str, number) -> str:
    """The JSON text of o at the given indent, spelling floats by `number`."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return number(o)
    inner = indent + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if _FLOAT.issuperset(map(type, o)):
            items = map(number, o)
        elif (text := _matrix(o, indent)) is not None:
            return text
        else:
            items = [_encode(v, inner, number) for v in o]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [encode_basestring_ascii(key) + ": " + _encode(o[key], inner, number) for key in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
