"""Command-line front end.

Exit codes are a stable contract: 0 all gating checks pass, 1 a gating
check failed, 2 usage or load error.  Classification statuses are answers
rather than successes, so they never gate the exit code; verify-paper
gates on every record it emits.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, geometry
from .errors import (
    DimensionMismatch,
    DomainError,
    ExprError,
    ManifoldError,
    PotentialError,
    TensorError,
)
from .manifold import (
    METRIC_G,
    METRIC_GTILDE,
    AccRStructure,
    builtin_names,
    builtin_structure,
    check_bindings,
    load_manifold,
    sample_points,
)
from .report import Report, VERDICT_FAIL, VERDICT_PASS

__all__ = ["main", "entrypoint", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accr",
        description="Chart-based computations on almost contact B-metric manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_metric=False, needs_potential=False):
        p.add_argument("input", nargs="?", default=None,
                       help="manifold JSON file, or builtin:NAME")
        p.add_argument("--builtin", default=None, metavar="NAME",
                       help=f"use a shipped structure ({', '.join(builtin_names())})")
        p.add_argument("--samples", type=int, default=64, metavar="N")
        p.add_argument("--seed", type=int, default=42, metavar="S")
        p.add_argument("--point", action="append", default=[], metavar="c1=v1,c2=v2,...",
                       help="pin a sample point; repeatable, counts toward --samples")
        p.add_argument("--const", action="append", default=[], metavar="name=value",
                       help="bind a declared constant; repeatable")
        p.add_argument("--tolerance", type=float, default=1e-9, metavar="T")
        p.add_argument("--format", choices=("json", "table"), default="table")
        p.add_argument("-o", "--output", default=None, metavar="PATH")
        if needs_metric:
            p.add_argument("--metric", choices=(METRIC_G, METRIC_GTILDE), default=METRIC_G)
        if needs_potential:
            p.add_argument("--potential-k", default=None, metavar="EXPR",
                           help="scalar k of the vertical potential k*xi")
            p.add_argument("--expect-soliton", action="store_true",
                           help="exit 1 unless the verdict is soliton")

    common(sub.add_parser("validate", help="check the defining structure identities"))
    common(sub.add_parser("classify", help="Sasaki-like / F5 / F5_0 / F0 membership"))
    common(sub.add_parser("curvature", help="curvature quantities and identity checks"),
           needs_metric=True)
    common(sub.add_parser("soliton", help="Yamabe almost-soliton solve"),
           needs_metric=True, needs_potential=True)
    common(sub.add_parser(
        "verify-paper",
        help="golden-value suite on the cone example",
        description=(
            "Compare the cone example with its published closed forms. The constants c, ct "
            "and kprime default to 1, 1 and 0. kprime enters only the closed forms: the "
            "shipped fiber is flat, so its metric has kprime = 0, and any other value fails "
            "the curvature, tau and soliton checks."
        ),
    ))
    common(sub.add_parser("report", help="validation + classification + identity suites"),
           needs_metric=True, needs_potential=True)
    return parser


class _Usage(Exception):
    pass


def _load_structure(args) -> tuple[AccRStructure, str]:
    """Resolve the input to a structure plus a stable identity string."""
    name = None
    if args.builtin is not None and args.input is not None:
        raise _Usage("give either a file or --builtin, not both")
    if args.builtin is not None:
        name = args.builtin
    elif args.input is not None and args.input.startswith("builtin:"):
        name = args.input.split(":", 1)[1]
    if name is not None:
        return builtin_structure(name), f"builtin:{name}"
    if args.input is None:
        if args.command == "verify-paper":
            return builtin_structure("cone-flat-fiber"), "builtin:cone-flat-fiber"
        raise _Usage("no input given; pass a manifold file or --builtin NAME")
    path = Path(args.input)
    if not path.is_file():
        raise _Usage(f"no such file: {path}")
    S = load_manifold(path.read_text(encoding="utf-8"))
    return S, f"sha256:{S.source_sha256}"


def _parse_bindings(pairs) -> dict[str, float]:
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise _Usage(f"--const expects name=value, got {pair!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise _Usage(f"--const {name}: {value!r} is not a number") from None
        if not np.isfinite(out[name]):
            raise _Usage(f"--const {name}: {value!r} is not finite")
    return out


def _parse_points(specs, chart) -> list[list[float]]:
    points = []
    for spec in specs:
        values = {}
        for item in spec.split(","):
            name, sep, value = item.partition("=")
            if not sep or name not in chart.coordinates:
                raise _Usage(f"--point expects coord=value pairs over {chart.coordinates}")
            try:
                values[name] = float(value)
            except ValueError:
                raise _Usage(f"--point {name}: {value!r} is not a number") from None
        missing = set(chart.coordinates) - values.keys()
        if missing:
            raise _Usage(f"--point must bind every coordinate; missing {sorted(missing)}")
        points.append([values[c] for c in chart.coordinates])
    return points


def _config_echo(args, bindings, points) -> dict:
    cfg = {
        "command": args.command,
        "samples": args.samples,
        "seed": args.seed,
        "tolerance": args.tolerance,
        "const": dict(sorted(bindings.items())),
        "sample_points": [[float(x) for x in p] for p in points],
    }
    for key in ("metric", "potential_k"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


def _emit(report: Report, args) -> None:
    text = report.to_json() if args.format == "json" else report.to_table()
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _run(args) -> int:
    started = time.perf_counter()
    S, identity = _load_structure(args)
    bindings = _parse_bindings(args.const)
    if args.command == "verify-paper":
        missing = sorted(set(analysis.DEFAULT_SUITE_BINDINGS) - set(S.chart.constants))
        if missing:
            raise _Usage(
                f"verify-paper needs a structure that declares the constants "
                f"{', '.join(missing)}; {identity} does not"
            )
        merged = dict(analysis.DEFAULT_SUITE_BINDINGS)
        merged.update(bindings)
        bindings = merged
    undeclared = sorted(set(bindings) - set(S.chart.constants))
    if undeclared:
        raise _Usage(
            f"--const {', '.join(undeclared)}: {identity} declares no such constant "
            f"(declared: {', '.join(S.chart.constants) or 'none'})"
        )
    check_bindings(S.chart, bindings, S.referenced_constants())
    pinned = _parse_points(args.point, S.chart)
    if args.samples < 1:
        raise _Usage("--samples must be at least 1")
    if len(pinned) > args.samples:
        raise _Usage(f"{len(pinned)} --point pins exceed --samples {args.samples}")
    if args.seed < 0:
        raise _Usage("--seed must be non-negative")
    tol = args.tolerance
    if not (np.isfinite(tol) and tol > 0):
        raise _Usage("--tolerance must be a positive finite number")
    points = sample_points(S.chart, args.samples, args.seed, pinned)

    geo = geometry.SampleGeometry(S, points, bindings)
    gates = []

    if args.command == "validate":
        records = gates = analysis.validation_records(geo, tol)
    elif args.command == "classify":
        gates = analysis.validation_records(geo, tol)
        records = gates + analysis.classification_records(geo, tol)
    elif args.command == "curvature":
        records = analysis.curvature_records(geo, args.metric, tol)
        gates = [r for r in records if r.verdict in (VERDICT_PASS, VERDICT_FAIL)]
    elif args.command == "soliton":
        if args.potential_k is None:
            raise _Usage("soliton requires --potential-k EXPR")
        records = analysis.soliton_records(geo, args.metric, args.potential_k, tol)
        if args.expect_soliton:
            gates = [r for r in records if r.name.startswith("Yamabe almost soliton")]
    elif args.command == "verify-paper":
        records = gates = analysis.verify_paper_suite(geo, tol)
    elif args.command == "report":
        if args.expect_soliton and args.potential_k is None:
            raise _Usage("report --expect-soliton requires --potential-k EXPR")
        records = analysis.report_records(geo, tol)
        gates = [
            r
            for r in records
            if not r.name.startswith("class ") and r.verdict in (VERDICT_PASS, VERDICT_FAIL)
        ]
        if args.potential_k is not None:
            soliton_records = analysis.soliton_records(geo, args.metric, args.potential_k, tol)
            records += soliton_records
            if args.expect_soliton:
                gates += [r for r in soliton_records if r.name.startswith("Yamabe almost soliton")]
    else:  # pragma: no cover - argparse restricts the choices
        raise _Usage(f"unknown command {args.command}")

    wall_ms = (time.perf_counter() - started) * 1000.0
    report = Report(
        manifold=identity,
        config=_config_echo(args, bindings, points),
        checks=tuple(records),
        wall_ms=wall_ms,
    )
    _emit(report, args)
    return 1 if any(r.verdict == VERDICT_FAIL for r in gates) else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except _Usage as exc:
        print(f"accr: {exc}", file=sys.stderr)
        return 2
    except (ExprError, ManifoldError, DomainError, DimensionMismatch) as exc:
        print(f"accr: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (TensorError, PotentialError) as exc:
        print(f"accr: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"accr: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:  # console-script hook
    raise SystemExit(main())
