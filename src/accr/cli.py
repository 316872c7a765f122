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
    IdentityViolation,
    ManifoldError,
    PotentialError,
    TensorError,
)
from .expr import parse as parse_expr
from .manifold import (
    METRIC_G,
    METRIC_GTILDE,
    AccRStructure,
    builtin_names,
    builtin_structure,
    check_bindings,
    load_manifold,
    sample_points,
    validate_structure,
)
from .report import (
    CheckRecord,
    Report,
    VERDICT_DEGENERATE,
    VERDICT_FAIL,
    VERDICT_NA,
    VERDICT_PASS,
    record_from_residual,
)
from .tensor import COORDINATE, PointTensor, _max_abs, to_phi_frame

__all__ = ["main", "entrypoint", "build_parser"]

_STATUS_VERDICT = {
    analysis.HOLDS: VERDICT_PASS,
    analysis.FAILS: VERDICT_FAIL,
    analysis.DEGENERATE: VERDICT_DEGENERATE,
}


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
    common(sub.add_parser("verify-paper", help="golden-value suite on the cone example"))
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


def _validation_records(S, points, bindings, tol):
    vr = validate_structure(S, points, bindings, tol)
    records = [
        record_from_residual(f"structure: {key}", key, [value], tol)
        for key, value in vr.residuals.items()
    ]
    records.append(
        CheckRecord(
            name="structure: signature",
            anchor=f"metric signature ({S.n + 1},{S.n}) at every sample",
            verdict=VERDICT_PASS if vr.signature == vr.expected_signature else VERDICT_FAIL,
            residual=None,
        )
    )
    return records


def _classification_records(geo, tol):
    cm = analysis.classify(geo, tol)
    anchors = {
        "sasaki_like": "F(x,y,z) = g(phi x,phi y) eta(z) + g(phi x,phi z) eta(y)",
        "f5": "F(x,y,z) = -(theta*(xi)/2n){g(x,phi y) eta(z) + g(x,phi z) eta(y)}",
        "f5_0": "d(theta*(xi)) = xi(theta*(xi)) eta",
        "f0": "F = 0 identically (within 1e-12)",
    }
    records = []
    for entry in cm.entries():
        records.append(
            CheckRecord(
                name=f"class {entry.name}: {entry.status}",
                anchor=anchors[entry.name],
                verdict=_STATUS_VERDICT[entry.status],
                residual=entry.residual,
            )
        )
        for key, value in sorted(entry.extras.items()):
            records.append(
                record_from_residual(f"consequence of {entry.name}: {key}", key, [value], tol)
            )
    return records


def _identity_records(geo, tol, tag):
    pg = geo.of(tag)
    compat = geometry.metric_compatibility_residual(pg)
    sym = geometry.worst_residual(geometry.curvature_symmetry_residuals(pg))
    fprop = geometry.worst_residual(geometry.f_property_residuals(pg))
    suffix = "" if tag == METRIC_G else " (associated metric)"
    return [
        record_from_residual(f"metric compatibility{suffix}", "nabla g = 0", compat, tol),
        record_from_residual(
            f"curvature symmetries{suffix}",
            "R(x,y,z,w) = -R(y,x,z,w) = -R(x,y,w,z) = R(z,w,x,y); first Bianchi",
            sym,
            tol,
        ),
        record_from_residual(
            f"fundamental tensor properties{suffix}",
            "F(x,y,z) = F(x,z,y); phi-phi expansion; F(x,phi y,xi) = (nabla_x eta) y",
            fprop,
            tol,
        ),
    ]


def _value_record(name, anchor, values):
    return CheckRecord(
        name=name,
        anchor=anchor,
        verdict=VERDICT_NA,
        residual=None,
        samples=tuple(float(v) for v in values),
    )


def _curvature_records(geo, tol, tag):
    S = geo.structure
    pg = geo.of(tag)
    has_frame = S.frame is not None
    if has_frame:
        frames = S.frame_at(geo.points, geo.bindings)
        r04f = to_phi_frame(PointTensor(pg.dim, ("l",) * 4, pg.r04, COORDINATE), frames)
        rhof = to_phi_frame(PointTensor(pg.dim, ("l", "l"), pg.ricci, COORDINATE), frames)
        frame_vals = {
            "R_1212": r04f.components[:, 0, 1, 0, 1],
            "rho_11": rhof.components[:, 0, 0],
            "rho_22": rhof.components[:, 1, 1],
        }
    records = [
        _value_record("scalar curvature", "tau = g^{jk} rho_jk", pg.tau),
        _value_record("associated scalar curvature", "tau* = g^{ij} rho_is phi^s_j", pg.tau_star),
        _value_record("Lee scalar", "theta*(xi)", pg.theta_star_xi),
    ]
    if has_frame:
        for key, values in frame_vals.items():
            records.append(
                _value_record(f"phi-frame {key}", f"{key} in the frame e_1..e_2n, xi", values)
            )
    records.extend(_identity_records(geo, tol, tag))
    return records


def _cross_route_records(geo, tol):
    pg, pgt = geo.of(METRIC_G), geo.of(METRIC_GTILDE)
    ntn = _max_abs(geometry.nabla_tilde_components_from(pg) - pgt.gamma, 3)
    tff = _max_abs(geometry.f_tilde_components_from(pg) - pgt.F, 3)
    short_form = _max_abs(geometry.connection_f5_form(pg) - pgt.gamma, 3)
    return [
        record_from_residual(
            "associated Christoffels: direct vs correction route",
            "2g(nabla~_x y,z) = 2g(nabla_x y,z) - F(x,y,phi z) - F(y,x,phi z) + F(phi z,x,y) + eta-terms",
            ntn,
            tol,
        ),
        record_from_residual(
            "associated fundamental tensor: direct vs transfer route",
            "2F~(x,y,z) = F(phi y,z,x) - F(y,phi z,x) + F(phi z,y,x) - F(z,phi y,x) + eta-terms",
            tff,
            tol,
        ),
        record_from_residual(
            "short connection form (F5 structures)",
            "nabla~_x y = nabla_x y - (theta*(xi)/2n){g(x,phi y) + g(phi x,phi y)} xi",
            short_form,
            tol,
        ),
    ]


def _soliton_records(geo, args, tol):
    S = geo.structure
    k_expr = parse_expr(args.potential_k, S.chart.coordinates, S.chart.constants)
    check_bindings(S.chart, geo.bindings, k_expr.referenced_constants())
    potential = analysis.vertical_potential(S, k_expr)
    tag = args.metric
    sol = analysis.yamabe_soliton_solve(geo, tag, potential, tol)
    torse = sol.torse

    records = [
        record_from_residual(
            "torse-forming fit",
            "nabla_x v = f x + gamma(x) v",
            torse.per_sample_residual,
            tol,
        ),
        CheckRecord(
            name="taxonomy: " + (", ".join(sorted(torse.taxonomy)) or "none"),
            anchor="torqued iff gamma(v) = 0; concircular iff gamma = 0; concurrent iff f = 1 and gamma = 0",
            verdict=VERDICT_NA,
            residual=torse.residual,
        ),
        _value_record("conformal scalar f", "nabla_x v = f x + gamma(x) v", torse.f),
    ]
    if torse.vertical_checks is not None and "torse-forming" in torse.taxonomy:
        records.append(
            record_from_residual(
                "generating form of a vertical potential",
                "gamma = (dk - f eta) / k",
                [torse.vertical_checks["gamma = (dk - f eta) / k"]],
                tol,
            )
        )
        records.append(
            record_from_residual(
                "vertical potential derivative",
                "nabla_x v = -f phi^2 x + dk(x) xi",
                [torse.vertical_checks["nabla_x v = -f phi^2 x + dk(x) xi"]],
                tol,
            )
        )
        records.append(
            CheckRecord(
                name="torqued criterion",
                anchor="f = dk(xi), equivalent to gamma(v) = 0",
                verdict=VERDICT_NA,
                residual=torse.vertical_checks["f = dk(xi)"],
            )
        )
    metric_name = "g" if tag == METRIC_G else "g~"
    records.append(
        CheckRecord(
            name=f"Yamabe almost soliton for {metric_name}: {sol.verdict}",
            anchor="(1/2) L_v metric = (tau - lambda) metric",
            verdict=VERDICT_PASS if sol.verdict == "soliton" else VERDICT_FAIL,
            residual=float(np.max(sol.residuals)),
            samples=tuple(float(x) for x in sol.residuals),
        )
    )
    records.append(_value_record("soliton function lambda", "lambda = tau - mu", sol.lambdas))
    for key in ("tau = f + lambda", "f = dk(xi)"):
        value = sol.theorem_checks[key]
        if value is not None:
            records.append(record_from_residual(f"theorem: {key}", key, [value], tol))
    return records, sol


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
    records: list[CheckRecord] = []
    gates: list[CheckRecord] = []

    if args.command == "validate":
        records = _validation_records(S, points, bindings, tol)
        gates = records
    elif args.command == "classify":
        validation = _validation_records(S, points, bindings, tol)
        gates = list(validation)
        records = validation + _classification_records(geo, tol)
    elif args.command == "curvature":
        records = _curvature_records(geo, tol, args.metric)
        gates = [r for r in records if r.verdict in (VERDICT_PASS, VERDICT_FAIL)]
    elif args.command == "soliton":
        if args.potential_k is None:
            raise _Usage("soliton requires --potential-k EXPR")
        records, _ = _soliton_records(geo, args, tol)
        if args.expect_soliton:
            gates = [r for r in records if r.name.startswith("Yamabe almost soliton")]
    elif args.command == "verify-paper":
        suite, points = analysis.verify_paper_suite(
            S, bindings, args.samples, args.seed, pinned, tol
        )
        records = suite
        gates = records
    elif args.command == "report":
        records = _validation_records(S, points, bindings, tol)
        records += _classification_records(geo, tol)
        records += _identity_records(geo, tol, METRIC_G)
        records += _identity_records(geo, tol, METRIC_GTILDE)
        records += _cross_route_records(geo, tol)
        gates = [
            r
            for r in records
            if not r.name.startswith("class ") and r.verdict in (VERDICT_PASS, VERDICT_FAIL)
        ]
        if args.potential_k is not None:
            soliton_records, _ = _soliton_records(geo, args, tol)
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
    except (TensorError, PotentialError, IdentityViolation) as exc:
        print(f"accr: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"accr: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:  # console-script hook
    raise SystemExit(main())
