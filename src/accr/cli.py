"""Command-line front end.

Exit codes are a stable contract: 0 all gating checks pass, 1 a gating
check failed, 2 usage or load error.  One rule gates every command: a
command's own checks gate, but for the `class ...` answers, which are
answers rather than successes (verify-paper's `class: ...` records compare
an answer with the example's, and gate); of the records of a potential
given with --potential-k, only the soliton verdict gates, and only with
--expect-soliton.

A run builds one argparse parser, that of the command its first argument
names, from the same option sets as `build_parser`.  The whole tree is built
only when no command is named (top-level help, a missing or unknown command,
a leading option) or arguments are left over, so every help text and usage
error stays the tree's.  No parser is built at import or kept between calls:
each call, in a shell or in-process, pays for its own.
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
    validate_structure,
)
from .report import Report, VERDICT_FAIL

__all__ = ["main", "entrypoint", "build_parser"]


def _common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", nargs="?", default=None,
                        help="manifold JSON file, or builtin:NAME")
    parser.add_argument("--builtin", default=None, metavar="NAME",
                        help=f"use a shipped structure ({', '.join(builtin_names())})")
    parser.add_argument("--samples", type=int, default=64, metavar="N")
    parser.add_argument("--seed", type=int, default=42, metavar="S")
    parser.add_argument("--point", action="append", default=[], metavar="c1=v1,c2=v2,...",
                        help="pin a sample point; repeatable, counts toward --samples")
    parser.add_argument("--const", action="append", default=[], metavar="name=value",
                        help="bind a declared constant; repeatable")
    parser.add_argument("--tolerance", type=float, default=1e-9, metavar="T")
    parser.add_argument("--format", choices=("json", "table"), default="table")
    parser.add_argument("-o", "--output", default=None, metavar="PATH")


def _metric_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metric", choices=(METRIC_G, METRIC_GTILDE), default=METRIC_G)


def _potential_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--potential-k", default=None, metavar="EXPR",
                        help="scalar k of the vertical potential k*xi")
    parser.add_argument("--expect-soliton", action="store_true",
                        help="exit 1 unless the verdict is soliton")


_SOLVE = (_common_options, _metric_option, _potential_options)

# Each command: its option sets, its line in `accr -h` and the description of its own help.
_COMMANDS = {
    "validate": ((_common_options,), "check the defining structure identities", None),
    "classify": ((_common_options,), "Sasaki-like / F5 / F5_0 / F0 membership", None),
    "curvature": ((_common_options, _metric_option), "curvature quantities and identity checks", None),
    "soliton": (_SOLVE, "Yamabe almost-soliton solve", None),
    "verify-paper": (
        (_common_options,),
        "golden-value suite of a structure's expect block",
        "Compare the computed quantities with the closed forms of the structure's expect "
        "block (the cone example by default), and check the theorems they illustrate; a "
        "record whose expectation is not given reads n/a. Of the constants c and ct, "
        "those the structure declares default to 1.",
    ),
    "report": (_SOLVE, "validation + classification + identity suites", None),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole tree: the top-level parser and one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="accr",
        description="Chart-based computations on almost contact B-metric manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (options, summary, description) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary, description=description)
        for add in options:
            add(command)
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command alone, as build_parser() makes its subparser."""
    options, _, description = _COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"accr {name}", description=description)
    for add in options:
        add(parser)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv), through the named command's parser alone where it can.

    Arguments left over go to the whole tree, whose "unrecognized arguments"
    error carries the top-level usage.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return build_parser().parse_args(argv)


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
    S = load_manifold(path.read_bytes())
    return S, f"sha256:{S.source_sha256}"


def _parse_bindings(pairs) -> dict[str, float]:
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise _Usage(f"--const expects name=value, got {pair!r}")
        if name in out:
            raise _Usage(f"--const {name}: bound more than once")
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
            if name in values:
                raise _Usage(f"--point {name}: bound more than once in {spec!r}")
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
        "sample_points": points.tolist(),
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


# Each command's own checks; the soliton records of --potential-k follow them.
_CHECKS = {
    "validate": lambda geo, args, tol: validate_structure(geo.structure, geo.jets, tol),
    "classify": lambda geo, args, tol: (
        validate_structure(geo.structure, geo.jets, tol) + analysis.classification_records(geo, tol)),
    "curvature": lambda geo, args, tol: analysis.curvature_records(geo, args.metric, tol),
    "soliton": lambda geo, args, tol: [],
    "verify-paper": lambda geo, args, tol: analysis.verify_paper_suite(geo, tol),
    "report": lambda geo, args, tol: analysis.report_records(geo, tol),
}


def _run(args) -> int:
    started = time.perf_counter()
    S, identity = _load_structure(args)
    bindings = _parse_bindings(args.const)
    if args.command == "verify-paper":  # the suite's defaults of the constants the structure declares
        defaults = analysis.DEFAULT_SUITE_BINDINGS.items()
        bindings = {**{name: value for name, value in defaults if name in S.chart.constants}, **bindings}
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
    k = getattr(args, "potential_k", None)
    expect_soliton = getattr(args, "expect_soliton", False)
    if k is None and args.command == "soliton":
        raise _Usage("soliton requires --potential-k EXPR")
    if k is None and expect_soliton:
        raise _Usage("report --expect-soliton requires --potential-k EXPR")
    with np.errstate(all="ignore"):  # an inf or NaN residual fails its record, or is a DomainError
        checks = _CHECKS[args.command](geo, args, tol)
        solved = [] if k is None else analysis.soliton_records(geo, args.metric, k, tol)
    gates = [r for r in checks if not r.name.startswith("class ")]
    if expect_soliton:
        gates += [r for r in solved if r.name.startswith("Yamabe almost soliton")]

    wall_ms = (time.perf_counter() - started) * 1000.0
    report = Report(
        manifold=identity,
        config=_config_echo(args, bindings, points),
        checks=tuple(checks + solved),
        wall_ms=wall_ms,
    )
    _emit(report, args)
    return 1 if any(r.verdict == VERDICT_FAIL for r in gates) else 0


def main(argv=None) -> int:
    args = _parse_args(argv)
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
    except MemoryError:
        print(f"accr: out of memory for --samples {args.samples}; use fewer samples", file=sys.stderr)
        return 2


def entrypoint() -> None:  # console-script hook
    raise SystemExit(main())
