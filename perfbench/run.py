"""End-to-end and per-layer benchmark of the accr command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`, nothing is installed.  Every invocation goes through
`accr.cli.main(argv)` in this one process, with BLAS held to one thread.

--trace 0 measures the end-to-end metrics with no instrumentation: it
repeats the workload's CLI invocation for S seconds and reports the median
wall time, and times `setup_s` in fresh interpreters.

--trace 1 measures the per-layer metrics.  A counting pass wraps every
public function and method of the accr modules (plus `Jet2.__post_init__`)
with counters; a traced pass wraps the same names with spans (name, start,
end, parent) kept in memory, from which each layer's self time (its span
minus its child spans) follows.  Untraced and traced invocations alternate
for S seconds; the median difference within a pair is the tracing overhead.

Host speed.  On a shared 2-vCPU host the speed of this process swings by up
to 40 % between 30-second windows and by up to 1.7x within a second, for
reasons outside the process (CPU time tracks wall time).  A fixed
calibration kernel therefore runs KERNEL_REPEATS times before every timed
call and once more at the end, and each reported time is the measured
median scaled to the reference host speed:
    median wall * REFERENCE_KERNEL_S / mean kernel time over the same period.
A change to accr moves the wall time and not the kernel; host contention
moves both.  The raw medians and the kernel's mean are printed in the `env`
line above the result.

Every invocation passes a correctness gate: exit code 0, the expected check
names and verdicts, and JSON byte-identical to the run's first invocation
apart from `wall_ms`.  The last line of standard output is the result object.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread limits above)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_CHECKS = HERE / "expected_checks.json"

SETUP_REPEATS = 7
KERNEL_REPEATS = 5
# Typical time of _calibration_kernel on the reference host (2-vCPU Xeon at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6); reported times are at this speed.
REFERENCE_KERNEL_S = 8.0e-3

LAYERS = ("expr", "jets", "manifold", "geometry", "tensor", "analysis", "report", "cli")


@dataclass(frozen=True)
class Workload:
    samples: int
    source: str               # builtin:NAME or a path relative to the checkout root
    args: tuple[str, ...]     # CLI arguments besides the input, --samples, --seed, --format

    def argv(self, seed: int, samples: int) -> list[str]:
        if self.source.startswith("builtin:"):
            where = ["--builtin", self.source.split(":", 1)[1]]
        else:
            where = [str(ROOT / self.source)]
        return [self.args[0], *where, *self.args[1:],
                "--samples", str(samples), "--seed", str(seed), "--format", "json"]


# verify-cone: the 51-check suite recomputes point_geometry 18x per sample,
#   so compute-once or cached geometry moves it most.
# report-n2: dimension 5 (5x5 Hessians per jet, dim-5 einsums) through the
#   CLI's own record builders rather than verify_paper_suite.
# soliton-cone: already lean (2 point_geometry calls per sample), so a
#   geometry-dedup change should barely move it; the large-N case with the
#   largest per-sample JSON.
WORKLOADS = {
    "verify-cone": Workload(64, "builtin:cone-flat-fiber", ("verify-paper",)),
    "report-n2": Workload(
        64, "perfbench/cone_n2.json", ("report", "--potential-k", "c*t", "--const", "c=1")
    ),
    "soliton-cone": Workload(
        256,
        "builtin:cone-flat-fiber",
        ("soliton", "--metric", "gtilde", "--potential-k", "ct*t", "--const", "ct=1",
         "--expect-soliton"),
    ),
}

# Import, structure load and sampling, in a fresh interpreter.
SETUP_CODE = """
import sys
from accr import cli, manifold
source, samples, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
if source.startswith("builtin:"):
    S = manifold.builtin_structure(source.split(":", 1)[1])
else:
    with open(source, encoding="utf-8") as fh:
        S = manifold.load_manifold(fh.read())
manifold.sample_points(S.chart, samples, seed)
"""

_WALL_MS = re.compile(r'"wall_ms": [^,\n}]*')


class BenchmarkError(Exception):
    pass


# -- invocation and correctness gate -------------------------------------------


def _calibration_kernel():
    """Fixed work shaped like accr's: small numpy arrays amid Python objects."""
    a = np.arange(9.0).reshape(3, 3)
    acc = 0.0
    for i in range(1000):
        b = np.einsum("ij,jk->ik", a, a.T) * (i % 7) + a
        d = {"x": float(b[1, 2]), "y": [i, i + 1.5]}
        acc += d["x"] * d["y"][1] + sum(x * x for x in d["y"])
    return acc


class HostSpeed:
    """Mean time of the calibration kernel, sampled between the timed calls."""

    def __init__(self):
        self.kernel_s = []

    def sample(self):
        for _ in range(KERNEL_REPEATS):
            started = time.perf_counter()
            _calibration_kernel()
            self.kernel_s.append(time.perf_counter() - started)

    def factor(self) -> float:
        """Scales a time measured during the sampled period to the reference host speed."""
        return REFERENCE_KERNEL_S / statistics.fmean(self.kernel_s)


def invoke(cli, argv):
    """One in-process CLI invocation: (exit code, stdout, wall seconds)."""
    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception as exc:  # a traceback is a failed invocation, not a crash of the run
            print(f"invocation raised {type(exc).__name__}: {exc}", file=sys.stderr)
            code = -1
    return code, out.getvalue(), time.perf_counter() - started


class Gate:
    """Exit code 0, expected (name, verdict) list, identical JSON apart from wall_ms."""

    def __init__(self, expected):
        self.expected = expected
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def check(self, code, text) -> bool:
        self.attempted += 1
        ok = code == 0 and self._checks_match(text)
        if ok:
            body = _WALL_MS.sub('"wall_ms": null', text)
            if self.reference is None:
                self.reference = body
            ok = body == self.reference
        if not ok:
            self.failed += 1
        return ok

    def _checks_match(self, text) -> bool:
        try:
            checks = json.loads(text)["checks"]
        except (ValueError, KeyError, TypeError):
            return False
        return [[c["name"], c["verdict"]] for c in checks] == self.expected


# -- instrumentation ----------------------------------------------------------


def _instrumented_names(modules):
    """(span name, function) for every public function and plain method of the layers."""
    found = []
    for layer, module in modules.items():
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((f"{layer}.{name}", obj))
            elif inspect.isclass(obj):
                for attr, member in sorted(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found.append((f"{layer}.{name}.{attr}", member))
    return found


def _bindings(fn, modules, classes):
    """Every (container, key) through which the accr code can reach `fn`."""
    places = []
    for module in modules:
        for key, value in vars(module).items():
            if value is fn:
                places.append((module, key))
            elif isinstance(value, dict):
                places.extend((value, k) for k, v in value.items() if v is fn)
    for cls in classes:
        for key, value in vars(cls).items():
            if value is fn:
                places.append((cls, key))
    return places


def _set(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


@contextlib.contextmanager
def patched(wrap, extra=()):
    """Replace every binding of every public accr function with wrap(name, fn).

    `extra` adds (span name, class, attribute) targets beyond the public set.
    Module copies (e.g. `from .geometry import point_geometry` in analysis)
    and dict entries (jets.FUNCTIONS) are patched alongside the original.
    """
    layers = {layer: importlib.import_module(f"accr.{layer}") for layer in LAYERS}
    modules = [m for n, m in sys.modules.items() if n == "accr" or n.startswith("accr.")]
    classes = [c for m in layers.values() for c in vars(m).values()
               if inspect.isclass(c) and c.__module__ == m.__name__]
    targets = _instrumented_names(layers)
    targets += [(name, vars(cls)[attr]) for name, cls, attr in extra]
    saved = []
    try:
        for name, fn in targets:
            wrapper = wrap(name, fn)
            for container, key in _bindings(fn, modules, classes):
                saved.append((container, key, fn))
                _set(container, key, wrapper)
        yield
    finally:
        for container, key, fn in reversed(saved):
            _set(container, key, fn)


class Tracer:
    """Spans (name, start, end, parent index) recorded in memory."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self._stack = [-1]

    def wrap(self, name, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
        return traced

    def times_ms(self):
        """Per span name: (self time, inclusive time) summed, in ms."""
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        child = np.bincount(parents + 1, weights=dur, minlength=len(dur) + 1)[1:]
        own = dur - child
        out = {}
        for i, name in enumerate(self.names):
            s, t = out.get(name, (0.0, 0.0))
            out[name] = (s + own[i] * 1e3, t + dur[i] * 1e3)
        return out


class Counter:
    """Exact call counts, plus distinct (tag, point) arguments for the keyed names."""

    KEYED = {
        "geometry.point_geometry": ("tag", "point"),
        "manifold.AccRStructure.jets_at": (None, "point"),
    }

    def __init__(self):
        self.calls = {}
        self.keys = {name: set() for name in self.KEYED}

    def wrap(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)
        keyed = self.KEYED.get(name)
        if keyed is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        signature = inspect.signature(fn)
        tag_arg, point_arg = keyed
        seen = self.keys[name]

        @functools.wraps(fn)
        def counted_keyed(*args, **kwargs):
            calls[name] += 1
            bound = signature.bind(*args, **kwargs).arguments
            point = np.asarray(bound.get(point_arg), dtype=float)
            seen.add((bound.get(tag_arg), point.tobytes()))
            return fn(*args, **kwargs)
        return counted_keyed


# -- the two kinds of run -------------------------------------------------------


def _setup_seconds(workload, seed, samples):
    """Median wall time of a fresh interpreter's set-up: (raw, at reference speed)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    source = workload.source
    if not source.startswith("builtin:"):
        source = str(ROOT / source)
    cmd = [sys.executable, "-c", SETUP_CODE, source, str(samples), str(seed)]
    speed = HostSpeed()
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        started = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # no timeout: it would poll
        times.append(time.perf_counter() - started)
    speed.sample()
    raw = statistics.median(times)
    return raw, raw * speed.factor()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_timed(cli, argv, gate, seconds, samples, setup):
    gate.check(*invoke(cli, argv)[:2])  # warm-up; sets the reference output
    speed = HostSpeed()
    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        speed.sample()
        code, text, wall = invoke(cli, argv)
        gate.check(code, text)
        walls.append(wall)
    speed.sample()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw_s = statistics.median(walls)
    cmd_s = raw_s * speed.factor()
    raw = {"cmd_ms.p50": raw_s * 1e3, "setup_s": setup[0],
           "kernel_ms": statistics.fmean(speed.kernel_s) * 1e3}
    return {
        "cmd_ms.p50": _metric(cmd_s * 1e3, "ms"),
        "samples_per_s": _metric(samples / cmd_s, "1/s"),
        "setup_s": _metric(setup[1], "s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }, raw, len(walls)


def run_traced(cli, argv, gate, seconds, samples):
    import accr.jets

    code, text, _ = invoke(cli, argv)
    gate.check(code, text)
    json_bytes = len(gate.reference.encode("utf-8")) if gate.reference else 0

    counter = Counter()
    with patched(counter.wrap, extra=[("jets.Jet2.__post_init__", accr.jets.Jet2, "__post_init__")]):
        gate.check(*invoke(cli, argv)[:2])
    calls = counter.calls

    speed = HostSpeed()
    overheads, layer_ms = [], []
    deadline = time.perf_counter() + seconds
    while not layer_ms or time.perf_counter() < deadline:
        speed.sample()
        code, text, plain = invoke(cli, argv)
        gate.check(code, text)
        tracer = Tracer()
        with patched(tracer.wrap):
            code, text, traced = invoke(cli, argv)
        gate.check(code, text)
        overheads.append(traced - plain)
        layer_ms.append(tracer.times_ms())
    speed.sample()
    factor = speed.factor()

    def per_sample(*names):
        return sum(calls.get(n, 0) for n in names) / samples

    def distinct(name):
        return len(counter.keys[name]) / calls[name] if calls.get(name) else 0.0

    def self_ms(*names):
        return factor * statistics.median(
            sum(t.get(n, (0.0, 0.0))[0] for n in names) for t in layer_ms)

    def total_ms(*names):
        return factor * statistics.median(
            sum(t.get(n, (0.0, 0.0))[1] for n in names) for t in layer_ms)

    def layer_self_ms(prefix):
        return factor * statistics.median(
            sum(s for n, (s, _) in t.items() if n.startswith(prefix)) for t in layer_ms)

    lie = ("geometry.lie_derivative_metric", "geometry.lie_derivative_vertical")
    metrics = {
        "expr.eval_jet.calls_per_sample": (per_sample("expr.Expression.eval_jet"), "calls/sample"),
        "expr.eval_jet.self_ms": (self_ms("expr.Expression.eval_jet"), "ms"),
        "expr.eval_number.calls_per_sample": (per_sample("expr.Expression.eval_number"), "calls/sample"),
        "expr.eval_number.self_ms": (self_ms("expr.Expression.eval_number"), "ms"),
        "jets.ops_per_sample": (per_sample("jets.Jet2.__post_init__"), "ops/sample"),
        "manifold.jets_at.calls_per_sample": (per_sample("manifold.AccRStructure.jets_at"), "calls/sample"),
        "manifold.jets_at.self_ms": (self_ms("manifold.AccRStructure.jets_at"), "ms"),
        "manifold.jets_at.distinct_ratio": (distinct("manifold.AccRStructure.jets_at"), "ratio"),
        "manifold.assoc_jets_at.calls_per_sample": (per_sample("manifold.AssociatedMetric.jets_at"), "calls/sample"),
        "manifold.assoc_jets_at.self_ms": (self_ms("manifold.AssociatedMetric.jets_at"), "ms"),
        "manifold.validate_structure.ms": (total_ms("manifold.validate_structure"), "ms"),
        "manifold.sample_points.ms": (total_ms("manifold.sample_points"), "ms"),
        "geometry.point_geometry.calls_per_sample": (per_sample("geometry.point_geometry"), "calls/sample"),
        "geometry.point_geometry.self_ms": (self_ms("geometry.point_geometry"), "ms"),
        "geometry.point_geometry.distinct_ratio": (distinct("geometry.point_geometry"), "ratio"),
        "geometry.lie_derivative.calls_per_sample": (per_sample(*lie), "calls/sample"),
        "geometry.lie_derivative.self_ms": (self_ms(*lie), "ms"),
        "tensor.to_phi_frame.self_ms": (self_ms("tensor.to_phi_frame"), "ms"),
        "analysis.classify.total_ms": (total_ms("analysis.classify"), "ms"),
        "analysis.torse_forming_extract.self_ms": (self_ms("analysis.torse_forming_extract"), "ms"),
        "analysis.yamabe_soliton_solve.self_ms": (self_ms("analysis.yamabe_soliton_solve"), "ms"),
        "analysis.verify_paper_suite.self_ms": (self_ms("analysis.verify_paper_suite"), "ms"),
        "report.serialize_ms": (total_ms("report.Report.to_json"), "ms"),
        "report.json_bytes": (json_bytes, "bytes"),
        "cli.self_ms": (layer_self_ms("cli."), "ms"),
        "trace.overhead_ms": (factor * statistics.median(overheads) * 1e3, "ms"),
    }
    raw = {"spans": len(tracer.names)}
    return {name: _metric(v, unit) for name, (v, unit) in metrics.items()}, raw, len(layer_ms)


def environment(seed):
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_lines": src_lines,
    }


def run(name, seed, seconds, trace, samples=None):
    """Run one workload; returns (environment header, result object)."""
    if not (SRC / "accr" / "cli.py").is_file():
        raise BenchmarkError(f"no accr sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from accr import cli

    workload = WORKLOADS[name]
    samples = samples or workload.samples
    expected = json.loads(EXPECTED_CHECKS.read_text(encoding="utf-8"))[name]
    argv = workload.argv(seed, samples)
    gate = Gate(expected)
    if trace:
        metrics, raw, repeats = run_traced(cli, argv, gate, seconds, samples)
    else:
        setup = _setup_seconds(workload, seed, samples)
        metrics, raw, repeats = run_timed(cli, argv, gate, seconds, samples, setup)
    header = dict(environment(seed), workload=name, samples=samples, timed_invocations=repeats,
                  failed_frac=gate.failed / gate.attempted, raw=raw)
    return header, {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        header, result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchmarkError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(header, sort_keys=True))
    for key, metric in result["metrics"].items():
        print(f"  {key:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
