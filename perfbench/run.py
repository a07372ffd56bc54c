"""Benchmark of the ifmkit command line, run in-process.

    python3 perfbench/run.py --workload audit-interval --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, timed mode

It imports `ifmkit` from the `src/` directory of the checkout it sits in,
writes the workload's configs under `perfbench/.work/`, and calls
`ifmkit.cli.main([...])` from one process and one thread: a closed loop with
a single client, each command starting when the previous one returns.

`--trace 0` reports the end-to-end metrics; `--trace 1` reports the
per-layer metrics of `tracer.py`.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
lines before it give each metric by name and unit, and the provenance of
the result.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import tracer
import workloads
from checker import EXPECTED, Checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# (name, unit) of every end-to-end metric reported with --trace 0.
E2E_METRICS = (("setup_s", "s"), ("wall_ref", "refs"), ("peak_rss_mb", "MiB"))
MIN_REPS = 3

_clock = time.perf_counter


class SourcesMissing(RuntimeError):
    pass


def import_ifmkit():
    """Import ifmkit afresh from the checkout's sources; return its modules."""
    if not (SRC / "ifmkit" / "cli.py").is_file():
        raise SourcesMissing(f"no ifmkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ifmkit" or m.startswith("ifmkit.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"ifmkit.{name}")
               for name in ("cli", "auditor", "contraction", "solver")}
    modules["ifmkit"] = sys.modules["ifmkit"]
    if not Path(modules["ifmkit"].__file__).resolve().is_relative_to(SRC):
        raise SourcesMissing(f"imported ifmkit from {modules['ifmkit'].__file__}, not {SRC}")
    return modules


def setup(workload, seed, size, work_dir):
    """Import ifmkit and write the workload's configs and output directories.
    Returns (seconds, modules, commands)."""
    if work_dir.exists():
        shutil.rmtree(work_dir)
    t0 = _clock()
    modules = import_ifmkit()
    commands = workloads.build(workload, seed, work_dir, size)
    return _clock() - t0, modules, commands


def run_rep(commands, call, checker):
    """One repetition of the command sequence; checks every command after
    the sequence ends.  Returns (wall seconds, seconds per command kind)."""
    for c in commands:
        shutil.rmtree(c.out_dir)
        c.out_dir.mkdir()
    gc.collect()
    results = []
    with contextlib.redirect_stdout(io.StringIO()):
        start = _clock()
        for c in commands:
            t0 = _clock()
            try:
                code, error = call(list(c.argv)), None
            except (Exception, SystemExit) as exc:  # a failed command, not a failed run
                code, error = None, exc
            results.append((c, code, error, _clock() - t0))
        wall = _clock() - start
    per_kind = defaultdict(float)
    for c, code, error, seconds in results:
        per_kind[c.kind] += seconds
        reason = checker.judge(c, code, error)
        if reason is not None:
            print(f"perfbench: {c.name} failed: {reason}", file=sys.stderr)
            if error is not None:
                traceback.print_exception(error, file=sys.stderr)
    return wall, per_kind


_REFERENCE_CALLS = [(i % 101 / 100, i % 37 / 36, (0.1, 1.0, 10.0)[i % 3]) for i in range(20_000)]


def reference_seconds() -> float:
    """Time of one pass of a fixed pure-Python kernel shaped like ifmkit's
    hot loops (grade closures, a t-norm, tuple building).  It measures the
    machine's current speed; it calls nothing in ifmkit."""
    def grade(x, y, t):
        return t / (t + abs(x - y))

    def tnorm(a, b):
        return a * b

    out = []
    t0 = _clock()
    for x, y, t in _REFERENCE_CALLS:
        out.append((x, tnorm(grade(x, y, t), grade(y, x, t))))
    return _clock() - t0


def _stop(begin, walls, seconds, min_reps) -> bool:
    """Stop before a repetition that would run past the measuring window."""
    return len(walls) >= min_reps and _clock() - begin + statistics.median(walls) > seconds


def timed(workload, seed, seconds, size="full"):
    work_dir = WORK / f"{workload}-{os.getpid()}"
    first, modules, commands = setup(workload, seed, size, work_dir)
    setups = [first]
    checker = Checker()
    main = modules["cli"].main
    run_rep(commands, main, checker)  # warm-up; fixes the reference reports
    walls, rels, per_kind = [], [], defaultdict(list)
    begin = _clock()
    while not _stop(begin, walls, seconds, MIN_REPS):
        # One more set-up before each repetition spreads the set-up samples
        # over the run.  It rewrites the same configs; the repetitions keep
        # calling the first import.
        setups.append(setup(workload, seed, size, work_dir)[0])
        before = reference_seconds()
        wall, kinds = run_rep(commands, main, checker)
        rels.append(2 * wall / (before + reference_seconds()))
        walls.append(wall)
        for kind, value in kinds.items():
            per_kind[kind].append(value)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # On a shared machine the speed drifts by tens of percent over minutes,
    # so the reported repetition time is divided by the reference kernel's
    # time measured just before and after it (see README.md).
    metrics = {"setup_s": statistics.median(setups),
               "wall_ref": statistics.median(rels),
               "peak_rss_mb": peak_mib}
    lines = [_timing_line("setup_s", setups),
             _timing_line("wall_s", walls),
             f"wall_ref: median {statistics.median(rels):.6g} refs, n={len(rels)}"]
    for kind in ("audit", "contract", "solve"):
        if kind in per_kind:  # omitted on workloads that do not run the command
            lines.append(_timing_line(f"{kind}_s", per_kind[kind]))
    lines.append(f"peak_rss_mb: {peak_mib:.1f} MiB")
    ratio = checker.failed / checker.attempted
    lines.append(f"ops_failed_ratio: {ratio:.6g} ratio "
                 f"({checker.failed} of {checker.attempted} commands)")
    lines += _observed_exits(checker)
    return metrics, E2E_METRICS, lines, checker


def traced(workload, seed, seconds, size="full"):
    work_dir = WORK / f"{workload}-{os.getpid()}"
    _, modules, commands = setup(workload, seed, size, work_dir)
    checker = Checker()
    main = modules["cli"].main
    run_rep(commands, main, checker)  # warm-up; fixes the reference reports
    inside = tracer.calibrate()
    with tracer.Tracer(modules, "record") as recorder:
        run_rep(commands, recorder.main, checker)
    plain, span_walls, leaf_walls, reps = [], [], [], []
    begin = _clock()
    while not _stop(begin, [sum(w) for w in zip(plain, span_walls, leaf_walls)], seconds, 1):
        plain.append(run_rep(commands, main, checker)[0])
        with tracer.Tracer(modules, "spans") as spans:
            span_walls.append(run_rep(commands, spans.main, checker)[0])
        with tracer.Tracer(modules, "leaves", inside) as leaves:
            leaf_walls.append(run_rep(commands, leaves.main, checker)[0])
        reps.append(tracer.layer_metrics(spans, leaves))
    # The recording repetition runs the same commands, so its counts join
    # the comparison.
    counted = tracer.layer_metrics(recorder, recorder)
    units = dict(tracer.LAYER_METRICS)
    metrics = {"spaces.grade_unique_ratio": recorder.unique_ratio()}
    for name in reps[0]:
        values = [rep[name] for rep in reps]
        if units[name] == "s":
            metrics[name] = statistics.median(values)
            continue
        values.insert(0, counted[name])
        metrics[name] = values[0]
        if any(v != values[0] for v in values):
            checker.errors.append(f"{name} differs between traced repetitions: {values}")
    metrics["trace.overhead_s"] = statistics.median(leaf_walls) - statistics.median(plain)
    metrics.update(tracer.sweep(modules["ifmkit"], seed))
    lines = [f"traced repetitions: {len(reps)}; wall_s medians: untraced "
             f"{statistics.median(plain):.6g} s, spans {statistics.median(span_walls):.6g} s, "
             f"spans and leaves {statistics.median(leaf_walls):.6g} s"]
    lines += [f"{name}: {metrics[name]:.6g} {unit}" for name, unit in tracer.LAYER_METRICS]
    return metrics, tracer.LAYER_METRICS, lines, checker


def _percentile(values, q) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _timing_line(name, samples) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    line = f"{name}: median {statistics.median(samples):.6g} s"
    tails = [q for q in (50, 75, 90, 95, 99, 99.9) if len(samples) * (1 - q / 100) >= 10]
    if tails:
        line += f", p{tails[-1]:g} {_percentile(samples, tails[-1]):.6g} s"
    return line + f", min {min(samples):.6g} s, n={len(samples)}"


def _observed_exits(checker) -> list[str]:
    lines = []
    for name, codes in checker.observed_exits.items():
        note = EXPECTED[name].note
        lines.append(f"observed {name}: exit {sorted(codes)}" + (f" ({note})" if note else ""))
    return lines


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def provenance(seed) -> dict:
    sources = sorted((SRC / "ifmkit").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "workload_seed": seed,
    }


def run(workload, seed, seconds, trace, size="full"):
    """Run one workload; returns (metrics, metric specs, summary lines, checker)."""
    try:
        return (traced if trace else timed)(workload, seed, seconds, size)
    finally:
        shutil.rmtree(WORK / f"{workload}-{os.getpid()}", ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ["IFM_LOG"] = "warning"
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run(name, args.seed, args.seconds, args.trace) for name in names}
    except SourcesMissing as exc:
        print(f"perfbench: {exc}; run it from the root of an ifmkit checkout",
              file=sys.stderr)
        return 2
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, (metrics, specs, lines, checker) in results.items():
        print(f"== {name} (seed {args.seed}, {'traced' if args.trace else 'timed'})")
        for line in lines + [f"failure: {f}" for f in checker.failures + checker.errors]:
            print("  " + line)
        out["correct"] = out["correct"] and checker.correct
        out["attempted"] += checker.attempted
        out["failed"] += checker.failed
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, unit in specs:
            out["metrics"][prefix + metric] = {"value": metrics[metric], "unit": unit}
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
