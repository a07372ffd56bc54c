"""Per-layer tracing for the traced run.

Spans and counts are recorded from the benchmark's side of each layer
boundary: the tracer wraps the built space's grade functions and norm
callables, and patches the public names in the modules that look them up
(`ifmkit.cli.audit_space`, `ifmkit.auditor.draw_tuples`, ...).  The one
non-public target is the contraction witness shrinker, which the scan
calls as the module-level `ifmkit.contraction._minimize_contraction_witness`.
Nothing in the package is edited; every patch is undone on exit.

Grade and norm calls are leaves, and far too many for span objects: a
wrapper adds each call's time and count to a pair of accumulators.  A timed
leaf costs a few hundred nanoseconds on top of the call it wraps, which is
more than a grade call itself, so one set of wrappers cannot give both the
leaf times and the span times.  A traced run therefore alternates two kinds
of repetition:

* "spans": the layer boundaries only.  Span durations and self times come
  from here and carry no leaf overhead.  A self time here still includes the
  grade and norm calls the layer makes itself.
* "leaves": spans plus timed leaves.  Grade and norm counts and times come
  from here, after taking off the part of the wrapper cost that falls inside
  the measured interval (calibrated once per run).  For each layer it also
  gives the leaf time whose innermost span is that layer, which is
  subtracted from the layer's self time of the "spans" repetition.

Hashing every grade query would double the leaf cost, so the distinct-query
count comes from a third kind of repetition, "record", whose grade leaves
hash their queries and are not timed.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import random
import statistics
import time
from array import array
from collections import Counter

import numpy as np

_clock = time.perf_counter

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("spaces.grade_calls", "count"),
    ("spaces.grade_s", "s"),
    ("spaces.grade_unique_ratio", "ratio"),
    ("spaces.domain_builds", "count"),
    ("spaces.domain_build_s", "s"),
    ("norms.op_calls", "count"),
    ("norms.op_s", "s"),
    ("sampling.tuples_drawn", "count"),
    ("sampling.draw_s", "s"),
    ("auditor.comparisons", "count"),
    ("auditor.violations", "count"),
    ("auditor.self_s", "s"),
    ("contraction.pairs_checked", "count"),
    ("contraction.violations", "count"),
    ("contraction.scan_s", "s"),
    ("contraction.shrink_s", "s"),
    ("contraction.shrink_grade_calls", "count"),
    ("solver.picard_steps", "count"),
    ("solver.picard_s", "s"),
    ("solver.grade_calls_per_step", "calls/step"),
    ("solver.seeds_converged_ratio", "ratio"),
    ("solver.trace_rows", "count"),
    ("solver.trace_csv_bytes", "bytes"),
    ("solver.trace_csv_s", "s"),
    ("solver.orbit_steps", "count"),
    ("solver.orbit_s", "s"),
    ("cli.config_s", "s"),
    ("cli.report_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("sweep.audit_1e3.grade_calls", "count"),
    ("sweep.audit_1e4.grade_calls", "count"),
    ("sweep.line_50.domain_build_s", "s"),
    ("sweep.line_100.domain_build_s", "s"),
)


def _timed_grade(fn, stat):
    def traced(x, y, t):
        t0 = _clock()
        v = fn(x, y, t)
        stat[1] += _clock() - t0
        stat[0] += 1
        return v
    return traced


def _timed_norm(fn, stat):
    def traced(a, b):
        t0 = _clock()
        v = fn(a, b)
        stat[1] += _clock() - t0
        stat[0] += 1
        return v
    return traced


def _recording_grade(fn, stat, record):
    def traced(x, y, t):
        stat[0] += 1
        record(hash((x, y, t)))
        return fn(x, y, t)
    return traced


def _grade_example(x, y, t):
    return t / (t + abs(x - y))


def _norm_example(a, b):
    return a + b - a * b


def _loop3(call, args):
    if call is None:
        for x, y, t in args:
            pass
    else:
        for x, y, t in args:
            call(x, y, t)


def _loop2(call, args):
    if call is None:
        for a, b in args:
            pass
    else:
        for a, b in args:
            call(a, b)


def _inside_cost(leaf, fn, loop, arity, n=20_000, rounds=7) -> float:
    """Per-call cost of a timed leaf inside its measured interval, beyond
    the call it wraps: the median over ``rounds`` runs of ``n`` calls of a
    representative leaf function."""
    rng = random.Random(0)
    args = [tuple(rng.random() for _ in range(arity)) for _ in range(n)]
    samples = []
    for _ in range(rounds):
        stat = [0, 0.0]
        times = []
        for call in (leaf(fn, stat), fn, None):
            t0 = _clock()
            loop(call, args)
            times.append(_clock() - t0)
        _, direct, empty = times
        samples.append((stat[1] - (direct - empty)) / n)
    return statistics.median(samples)


def calibrate() -> dict:
    """Inside-interval cost per timed grade call and per timed norm call."""
    return {"grade": _inside_cost(_timed_grade, _grade_example, _loop3, 3),
            "norm": _inside_cost(_timed_norm, _norm_example, _loop2, 2)}


class _TracedFile:
    """A report file handle that counts bytes and closes the report span."""

    def __init__(self, tracer, fh, token):
        self._tracer, self._fh, self._token = tracer, fh, token

    def write(self, text):
        self._tracer.report_bytes += len(text)
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        self._tracer.end("report", self._token)
        return False


class Tracer:
    """Patches the layer boundaries of one ifmkit import and accumulates
    spans and counts while active.  ``leaves`` is "spans", "leaves" or
    "record" (see the module docstring).  Use once, as a context manager."""

    def __init__(self, modules: dict, leaves: str, inside_costs: dict | None = None):
        self.m = modules  # "cli", "auditor", "contraction", "solver" -> module
        self.leaves = leaves
        self.inside = inside_costs or {"grade": 0.0, "norm": 0.0}
        self.grade = [0, 0.0]  # calls, seconds measured inside mu/nu
        self.norm = [0, 0.0]   # calls, seconds measured inside t-norm/t-conorm
        self.queries = (array("q"), array("q"))  # mu, nu queries of one command
        self.distinct = 0
        self.nested_own = 0.0     # own time of every closed span
        self.nested_direct = 0.0  # leaf time charged to every closed span
        self.total = Counter()    # per layer: summed span durations
        self.own = Counter()      # per layer: durations minus nested spans and leaves
        self.direct = Counter()   # per layer: leaf time whose innermost span it is
        self.spans = Counter()
        self.grade_in = Counter()
        self.drawn = Counter()  # tuples drawn, by arity
        self.n = Counter()      # plain counts
        self.report_bytes = 0
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def leaf_seconds(self) -> float:
        """Time in timed leaves so far, less their calibrated inside cost."""
        return (self.grade[1] - self.inside["grade"] * self.grade[0]
                + self.norm[1] - self.inside["norm"] * self.norm[0])

    def begin(self):
        return _clock(), self.leaf_seconds(), self.nested_own, self.nested_direct, self.grade[0]

    def end(self, layer, token):
        t0, leaf0, own0, direct0, grade0 = token
        duration = _clock() - t0
        leaf = self.leaf_seconds() - leaf0
        own = duration - leaf - (self.nested_own - own0)
        direct = leaf - (self.nested_direct - direct0)
        self.nested_own += own
        self.nested_direct += direct
        self.total[layer] += duration
        self.own[layer] += own
        self.direct[layer] += direct
        self.spans[layer] += 1
        self.grade_in[layer] += self.grade[0] - grade0

    def _wrap(self, fn, layer, on_result=None):
        def traced(*args, **kwargs):
            token = self.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(layer, token)
            if on_result is not None:
                on_result(result, *args)
            return result
        return traced

    # -- patching ------------------------------------------------------------

    def _patch(self, module, name, value):
        missing = object()
        self._undo.append((module, name, getattr(module, name, missing), missing))
        setattr(module, name, value)

    def __enter__(self):
        cli, auditor, contraction, solver = (
            self.m[k] for k in ("cli", "auditor", "contraction", "solver"))
        self._patch(cli, "standard_space", self._space_builder(cli.standard_space))
        self._patch(cli, "crisp_threshold_space",
                    self._space_builder(cli.crisp_threshold_space))
        self._patch(cli, "FiniteDomain", self._domain_class(cli.FiniteDomain))
        self._patch(cli, "IntervalDomain", self._domain_class(cli.IntervalDomain))
        self._patch(cli, "RunConfig", self._config_class(cli.RunConfig))
        # cli writes its JSON reports through the builtin open; a module
        # global of that name is looked up first.
        self._patch(cli, "open", self._open)
        self._patch(cli, "audit_space", self._audit(cli.audit_space))
        for module in (auditor, contraction):
            self._patch(module, "draw_tuples",
                        self._wrap(module.draw_tuples, "sampling", self._on_draw))
        for name in ("check_psi_phi_contractive", "check_k_contractive"):
            self._patch(cli, name, self._wrap(getattr(cli, name), "contraction",
                                              self._on_contract))
        self._patch(contraction, "_minimize_contraction_witness",
                    self._wrap(contraction._minimize_contraction_witness, "shrink"))
        self._patch(solver, "picard_iterate",
                    self._wrap(solver.picard_iterate, "picard", self._on_picard))
        self._patch(cli, "edelstein_solve",
                    self._wrap(cli.edelstein_solve, "orbit", self._on_orbit))
        self._patch(cli, "write_trace_csv",
                    self._wrap(cli.write_trace_csv, "trace_csv", self._on_trace_csv))
        return self

    def __exit__(self, *exc):
        for module, name, old, missing in reversed(self._undo):
            if old is missing:
                delattr(module, name)
            else:
                setattr(module, name, old)
        self._undo.clear()
        return False

    def main(self, argv) -> int:
        """Run one CLI command as a cli span, then fold its distinct grade
        queries into the running total."""
        token = self.begin()
        try:
            return self.m["cli"].main(argv)
        finally:
            self.end("cli", token)
            for queries in self.queries:
                if len(queries):
                    self.distinct += np.unique(np.frombuffer(queries, np.int64)).size
                    del queries[:]

    def _space_builder(self, make):
        def traced(domain, tnorm, tconorm):
            space = make(domain, tnorm, tconorm)
            if self.leaves == "spans":
                return space
            if self.leaves == "record":
                mu_queries, nu_queries = self.queries
                mu = _recording_grade(space.mu, self.grade, mu_queries.append)
                nu = _recording_grade(space.nu, self.grade, nu_queries.append)
            else:
                mu, nu = _timed_grade(space.mu, self.grade), _timed_grade(space.nu, self.grade)
            return dataclasses.replace(
                space, mu=mu, nu=nu,
                tnorm=self._with_leaf(space.tnorm),
                tconorm=self._with_leaf(space.tconorm),
            )
        return traced

    def _with_leaf(self, op):
        traced = copy.copy(op)  # keeps the kind; fn is replaced in place
        object.__setattr__(traced, "fn", _timed_norm(op.fn, self.norm))
        return traced

    def _domain_class(self, base):
        tracer = self

        class Traced(base):
            def __init__(self, *args, **kwargs):
                token = tracer.begin()
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.end("domain", token)

        Traced.__name__, Traced.__qualname__ = base.__name__, base.__qualname__
        return Traced

    def _config_class(self, base):
        tracer = self

        class Traced(base):
            @classmethod
            def from_path(cls, path):
                token = tracer.begin()
                try:
                    return super().from_path(path)
                finally:
                    tracer.end("config", token)

        Traced.__name__, Traced.__qualname__ = base.__name__, base.__qualname__
        return Traced

    def _open(self, *args, **kwargs):
        token = self.begin()
        return _TracedFile(self, open(*args, **kwargs), token)

    def _audit(self, audit_space):
        def traced(space, sampler):
            before = dict(self.drawn)
            token = self.begin()
            try:
                report = audit_space(space, sampler)
            finally:
                self.end("auditor", token)
            drawn = {a: self.drawn[a] - before.get(a, 0) for a in (1, 2, 3)}
            self.n["comparisons"] += _audit_comparisons(
                drawn, len(sampler.t_grid), report.triangle_mode == "non_archimedean")
            self.n["audit_violations"] += sum(c.violation_count for c in report.checks)
            return report
        return traced

    # -- counts from results -------------------------------------------------

    def _on_draw(self, tuples, domain, cfg, arity):
        self.drawn[arity] += len(tuples)

    def _on_contract(self, report, *args):
        self.n["pairs_checked"] += report.samples_checked
        self.n["contract_violations"] += report.violation_count

    def _on_picard(self, trace, *args):
        self.n["picard_steps"] += trace.iterations
        self.n["seeds"] += 1
        self.n["converged"] += trace.stop_reason == "converged"

    def _on_orbit(self, report, *args):
        self.n["orbit_steps"] += sum(report.iterations_per_seed)

    def _on_trace_csv(self, _none, trace, path):
        self.n["trace_rows"] += len(trace.points)
        self.n["trace_bytes"] += os.path.getsize(path)

    def unique_ratio(self) -> float:
        """Distinct (x, y, t) queries per grade function and command, over
        grade calls; meaningful for a "record" tracer."""
        return self.distinct / self.grade[0] if self.grade[0] else 0.0


def layer_metrics(spans: Tracer, leaves: Tracer) -> dict:
    """Per-layer metrics of one pair of repetitions: span times from the
    "spans" tracer, counts and leaf times from the "leaves" tracer."""
    n = leaves.n
    grade_calls = leaves.grade[0]
    steps = n["picard_steps"]

    def self_s(layer):
        return spans.own[layer] - leaves.direct[layer]

    return {
        "spaces.grade_calls": grade_calls,
        "spaces.grade_s": leaves.grade[1] - leaves.inside["grade"] * grade_calls,
        "spaces.domain_builds": leaves.spans["domain"],
        "spaces.domain_build_s": spans.total["domain"],
        "norms.op_calls": leaves.norm[0],
        "norms.op_s": leaves.norm[1] - leaves.inside["norm"] * leaves.norm[0],
        "sampling.tuples_drawn": sum(leaves.drawn.values()),
        "sampling.draw_s": spans.total["sampling"],
        "auditor.comparisons": n["comparisons"],
        "auditor.violations": n["audit_violations"],
        "auditor.self_s": self_s("auditor"),
        "contraction.pairs_checked": n["pairs_checked"],
        "contraction.violations": n["contract_violations"],
        "contraction.scan_s": spans.total["contraction"] - spans.total["shrink"],
        "contraction.shrink_s": spans.total["shrink"],
        "contraction.shrink_grade_calls": leaves.grade_in["shrink"],
        "solver.picard_steps": steps,
        "solver.picard_s": spans.total["picard"],
        "solver.grade_calls_per_step": leaves.grade_in["picard"] / steps if steps else 0.0,
        "solver.seeds_converged_ratio": n["converged"] / n["seeds"] if n["seeds"] else 0.0,
        "solver.trace_rows": n["trace_rows"],
        "solver.trace_csv_bytes": n["trace_bytes"],
        "solver.trace_csv_s": spans.total["trace_csv"],
        "solver.orbit_steps": n["orbit_steps"],
        "solver.orbit_s": spans.total["orbit"],
        "cli.config_s": spans.total["config"],
        "cli.report_s": spans.total["report"],
        "cli.bytes_written": leaves.report_bytes + n["trace_bytes"],
        "cli.self_s": self_s("cli"),
    }


def _audit_comparisons(drawn: dict, g: int, non_archimedean: bool) -> int:
    """Axiom predicate evaluations the audit is defined to make.

    Per (pair, t): rows i, ii, iv, vii, ix.  Per (single, t): iii, viii on
    the diagonal.  Per pair: the iii/viii all-grid test.  Per (triple, t, s):
    v and x; non-Archimedean spaces add na-mu/na-nu per (triple, t) and per
    (triple, t, s).  A random audit draws triples only and reuses their
    prefixes as pairs and singles.
    """
    triples = drawn[3]
    pairs = drawn[2] or triples
    singles = drawn[1] or triples
    count = 5 * pairs * g + 2 * singles * g + 2 * pairs + 2 * triples * g * g
    if non_archimedean:
        count += 2 * triples * (g + g * g)
    return count


def sweep(ifmkit, seed: int) -> dict:
    """Scaling points: audit grade calls at 10^3 and 10^4 samples (linear)
    and `FiniteDomain.line` validation time at n = 50 and 100 (cubic)."""
    out = {}
    space = ifmkit.standard_space(ifmkit.IntervalDomain(0.0, 1.0), ifmkit.TNorm.product(),
                                  ifmkit.TConorm.probabilistic_sum())
    for label, samples in (("1e3", 1_000), ("1e4", 10_000)):
        calls = [0]

        def counted(fn):
            def grade(x, y, t):
                calls[0] += 1
                return fn(x, y, t)
            return grade

        ifmkit.audit_space(
            dataclasses.replace(space, mu=counted(space.mu), nu=counted(space.nu)),
            ifmkit.SamplerConfig(ifmkit.RANDOM, samples, (0.1, 1.0, 10.0), seed=seed))
        out[f"sweep.audit_{label}.grade_calls"] = calls[0]
    for n in (50, 100):
        times = []
        for _ in range(3):
            t0 = _clock()
            ifmkit.FiniteDomain.line(n)
            times.append(_clock() - t0)
        out[f"sweep.line_{n}.domain_build_s"] = statistics.median(times)
    return out
