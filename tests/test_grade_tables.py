"""`spaces.grade_tables` is the one call that grades arrays.

Its tables equal the scalar grades cell by cell, whatever the arguments'
shapes and whichever form (joint, array, element-wise) grades them; and
the array paths of the auditor, the contraction scan and the solver grade
every cell through it, exactly once.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifmkit import (
    EXHAUSTIVE,
    RANDOM,
    FiniteDomain,
    IFSpace,
    IntervalDomain,
    SamplerConfig,
    SelfMap,
    SolverConfig,
    TConorm,
    TNorm,
    audit_space,
    check_joint_continuity,
    check_k_contractive,
    crisp_threshold_space,
    detect_g_cauchy,
    detect_m_cauchy,
    picard_iterate,
    standard_space,
    verify_fixed_point,
)
from ifmkit import auditor, contraction, solver
from ifmkit.spaces import grade_tables


def _plain_space(domain, on_call=None):
    """The standard space's grades as plain closures, with neither an array
    nor a joint form; ``on_call(name)`` is told of every call."""
    std = standard_space(domain, TNorm.product(), TConorm.probabilistic_sum())

    def closure(name):
        grade = getattr(std, name)

        def fn(x, y, t):
            if on_call is not None:
                on_call(name)
            return grade(x, y, t)
        return fn

    return IFSpace(domain, closure("mu"), closure("nu"), std.tnorm, std.tconorm,
                   std.triangle_mode, name="plain")


INTERVAL = IntervalDomain(0.0, 1.0)
FINITE = FiniteDomain(["a", "b", "c"], [[0.0, 0.3, 1.1], [0.3, 0.0, 0.9], [1.1, 0.9, 0.0]])
BUILDERS = {
    "standard": lambda d: standard_space(d, TNorm.product(), TConorm.probabilistic_sum()),
    "crisp": lambda d: crisp_threshold_space(d, TNorm.minimum(), TConorm.maximum()),
    "plain": _plain_space,
}
times = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


@settings(deadline=None)
@given(st.sampled_from(sorted(BUILDERS)), st.booleans(),
       st.sampled_from(["scalar", "1-d", "broadcast"]), st.data())
def test_tables_equal_the_scalar_grades(kind, finite, layout, data):
    domain = FINITE if finite else INTERVAL
    space = BUILDERS[kind](domain)
    point = st.integers(0, domain.size - 1) if finite else st.floats(0.0, 1.0)
    if layout == "scalar":
        x, y, t = data.draw(point), data.draw(point), data.draw(times)
    else:
        pairs = data.draw(st.lists(st.tuples(point, point), min_size=1, max_size=5))
        x, y = np.array(pairs).T
        if layout == "1-d":
            t = data.draw(times)
        else:  # (points, times), as the continuity probe lays them out
            x, y = x[:, None], y[:, None]
            t = np.array(data.draw(st.lists(times, min_size=1, max_size=3)))
    cells = np.broadcast(x, y, t)
    for grade, table in zip((space.mu, space.nu), grade_tables(space, x, y, t)):
        table = np.asarray(table)
        assert table.shape == cells.shape and table.dtype == np.float64
        for index in itertools.product(*map(range, cells.shape)):
            p, q, s = (np.broadcast_to(a, cells.shape)[index].item() for a in (x, y, t))
            assert float(grade(p, q, s)).hex() == float(table[index]).hex()


def test_every_array_grade_goes_through_grade_tables(monkeypatch):
    calls = {"mu": 0, "nu": 0, "cells": 0}

    def count(name):
        calls[name] += 1

    def counted_tables(space, x, y, t):
        calls["cells"] += np.broadcast(x, y, t).size
        return grade_tables(space, x, y, t)

    interval = _plain_space(INTERVAL, count)
    line = _plain_space(FiniteDomain.line(4), count)
    halving = SelfMap.scale(0.5)
    # the Picard precondition grades its single pair with scalar calls, so the
    # trace is built before counting starts
    trace = picard_iterate(interval, halving, 1.0, SolverConfig(1e-8, (0.1, 1.0)))
    calls.update(mu=0, nu=0)
    for module in (auditor, contraction, solver):
        monkeypatch.setattr(module, "grade_tables", counted_tables)

    audit_space(interval, SamplerConfig(RANDOM, 20, (0.5, 1.0), seed=0))
    audit_space(line, SamplerConfig(EXHAUSTIVE, 1, (0.5, 1.0)))
    report = check_k_contractive(interval, halving, 0.5, SamplerConfig(RANDOM, 20, (0.5, 1.0)))
    assert report.violation_count == 0  # a violation's witness is shrunk by scalar calls
    assert verify_fixed_point(interval, halving, 0.0, (0.1, 1.0), 1e-6).passed
    assert detect_m_cauchy(trace, 1e-6, 1.0, 5)
    assert detect_g_cauchy(trace, 2, 1.0)
    xs = [0.5 ** n for n in range(30)]
    assert check_joint_continuity(interval, xs, [1.0 - x for x in xs], 0.0, 1.0, 1.0, 1e-3)
    assert calls["mu"] == calls["nu"] == calls["cells"] > 0
