"""A NaN grade is a violation: the audit, the psi-phi check and the k check
all FAIL once a scanned pair meets a point where mu or nu is NaN."""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ifmkit import (
    EXHAUSTIVE,
    RANDOM,
    FiniteDomain,
    IntervalDomain,
    SamplerConfig,
    SelfMap,
    TConorm,
    TNorm,
    audit_space,
    check_k_contractive,
    check_psi_phi_contractive,
    pair_from_k,
    standard_space,
)
from ifmkit.sampling import draw_array


def _poisoned(grade, bad, bad_array, with_array):
    """grade, but NaN wherever either point is bad."""
    def poisoned(x, y, t):
        return math.nan if bad(x) or bad(y) else grade(x, y, t)

    if with_array:
        poisoned.array = lambda x, y, t: np.where(bad_array(x) | bad_array(y), np.nan,
                                                  grade.array(x, y, t))
    return poisoned


@st.composite
def poisoned_runs(draw):
    if draw(st.booleans()):
        n = draw(st.integers(2, 8))
        domain = FiniteDomain.line(n)
        points = sorted(set(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))))
        bad, bad_array = points.__contains__, lambda x: np.isin(x, points)
        f = SelfMap.table(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        mode = draw(st.sampled_from((EXHAUSTIVE, RANDOM)))
    else:
        domain = IntervalDomain(0.0, 1.0)
        lo = draw(st.floats(0.0, 1.0))
        hi = lo + draw(st.floats(0.0, 1.0))
        bad, bad_array = (lambda x: lo <= x <= hi), (lambda x: (lo <= x) & (x <= hi))
        f = draw(st.sampled_from((SelfMap.scale(0.5), SelfMap.identity(),
                                  SelfMap.constant(0.25))))
        mode = RANDOM
    space = standard_space(domain, TNorm.product(), TConorm.probabilistic_sum())
    with_array = draw(st.booleans())
    sides = draw(st.sampled_from((("mu",), ("nu",), ("mu", "nu"))))
    space = dataclasses.replace(space, **{
        side: _poisoned(getattr(space, side), bad, bad_array, with_array) for side in sides})
    grid = draw(st.lists(st.sampled_from((0.1, 0.5, 1.0, 2.0)), min_size=1, max_size=3))
    sampler = SamplerConfig(mode, draw(st.integers(1, 30)), tuple(grid),
                            seed=draw(st.integers(0, 2**16)))
    return space, f, sampler, bad, draw(st.sampled_from((0.2, 0.5, 0.8)))


def _touches(pairs, bad) -> bool:
    return any(bad(x) or bad(y) for x, y in pairs.tolist())


@settings(max_examples=150, deadline=None)
@given(poisoned_runs())
def test_a_scanned_pair_at_a_nan_grade_fails_every_check(case):
    space, f, sampler, bad, k = case
    domain = space.domain
    audited = (draw_array(domain, sampler, 2) if sampler.mode == EXHAUSTIVE
               else draw_array(domain, sampler, 3)[:, :2])
    if _touches(audited, bad):
        assert not audit_space(space, sampler).passed
    if _touches(draw_array(domain, sampler, 2), bad):
        assert not check_psi_phi_contractive(space, f, pair_from_k(k), sampler).passed
        assert not check_k_contractive(space, f, k, sampler).passed


def test_all_nan_space_fails_every_check(unit_space):
    def nan(x, y, t):
        return math.nan

    space = dataclasses.replace(unit_space, mu=nan, nu=nan)
    sampler = SamplerConfig(RANDOM, 50, (0.5, 1.0, 2.0), seed=3)
    report = audit_space(space, sampler)
    assert report.failing_axioms == [c.axiom for c in report.checks if c.status != "PROBED"]
    for axiom in ("vi", "xi"):
        assert report.check(axiom).detail.startswith("max adjacent delta nan over ")
    halving = SelfMap.scale(0.5)
    assert not check_psi_phi_contractive(space, halving, pair_from_k(0.5), sampler).passed
    assert not check_k_contractive(space, halving, 0.5, sampler).passed
