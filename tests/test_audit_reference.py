"""The array audit against the scalar loop it replaced, byte for byte.

`scalar_audit_space` is the per-tuple loop `audit_space` used to run: one
scalar grade call per (tuple, t) or (tuple, t, s) and one Python comparison
per predicate.  It stays here as the reference the array path must match in
every count, witness and serialized byte.  Each comparison is written as
"not (the condition that must hold)", so a NaN grade violates.
"""

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifmkit import (
    ARCHIMEDEAN,
    EXHAUSTIVE,
    NON_ARCHIMEDEAN,
    RANDOM,
    FiniteDomain,
    IFSpace,
    IntervalDomain,
    SamplerConfig,
    TConorm,
    TNorm,
    audit_space,
    crisp_threshold_space,
    standard_space,
)
from ifmkit import sampling
from ifmkit.auditor import (
    AUDIT_TOL,
    AXIOM_ORDER,
    AuditReport,
    AxiomCheck,
    Witness,
    _continuity_probe,
    minimize_witness,
    violation_margin,
)
from ifmkit.sampling import MAX_WITNESSES, draw_tuples


class _ScalarCollector:
    def __init__(self, axiom):
        self.axiom = axiom
        self.count = 0
        self.witnesses = []

    def add(self, x, y, t, z=None, s=None, lhs=0.0, rhs=0.0):
        self.count += 1
        if len(self.witnesses) < MAX_WITNESSES:
            self.witnesses.append(Witness(self.axiom, x, y, t, z=z, s=s, lhs=lhs, rhs=rhs))

    def finish(self, detail=None):
        status = "FAIL" if self.count else "PASS"
        return AxiomCheck(self.axiom, status, self.count, tuple(self.witnesses), detail)


def scalar_audit_space(space, sampler):
    """The scalar audit loop, kept verbatim as the reference."""
    domain = space.domain
    mu, nu = space.mu, space.nu
    tnorm_fn = space.tnorm.fn
    tconorm_fn = space.tconorm.fn
    same = domain.same_point
    tol = AUDIT_TOL

    triples = draw_tuples(domain, sampler, 3)
    if sampler.mode == EXHAUSTIVE:
        pairs = draw_tuples(domain, sampler, 2)
        singles = [x for (x,) in draw_tuples(domain, sampler, 1)]
    else:
        pairs = [(x, y) for x, y, _ in triples]
        singles = [x for x, _, _ in triples]
    grid = sampler.t_grid
    ts_pairs = [(t, s) for t in grid for s in grid]

    col = {axiom: _ScalarCollector(axiom) for axiom in AXIOM_ORDER}

    for x, y in pairs:
        for t in grid:
            m = mu(x, y, t)
            n = nu(x, y, t)
            if not (m + n <= 1.0 + tol):
                col["i"].add(x, y, t, lhs=m + n, rhs=1.0)
            if not (m > 0.0):
                col["ii"].add(x, y, t, lhs=m, rhs=0.0)
            msym = mu(y, x, t)
            if not (abs(m - msym) <= tol):
                col["iv"].add(x, y, t, lhs=m, rhs=msym)
            nsym = nu(y, x, t)
            if not (abs(n - nsym) <= tol):
                col["ix"].add(x, y, t, lhs=n, rhs=nsym)
            if not same(x, y) and not (m >= 1.0 - tol or n > 0.0):
                col["vii"].add(x, y, t, lhs=n, rhs=0.0)

    for x in singles:
        for t in grid:
            m = mu(x, x, t)
            if not (abs(m - 1.0) <= tol):
                col["iii"].add(x, x, t, lhs=m, rhs=1.0)
            n = nu(x, x, t)
            if not (abs(n) <= tol):
                col["viii"].add(x, x, t, lhs=n, rhs=0.0)
    for x, y in pairs:
        if same(x, y):
            continue
        mus = [(mu(x, y, t), t) for t in grid]
        if all(not (m < 1.0) for m, _ in mus):
            nan_times = [t for m, t in mus if math.isnan(m)]
            worst = (math.nan, min(nan_times)) if nan_times else min(mus)
            col["iii"].add(x, y, worst[1], lhs=worst[0], rhs=1.0)
        nus = [(nu(x, y, t), t) for t in grid]
        if all(not (n > 0.0) for n, _ in nus):
            nan_times = [t for n, t in nus if math.isnan(n)]
            worst = (math.nan, min(nan_times)) if nan_times else max(nus)
            col["viii"].add(x, y, worst[1], lhs=worst[0], rhs=0.0)

    for x, y, z in triples:
        for t, s in ts_pairs:
            bound = tnorm_fn(mu(x, y, t), mu(y, z, s))
            lhs = mu(x, z, t + s)
            if not (lhs >= bound - tol):
                col["v"].add(x, y, t, z=z, s=s, lhs=lhs, rhs=bound)
            nbound = tconorm_fn(nu(x, y, t), nu(y, z, s))
            nlhs = nu(x, z, t + s)
            if not (nlhs <= nbound + tol):
                col["x"].add(x, y, t, z=z, s=s, lhs=nlhs, rhs=nbound)

    probed = _continuity_probe(space, pairs, grid)
    checks = [
        col["i"].finish(),
        col["ii"].finish(),
        col["iii"].finish(),
        col["iv"].finish(),
        col["v"].finish(),
        probed["vi"],
        col["vii"].finish(detail="checked for distinct pairs with mu < 1"),
        col["viii"].finish(),
        col["ix"].finish(),
        col["x"].finish(),
        probed["xi"],
    ]

    if space.triangle_mode == NON_ARCHIMEDEAN:
        for x, y, z in triples:
            for t in grid:
                bound = tnorm_fn(mu(x, y, t), mu(y, z, t))
                lhs = mu(x, z, t)
                if not (lhs >= bound - tol):
                    col["na-mu"].add(x, y, t, z=z, lhs=lhs, rhs=bound)
                nbound = tconorm_fn(nu(x, y, t), nu(y, z, t))
                nlhs = nu(x, z, t)
                if not (nlhs <= nbound + tol):
                    col["na-nu"].add(x, y, t, z=z, lhs=nlhs, rhs=nbound)
            for t, s in ts_pairs:
                tm = max(t, s)
                bound = tnorm_fn(mu(x, y, t), mu(y, z, s))
                lhs = mu(x, z, tm)
                if not (lhs >= bound - tol):
                    col["na-mu"].add(x, y, t, z=z, s=s, lhs=lhs, rhs=bound)
                nbound = tconorm_fn(nu(x, y, t), nu(y, z, s))
                nlhs = nu(x, z, tm)
                if not (nlhs <= nbound + tol):
                    col["na-nu"].add(x, y, t, z=z, s=s, lhs=nlhs, rhs=nbound)
        checks.append(col["na-mu"].finish(detail="single-t bound plus max(t,s) variant"))
        checks.append(col["na-nu"].finish(detail="single-t bound plus max(t,s) variant"))
    else:
        skipped = "space is not tagged non-Archimedean"
        checks.append(AxiomCheck("na-mu", "SKIPPED", detail=skipped))
        checks.append(AxiomCheck("na-nu", "SKIPPED", detail=skipped))

    return AuditReport(space.name, space.triangle_mode, sampler, tuple(checks), domain=domain)


NORM_PAIRS = {
    "product": (TNorm.product(), TConorm.probabilistic_sum()),
    "minimum": (TNorm.minimum(), TConorm.maximum()),
    "lukasiewicz": (TNorm.lukasiewicz(), TConorm.bounded_sum()),
    # no array form: the triangle rows go through `spaces.array_form`'s
    # element-wise fallback
    "custom": (TNorm.custom(lambda a, b: a * b), TConorm.custom(lambda a, b: a + b - a * b)),
}


def _planted(kind, domain, norms, mode):
    """Custom spaces with a planted defect; each breaks its rows many times."""
    dist = domain.distance
    # only the top of the domain breaks mu(x, x, t) = 1, so the diagonal
    # hits of the indiscrete space stay below the witness limit
    cut = 0.998 if isinstance(domain, IntervalDomain) else domain.size - 1.5

    def mu_std(x, y, t):
        return t / (t + dist(x, y))

    def nu_std(x, y, t):
        d = dist(x, y)
        return d / (t + d)

    if kind == "clamped-nu":
        mu, nu = mu_std, lambda x, y, t: min(1.2 * dist(x, y) / (t + dist(x, y)), 1.0)
    elif kind == "asymmetric":
        mu, nu = (lambda x, y, t: mu_std(x, y, t) * 0.9 if x > y else mu_std(x, y, t)), nu_std
    elif kind == "asymmetric-nu":
        mu, nu = mu_std, (lambda x, y, t: nu_std(x, y, t) * 0.9 if x > y else nu_std(x, y, t))
    elif kind == "indiscrete":
        mu = lambda x, y, t: 0.5 if x == y and x > cut else 1.0  # noqa: E731
        nu = lambda x, y, t: 0.0  # noqa: E731
    elif kind == "overshoot":
        # distinct pairs fully near and non-far at every t, with the worst
        # grade at neither end of the grid order by t alone
        mu = lambda x, y, t: 1.0 + dist(x, y) / t  # noqa: E731
        nu = lambda x, y, t: -dist(x, y) * t  # noqa: E731
    elif kind == "zero-nu":
        mu, nu = mu_std, lambda x, y, t: 0.0
    elif kind == "squared":
        mu = lambda x, y, t: t / (t + dist(x, y) ** 2)  # noqa: E731
        nu = lambda x, y, t: dist(x, y) ** 2 / (t + dist(x, y) ** 2)  # noqa: E731
    elif kind == "nan":
        mu = lambda x, y, t: math.nan if dist(x, y) > 0.5 else mu_std(x, y, t)  # noqa: E731
        nu = nu_std
    else:
        raise AssertionError(kind)
    return IFSpace(domain, mu, nu, *norms, triangle_mode=mode, name=kind)


PLANTED = ("clamped-nu", "asymmetric", "asymmetric-nu", "indiscrete", "overshoot", "zero-nu",
           "squared", "nan")

# Grids drawn from these values often contain t + s (0.25 + 0.25 = 0.5,
# 0.5 + 0.5 = 1, 1 + 2 = 3, ...) as a grid value of their own.
GRID_VALUES = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 10.0)


@st.composite
def audits(draw):
    finite = draw(st.booleans())
    domain = FiniteDomain.line(draw(st.integers(2, 5))) if finite else IntervalDomain(0.0, 1.0)
    norms = NORM_PAIRS[draw(st.sampled_from(sorted(NORM_PAIRS)))]
    kind = draw(st.sampled_from(("standard", "crisp") + PLANTED))
    if kind == "standard":
        space = standard_space(domain, *norms)
    elif kind == "crisp":
        space = crisp_threshold_space(domain, *norms)
    else:
        mode = draw(st.sampled_from((ARCHIMEDEAN, NON_ARCHIMEDEAN)))
        space = _planted(kind, domain, norms, mode)
    grid = draw(st.lists(st.sampled_from(GRID_VALUES)
                         | st.floats(0.01, 20.0, allow_nan=False), min_size=1, max_size=4))
    exhaustive = finite and draw(st.booleans())
    sampler = SamplerConfig(EXHAUSTIVE if exhaustive else RANDOM,
                            draw(st.integers(1, 60)), tuple(grid), seed=draw(st.integers(0, 2**16)))
    chunk_cells = draw(st.sampled_from((1, 7, 64, sampling._CHUNK_CELLS)))
    return space, sampler, chunk_cells


@settings(max_examples=150, deadline=None)
@given(audits())
def test_array_audit_matches_scalar_reference(case):
    space, sampler, chunk_cells = case
    with mock.patch.object(sampling, "_CHUNK_CELLS", chunk_cells):
        array = audit_space(space, sampler).to_json()
    assert array == scalar_audit_space(space, sampler).to_json()


@pytest.mark.parametrize("finite", [False, True], ids=["interval", "line9"])
@pytest.mark.parametrize("norm", sorted(NORM_PAIRS))
@pytest.mark.parametrize("kind", PLANTED)
def test_chunked_audit_matches_scalar_reference(kind, norm, finite, monkeypatch):
    # 1300 random triples, or the 729 exhaustive triples of line(9), in
    # chunks of 11 tuples; more than ten violations on the planted rows
    monkeypatch.setattr(sampling, "_CHUNK_CELLS", 100)
    domain = FiniteDomain.line(9) if finite else IntervalDomain(0.0, 1.0)
    space = _planted(kind, domain, NORM_PAIRS[norm], NON_ARCHIMEDEAN)
    sampler = SamplerConfig(EXHAUSTIVE if finite else RANDOM, 1300, (0.25, 0.5, 1.0), seed=11)
    report = audit_space(space, sampler)
    assert report.to_json() == scalar_audit_space(space, sampler).to_json()
    planted_rows = {"clamped-nu": ["i"], "asymmetric": ["iv"], "asymmetric-nu": ["ix"],
                    "indiscrete": ["iii", "viii"], "overshoot": ["iii", "viii"],
                    "zero-nu": ["vii"], "squared": ["na-mu", "na-nu"],
                    "nan": ["i", "ii", "iii", "iv", "v", "na-mu"]}
    for axiom in planted_rows[kind]:
        check = report.check(axiom)
        assert check.violation_count > MAX_WITNESSES, axiom
        for w in check.witnesses:  # each re-checks by the row that found it
            assert repr(violation_margin(space, w)) == repr((True, w.lhs, w.rhs)), axiom


@settings(max_examples=60, deadline=None)
@given(audits())
def test_witnesses_recheck_and_shrink_toward_anchor(case):
    space, sampler, chunk_cells = case
    anchor = space.domain.anchor()
    targets = {"x": anchor, "y": anchor, "z": anchor, "t": 1.0, "s": 1.0}
    with mock.patch.object(sampling, "_CHUNK_CELLS", chunk_cells):
        report = audit_space(space, sampler)
    for check in report.checks:
        for w in check.witnesses:
            assert repr(violation_margin(space, w)) == repr((True, w.lhs, w.rhs))
            m = minimize_witness(space, w)
            assert repr(violation_margin(space, m)) == repr((True, m.lhs, m.rhs))
            for coord, target in targets.items():
                before, after = getattr(w, coord), getattr(m, coord)
                if before is None:
                    assert after is None
                else:
                    assert abs(after - target) <= abs(before - target), coord


@pytest.mark.parametrize("grade, axiom", [("mu", "ii"), ("nu", "vii")])
def test_replaced_grade_function_is_the_one_audited(unit_space, grade, axiom):
    # the other grade keeps the standard space's joint form, which must not
    # grade the replaced one
    def broken(x, y, t):
        return 0.0

    space = dataclasses.replace(unit_space, **{grade: broken})
    sampler = SamplerConfig(RANDOM, 50, (0.5, 1.0), seed=4)
    report = audit_space(space, sampler)
    assert axiom in report.failing_axioms
    assert report.to_json() == scalar_audit_space(space, sampler).to_json()
