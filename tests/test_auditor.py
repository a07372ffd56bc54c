import itertools
import math

import pytest

from ifmkit import (
    EXHAUSTIVE,
    NON_ARCHIMEDEAN,
    RANDOM,
    FiniteDomain,
    IFSpace,
    IntervalDomain,
    PreconditionError,
    SamplerConfig,
    TConorm,
    TNorm,
    WitnessIntegrityError,
    audit_space,
    eval_mu,
    eval_nu,
    minimize_witness,
    standard_space,
)
from ifmkit.auditor import AUDIT_TOL, Witness, violation_margin


def clamped_nu_space():
    """Standard mu with an inflated, clamped nu: breaks mu + nu <= 1."""
    domain = IntervalDomain(0.0, 1.0)

    def mu(x, y, t):
        return t / (t + abs(x - y))

    def nu(x, y, t):
        d = abs(x - y)
        return min(1.2 * d / (t + d), 1.0)

    return IFSpace(domain, mu, nu, TNorm.product(), TConorm.probabilistic_sum(),
                   NON_ARCHIMEDEAN, name="clamped-nu")


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
def test_sampler_grid_must_be_positive_and_finite(bad):
    with pytest.raises(PreconditionError, match="positive and finite"):
        SamplerConfig(RANDOM, 10, (0.5, bad))


class TestStandardAudit:
    def test_all_axioms_clean(self, unit_space):
        report = audit_space(unit_space, SamplerConfig(RANDOM, 3000, (0.1, 1.0, 10.0), seed=42))
        assert report.passed
        assert report.failing_axioms == []
        for check in report.checks:
            assert check.violation_count == 0
        assert report.check("vi").status == "PROBED"
        assert report.check("xi").status == "PROBED"
        assert report.check("na-mu").status == "PASS"
        assert report.check("na-nu").status == "PASS"

    def test_archimedean_space_skips_strong_triangle(self, unit_interval):
        weak = standard_space(unit_interval, TNorm.minimum(), TConorm.maximum())
        report = audit_space(weak, SamplerConfig(RANDOM, 500, (0.1, 1.0), seed=1))
        assert report.check("na-mu").status == "SKIPPED"
        assert report.check("na-nu").status == "SKIPPED"
        assert report.passed

    def test_axiom_order_stable(self, unit_space):
        report = audit_space(unit_space, SamplerConfig(RANDOM, 100, (1.0,), seed=0))
        assert [c.axiom for c in report.checks] == [
            "i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi",
            "na-mu", "na-nu",
        ]


class TestCrispAudit:
    def test_exactly_one_failing_axiom(self, crisp5):
        report = audit_space(crisp5, SamplerConfig(EXHAUSTIVE, 1, (0.5, 2.0), seed=0))
        assert report.failing_axioms == ["ii"]
        witness = report.check("ii").witnesses[0]
        assert witness.t <= 1.0
        assert witness.x != witness.y
        assert witness.lhs == 0.0

    def test_grid_entirely_above_switch_looks_indiscrete(self, crisp5):
        # with every sampled t above the switch, distinct points are fully
        # near at all samples, so the space is indistinguishable from the
        # degenerate mu = 1 one and both identity directions fail; strict
        # positivity (ii) holds everywhere on this grid
        report = audit_space(crisp5, SamplerConfig(EXHAUSTIVE, 1, (2.0, 3.0), seed=0))
        assert report.failing_axioms == ["iii", "viii"]


class TestNegativeControls:
    def test_clamped_nu_fails_axiom_i(self):
        space = clamped_nu_space()
        report = audit_space(space, SamplerConfig(RANDOM, 2000, (0.1, 1.0, 10.0), seed=5))
        assert "i" in report.failing_axioms
        w = report.check("i").witnesses[0]
        total = float(eval_mu(space, w.x, w.y, w.t)) + float(eval_nu(space, w.x, w.y, w.t))
        assert total > 1.0 + AUDIT_TOL

    def test_pointwise_value_matches_derivation(self):
        # at d = t = 1: mu = 0.5, nu = 0.6, sum = 1.1
        space = clamped_nu_space()
        assert float(eval_mu(space, 0.0, 1.0, 1.0)) + float(
            eval_nu(space, 0.0, 1.0, 1.0)
        ) == pytest.approx(1.1)

    def test_asymmetric_mu_fails_symmetry(self):
        domain = IntervalDomain(0.0, 1.0)

        def mu(x, y, t):
            base = t / (t + abs(x - y))
            return base * 0.9 if x > y else base

        def nu(x, y, t):
            d = abs(x - y)
            return d / (t + d)

        space = IFSpace(domain, mu, nu, TNorm.product(), TConorm.probabilistic_sum(),
                        name="asymmetric")
        report = audit_space(space, SamplerConfig(RANDOM, 1000, (1.0,), seed=9))
        assert "iv" in report.failing_axioms

    def test_fully_near_pair_fails_identity_direction(self):
        # mu identically 1 on distinct points at every grid t
        domain = IntervalDomain(0.0, 1.0)
        space = IFSpace(domain, lambda x, y, t: 1.0, lambda x, y, t: 0.0,
                        TNorm.product(), TConorm.probabilistic_sum(), name="indiscrete")
        report = audit_space(space, SamplerConfig(RANDOM, 200, (0.5, 2.0), seed=3))
        assert "iii" in report.failing_axioms
        assert "viii" in report.failing_axioms

    def test_zero_nu_with_separation_fails_vii(self):
        # nu vanishes although mu < 1: strict positivity is checkable here
        domain = IntervalDomain(0.0, 1.0)

        def mu(x, y, t):
            return t / (t + abs(x - y))

        space = IFSpace(domain, mu, lambda x, y, t: 0.0, TNorm.product(),
                        TConorm.probabilistic_sum(), name="zero-nu")
        report = audit_space(space, SamplerConfig(RANDOM, 500, (1.0,), seed=3))
        assert "vii" in report.failing_axioms


class TestDeterminism:
    def test_byte_identical_reports(self, unit_space):
        sampler = SamplerConfig(RANDOM, 1500, (0.1, 1.0, 10.0), seed=123)
        assert audit_space(unit_space, sampler).to_json() == audit_space(
            unit_space, sampler
        ).to_json()

    def test_different_seeds_differ_on_failing_space(self):
        space = clamped_nu_space()
        r1 = audit_space(space, SamplerConfig(RANDOM, 200, (1.0,), seed=1))
        r2 = audit_space(space, SamplerConfig(RANDOM, 200, (1.0,), seed=2))
        w1 = r1.check("i").witnesses[0]
        w2 = r2.check("i").witnesses[0]
        assert (w1.x, w1.y) != (w2.x, w2.y)


class TestSoundness:
    def test_every_witness_reproduces(self):
        space = clamped_nu_space()
        report = audit_space(space, SamplerConfig(RANDOM, 1000, (0.1, 1.0, 10.0), seed=7))
        seen = 0
        for check in report.checks:
            for w in check.witnesses:
                violated, _, _ = violation_margin(space, w)
                assert violated, (check.axiom, w)
                seen += 1
        assert seen > 0

    def test_exhaustive_completeness_matches_brute_force(self):
        # plant a single asymmetric defect in a finite space and compare the
        # audit verdict with a direct enumeration of the same tuples
        domain = FiniteDomain.line(4)

        def mu(x, y, t):
            base = t / (t + domain.distance(x, y))
            if (x, y) == (1, 3):
                return base * 0.8
            return base

        def nu(x, y, t):
            d = domain.distance(x, y)
            return d / (t + d)

        space = IFSpace(domain, mu, nu, TNorm.product(), TConorm.probabilistic_sum(),
                        name="planted")
        grid = (0.5, 1.0)
        report = audit_space(space, SamplerConfig(EXHAUSTIVE, 1, grid, seed=0))

        brute_sym = {
            (x, y, t)
            for x, y in itertools.product(range(4), repeat=2)
            for t in grid
            if abs(mu(x, y, t) - mu(y, x, t)) > AUDIT_TOL
        }
        assert ("iv" in report.failing_axioms) == bool(brute_sym)
        assert report.check("iv").violation_count == len(brute_sym)

        brute_sum = {
            (x, y, t)
            for x, y in itertools.product(range(4), repeat=2)
            for t in grid
            if mu(x, y, t) + nu(x, y, t) > 1.0 + AUDIT_TOL
        }
        assert ("i" in report.failing_axioms) == bool(brute_sum)
        assert report.check("i").violation_count == len(brute_sum)


class TestMinimizeWitness:
    def test_shrinks_toward_midpoint_and_unit_time(self):
        space = clamped_nu_space()
        report = audit_space(space, SamplerConfig(RANDOM, 500, (0.1, 1.0, 10.0), seed=5))
        w = report.check("i").witnesses[0]
        m = minimize_witness(space, w)
        violated, _, _ = violation_margin(space, m)
        assert violated
        assert abs(m.x - 0.5) <= abs(w.x - 0.5) + 1e-15
        assert abs(m.y - 0.5) <= abs(w.y - 0.5) + 1e-15
        assert abs(m.t - 1.0) <= abs(w.t - 1.0) + 1e-15
        assert max(abs(m.x - 0.5), abs(m.y - 0.5)) < 1e-3
        assert m.x != m.y  # the violation needs separation, shrinking keeps it

    def test_idempotent_on_minimized_witness(self):
        space = clamped_nu_space()
        report = audit_space(space, SamplerConfig(RANDOM, 500, (0.1, 1.0, 10.0), seed=5))
        m1 = minimize_witness(space, report.check("i").witnesses[0])
        m2 = minimize_witness(space, m1)
        assert (m2.x, m2.y, m2.t) == (m1.x, m1.y, m1.t)

    def test_symmetry_witness_keeps_points_distinct(self):
        domain = IntervalDomain(0.0, 1.0)

        def mu(x, y, t):
            base = t / (t + abs(x - y))
            return base * 0.9 if x > y else base

        space = IFSpace(domain, mu, lambda x, y, t: abs(x - y) / (t + abs(x - y)),
                        TNorm.product(), TConorm.probabilistic_sum(), name="asym")
        report = audit_space(space, SamplerConfig(RANDOM, 500, (1.0,), seed=9))
        m = minimize_witness(space, report.check("iv").witnesses[0])
        assert m.x != m.y
        violated, _, _ = violation_margin(space, m)
        assert violated

    def test_non_reproducing_witness_rejected(self, unit_space):
        with pytest.raises(WitnessIntegrityError):
            minimize_witness(unit_space, Witness("i", x=0.9, y=0.1, t=1.0))

    def test_finite_domain_shrinks_in_index_space(self):
        domain = FiniteDomain.line(9)

        def nu(x, y, t):
            d = domain.distance(x, y)
            return min(1.5 * d / (t + d), 1.0)

        space = IFSpace(domain, lambda x, y, t: t / (t + domain.distance(x, y)), nu,
                        TNorm.product(), TConorm.probabilistic_sum(), name="finite-bad")
        report = audit_space(space, SamplerConfig(EXHAUSTIVE, 1, (1.0,), seed=0))
        w = report.check("i").witnesses[0]
        m = minimize_witness(space, w)
        anchor = domain.anchor()
        assert abs(m.x - anchor) <= abs(w.x - anchor)
        assert abs(m.y - anchor) <= abs(w.y - anchor)
        violated, _, _ = violation_margin(space, m)
        assert violated
