import gc
import importlib
import itertools
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifmkit import (
    ARCHIMEDEAN,
    NON_ARCHIMEDEAN,
    DomainError,
    FiniteDomain,
    IntervalDomain,
    PreconditionError,
    TConorm,
    TNorm,
    crisp_threshold_space,
    eval_mu,
    eval_nu,
    standard_space,
)

TOL = 1e-12

coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
times = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)

# immutable space shared by the property tests below (hypothesis dislikes
# function-scoped fixtures inside @given)
_UNIT_SPACE = standard_space(
    IntervalDomain(0.0, 1.0), TNorm.product(), TConorm.probabilistic_sum()
)


class TestDomains:
    def test_interval_requires_order(self):
        with pytest.raises(DomainError):
            IntervalDomain(1.0, 0.0)
        with pytest.raises(DomainError):
            IntervalDomain(0.0, float("inf"))

    def test_interval_membership_and_distance(self, unit_interval):
        assert unit_interval.contains(0.5)
        assert not unit_interval.contains(1.5)
        assert unit_interval.distance(0.2, 0.9) == pytest.approx(0.7)

    def test_finite_metric_validation(self):
        with pytest.raises(DomainError, match="symmetric"):
            FiniteDomain(["a", "b"], [[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(DomainError, match="diagonal"):
            FiniteDomain(["a", "b"], [[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(DomainError, match="triangle"):
            FiniteDomain(["a", "b", "c"],
                         [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(DomainError, match="nonnegative"):
            FiniteDomain(["a", "b"], [[0.0, -1.0], [-1.0, 0.0]])

    @settings(deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6), st.data())
    def test_triangle_check_matches_brute_force(self, coords, data):
        # a line metric with a few symmetric entries moved, so the triangle
        # inequality fails at none, one or several (i, j, k)
        n = len(coords)
        m = [[abs(a - b) for b in coords] for a in coords]
        for _ in range(data.draw(st.integers(0, 3))):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            if i != j:
                m[i][j] = m[j][i] = max(0.0, m[i][j] + data.draw(st.floats(-0.5, 0.5)))
        expected = next(
            (f"triangle inequality fails at indices ({i}, {j}, {k}): "
             f"{m[i][k]} > {m[i][j]} + {m[j][k]}"
             for i, j, k in itertools.product(range(n), repeat=3)
             if m[i][k] > m[i][j] + m[j][k] + TOL),
            None,
        )
        labels = [str(i) for i in range(n)]
        if expected is None:
            FiniteDomain(labels, m)
        else:
            with pytest.raises(DomainError) as err:
                FiniteDomain(labels, m)
            assert str(err.value) == expected

    def test_line_domain(self):
        line = FiniteDomain.line(10)
        assert line.size == 10
        assert line.distance(0, 9) == pytest.approx(1.0)
        assert line.distance(3, 4) == pytest.approx(1.0 / 9.0)
        assert line.labels[0] == "0"


class TestStandardSpace:
    def test_point_values(self):
        two = FiniteDomain(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
        space = standard_space(two, TNorm.product(), TConorm.probabilistic_sum())
        assert float(eval_mu(space, 0, 1, 1.0)) == pytest.approx(0.5, abs=TOL)
        assert float(eval_nu(space, 0, 1, 1.0)) == pytest.approx(0.5, abs=TOL)

    def test_self_distance(self, unit_space):
        assert float(eval_mu(unit_space, 0.3, 0.3, 2.0)) == 1.0
        assert float(eval_nu(unit_space, 0.3, 0.3, 2.0)) == 0.0

    def test_distance_three(self):
        far = FiniteDomain(["a", "b"], [[0.0, 3.0], [3.0, 0.0]])
        space = standard_space(far, TNorm.product(), TConorm.probabilistic_sum())
        mu = float(eval_mu(space, 0, 1, 1.0))
        nu = float(eval_nu(space, 0, 1, 1.0))
        assert mu == pytest.approx(0.25, abs=TOL)
        assert nu == pytest.approx(0.75, abs=TOL)
        assert mu + nu == pytest.approx(1.0, abs=TOL)

    def test_triangle_mode_follows_tnorm(self, unit_interval):
        assert standard_space(unit_interval, TNorm.product(),
                              TConorm.probabilistic_sum()).triangle_mode == NON_ARCHIMEDEAN
        assert standard_space(unit_interval, TNorm.minimum(),
                              TConorm.maximum()).triangle_mode == ARCHIMEDEAN

    @given(x=coords, y=coords, t=times)
    def test_grades_sum_to_one(self, x, y, t):
        space = _UNIT_SPACE
        assert space.mu(x, y, t) + space.nu(x, y, t) == pytest.approx(1.0, abs=TOL)

    @given(x=coords, y=coords, z=coords, t=times)
    def test_strong_triangle_bounds_under_product(self, x, y, z, t):
        mu = _UNIT_SPACE.mu
        nu = _UNIT_SPACE.nu
        assert mu(x, z, t) >= mu(x, y, t) * mu(y, z, t) - TOL
        bound = nu(x, y, t) + nu(y, z, t) - nu(x, y, t) * nu(y, z, t)
        assert nu(x, z, t) <= bound + TOL

    @given(x=coords, y=coords, t=times, dt=st.floats(min_value=1e-3, max_value=10.0))
    def test_mu_monotone_nu_antitone_in_t(self, x, y, t, dt):
        space = _UNIT_SPACE
        assert space.mu(x, y, t) <= space.mu(x, y, t + dt) + TOL
        assert space.nu(x, y, t) >= space.nu(x, y, t + dt) - TOL


class TestCrispSpace:
    def test_distinct_small_t(self, crisp5):
        assert float(eval_mu(crisp5, 0, 1, 0.5)) == 0.0
        assert float(eval_nu(crisp5, 0, 1, 0.5)) == 1.0

    def test_distinct_large_t(self, crisp5):
        assert float(eval_mu(crisp5, 0, 1, 2.0)) == 1.0
        assert float(eval_nu(crisp5, 0, 1, 2.0)) == 0.0

    def test_same_point_any_t(self, crisp5):
        assert float(eval_mu(crisp5, 2, 2, 0.5)) == 1.0
        assert float(eval_nu(crisp5, 2, 2, 0.5)) == 0.0

    def test_boundary_t_equal_one_is_far(self, crisp5):
        # the switch is at t <= 1, inclusive
        assert float(eval_mu(crisp5, 0, 1, 1.0)) == 0.0
        assert float(eval_nu(crisp5, 0, 1, 1.0)) == 1.0

    def test_single_point_domain_rejected(self):
        one = FiniteDomain(["only"], [[0.0]])
        with pytest.raises(PreconditionError):
            crisp_threshold_space(one, TNorm.minimum(), TConorm.maximum())

    def test_marked_relaxed_and_non_archimedean(self, crisp5):
        assert crisp5.relaxed
        assert crisp5.triangle_mode == NON_ARCHIMEDEAN

    def test_works_on_intervals_too(self, unit_interval):
        crisp = crisp_threshold_space(unit_interval, TNorm.minimum(), TConorm.maximum())
        assert float(eval_mu(crisp, 0.1, 0.9, 0.5)) == 0.0
        assert float(eval_mu(crisp, 0.1, 0.9, 1.5)) == 1.0


class TestEvalValidation:
    def test_nonpositive_t_rejected(self, unit_space):
        with pytest.raises(DomainError):
            eval_mu(unit_space, 0.1, 0.2, 0.0)
        with pytest.raises(DomainError):
            eval_nu(unit_space, 0.1, 0.2, -1.0)

    def test_point_outside_domain_rejected(self, unit_space):
        with pytest.raises(DomainError):
            eval_mu(unit_space, 1.2, 0.2, 1.0)

    def test_broken_grade_function_caught(self, unit_interval):
        broken = standard_space(unit_interval, TNorm.product(), TConorm.probabilistic_sum())
        broken = type(broken)(
            domain=broken.domain,
            mu=lambda x, y, t: 1.5,
            nu=broken.nu,
            tnorm=broken.tnorm,
            tconorm=broken.tconorm,
            triangle_mode=broken.triangle_mode,
        )
        with pytest.raises(DomainError, match="not a unit value"):
            eval_mu(broken, 0.1, 0.2, 1.0)


def test_reimport_releases_old_module_graph():
    # Nothing may keep an earlier import of the package alive once it has
    # left sys.modules (a typing subscription cache on a module-level alias
    # once did).
    def ifmkit_modules():
        return [name for name in sys.modules if name == "ifmkit" or name.startswith("ifmkit.")]

    saved = {name: sys.modules[name] for name in ifmkit_modules()}
    refs = []
    try:
        for _ in range(3):
            for name in ifmkit_modules():
                del sys.modules[name]
            refs.append(weakref.ref(importlib.import_module("ifmkit").IntervalDomain))
    finally:
        for name in ifmkit_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
