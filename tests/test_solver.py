import dataclasses
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifmkit import (
    EXHAUSTIVE,
    NON_ARCHIMEDEAN,
    DomainError,
    FiniteDomain,
    IFSpace,
    IntervalDomain,
    NonConvergenceError,
    PreconditionError,
    SamplerConfig,
    SelfMap,
    SolverConfig,
    TConorm,
    TNorm,
    check_joint_continuity,
    check_psi_phi_contractive,
    crisp_threshold_space,
    detect_g_cauchy,
    detect_m_cauchy,
    edelstein_solve,
    pair_from_k,
    picard_iterate,
    solve_fixed_point,
    standard_space,
    trace_to_csv,
    verify_fixed_point,
)
from ifmkit.solver import _cross_checked

TOL = 1e-12

FLIP = SelfMap.closure(lambda x: 1.0 - x, name="flip")


def _cfg(**kw):
    base = dict(epsilon=1e-6, t_grid=(1.0,), max_iter=1000, point_tol=1e-8, seeds=())
    base.update(kw)
    return SolverConfig(**base)


class TestSolverConfig:
    def test_epsilon_range(self):
        with pytest.raises(DomainError):
            _cfg(epsilon=0.0)
        with pytest.raises(DomainError):
            _cfg(epsilon=1.0)

    def test_grid_must_increase(self):
        with pytest.raises(PreconditionError):
            _cfg(t_grid=(1.0, 1.0))
        with pytest.raises(PreconditionError):
            _cfg(t_grid=(1.0, 0.1))
        with pytest.raises(PreconditionError):
            _cfg(t_grid=())
        with pytest.raises(PreconditionError):
            _cfg(t_grid=(-1.0,))


class TestPicard:
    def test_halving_orbit_closed_form(self, unit_space):
        trace = picard_iterate(unit_space, SelfMap.scale(0.5), 1.0, _cfg())
        assert trace.stop_reason == "converged"
        assert trace.points[:4] == [1.0, 0.5, 0.25, 0.125]
        diag = trace.mu_diag[1.0]
        for n in range(min(8, len(diag))):
            assert diag[n] == pytest.approx(1.0 / (1.0 + 2.0 ** (-n - 1)), abs=TOL)
        # strictly increasing toward 1
        assert all(a < b for a, b in zip(diag, diag[1:]))
        assert diag[-1] > 1.0 - 1e-6

    def test_converged_trace_ends_within_epsilon_on_every_grid_t(self, unit_space):
        cfg = _cfg(epsilon=1e-6, t_grid=(0.1, 1.0, 10.0), max_iter=1000)
        trace = picard_iterate(unit_space, SelfMap.scale(0.5), 1.0, cfg)
        assert trace.stop_reason == "converged"
        for t in cfg.t_grid:
            assert trace.mu_diag[t][-1] >= 1.0 - cfg.epsilon
            assert trace.nu_diag[t][-1] <= cfg.epsilon

    def test_points_follow_the_map(self, unit_space):
        f = SelfMap.scale(0.5)
        trace = picard_iterate(unit_space, f, 0.8, _cfg(max_iter=12, epsilon=1e-12))
        for a, b in zip(trace.points, trace.points[1:]):
            assert b == f(a)

    def test_identity_fixed_immediately(self, unit_space):
        trace = picard_iterate(unit_space, SelfMap.identity(), 0.3, _cfg())
        assert trace.stop_reason == "converged"
        assert trace.iterations == 1
        assert trace.mu_diag[1.0].tolist() == [1.0]
        assert trace.nu_diag[1.0].tolist() == [0.0]

    def test_crisp_space_above_threshold_converges_at_once(self, crisp5):
        trace = picard_iterate(crisp5, SelfMap.table([1, 2, 3, 4, 0]), 0,
                               _cfg(t_grid=(2.0,)))
        assert trace.stop_reason == "converged"
        assert trace.iterations == 1
        assert trace.mu_diag[2.0].tolist() == [1.0]

    def test_crisp_space_below_threshold_fails_precondition(self, crisp5):
        trace = picard_iterate(crisp5, SelfMap.table([1, 2, 3, 4, 0]), 0,
                               _cfg(t_grid=(0.5,)))
        assert trace.stop_reason == "precondition_failed"
        assert trace.points == [0]
        assert trace.mu_diag[0.5].tolist() == []

    def test_string_grades_fail_the_precondition_with_a_domain_error(self, unit_interval):
        # the precondition compared each scalar grade with 0 and 1, so a
        # string grade ended in "'>' not supported between 'str' and 'float'"
        def mu(x, y, t):
            return repr(t / (t + abs(x - y)))

        def nu(x, y, t):
            return repr(abs(x - y) / (t + abs(x - y)))

        space = IFSpace(unit_interval, mu, nu, TNorm.product(), TConorm.probabilistic_sum(),
                        NON_ARCHIMEDEAN)
        message = r"^mu\(1\.0, 0\.5, 0\.1\) = '0\.16666666666666669' is not a real number$"
        config = _cfg(t_grid=(0.1, 1.0), seeds=(1.0,))
        with pytest.raises(DomainError, match=message):
            picard_iterate(space, SelfMap.scale(0.5), 1.0, config)
        with pytest.raises(DomainError, match=message):
            solve_fixed_point(space, SelfMap.scale(0.5), config)

    def test_the_precondition_note_shows_the_scalar_grades(self, unit_interval):
        # the first failing t is found in one table; the note shows what the
        # scalar calls return there, a numpy scalar's repr included
        def mu(x, y, t):
            return np.float64(0.0 if t < 1.0 else 1.0)

        def nu(x, y, t):
            return np.float64(1.0 - float(mu(x, y, t)))

        space = IFSpace(unit_interval, mu, nu, TNorm.product(), TConorm.probabilistic_sum())
        trace = picard_iterate(space, SelfMap.scale(0.5), 1.0, _cfg(t_grid=(0.1, 0.5, 2.0)))
        assert trace.stop_reason == "precondition_failed"
        assert trace.note == f"mu(x0, f(x0), 0.1) = {np.float64(0.0)!r}, nu = {np.float64(1.0)!r}"

    def test_escaping_map_raises(self, unit_space):
        with pytest.raises(DomainError, match="outside the domain"):
            picard_iterate(unit_space, SelfMap.scale(2.0), 0.9, _cfg())

    @pytest.mark.parametrize("x0,last", [(0.9, 0.9), (0.8, 0.1)])
    def test_numeric_string_image_is_outside_the_domain(self, unit_space, x0, last):
        # the string comes at the first step from 0.9, and mid-orbit from 0.8
        f = SelfMap.closure(lambda x: "0.05" if x == last else x / 2, name="text")
        with pytest.raises(DomainError) as info:
            picard_iterate(unit_space, f, x0, _cfg())
        assert str(info.value) == str(f.domain_error(last, "0.05"))

    def test_max_iter_reached(self, unit_space):
        trace = picard_iterate(unit_space, FLIP, 0.2, _cfg(max_iter=17))
        assert trace.stop_reason == "max_iter"
        assert trace.iterations == 17

    def test_monotone_diagnostics_for_contractive_map(self):
        # when the psi-phi check is clean, mu diagnostics never decrease
        # and nu diagnostics never increase, at every grid t; points at
        # geometric positions make the shift-down table halve every
        # distance exactly
        pos = [1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1.0]
        metric = [[abs(a - b) for b in pos] for a in pos]
        domain = FiniteDomain([str(i) for i in range(6)], metric)
        space = standard_space(domain, TNorm.product(), TConorm.probabilistic_sum())
        f = SelfMap.table([0, 0, 1, 2, 3, 4])
        sampler = SamplerConfig(EXHAUSTIVE, 1, (0.1, 1.0, 10.0), seed=0)
        assert check_psi_phi_contractive(space, f, pair_from_k(0.5), sampler).passed
        cfg = _cfg(t_grid=(0.1, 1.0, 10.0), max_iter=50)
        for seed in range(6):
            trace = picard_iterate(space, f, seed, cfg)
            for t in cfg.t_grid:
                mu_d, nu_d = trace.mu_diag[t], trace.nu_diag[t]
                assert all(a <= b + TOL for a, b in zip(mu_d, mu_d[1:]))
                assert all(a >= b - TOL for a, b in zip(nu_d, nu_d[1:]))


class TestCauchyDetectors:
    def _halving_trace(self, unit_space, steps):
        return picard_iterate(unit_space, SelfMap.scale(0.5), 1.0,
                              _cfg(epsilon=1e-12, max_iter=steps))

    def test_halving_window_is_cauchy(self, unit_space):
        trace = self._halving_trace(unit_space, 30)
        assert detect_m_cauchy(trace, 1e-6, 1.0, window=5)

    def test_constant_trace_is_cauchy(self, unit_space):
        trace = picard_iterate(unit_space, SelfMap.identity(), 0.3, _cfg())
        assert detect_m_cauchy(trace, 1e-6, 1.0, window=2)

    def test_flip_orbit_is_not_cauchy(self, unit_space):
        trace = picard_iterate(unit_space, FLIP, 0.2, _cfg(max_iter=20))
        # pairs alternate at separation 0.6: mu = 1/1.6 = 0.625
        assert not detect_m_cauchy(trace, 0.3, 1.0, window=5)

    def test_window_precondition(self, unit_space):
        trace = picard_iterate(unit_space, SelfMap.identity(), 0.3, _cfg())
        with pytest.raises(PreconditionError):
            detect_m_cauchy(trace, 1e-6, 1.0, window=len(trace.points) + 1)

    def test_g_cauchy_halving(self, unit_space):
        trace = self._halving_trace(unit_space, 30)
        assert detect_g_cauchy(trace, 1, 1.0)

    def test_g_cauchy_periodic_orbit(self, unit_space):
        trace = picard_iterate(unit_space, FLIP, 0.2, _cfg(max_iter=20))
        assert detect_g_cauchy(trace, 2, 1.0)       # x_n == x_{n+2} exactly
        assert not detect_g_cauchy(trace, 1, 1.0)   # alternation never settles

    def test_g_cauchy_constant_trace_any_offset(self, unit_space):
        from ifmkit import IterationTrace

        trace = IterationTrace(
            space=unit_space, map=SelfMap.identity(), t_grid=(1.0,),
            points=[0.3] * 6,
            mu_diag={1.0: [1.0] * 5}, nu_diag={1.0: [0.0] * 5},
            stop_reason="converged",
        )
        for m in (1, 2, 3):
            assert detect_g_cauchy(trace, m, 1.0)

    def test_g_cauchy_length_precondition(self, unit_space):
        trace = picard_iterate(unit_space, SelfMap.identity(), 0.3, _cfg())
        with pytest.raises(PreconditionError):
            detect_g_cauchy(trace, 1, 1.0)


class TestSolve:
    def test_halving_three_seeds(self, unit_space):
        cfg = _cfg(epsilon=1e-8, t_grid=(0.1, 1.0, 10.0), max_iter=10_000,
                   seeds=(1.0, 0.7, 0.3))
        report = solve_fixed_point(unit_space, SelfMap.scale(0.5), cfg)
        assert abs(report.fixed_point) <= 1e-8
        assert report.unique
        assert report.residual.passed
        assert report.stop_reasons == ["converged"] * 3

    def test_identity_converges_but_not_unique(self, unit_space):
        cfg = _cfg(seeds=(0.2, 0.9))
        report = solve_fixed_point(unit_space, SelfMap.identity(), cfg)
        assert not report.unique
        assert report.limits == [0.2, 0.9]
        assert report.witnesses == [(0, 1, pytest.approx(0.7))]

    def test_constant_map_on_crisp_interval_space(self, unit_interval):
        crisp = crisp_threshold_space(unit_interval, TNorm.minimum(), TConorm.maximum())
        cfg = _cfg(t_grid=(2.0,), seeds=(0.9, 0.1))
        report = solve_fixed_point(crisp, SelfMap.constant(0.4), cfg)
        assert report.fixed_point == 0.4
        assert report.unique

    def test_no_convergence_raises_with_traces(self, unit_space):
        cfg = _cfg(max_iter=25, seeds=(0.2, 0.4))
        with pytest.raises(NonConvergenceError) as err:
            solve_fixed_point(unit_space, FLIP, cfg)
        assert len(err.value.traces) == 2
        assert all(tr.stop_reason == "max_iter" for tr in err.value.traces)

    def test_requires_a_seed(self, unit_space):
        with pytest.raises(PreconditionError):
            solve_fixed_point(unit_space, SelfMap.identity(), _cfg(seeds=()))

    def test_archimedean_space_warns(self, unit_interval):
        weak = standard_space(unit_interval, TNorm.minimum(), TConorm.maximum())
        with pytest.warns(UserWarning, match="triangle"):
            solve_fixed_point(weak, SelfMap.scale(0.5), _cfg(seeds=(1.0,)))

    def test_uniqueness_across_many_seeds(self, unit_space):
        seeds = tuple((i + 1) / 12.0 for i in range(12))
        cfg = _cfg(epsilon=1e-8, t_grid=(0.1, 1.0, 10.0), max_iter=10_000,
                   point_tol=1e-8, seeds=seeds)
        report = solve_fixed_point(unit_space, SelfMap.scale(0.5), cfg)
        assert report.unique
        assert report.max_limit_distance <= cfg.point_tol
        assert report.witnesses == [] and report.limit_pairs == 66

    def test_unique_means_no_pair_beyond_point_tol(self, unit_space):
        # both outer limits lie within point_tol of the first, not of each other
        cfg = _cfg(point_tol=1e-8, seeds=(0.5, 0.5 + 0.9e-8, 0.5 - 0.9e-8))
        report = solve_fixed_point(unit_space, SelfMap.identity(), cfg)
        assert report.limits == list(cfg.seeds)
        assert report.witnesses == [(1, 2, (0.5 + 0.9e-8) - (0.5 - 0.9e-8))]
        assert report.max_limit_distance > cfg.point_tol
        assert not report.unique

    def test_seed_stopped_by_max_iter_is_not_unique(self, unit_space):
        cfg = _cfg(max_iter=3, seeds=(0.0, 1.0))
        report = solve_fixed_point(unit_space, SelfMap.scale(0.5), cfg)
        assert report.stop_reasons == ["converged", "max_iter"]
        assert report.limits == [0.0, None]
        assert not report.unique
        # one limit makes no pair
        assert report.limit_pairs == 0 and report.max_limit_distance is None
        assert report.witnesses == []

    def test_witnesses_are_the_first_ten_pairs_beyond_point_tol(self, unit_space):
        seeds = tuple(i / 11 for i in range(12))
        report = solve_fixed_point(unit_space, SelfMap.identity(), _cfg(seeds=seeds))
        assert report.limits == list(seeds)
        assert report.limit_pairs == 66
        assert report.witnesses == [(0, j, pytest.approx(j / 11)) for j in range(1, 11)]
        assert report.max_limit_distance == 1.0
        data = report.to_dict()
        keys = list(data)
        assert keys[keys.index("witnesses"):] == [
            "witnesses", "limit_pairs", "max_limit_distance", "cycle_lengths"]
        assert (data["limit_pairs"], data["max_limit_distance"]) == (66, 1.0)

    def test_idempotent_verification(self, unit_space):
        cfg = _cfg(epsilon=1e-8, t_grid=(0.1, 1.0, 10.0), max_iter=10_000, seeds=(1.0,))
        report = solve_fixed_point(unit_space, SelfMap.scale(0.5), cfg)
        again = verify_fixed_point(unit_space, SelfMap.scale(0.5), report.fixed_point,
                                   cfg.t_grid, cfg.epsilon)
        assert again.passed


class TestVerify:
    def test_true_fixed_point(self, unit_space):
        res = verify_fixed_point(unit_space, SelfMap.scale(0.5), 0.0, (0.1, 1.0), 1e-6)
        assert res.residual_mu == 1.0 and res.residual_nu == 0.0 and res.passed

    def test_non_fixed_point_fails(self, unit_space):
        res = verify_fixed_point(unit_space, SelfMap.scale(0.5), 0.5, (1.0,), 1e-6)
        assert res.residual_mu == pytest.approx(0.8, abs=TOL)
        assert not res.passed

    def test_crisp_below_threshold_fails(self, crisp5):
        res = verify_fixed_point(crisp5, SelfMap.table([1, 2, 3, 4, 0]), 0, (0.5,), 1e-6)
        assert res.residual_mu == 0.0
        assert not res.passed

    @pytest.mark.parametrize("grid", [(0.1, 1.0, 10.0), (10.0, 1.0)])
    @pytest.mark.parametrize("side", ["mu", "nu"])
    def test_nan_grade_fails_wherever_it_is_on_the_grid(self, unit_space, side, grid):
        grade = getattr(unit_space, side)
        nan_late = lambda x, y, t: math.nan if t >= 10.0 else grade(x, y, t)  # noqa: E731
        space = dataclasses.replace(unit_space, **{side: nan_late})
        res = verify_fixed_point(space, SelfMap.scale(0.5), 0.0, grid, 1e-8)
        assert math.isnan(getattr(res, f"residual_{side}")) and not res.passed
        assert type(res.residual_mu) is float and type(res.residual_nu) is float


class TestEdelstein:
    def test_floor_half_reaches_zero_from_all_seeds(self, line10_space):
        cfg = _cfg(t_grid=(0.1, 1.0, 10.0), point_tol=0.0, seeds=tuple(range(10)),
                   max_iter=100)
        f = SelfMap.table([i // 2 for i in range(10)])
        report = edelstein_solve(line10_space, f, cfg)
        assert report.fixed_point == 0
        assert report.cycle_lengths == [1] * 10
        assert report.unique
        assert report.residual.passed

    def test_cyclic_shift_reports_cycles(self, line10_space):
        cfg = _cfg(t_grid=(1.0,), point_tol=0.0, seeds=tuple(range(10)), max_iter=100)
        f = SelfMap.table([(i + 1) % 10 for i in range(10)])
        report = edelstein_solve(line10_space, f, cfg)
        assert report.fixed_point is None
        assert report.cycle_lengths == [10] * 10
        assert not report.unique
        assert report.limit_pairs == 0 and report.witnesses == []
        assert report.to_dict()["max_limit_distance"] is None

    def test_identity_gives_all_limits(self, line10_space):
        cfg = _cfg(t_grid=(1.0,), point_tol=0.0, seeds=tuple(range(10)), max_iter=100)
        report = edelstein_solve(line10_space, SelfMap.identity(), cfg)
        assert report.cycle_lengths == [1] * 10
        assert report.limits == list(range(10))
        assert not report.unique

    def test_seed_without_cycle_is_not_unique(self, line10_space):
        cfg = _cfg(t_grid=(1.0,), point_tol=0.0, seeds=(0, 9), max_iter=3)
        f = SelfMap.table([max(i - 1, 0) for i in range(10)])
        report = edelstein_solve(line10_space, f, cfg)
        assert report.cycle_lengths == [1, None]
        assert report.limits == [0, None]
        assert not report.unique

    def test_requires_finite_domain(self, unit_space):
        with pytest.raises(PreconditionError):
            edelstein_solve(unit_space, SelfMap.identity(), _cfg(seeds=(0.5,)))

    def test_defaults_to_all_points_as_seeds(self, line10_space):
        cfg = _cfg(t_grid=(1.0,), point_tol=0.0, seeds=(), max_iter=100)
        report = edelstein_solve(line10_space, SelfMap.constant(3), cfg)
        assert len(report.limits) == 10
        assert report.fixed_point == 3
        assert report.unique

    def test_exhaustive_small_domain_oracle(self):
        # on a 3-point space, every self-map that passes the exhaustive
        # psi-phi check must have exactly one fixed point, and the orbit
        # engine must find it
        space = standard_space(FiniteDomain.line(3), TNorm.product(),
                               TConorm.probabilistic_sum())
        sampler = SamplerConfig(EXHAUSTIVE, 1, (0.1, 1.0, 10.0), seed=0)
        cfg = _cfg(t_grid=(0.1, 1.0, 10.0), point_tol=0.0, seeds=(0, 1, 2), max_iter=10)
        pair = pair_from_k(0.5)
        passers = 0
        for images in itertools.product(range(3), repeat=3):
            f = SelfMap.table(images)
            if check_psi_phi_contractive(space, f, pair, sampler).passed:
                passers += 1
                true_fixed = [i for i in range(3) if images[i] == i]
                assert len(true_fixed) == 1
                report = edelstein_solve(space, f, cfg)
                assert report.unique
                assert report.fixed_point == true_fixed[0]
        assert passers >= 3  # at least the constant maps qualify

    # The errors: a seed-by-seed loop raises the first failure of the lowest
    # failing seed index, at that seed's own step, whatever later seeds do.

    def test_seed_outside_the_domain(self, line10_space):
        with pytest.raises(DomainError, match=r"^seed 10 outside domain FiniteDomain\(n=10\)$"):
            edelstein_solve(line10_space, SelfMap.identity(), _cfg(seeds=(0, 10, -1)))
        with pytest.raises(DomainError, match=r"^seed 2\.0 outside"):
            edelstein_solve(line10_space, SelfMap.identity(), _cfg(seeds=(2.0,)))

    # 0 and 1 settle at 0; 2 -> 3 -> 4 -> 5 -> 6 leaves at step 5; 7 leaves at step 1
    LEAVER = {0: 0, 1: 0, 2: 3, 3: 4, 4: 5, 5: 6, 6: -1, 7: 12, 8: 8, 9: 8}

    @pytest.mark.parametrize("seeds,message", [
        ((0, 1, 2, 7), "sends 6 to -1"),
        ((7, 2), "sends 7 to 12"),
        ((0, 2, 10), "sends 6 to -1"),  # seed 10 is never reached
    ])
    def test_lowest_seed_that_leaves_the_domain_wins(self, line10_space, seeds, message):
        f = SelfMap.closure(lambda x: self.LEAVER[x], name="leaver")
        with pytest.raises(DomainError, match=f"^map leaver {message}, outside the domain$"):
            edelstein_solve(line10_space, f, _cfg(seeds=seeds))

    def test_array_form_that_leaves_the_domain(self, line10_space):
        with pytest.raises(DomainError, match=r"^map constant\(12\) sends 0 to 12, outside"):
            edelstein_solve(line10_space, SelfMap.constant(12), _cfg(seeds=()))

    def test_map_that_raises(self, line10_space):
        def fn(x):
            if x in (4, 9):
                raise ValueError(f"no image for {x}")
            return x + 1 if x < 4 else 0

        f = SelfMap.closure(fn)
        # seed 2 raises at step 2, after seed 9 raised at step 1
        with pytest.raises(ValueError, match="^no image for 4$"):
            edelstein_solve(line10_space, f, _cfg(seeds=(2, 9)))
        with pytest.raises(ValueError, match="^no image for 9$"):
            edelstein_solve(line10_space, f, _cfg(seeds=(9, 2)))

    def test_budget_below_the_domain_size(self, line10_space):
        f = SelfMap.table([max(i - 1, 0) for i in range(10)])
        report = edelstein_solve(line10_space, f, _cfg(seeds=(9, 0), max_iter=3))
        assert report.traces == [[9, 8, 7, 6], [0, 0]]
        assert report.iterations_per_seed == [3, 1]
        assert report.stop_reasons == ["max_iter", "cycle"]
        assert report.cycle_lengths == [None, 1] and report.limits == [None, 0]

    def test_repeated_seeds(self, line10_space):
        f = SelfMap.table([i // 2 for i in range(10)])
        report = edelstein_solve(line10_space, f, _cfg(seeds=(6, 6, 1, 6)))
        assert report.traces == [[6, 3, 1, 0, 0]] * 2 + [[1, 0, 0], [6, 3, 1, 0, 0]]
        assert report.iterations_per_seed == [4, 4, 2, 4]
        assert report.limits == [0] * 4 and report.unique
        assert (report.limit_pairs, report.max_limit_distance) == (6, 0.0)

    def test_memory_is_bounded_by_the_output(self):
        # every point of line(2000) as a seed: the engine holds the orbits
        # it reports, nothing of size seeds x |X| or steps x seeds
        space = standard_space(FiniteDomain.line(2000), TNorm.product(),
                               TConorm.probabilistic_sum())
        f = SelfMap.table([i // 2 for i in range(2000)])
        tracemalloc.start()
        try:
            report = edelstein_solve(space, f, _cfg(point_tol=0.0, seeds=()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert report.fixed_point == 0 and report.unique
        assert max(report.iterations_per_seed) == 12  # 1999 reaches 0 in 11 steps


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 12))
def test_picard_agrees_with_edelstein_on_table_maps(data, n):
    # a table orbit on line(n) enters its cycle within n steps; Picard then
    # needs cauchy_window more steps to see a fixed point's window settle
    images = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    seeds = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    space = standard_space(FiniteDomain.line(n), TNorm.product(), TConorm.probabilistic_sum())
    f = SelfMap.table(images)
    cfg = _cfg(t_grid=(0.1, 1.0, 10.0), seeds=tuple(seeds), max_iter=2 * n + 10)
    orbit = edelstein_solve(space, f, cfg)
    try:
        picard = solve_fixed_point(space, f, cfg)
    except NonConvergenceError:
        assert orbit.fixed_point is None and not orbit.unique
        return
    assert picard.limits == orbit.limits
    assert picard.fixed_point == orbit.fixed_point
    assert picard.unique == orbit.unique


LIMIT_DOMAINS = {
    "interval": IntervalDomain(0.0, 1.0),
    "finite": FiniteDomain(["a", "b", "c", "d"], [[0.0, 1.0, 2.0, 2.5],
                                                  [1.0, 0.0, 1.0, 1.5],
                                                  [2.0, 1.0, 0.0, 0.5],
                                                  [2.5, 1.5, 0.5, 0.0]]),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(LIMIT_DOMAINS)),
       point_tol=st.sampled_from((0.0, 0.25, 1.0)))
def test_uniqueness_evidence_matches_every_pair(data, kind, point_tol):
    domain = LIMIT_DOMAINS[kind]
    # integer points on the interval: distances keep their Python types
    points = (st.sampled_from((0.0, 0.1, 0.2, 0.5, 1.0, 0, 1)) if kind == "interval"
              else st.integers(0, domain.size - 1))
    limits = data.draw(st.lists(st.none() | points, min_size=1, max_size=16))
    space = standard_space(domain, TNorm.product(), TConorm.probabilistic_sum())
    report = _cross_checked("picard", space, SelfMap.identity(), _cfg(point_tol=point_tol),
                            limits, iterations_per_seed=[], stop_reasons=[])
    n = len(limits)
    pairs = [(i, j, domain.distance(limits[i], limits[j]))
             for i in range(n) for j in range(i + 1, n)
             if limits[i] is not None and limits[j] is not None]
    # repr, so that the types count too
    assert repr(report.limit_pairs) == repr(len(pairs))
    assert repr(report.max_limit_distance) == repr(max((d for _, _, d in pairs), default=None))
    assert repr(report.witnesses) == repr([w for w in pairs if w[2] > point_tol][:10])
    assert report.unique == (None not in limits and all(d <= point_tol for _, _, d in pairs))


def test_uniqueness_evidence_is_linear_in_the_seeds():
    # 1,000 limits make 499,500 pairs, which a list of them held at once
    # (about 50 MiB, and a third of a second)
    space = standard_space(IntervalDomain(0.0, 1.0), TNorm.product(), TConorm.probabilistic_sum())
    limits = [i / 1000 for i in range(1000)]

    def check():
        return _cross_checked("picard", space, SelfMap.identity(), _cfg(), limits,
                              iterations_per_seed=[], stop_reasons=[])

    tracemalloc.start()
    try:
        report = check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20
    assert (report.limit_pairs, report.max_limit_distance) == (499_500, 0.999)
    assert len(report.witnesses) == 10
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        check()
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.02


class TestJointContinuity:
    def test_reciprocal_sequences(self, unit_space):
        n_max = 4000
        xs = [1.0 / n for n in range(1, n_max + 1)]
        ys = [1.0 - 1.0 / n for n in range(1, n_max + 1)]
        result = check_joint_continuity(unit_space, xs, ys, 0.0, 1.0, 1.0, 1e-3)
        assert result
        assert result.threshold_index is not None and result.threshold_index <= 4000
        assert result.hypothesis_warning is None
        # direct evaluation: the pairwise grade approaches mu(0, 1, 1) = 0.5
        # at rate 1/n
        for n in (1, 10, 100, 1000, 4000):
            assert abs(unit_space.mu(xs[n - 1], ys[n - 1], 1.0) - 0.5) <= 1.0 / n

    def test_constant_sequences_immediate(self, unit_space):
        result = check_joint_continuity(unit_space, [0.2] * 5, [0.9] * 5, 0.2, 0.9,
                                        1.0, 1e-6)
        assert result and result.threshold_index == 0

    def test_crisp_above_threshold(self, crisp5):
        # all pairwise grades are already 1 above the switch, including the
        # declared limits
        result = check_joint_continuity(crisp5, [1, 1, 1], [3, 3, 3], 0, 4, 2.0, 1e-6)
        assert result and result.threshold_index == 0

    def test_archimedean_attaches_warning(self, unit_interval):
        weak = standard_space(unit_interval, TNorm.minimum(), TConorm.maximum())
        result = check_joint_continuity(weak, [0.1] * 3, [0.9] * 3, 0.1, 0.9, 1.0, 1e-3)
        assert result.hypothesis_warning is not None

    def test_never_settling_sequence_is_false(self, unit_space):
        xs = [0.5, 0.9, 0.5, 0.9]
        result = check_joint_continuity(unit_space, xs, [1.0] * 4, 0.0, 1.0, 1.0, 1e-3)
        assert not result and result.threshold_index is None


    @pytest.mark.parametrize("side", ["mu", "nu"])
    def test_nan_grade_at_limit_pair_fails(self, unit_space, side):
        grade = getattr(unit_space, side)
        nan_grade = lambda x, y, t: math.nan if (x, y) == (0.5, 0.6) else grade(x, y, t)  # noqa: E731
        space = dataclasses.replace(unit_space, **{side: nan_grade})
        result = check_joint_continuity(space, [0.5] * 5, [0.6] * 5, 0.5, 0.6, 1.0, 1e-3)
        assert not result and result.threshold_index == 0
        gaps = {"mu": result.max_mu_gap, "nu": result.max_nu_gap}
        assert math.isnan(gaps.pop(side)) and gaps.popitem()[1] == 0.0


class TestTraceCsv:
    def test_format(self, unit_space):
        trace = picard_iterate(unit_space, SelfMap.scale(0.5), 1.0,
                               _cfg(t_grid=(0.1, 1.0, 10.0), max_iter=5, epsilon=1e-12))
        text = trace_to_csv(trace)
        lines = text.split("\n")
        assert lines[0] == "n,x_n,mu@0.1,nu@0.1,mu@1,nu@1,mu@10,nu@10"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1"
        assert first[4] == f"{2.0 / 3.0:.17g}"
        # final row carries the point but no diagnostics
        last = lines[-2].split(",")
        assert last[2:] == [""] * 6
        assert text.endswith("\n") and "\r" not in text

    def test_finite_domain_uses_labels(self, line10_space):
        trace = picard_iterate(line10_space, SelfMap.table([i // 2 for i in range(10)]),
                               9, _cfg(t_grid=(1.0,), max_iter=30))
        first_col = [line.split(",")[1] for line in trace_to_csv(trace).strip().split("\n")[1:]]
        assert first_col[:5] == ["9", "4", "2", "1", "0"]
