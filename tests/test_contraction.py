import dataclasses
import math
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifmkit import (
    EXHAUSTIVE,
    RANDOM,
    DomainError,
    FiniteDomain,
    IntervalDomain,
    KContraction,
    PreconditionError,
    PsiPhiPair,
    SamplerConfig,
    SelfMap,
    SolverConfig,
    TConorm,
    TNorm,
    check_admissible,
    check_k_contractive,
    check_psi_phi_contractive,
    crisp_threshold_space,
    eval_mu,
    eval_nu,
    is_contractive_sequence,
    is_k_contractive_sequence,
    pair_from_k,
    phi_from_k,
    picard_iterate,
    psi_from_k,
    standard_space,
)
from ifmkit import contraction
from ifmkit.contraction import _k_side, _psi_phi_side
from ifmkit.sampling import draw_array
from ifmkit.solver import IterationTrace

TOL = 1e-12


# ---------------------------------------------------------------------------
# Grid oracle for the control-function conversion.
#
# The reciprocal-gap inequalities define admissible regions for the pairs
# (mu, mu_f) and (nu, nu_f).  The oracle enumerates those regions directly
# from the raw formulas — independently of the sampled checker — and
# verifies that the derived control functions certify them:
#
#   mu side:  1/mu_f - 1 <= k (1/mu - 1)      <=>  psi_k(mu_f) >= mu
#   nu side:  1/nu_f - 1 >= (1/k)(1/nu - 1)   ==>  phi_k(nu_f) <= nu
#
# The nu-side region is the one a rate-k contraction can actually realize
# (nu_f at most the boundary value k*nu / (1 - (1-k)*nu)); on the boundary
# phi_k recovers nu exactly.
# ---------------------------------------------------------------------------

GRID = [i / 201.0 for i in range(1, 201)]  # 200 interior points


@pytest.mark.parametrize("k", [0.5, 0.25, 0.9])
def test_oracle_mu_side_conversion(k):
    psi = psi_from_k(k)
    checked = 0
    for mu in GRID:
        for mu_f in GRID:
            if 1.0 / mu_f - 1.0 <= k * (1.0 / mu - 1.0):
                assert psi(mu_f) >= mu - TOL, (mu, mu_f)
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize("k", [0.5, 0.25, 0.9])
def test_oracle_nu_side_conversion(k):
    phi = phi_from_k(k)
    checked = 0
    for nu in GRID:
        for nu_f in GRID:
            if 1.0 / nu_f - 1.0 >= (1.0 / k) * (1.0 / nu - 1.0):
                assert phi(nu_f) <= nu + TOL, (nu, nu_f)
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize("k", [0.5, 0.25, 0.9])
def test_oracle_nu_boundary_is_exact(k):
    # phi_k(k*nu / (1 - (1-k)*nu)) == nu: the boundary of the admissible
    # region maps back to nu exactly.
    phi = phi_from_k(k)
    for nu in GRID:
        boundary = k * nu / (1.0 - (1.0 - k) * nu)
        assert phi(boundary) == pytest.approx(nu, abs=TOL)


class TestControlFunctions:
    def test_psi_frozen_values(self):
        psi = psi_from_k(0.5)
        assert psi(0.5) == pytest.approx(1.0 / 3.0, abs=TOL)
        assert psi(1.0) == 1.0
        assert psi(0.0) == 0.0

    def test_phi_frozen_values(self):
        phi = phi_from_k(0.5)
        assert phi(0.5) == pytest.approx(2.0 / 3.0, abs=TOL)
        assert phi(0.0) == 0.0
        assert phi(1.0) == 1.0

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_k_range_enforced(self, bad):
        with pytest.raises(DomainError):
            psi_from_k(bad)
        with pytest.raises(DomainError):
            phi_from_k(bad)
        with pytest.raises(DomainError):
            KContraction(bad)

    @pytest.mark.parametrize("k", [0.1, 0.5, 0.93])
    def test_mutually_inverse(self, k):
        psi, phi = psi_from_k(k), phi_from_k(k)
        for s in [i / 64.0 for i in range(65)]:
            assert phi(psi(s)) == pytest.approx(s, abs=TOL)
            assert psi(phi(s)) == pytest.approx(s, abs=TOL)

    @pytest.mark.parametrize("k", [0.1, 0.5, 0.93])
    def test_strictness_on_interior(self, k):
        psi, phi = psi_from_k(k), phi_from_k(k)
        for s in [i / 64.0 for i in range(1, 64)]:
            assert psi(s) < s
            assert phi(s) > s


class TestAdmissibility:
    def test_from_k_pair_admissible(self):
        report = check_admissible(pair_from_k(0.5), 101)
        assert report.admissible
        assert report.psi.strict_ok and report.psi.monotone_direction == "non-decreasing"
        assert report.phi.strict_ok and report.phi.monotone_direction == "non-decreasing"

    def test_identity_psi_fails_strictness_at_midpoint(self):
        pair = PsiPhiPair(psi=lambda t: t, phi=phi_from_k(0.5))
        report = check_admissible(pair, 101)
        assert not report.psi.strict_ok
        assert report.psi.strict_witness[0] == pytest.approx(0.5)

    def test_square_phi_fails_above_identity(self):
        pair = PsiPhiPair(psi=psi_from_k(0.5), phi=lambda t: t * t)
        report = check_admissible(pair, 101)
        assert not report.phi.strict_ok
        assert report.phi.strict_witness == pytest.approx((0.5, 0.25))

    def test_step_function_flagged_discontinuous(self):
        pair = PsiPhiPair(
            psi=lambda t: 0.0 if t < 0.999 else 1.0, phi=phi_from_k(0.5)
        )
        report = check_admissible(pair, 101)
        assert not report.psi.continuity_ok

    def test_steep_but_continuous_passes(self):
        # phi for tiny k has slope 1/k near 0; steepness is not a jump
        report = check_admissible(pair_from_k(0.01), 101)
        assert report.phi.continuity_ok

    def test_grid_size_precondition(self):
        with pytest.raises(PreconditionError):
            check_admissible(pair_from_k(0.5), 1)

    def test_constant_and_non_increasing_directions(self):
        # the direction is recorded, not enforced: psi = 0 stays below the
        # identity, phi = 1 - s falls to it at s = 0.5
        report = check_admissible(PsiPhiPair(lambda s: 0.0, lambda s: 1.0 - s), 11)
        assert report.psi.monotone_direction == "constant" and report.psi.strict_ok
        assert report.phi.monotone_direction == "non-increasing" and not report.phi.strict_ok
        assert report.phi.strict_witness == (0.5, 0.5)
        assert report.psi.continuity_ok and report.phi.continuity_ok

    @pytest.mark.parametrize("at", [0.0, 0.5])
    def test_nan_value_flagged_discontinuous(self, at):
        pair = PsiPhiPair(psi=lambda s: math.nan if s == at else s / 2, phi=phi_from_k(0.5))
        report = check_admissible(pair, 11)
        assert not report.psi.continuity_ok and not report.admissible
        # the largest jump that is not NaN: 0.05 between neighbours 0.1 apart
        assert report.psi.max_grid_jump == pytest.approx(0.05)

    @pytest.mark.parametrize("side", ["psi", "phi"])
    def test_nan_value_fails_strictness(self, side):
        k_pair = pair_from_k(0.5)
        fn = getattr(k_pair, side)
        controls = {"psi": k_pair.psi, "phi": k_pair.phi,
                    side: lambda s: math.nan if s == 0.5 else fn(s)}
        report = getattr(check_admissible(PsiPhiPair(**controls), 11), side)
        assert not report.strict_ok
        assert report.strict_witness[0] == 0.5 and math.isnan(report.strict_witness[1])


class TestPsiPhiCheck:
    def test_halving_map_clean(self, unit_space):
        sampler = SamplerConfig(RANDOM, 3000, (0.1, 1.0, 10.0), seed=5)
        report = check_psi_phi_contractive(
            unit_space, SelfMap.scale(0.5), pair_from_k(0.5), sampler
        )
        assert report.passed
        assert report.samples_checked == 3000

    def test_identity_map_violates(self, unit_space):
        sampler = SamplerConfig(RANDOM, 500, (0.1, 1.0, 10.0), seed=5)
        report = check_psi_phi_contractive(
            unit_space, SelfMap.identity(), pair_from_k(0.5), sampler
        )
        assert not report.passed
        assert len(report.witnesses) == 10
        w = report.witnesses[0]
        # witnesses re-evaluate as violations through the public accessors
        if w.side == "mu":
            lhs = pair_from_k(0.5).psi(float(eval_mu(unit_space, w.x, w.y, w.t)))
            assert lhs < float(eval_mu(unit_space, w.x, w.y, w.t)) - TOL
        else:
            lhs = pair_from_k(0.5).phi(float(eval_nu(unit_space, w.x, w.y, w.t)))
            assert lhs > float(eval_nu(unit_space, w.x, w.y, w.t)) + TOL

    def test_every_map_contractive_on_crisp(self, crisp5):
        sampler = SamplerConfig(EXHAUSTIVE, 1, (0.5, 2.0), seed=0)
        rng = np.random.default_rng(99)
        for _ in range(10):
            table = SelfMap.table(rng.integers(0, 5, 5).tolist())
            report = check_psi_phi_contractive(crisp5, table, pair_from_k(0.5), sampler)
            assert report.passed, table.images

    def test_bool_image_is_no_point(self, crisp5):
        # without an array form the images are gathered element-wise; a
        # bool among ints must not become the point 1
        f = SelfMap.closure(lambda x: True if x == 2 else 0)
        sampler = SamplerConfig(EXHAUSTIVE, 1, (0.5, 2.0), seed=0)
        with pytest.raises(DomainError, match="^map closure sends 2 to True, outside the domain$"):
            check_psi_phi_contractive(crisp5, f, pair_from_k(0.5), sampler)

    def test_deterministic_given_seed(self, unit_space):
        sampler = SamplerConfig(RANDOM, 400, (1.0,), seed=21)
        r1 = check_psi_phi_contractive(unit_space, SelfMap.identity(), pair_from_k(0.5), sampler)
        r2 = check_psi_phi_contractive(unit_space, SelfMap.identity(), pair_from_k(0.5), sampler)
        assert r1.to_dict() == r2.to_dict()


class TestKCheck:
    def test_halving_at_exact_rate(self, unit_space):
        sampler = SamplerConfig(RANDOM, 3000, (0.1, 1.0, 10.0), seed=5)
        report = check_k_contractive(unit_space, SelfMap.scale(0.5), 0.5, sampler)
        assert report.passed

    def test_halving_fails_tighter_rate(self, unit_space):
        sampler = SamplerConfig(RANDOM, 3000, (0.1, 1.0, 10.0), seed=5)
        report = check_k_contractive(unit_space, SelfMap.scale(0.5), 0.4, sampler)
        assert not report.passed
        w = report.witnesses[0]
        assert w.lhs > w.rhs

    def test_constant_map_trivially_passes(self, unit_space):
        sampler = SamplerConfig(RANDOM, 1000, (0.1, 1.0), seed=5)
        for k in (0.1, 0.5, 0.9):
            assert check_k_contractive(unit_space, SelfMap.constant(0.3), k, sampler).passed

    def test_tightest_rate_for_scaling_family(self, unit_space):
        # f(x) = c x has tightest constant exactly c
        sampler = SamplerConfig(RANDOM, 2000, (0.1, 1.0, 10.0), seed=17)
        f = SelfMap.scale(0.5)
        assert check_k_contractive(unit_space, f, KContraction(0.5), sampler).passed
        assert not check_k_contractive(unit_space, f, 0.49, sampler).passed

    def test_conversion_pairs_with_k_passes(self, unit_space):
        # wherever the k check passes on a sample, the derived pair passes
        # on the same sample (here: the halving map, which meets the k
        # inequalities with equality, and a constant map, which passes by
        # the zero-grade skip rule)
        sampler = SamplerConfig(RANDOM, 2000, (0.1, 1.0, 10.0), seed=8)
        for f in (SelfMap.scale(0.5), SelfMap.constant(0.25)):
            k_report = check_k_contractive(unit_space, f, 0.5, sampler)
            pp_report = check_psi_phi_contractive(unit_space, f, pair_from_k(0.5), sampler)
            assert k_report.passed and pp_report.passed, f.name

    @pytest.mark.parametrize("with_array", [True, False])
    def test_overflowing_gap_is_inf_without_a_warning(self, unit_space, with_array):
        # 1/nu - 1 = 1e308 and 1/k times it overflows to inf, which satisfies
        # the nu side; numpy warns on that multiply unless it is silenced
        def nu(x, y, t):
            return 1e-308 if abs(x - y) > 0.5 else unit_space.nu(x, y, t)

        if with_array:
            nu.array = lambda x, y, t: np.where(abs(x - y) > 0.5, 1e-308, unit_space.nu(x, y, t))
        space = dataclasses.replace(unit_space, nu=nu)
        sampler = SamplerConfig(RANDOM, 200, (0.1, 1.0, 10.0), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quiet = check_k_contractive(space, SelfMap.identity(), 0.5, sampler)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = check_k_contractive(space, SelfMap.identity(), 0.5, sampler)
        assert report.to_dict() == quiet.to_dict()
        assert report.violation_count == 600 and {w.side for w in report.witnesses} == {"mu"}


# maps that send some sampled point outside the domain
NOT_SELF_MAPS = {
    "constant": (IntervalDomain(0.0, 1.0), SelfMap.constant(7.0), RANDOM),
    "doubling": (IntervalDomain(0.0, 1.0), SelfMap.scale(2.0), RANDOM),
    # no array form; on line(5), first out at y = 4 of the pair (0, 4), before x = 4 of (4, 0)
    "successor": (FiniteDomain.line(5), SelfMap.closure(lambda i: i + 1, "successor"),
                  EXHAUSTIVE),
}


@pytest.mark.parametrize("case", sorted(NOT_SELF_MAPS))
@pytest.mark.parametrize("check", [partial(check_psi_phi_contractive, pair=pair_from_k(0.5)),
                                   partial(check_k_contractive, k=0.5)], ids=["psi-phi", "k"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_checks_reject_maps_that_are_not_self_maps(case, check, seed):
    domain, f, mode = NOT_SELF_MAPS[case]
    space = standard_space(domain, TNorm.product(), TConorm.probabilistic_sum())
    sampler = SamplerConfig(mode, 3000, (0.1, 1.0, 10.0), seed=seed)
    # the first point whose image leaves the domain, pair by pair and x before y
    point = next(p for pair in draw_array(domain, sampler, 2).tolist() for p in pair
                 if not domain.contains(f(p)))
    with pytest.raises(DomainError) as err:
        check(space, f, sampler=sampler)
    assert str(err.value) == f"map {f.name} sends {point!r} to {f(point)!r}, outside the domain"


class TestSequencePredicates:
    def _halving_trace(self, unit_space):
        cfg = SolverConfig(epsilon=1e-6, t_grid=(1.0,), max_iter=100, seeds=())
        return picard_iterate(unit_space, SelfMap.scale(0.5), 1.0, cfg)

    def test_halving_trace_contractive(self, unit_space):
        ok, idx = is_contractive_sequence(self._halving_trace(unit_space), pair_from_k(0.5))
        assert ok and idx is None

    def test_constant_trace_contractive(self, unit_space):
        # all consecutive grades are mu=1, nu=0; psi(1)=1 and phi(0)=0 keep
        # both inequalities satisfied
        trace = IterationTrace(
            space=unit_space, map=SelfMap.identity(), t_grid=(1.0,),
            points=[0.3, 0.3, 0.3, 0.3],
            mu_diag={1.0: [1.0, 1.0, 1.0]}, nu_diag={1.0: [0.0, 0.0, 0.0]},
            stop_reason="converged",
        )
        ok, idx = is_contractive_sequence(trace, pair_from_k(0.5))
        assert ok and idx is None

    def test_non_contractive_orbit_fails_at_first_step(self, unit_space):
        # x -> 1 - x moves points at constant separation; psi(mu) < mu
        # makes the very first comparison fail
        cfg = SolverConfig(epsilon=1e-6, t_grid=(1.0,), max_iter=10, seeds=())
        trace = picard_iterate(unit_space, SelfMap.closure(lambda x: 1.0 - x, name="flip"),
                               0.2, cfg)
        ok, idx = is_contractive_sequence(trace, pair_from_k(0.5))
        assert not ok and idx == 0

    def test_k_variant_on_halving_trace(self, unit_space):
        trace = self._halving_trace(unit_space)
        ok, idx = is_k_contractive_sequence(trace, 0.5)
        assert ok and idx is None
        ok, idx = is_k_contractive_sequence(trace, 0.4)
        assert not ok and idx == 0

    def test_vacuous_antecedents_hold_along_the_orbit(self, unit_space):
        # mu = 0 and nu = 1 at every step: both implications are vacuous, as
        # in the pairwise check, even for a psi that leaves [0, 1]
        trace = IterationTrace(
            space=unit_space, map=SelfMap.identity(), t_grid=(1.0,),
            points=[0.0, 1.0, 0.0, 1.0],
            mu_diag={1.0: [0.0, 0.0, 0.0]}, nu_diag={1.0: [1.0, 1.0, 1.0]},
            stop_reason="max_iter",
        )
        pair = PsiPhiPair(lambda s: s - 0.5, lambda s: s)
        assert is_contractive_sequence(trace, pair) == (True, None)

    def test_short_trace_rejected(self, unit_space):
        trace = IterationTrace(
            space=unit_space, map=SelfMap.identity(), t_grid=(1.0,),
            points=[0.3, 0.3], mu_diag={1.0: [1.0]}, nu_diag={1.0: [0.0]},
            stop_reason="converged",
        )
        with pytest.raises(PreconditionError):
            is_contractive_sequence(trace, pair_from_k(0.5))


class TestSelfMap:
    def test_table_validation(self):
        with pytest.raises(DomainError):
            SelfMap.table([0, 3, 1])

    def test_apply_checked_escape(self, unit_interval):
        doubling = SelfMap.scale(2.0)
        with pytest.raises(DomainError, match="outside the domain"):
            doubling.apply_checked(unit_interval, 0.7)

    def test_affine_clamped_stays_inside(self, unit_interval):
        f = SelfMap.affine_clamped(2.0, 0.5, 0.0, 1.0)
        assert f(0.9) == 1.0
        assert f(-0.4) == 0.0

    def test_table_on_finite_domain(self):
        domain = FiniteDomain.line(3)
        f = SelfMap.table([2, 0, 1])
        assert f.apply_checked(domain, 0) == 2

    def test_tables_compare_and_hash_by_images(self):
        assert SelfMap.table([1, 0]) == SelfMap.table((1, 0))
        assert hash(SelfMap.table([1, 0])) == hash(SelfMap.table((1, 0)))
        assert SelfMap.table([1, 0]) != SelfMap.table([0, 1])

    def test_closures_compare_and_hash_by_function(self):
        def fn(x):
            return x

        assert SelfMap.closure(lambda x: x) != SelfMap.closure(lambda x: 0.5)
        assert hash(SelfMap.closure(lambda x: x)) != hash(SelfMap.closure(lambda x: 0.5))
        assert SelfMap.closure(fn) == SelfMap.closure(fn)
        assert hash(SelfMap.closure(fn)) == hash(SelfMap.closure(fn))
        assert SelfMap.closure(fn, "a") != SelfMap.closure(fn, "b")
        assert len({SelfMap.scale(0.5), SelfMap.scale(0.5), SelfMap.table([0])}) == 3

    def test_table_images_keep_their_types(self):
        f = SelfMap.table([1, 0, 2])
        assert f(np.int64(1)) == 0 and type(f(np.int64(1))) is int
        images = f.array(np.array([0, 1]))
        assert images.tolist() == [1, 0] and images.dtype == np.int64


# ---------------------------------------------------------------------------
# Properties of reported witnesses: each re-checks as violated under the
# side predicate the scan used, and shrinking moved it toward its targets.
# ---------------------------------------------------------------------------


@st.composite
def contraction_checks(draw):
    if draw(st.booleans()):
        n = draw(st.integers(2, 8))
        domain = FiniteDomain.line(n)
        f = SelfMap.table(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        mode = draw(st.sampled_from((EXHAUSTIVE, RANDOM)))
    else:
        domain = IntervalDomain(0.0, 1.0)
        f = draw(st.sampled_from((
            SelfMap.identity(), SelfMap.scale(0.5), SelfMap.scale(0.9),
            SelfMap.affine_clamped(-0.8, 0.9, 0.0, 1.0), SelfMap.constant(0.25),
        )))
        mode = RANDOM
    make = draw(st.sampled_from((standard_space, crisp_threshold_space)))
    space = make(domain, TNorm.product(), TConorm.probabilistic_sum())
    k = draw(st.sampled_from((0.2, 0.4, 0.5, 0.8)))
    grid = draw(st.lists(st.sampled_from((0.1, 0.5, 1.0, 2.0, 10.0)), min_size=1, max_size=4))
    sampler = SamplerConfig(mode, draw(st.integers(1, 80)), tuple(grid),
                            seed=draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        pair = pair_from_k(k)
        return space, f, sampler, partial(check_psi_phi_contractive, pair=pair), \
            partial(_psi_phi_side, pair)
    return space, f, sampler, partial(check_k_contractive, k=k), partial(_k_side, k)


@settings(max_examples=120, deadline=None)
@given(contraction_checks())
def test_witnesses_recheck_and_shrink_toward_targets(case):
    space, f, sampler, check, side_check = case
    shrunk = []
    minimize = contraction._minimize_contraction_witness

    def recording(space, f, side_check, raw, t_target):
        w = minimize(space, f, side_check, raw, t_target)
        shrunk.append((raw, w, t_target))
        return w

    with mock.patch.object(contraction, "_minimize_contraction_witness", recording):
        report = check(space, f, sampler=sampler)
    assert [w for _, w, _ in shrunk] == report.witnesses
    for raw, w, t_target in shrunk:
        grade = space.mu if w.side == "mu" else space.nu
        for v in (raw, w):
            again = side_check(v.side, grade(v.x, v.y, v.t), grade(f(v.x), f(v.y), v.t))
            assert again == (True, v.lhs, v.rhs)
        # the pair closes in on its own midpoint and t on the middle grid value
        lo, hi = sorted((raw.x, raw.y))
        assert lo <= w.x <= hi and lo <= w.y <= hi
        assert abs(w.x - w.y) <= abs(raw.x - raw.y)
        assert abs(w.t - t_target) <= abs(raw.t - t_target)
