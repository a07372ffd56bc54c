import gc
import importlib
import itertools
import sys
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifmkit import (
    ARCHIMEDEAN,
    NON_ARCHIMEDEAN,
    DomainError,
    FiniteDomain,
    IFSpace,
    IntervalDomain,
    PreconditionError,
    PsiPhiPair,
    SamplerConfig,
    SelfMap,
    TConorm,
    TNorm,
    Witness,
    audit_space,
    check_admissible,
    check_k_contractive,
    check_norm_axioms,
    check_psi_phi_contractive,
    crisp_threshold_space,
    eval_mu,
    eval_nu,
    minimize_witness,
    standard_space,
    tnorm_apply,
    verify_fixed_point,
)
from ifmkit.contraction import phi_from_k, psi_from_k
from ifmkit.spaces import grade_tables

TOL = 1e-12
INDEX_TYPES = (int, np.int8, np.uint8, np.int32, np.int64, np.uint64, np.intp)

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
        assert not unit_interval.contains("0.5")
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

    @pytest.mark.parametrize("metric", [
        [[0, "x"], ["x", 0]], [[0, 1], [1]], [[0, 10**400], [10**400, 0]],
        [[0, "1"], [True, 0]], [[0, True], [True, 0]], [[0, np.True_], [1, 0]],
        [[0, b"1"], [1, 0]], [[0.0, 1.0], (1.0, "0")], np.array([[0, "1"], ["1", 0]]),
        np.array([[False, True], [True, False]]), np.array([[0, True], [1, 0]], dtype=object),
    ], ids=["string", "ragged", "huge-int", "numeric-string-and-bool", "bool", "numpy-bool",
            "bytes", "string-in-tuple-row", "string-array", "bool-array", "bool-in-object-array"])
    def test_finite_metric_must_be_numbers(self, metric):
        # float() would read "1" and True as 1.0
        with pytest.raises(DomainError, match="matrix of numbers"):
            FiniteDomain(["a", "b"], metric)

    @pytest.mark.parametrize("metric", [
        [[0, 1], [1, 0]], [[0.0, np.float32(1)], (np.int8(1), 0)], np.array([[0, 1], [1, 0]]),
        np.array([[0, 1], [1, 0]], dtype=np.uint8), np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0, 1.0], [1, 0]], dtype=object),
    ])
    def test_finite_metric_of_numbers_builds(self, metric):
        assert FiniteDomain(["a", "b"], metric).metric.tolist() == [[0.0, 1.0], [1.0, 0.0]]

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

    def test_large_diameter_line_is_a_metric(self):
        # |i - j| * spacing rounds by one ulp at this scale, past the
        # triangle pass's absolute 1e-12, which rejected it
        assert FiniteDomain.line(30, 1e5).metric[0, 6] == 6 * (1e5 / 29)
        with pytest.raises(DomainError, match=r"indices \(0, 1, 6\)"):
            FiniteDomain([str(i) for i in range(30)], FiniteDomain.line(30, 1e5).metric)

    def test_line_past_the_largest_double_is_refused_without_a_warning(self):
        # 3 * (max / 3) rounds past the largest double: numpy warned of the
        # overflow before the constructor refused the inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^metric entries must be finite$"):
                FiniteDomain.line(4, sys.float_info.max)

    @pytest.mark.parametrize("diameter", [float("inf"), float("nan"), -1.0])
    def test_line_keeps_the_other_checks(self, diameter):
        with pytest.raises(DomainError, match="finite|must be > 0"):
            FiniteDomain.line(3, diameter)


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

    @settings(deadline=None)
    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=6), times, st.data())
    def test_scalar_grades_read_the_matrix(self, corners, t, data):
        # an L1 metric on points of the plane, given as nested lists; the
        # indices drawn as Python ints and as numpy integers
        m = [[abs(a - c) + abs(b - d) for c, d in corners] for a, b in corners]
        domain = FiniteDomain([str(i) for i in range(len(m))], m)
        space = standard_space(domain, TNorm.product(), TConorm.probabilistic_sum())
        index = st.sampled_from(INDEX_TYPES).flatmap(
            lambda kind: st.integers(0, len(m) - 1).map(kind))
        x, y = data.draw(index), data.draw(index)
        joint = space.mu.joint(x, y, t)
        for got, cell in ((domain.distance(x, y), domain.metric[x, y]),
                          (space.mu(x, y, t), joint[0]), (space.nu(x, y, t), joint[1])):
            assert type(got) is float
            assert got.hex() == float(cell).hex()
        # index arrays of one integer dtype, 1-d and broadcast to 2-d: numpy's cells
        kind = data.draw(st.sampled_from(INDEX_TYPES))
        indices = st.lists(st.integers(0, len(m) - 1), min_size=1, max_size=5)
        xs, ys = (np.array(data.draw(indices), dtype=kind) for _ in "xy")
        for a, b in ((xs, xs[::-1]), (xs[:, None], ys), (xs[0], ys)):
            got, cells = domain.distance(a, b), domain.metric[a, b]
            assert (got.dtype, got.shape) == (cells.dtype, cells.shape)
            assert got.tobytes() == cells.tobytes()
        with pytest.raises(TypeError):  # numpy would read a bool as a mask
            domain.distance(True, y)

    @settings(deadline=None)
    @given(st.data())
    def test_joint_form_matches_scalar_grades(self, data):
        # the (times, points) tables of the joint form, cell by cell, against
        # the scalar grades on Python scalars, on both kinds of domain
        if data.draw(st.booleans()):
            domain = FiniteDomain(["a", "b", "c"], [[0.0, 0.3, 1.1], [0.3, 0.0, 0.9],
                                                    [1.1, 0.9, 0.0]])
            point = st.integers(0, domain.size - 1)
        else:
            domain, point = IntervalDomain(0.0, 1.0), coords
        space = standard_space(domain, TNorm.product(), TConorm.probabilistic_sum())
        pairs = data.draw(st.lists(st.tuples(point, point), min_size=1, max_size=6))
        grid = data.draw(st.lists(times, min_size=1, max_size=3))
        x, y = np.array(pairs).T
        tables = space.mu.joint(x, y, np.array(grid)[:, None])
        for grade, table in zip((space.mu, space.nu), tables):
            assert table.shape == (len(grid), len(pairs))
            for (i, t), (j, (p, q)) in itertools.product(enumerate(grid), enumerate(pairs)):
                assert grade(p, q, t).hex() == float(table[i, j]).hex()


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

    def test_marked_non_archimedean(self, crisp5):
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



def _space_of(grade):
    """A space over [0, 1] whose mu and nu, without array forms, pass
    mu = t / (t + d) and nu = d / (t + d) through ``grade``."""
    def mu(x, y, t):
        return grade(t / (t + abs(x - y)))

    def nu(x, y, t):
        return grade(abs(x - y) / (t + abs(x - y)))

    return IFSpace(IntervalDomain(0.0, 1.0), mu, nu, TNorm.product(), TConorm.probabilistic_sum())


NOT_REAL = {"str": repr, "bool": lambda v: v > 0.5, "numpy-bool": lambda v: np.bool_(v > 0.5),
            "huge-int": lambda v: 10**400, "none": lambda v: None}


class TestElementWiseGrades:
    # the element-wise fallback of `array_form` read its results with
    # np.asarray(..., dtype=float), which parses "0.5" and takes True as 1.0
    @pytest.mark.parametrize("grade", NOT_REAL.values(), ids=NOT_REAL.keys())
    def test_a_grade_that_is_not_a_real_number_is_a_domain_error(self, grade):
        space = _space_of(grade)
        sampler = SamplerConfig("random", 50, (0.5, 1.0))
        with pytest.raises(DomainError, match=r"^mu\(.*\) = .* is not a real number$"):
            audit_space(space, sampler)
        with pytest.raises(DomainError, match=r"^mu\(.*\) = .* is not a real number$"):
            check_k_contractive(space, SelfMap.scale(0.5), 0.5, sampler)

    def test_the_message_names_the_first_such_call(self):
        space = _space_of(lambda v: "one" if v == 1.0 else v)
        x, y = np.array([0.25, 0.5]), np.array([0.75, 0.5])
        with pytest.raises(DomainError, match=r"^mu\(0\.5, 0\.5, 2\.0\) = 'one' is not a real number$"):
            grade_tables(space, x, y, 2.0)

    # the shrinkers compared what a grade returned at a shrunk point as it
    # came: a string was a raw TypeError, True was 1.0
    @pytest.mark.parametrize("grade", NOT_REAL.values(), ids=NOT_REAL.keys())
    def test_a_grade_not_real_at_shrunk_points_is_a_domain_error(self, grade):
        # real on every sampled pair, not real below a gap of 1e-6, where only
        # the shrinkers look; nu = mu fails axiom i wherever mu > 0.5
        def mu(x, y, t):
            v = t / (t + abs(x - y))
            return grade(v) if abs(x - y) < 1e-6 else v

        space = IFSpace(IntervalDomain(0.0, 1.0), mu, mu, TNorm.product(),
                        TConorm.probabilistic_sum())
        sampler = SamplerConfig("random", 50, (0.5, 1.0))
        calls = [lambda: check_k_contractive(space, SelfMap.identity(), 0.5, sampler),
                 lambda: check_psi_phi_contractive(space, SelfMap.identity(),
                                                   PsiPhiPair.from_k(0.5), sampler),
                 lambda: minimize_witness(space, Witness("i", 0.25, 0.75, 1.0))]
        for call in calls:
            with pytest.raises(DomainError, match=r"^mu\(.*\) = .* is not a real number$"):
                call()

    # a custom t-norm's or control's results were compared as they came: a
    # string was a raw TypeError, and bools passed the range check
    @pytest.mark.parametrize("read", NOT_REAL.values(), ids=NOT_REAL.keys())
    def test_a_norm_or_control_result_not_real_is_a_domain_error(self, read):
        def product(a, b):
            return read(a * b)

        def psi(s):
            return read(s / 2)

        calls = {"product": [lambda: check_norm_axioms(TNorm.custom(product), 20, 0),
                             lambda: tnorm_apply(TNorm.custom(product), 0.5, 0.5)],
                 "psi": [lambda: check_admissible(PsiPhiPair(psi, psi), 11)]}
        for name, named in calls.items():
            for call in named:
                with pytest.raises(DomainError, match=rf"^{name}\(.*\) = .* is not a real number$"):
                    call()

    @settings(max_examples=60, deadline=None)
    @given(bad=st.sampled_from(list(NOT_REAL.values())), side=st.sampled_from(["mu", "nu"]),
           gap=st.sampled_from([1e-7, 1e-3, 0.2]), x=coords,
           f=st.sampled_from([SelfMap.identity(), SelfMap.scale(0.5)]), seed=st.integers(0, 99))
    def test_a_grade_not_real_at_any_graded_cell_never_passes(self, bad, side, gap, x, f, seed):
        # the grade is not real below a drawn gap: on sampled pairs, the
        # diagonal, or only at the points a shrinker reaches; whichever call
        # grades such a cell raises, and no call returns past one
        graded = []

        def grade_of(name, form):
            def grade(p, q, t):
                v = form(t, abs(p - q))
                if name == side and abs(p - q) < gap:
                    graded.append(v)
                    return bad(v)
                return v

            grade.__name__ = name
            return grade

        space = IFSpace(IntervalDomain(0.0, 1.0), grade_of("mu", lambda t, d: t / (t + d)),
                        grade_of("nu", lambda t, d: d / (t + d)), TNorm.product(),
                        TConorm.probabilistic_sum(), NON_ARCHIMEDEAN)
        sampler = SamplerConfig("random", 20, (0.5, 1.0), seed=seed)
        calls = [lambda: audit_space(space, sampler),
                 lambda: check_k_contractive(space, f, 0.5, sampler),
                 lambda: check_psi_phi_contractive(space, f, PsiPhiPair.from_k(0.5), sampler),
                 lambda: verify_fixed_point(space, f, x, (0.5, 1.0), 0.5)]
        for call in calls:
            graded.clear()
            try:
                call()
            except DomainError as exc:
                assert graded and str(exc).startswith(f"{side}(")
                assert str(exc).endswith("is not a real number")
            else:
                assert not graded

    def test_real_numbers_read_as_before(self):
        # ints, Fractions and numpy floats are real numbers: read as float64
        reads = {"int": lambda v: int(v > 0.5), "fraction": Fraction,
                 "float32": np.float32, "float": float}
        x, y = np.linspace(0.0, 1.0, 7), np.linspace(1.0, 0.0, 7)[:, None]
        for name, grade in reads.items():
            mu, nu = grade_tables(_space_of(grade), x, y, 0.5)
            d = abs(x - y)
            want = [np.asarray([[grade(v) for v in row] for row in m], dtype=float)
                    for m in (0.5 / (0.5 + d), d / (0.5 + d))]
            assert mu.dtype == nu.dtype == np.float64, name
            assert np.array_equal(mu, want[0]) and np.array_equal(nu, want[1]), name


class TestArrayFormGrades:
    # an array form's table went into the audit, the scan and the residual
    # as it came: a string table ended in numpy's UFuncTypeError, and a bool
    # one in a TypeError in the audit and a PASS from the scan and residual
    NOT_REAL_TABLES = {"str": lambda a: a.astype(str), "bool": lambda a: a > 0.5,
                       "object": lambda a: a.astype(object), "complex": lambda a: a + 0j}

    @staticmethod
    def _space(table, form="array"):
        """The space of `_space_of(float)` with array forms that pass mu
        and nu's float tables through ``table``; with ``form="joint"``, a
        joint form of both that does."""
        space = _space_of(float)
        space.mu.array = lambda x, y, t: table(np.asarray(t / (t + np.abs(x - y))))
        space.nu.array = lambda x, y, t: table(np.asarray(np.abs(x - y) / (t + np.abs(x - y))))
        if form == "joint":
            space.mu.joint = space.nu.joint = lambda x, y, t: (space.mu.array(x, y, t),
                                                               space.nu.array(x, y, t))
        return space

    # a joint form's tables were returned unchecked: a string pair ended in
    # numpy's UFuncTypeError
    @pytest.mark.parametrize("table", NOT_REAL_TABLES.values(), ids=NOT_REAL_TABLES.keys())
    def test_a_table_that_is_not_numeric_is_a_domain_error(self, table):
        sampler = SamplerConfig("random", 50, (0.5, 1.0))
        for form in ("array", "joint"):
            space = self._space(table, form)
            calls = [lambda: audit_space(space, sampler),
                     lambda: check_k_contractive(space, SelfMap.scale(0.5), 0.5, sampler),
                     lambda: verify_fixed_point(space, SelfMap.scale(0.5), 0.0, (0.1, 1.0), 1e-6)]
            for call in calls:
                with pytest.raises(DomainError, match=r"^mu\.array returns \S+ values, not real numbers$"):
                    call()

    def test_the_message_names_the_grade_function(self):
        space = self._space(lambda a: a)
        space.nu.array = lambda x, y, t: np.full(np.broadcast(x, y, t).shape, "0.5")
        with pytest.raises(DomainError, match=r"^nu\.array returns <U3 values"):
            grade_tables(space, np.array([0.25, 0.5]), 0.75, 2.0)

    # a control's own array form went into a float64 scatter as it came:
    # numpy parsed a string table, and a bool one read as 0 and 1, so the
    # check returned a report
    @pytest.mark.parametrize("table", [NOT_REAL_TABLES["str"], NOT_REAL_TABLES["bool"]],
                             ids=["str", "bool"])
    @pytest.mark.parametrize("name", ["psi", "phi"])
    def test_a_control_table_that_is_not_numeric_is_a_domain_error(self, table, name):
        controls = {"psi": psi_from_k(0.5), "phi": phi_from_k(0.5)}
        scalar = controls[name]

        def control(s):
            return scalar(s)

        control.__name__, control.array = name, lambda a: table(scalar.array(a))
        pair = PsiPhiPair(**{**controls, name: control})
        sampler = SamplerConfig("random", 50, (0.5, 1.0))
        with pytest.raises(DomainError, match=rf"^{name}\.array returns \S+ values, not real numbers$"):
            check_psi_phi_contractive(_UNIT_SPACE, SelfMap.scale(0.5), pair, sampler)

    # the audit's t-(co)norm bound tables were compared as they came: a
    # string table ended in numpy's UFuncTypeError
    @pytest.mark.parametrize("kind", ["tnorm", "tconorm"])
    def test_a_norm_table_that_is_not_numeric_is_a_domain_error(self, kind):
        def product(a, b):
            return a * b

        product.array = lambda a, b: (a * b).astype(str)
        norms = {"tnorm": TNorm.product(), "tconorm": TConorm.probabilistic_sum()}
        norms[kind] = (TNorm if kind == "tnorm" else TConorm).custom(product)
        space = IFSpace(IntervalDomain(0.0, 1.0), _UNIT_SPACE.mu, _UNIT_SPACE.nu, **norms)
        with pytest.raises(DomainError, match=r"^product\.array returns <U\d+ values, not real numbers$"):
            audit_space(space, SamplerConfig("random", 50, (0.5, 1.0)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64, np.uint8])
    def test_integer_and_float_tables_pass_as_they_are(self, dtype):
        space = self._space(lambda a: a.astype(dtype))
        mu, nu = grade_tables(space, np.array([0.0, 0.5]), 1.0, 1.0)
        assert mu.dtype == nu.dtype == dtype


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
