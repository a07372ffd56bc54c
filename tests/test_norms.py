import math
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifmkit import (
    DomainError,
    FiniteDomain,
    IFSpace,
    TConorm,
    TNorm,
    UnitRangeError,
    UnitValue,
    check_norm_axioms,
    dual_of,
    eval_mu,
    tconorm_apply,
    tnorm_apply,
)
from ifmkit.norms import as_unit

TOL = 1e-12

units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

BUILTIN_PAIRS = [
    (TNorm.product(), TConorm.probabilistic_sum()),
    (TNorm.minimum(), TConorm.maximum()),
    (TNorm.lukasiewicz(), TConorm.bounded_sum()),
]


class TestUnitValue:
    def test_accepts_bounds(self):
        assert float(UnitValue(0.0)) == 0.0
        assert float(UnitValue(1.0)) == 1.0
        assert float(UnitValue(0.25)) == 0.25

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(UnitRangeError):
            UnitValue(bad)

    # a unit value is what `errors.real_field` reads: a real number, not a
    # bool; float() took the strings, bytes and bools as 0.5 and 1.0
    @pytest.mark.parametrize("bad", ["0.5", True, np.True_, b"1", Decimal("0.5"), None],
                             ids=["str", "bool", "numpy-bool", "bytes", "decimal", "none"])
    def test_rejects_what_is_not_a_real_number(self, bad):
        with pytest.raises(UnitRangeError, match=re.escape(f"must be a real number, got {bad!r}")):
            as_unit(bad)
        with pytest.raises(UnitRangeError):
            UnitValue(bad)

    def test_real_numbers_read_as_floats(self):
        values = [0, 1, np.int64(1), np.float32(0.5), np.float64(0.25)]
        assert [type(as_unit(v)) for v in values] == [float] * 5
        assert [as_unit(v) for v in values] == [0.0, 1.0, 1.0, 0.5, 0.25]

    # float() of an integer past the floats raised a raw OverflowError
    @pytest.mark.parametrize("huge", [10**400, -10**400])
    def test_integer_past_the_floats_is_a_unit_range_error(self, huge):
        for read in (as_unit, UnitValue, lambda v: tnorm_apply(TNorm.product(), v, 0.5)):
            with pytest.raises(UnitRangeError, match="^unit value integer too large for a float$"):
                read(huge)

    def test_nan_and_range_messages_kept(self):
        with pytest.raises(UnitRangeError, match="^unit value is NaN$"):
            as_unit(math.nan)
        with pytest.raises(UnitRangeError, match=r"^unit value 1\.5 outside \[0, 1\]$"):
            as_unit(1.5)


class TestApply:
    def test_product(self):
        assert float(tnorm_apply(TNorm.product(), 0.5, 0.4)) == pytest.approx(0.2, abs=TOL)

    def test_minimum_identity(self):
        assert float(tnorm_apply(TNorm.minimum(), 0.3, 1.0)) == 0.3

    def test_lukasiewicz_clips(self):
        assert float(tnorm_apply(TNorm.lukasiewicz(), 0.3, 0.7)) == 0.0

    def test_probabilistic_sum(self):
        assert float(tconorm_apply(TConorm.probabilistic_sum(), 0.5, 0.4)) == pytest.approx(
            0.7, abs=TOL
        )

    def test_maximum_identity(self):
        assert float(tconorm_apply(TConorm.maximum(), 0.3, 0.0)) == 0.3

    def test_bounded_sum_saturates(self):
        assert float(tconorm_apply(TConorm.bounded_sum(), 0.6, 0.7)) == 1.0

    def test_custom_out_of_range_names_inputs(self):
        bad = TNorm.custom(lambda a, b: a + b)
        with pytest.raises(DomainError) as err:
            tnorm_apply(bad, 0.5, 1.0)
        assert "a=0.5" in str(err.value) and "b=1.0" in str(err.value)

    def test_operands_validated(self):
        with pytest.raises(UnitRangeError):
            tnorm_apply(TNorm.product(), 1.5, 0.5)

    def test_operands_are_real_numbers(self):  # returned UnitValue(0.5)
        with pytest.raises(UnitRangeError):
            tnorm_apply(TNorm.product(), True, "0.5")

    def test_string_grade_is_not_a_unit_value(self):  # eval_mu returned UnitValue(0.9)
        line = FiniteDomain.line(3)
        space = IFSpace(line, lambda x, y, t: "0.9", lambda x, y, t: 0.1,
                        TNorm.product(), TConorm.probabilistic_sum())
        with pytest.raises(DomainError, match="is not a unit value"):
            eval_mu(space, 0, 1, 1.0)


class TestDual:
    def test_builtin_kinds(self):
        assert dual_of(TNorm.product()).kind == "probabilistic_sum"
        assert dual_of(TNorm.minimum()).kind == "maximum"
        assert dual_of(TNorm.lukasiewicz()).kind == "bounded_sum"

    def test_spot_values(self):
        assert float(tconorm_apply(dual_of(TNorm.product()), 0.5, 0.4)) == pytest.approx(
            0.7, abs=TOL
        )
        assert float(tconorm_apply(dual_of(TNorm.minimum()), 0.2, 0.9)) == 0.9
        assert float(tconorm_apply(dual_of(TNorm.lukasiewicz()), 0.6, 0.7)) == 1.0

    @pytest.mark.parametrize("norm,conorm", BUILTIN_PAIRS)
    @given(a=units, b=units)
    def test_duality_pointwise(self, norm, conorm, a, b):
        assert abs(conorm.fn(a, b) - (1.0 - norm.fn(1.0 - a, 1.0 - b))) <= TOL

    def test_custom_dual_wraps(self):
        dual = dual_of(TNorm.custom(lambda a, b: a * b))
        assert dual.kind == "custom"
        assert dual.fn(0.5, 0.4) == pytest.approx(0.7, abs=TOL)


@pytest.mark.parametrize("op", [op for pair in BUILTIN_PAIRS for op in pair])
def test_builtin_axioms_pass(op):
    report = check_norm_axioms(op, 2000, seed=11)
    assert report.passed
    assert {c.axiom for c in report.checks} == {
        "range", "identity", "commutativity", "associativity", "monotonicity", "continuity",
    }


def test_unclamped_sum_fails_identity_with_midpoint_witness():
    report = check_norm_axioms(TNorm.custom(lambda a, b: a + b), 2000, seed=11)
    check = report.check("identity")
    assert check.status == "FAIL"
    # 0.5 + 1 = 1.5 escapes the interval; the reported witness is the
    # failing sample closest to the midpoint.
    assert check.witness[:2] == (0.5, 1.0)
    assert report.check("range").status == "FAIL"


def test_custom_equal_to_product_passes():
    report = check_norm_axioms(TNorm.custom(lambda a, b: a * b), 2000, seed=11)
    assert report.passed


def test_step_function_fails_continuity_probe():
    step = TNorm.custom(lambda a, b: 1.0 if a + b > 1.0 else 0.0)
    report = check_norm_axioms(step, 2000, seed=11)
    assert report.check("continuity").status == "FAIL"


def test_nan_op_fails_every_axiom():
    report = check_norm_axioms(TNorm.custom(lambda a, b: math.nan), 200, seed=11)
    assert [c.status for c in report.checks] == ["FAIL"] * 6
    assert all(c.violation_count > 0 for c in report.checks)
    assert report.check("continuity").detail == "max observed modulus ratio nan"


def test_report_deterministic():
    r1 = check_norm_axioms(TNorm.product(), 500, seed=3)
    r2 = check_norm_axioms(TNorm.product(), 500, seed=3)
    assert r1.to_dict() == r2.to_dict()


@pytest.mark.parametrize("op", [op for pair in BUILTIN_PAIRS for op in pair])
@given(a=units, b=units, c=units)
def test_associativity_property(op, a, b, c):
    assert abs(op.fn(op.fn(a, b), c) - op.fn(a, op.fn(b, c))) <= TOL


@pytest.mark.parametrize("op", [op for pair in BUILTIN_PAIRS for op in pair])
@given(a=units, b=units, c=units, d=units)
def test_monotonicity_property(op, a, b, c, d):
    lo_a, hi_a = min(a, c), max(a, c)
    lo_b, hi_b = min(b, d), max(b, d)
    assert op.fn(lo_a, lo_b) <= op.fn(hi_a, hi_b) + TOL


@pytest.mark.parametrize("norm,_", BUILTIN_PAIRS)
@given(a=units, b=units)
def test_tnorm_below_min_and_conorm_above_max(norm, _, a, b):
    assert norm.fn(a, b) <= min(a, b) + TOL
    conorm = dual_of(norm)
    assert conorm.fn(a, b) >= max(a, b) - TOL


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        TNorm("hamacher")
    with pytest.raises(DomainError):
        TConorm("einstein")
    with pytest.raises(DomainError):
        TNorm("custom")
