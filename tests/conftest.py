import os

import pytest
from hypothesis import settings

from ifmkit import (
    FiniteDomain,
    IntervalDomain,
    TConorm,
    TNorm,
    crisp_threshold_space,
    standard_space,
)

# HYPOTHESIS_PROFILE=ci prints the reproduce blob of a failing example.
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def unit_interval():
    return IntervalDomain(0.0, 1.0)


@pytest.fixture
def unit_space(unit_interval):
    """Standard space over [0,1] with the product/probabilistic-sum pair."""
    return standard_space(unit_interval, TNorm.product(), TConorm.probabilistic_sum())


@pytest.fixture
def crisp5():
    """Crisp threshold space on five labelled points."""
    return crisp_threshold_space(
        FiniteDomain.line(5), TNorm.minimum(), TConorm.maximum()
    )


@pytest.fixture
def line10_space():
    """Standard space on ten evenly spaced points, d(i, j) = |i-j|/9."""
    return standard_space(
        FiniteDomain.line(10), TNorm.product(), TConorm.probabilistic_sum()
    )
