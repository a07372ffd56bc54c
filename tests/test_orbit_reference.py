"""The orbit engine against a loop of checked scalar steps.

`scalar_edelstein_solve` walks one seed at a time with checked scalar
steps and a dict of the points seen.  It stays here as the reference:
`edelstein_solve`, which steps through a table of every point's images
from one `SelfMap.array` call, must give the same report (`to_dict()`,
compared by repr so that types count), the same traces, and raise the
same exception type with the same message, on table, identity, constant
and closure maps whose images may leave the domain, be bools, or raise.

`FiniteDomain.line` builds its metric in numpy and skips the triangle
pass; its matrix must be the one the old nested-list build gave, bit for
bit, and the full validation of a user metric must accept it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifmkit import (
    DomainError,
    FiniteDomain,
    PreconditionError,
    SelfMap,
    SolverConfig,
    TConorm,
    TNorm,
    edelstein_solve,
    standard_space,
)
from ifmkit.solver import _cross_checked


def scalar_edelstein_solve(space, f, config):
    """The orbit engine with one checked step per seed at a time."""
    domain = space.domain
    if not isinstance(domain, FiniteDomain):
        raise PreconditionError("edelstein_solve requires a finite domain")
    seeds = config.seeds if config.seeds else tuple(domain.points())
    cycle_lengths = []
    limits = []
    iterations = []
    traces = []
    for x0 in seeds:
        if not domain.contains(x0):
            raise DomainError(f"seed {x0!r} outside domain {domain!r}")
        seen = {x0: 0}
        orbit = [x0]
        x = x0
        cycle_len = None
        for step in range(1, min(config.max_iter, domain.size) + 1):
            x = f.apply_checked(domain, x)
            if x in seen:
                cycle_len = step - seen[x]
                orbit.append(x)
                break
            seen[x] = step
            orbit.append(x)
        cycle_lengths.append(cycle_len)
        iterations.append(len(orbit) - 1)
        limits.append(orbit[-1] if cycle_len == 1 else None)
        traces.append(orbit)
    return _cross_checked(
        "edelstein", space, f, config, limits,
        iterations_per_seed=iterations,
        stop_reasons=["cycle" if c is not None else "max_iter" for c in cycle_lengths],
        cycle_lengths=cycle_lengths,
        traces=traces,
    )


def _outcome(solve, space, f, config):
    try:
        report = solve(space, f, config)
    except Exception as exc:  # noqa: BLE001  compared with the reference's
        return type(exc), str(exc)
    return repr(report.to_dict()), report.traces, report.limits


@st.composite
def maps(draw, n):
    """A table, identity, constant or closure map on line(n); the constant
    and closure images may fall outside the domain, a closure image may be
    a bool, which is no point, and a closure image of None raises."""
    kind = draw(st.sampled_from(["table", "identity", "constant", "closure"]))
    if kind == "table":
        return SelfMap.table(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    if kind == "identity":
        return SelfMap.identity()
    if kind == "constant":
        return SelfMap.constant(draw(st.integers(-1, n)))
    # mostly inside, so that failures come late in some orbits
    image = (st.integers(0, n - 1) | st.integers(-1, n) | st.none()
             | st.sampled_from([True, False, np.True_]))
    images = draw(st.lists(image, min_size=n, max_size=n))

    def fn(x):
        if images[x] is None:
            raise ValueError(f"no image for {x}")
        return images[x]

    return SelfMap.closure(fn, name="drawn")


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_lockstep_engine_matches_the_scalar_loop(data, n):
    space = standard_space(FiniteDomain.line(n), TNorm.product(), TConorm.probabilistic_sum())
    f = data.draw(maps(n))
    seed = st.integers(0, n - 1) | st.integers(-1, n) | st.just(0.5)
    config = SolverConfig(
        epsilon=1e-6, t_grid=(0.1, 1.0), max_iter=data.draw(st.integers(1, n + 3)),
        point_tol=data.draw(st.sampled_from((0.0, 0.5))),
        seeds=data.draw(st.just(()) | st.lists(seed, min_size=1, max_size=2 * n + 2)),
    )
    assert (_outcome(edelstein_solve, space, f, config)
            == _outcome(scalar_edelstein_solve, space, f, config))


@pytest.mark.parametrize("image", [True, False])
def test_bool_images_leave_the_domain(image):
    # numpy reads a bool index as a mask, so a bool is no point of a finite
    # domain: both engines stop at the first step that makes one
    space = standard_space(FiniteDomain.line(5), TNorm.product(), TConorm.probabilistic_sum())
    f = SelfMap.closure(lambda x: image)
    config = SolverConfig(epsilon=1e-6, t_grid=(0.1, 1.0), seeds=(2, 3))
    outcome = _outcome(edelstein_solve, space, f, config)
    assert outcome == _outcome(scalar_edelstein_solve, space, f, config)
    assert outcome == (DomainError, f"map closure sends 2 to {image}, outside the domain")
    assert not space.domain.contains(image)


def test_bool_among_int_images_is_no_point():
    # element-wise images of a map without an array form: the bool stays
    # an object, not the point 1, so seed 2's first step leaves the domain
    space = standard_space(FiniteDomain.line(5), TNorm.product(), TConorm.probabilistic_sum())
    f = SelfMap.closure(lambda x: True if x == 2 else 0)
    config = SolverConfig(epsilon=1e-6, t_grid=(0.1, 1.0), seeds=(1, 2))
    outcome = _outcome(edelstein_solve, space, f, config)
    assert outcome == _outcome(scalar_edelstein_solve, space, f, config)
    assert outcome == (DomainError, "map closure sends 2 to True, outside the domain")


@pytest.mark.parametrize("image", [np.array(0), np.array(3), np.array([1])])
def test_array_images_leave_the_domain(image):
    # the element-wise fallback of `SelfMap.array` keeps an array image as
    # an object, which no domain contains, instead of unwrapping it
    space = standard_space(FiniteDomain.line(5), TNorm.product(), TConorm.probabilistic_sum())
    f = SelfMap.closure(lambda x: image)
    config = SolverConfig(epsilon=1e-6, t_grid=(0.1, 1.0), seeds=(2, 3))
    outcome = _outcome(edelstein_solve, space, f, config)
    assert outcome == _outcome(scalar_edelstein_solve, space, f, config)
    assert outcome == (DomainError, f"map closure sends 2 to {image!r}, outside the domain")


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), diameter=st.floats(1e-3, 1e3))
def test_line_metric_is_the_list_build(n, diameter):
    spacing = diameter / (n - 1) if n > 1 else 0.0
    old = np.array([[abs(i - j) * spacing for j in range(n)] for i in range(n)], dtype=float)
    line = FiniteDomain.line(n, diameter)
    assert line.metric.tobytes() == old.tobytes()
    # the full validation, triangle pass included, accepts it at this scale
    assert FiniteDomain(line.labels, line.metric).metric.tobytes() == old.tobytes()
