"""The block-batched Picard loop against the step-by-step loop it replaced.

`scalar_picard_iterate` takes one checked step at a time, grades the
step's diagnostics as it goes and asks `scalar_all_near` after every step
whether the trailing window is Cauchy at the smallest grid t.  It stays
here as the reference: `picard_iterate` must give the same points (the
same objects, of the same types), stop reason, note and diagnostics, and
raise the same exception type with the same message, whatever the block
cap.  The window rule that both the Picard stop and `detect_m_cauchy`
apply, `solver._near_windows`, must agree with its definition: a window is
near when every pair of its points is, for every split of the points into
the block and the points before it.

`scalar_trace_to_csv` is the trace CSV writer with one format() call per
value.  It stays here as the reference for `trace_to_csv` and
`write_trace_csv`, whose numbers are laid out as byte arrays and written
by one worker thread, all but the last chunk, which the caller writes:
they must give the same text on every trace, and `_FieldWriter` must
spell each float as format(x, ".17g").  The writer's thread must start
only past one chunk and end with every call, after an error too.
"""

import json
import math
import numbers
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifmkit import (
    NON_ARCHIMEDEAN,
    DomainError,
    FiniteDomain,
    IFSpace,
    IntervalDomain,
    SelfMap,
    SolverConfig,
    TConorm,
    TNorm,
    crisp_threshold_space,
    detect_g_cauchy,
    detect_m_cauchy,
    picard_iterate,
    solve_fixed_point,
    standard_space,
    trace_to_csv,
    write_trace_csv,
)
import ifmkit
from ifmkit import solver
from ifmkit.solver import (
    _CSV_CHUNK_FIELDS,
    IterationTrace,
    _FieldWriter,
    _fixed_decimal,
    _near_windows,
)
from ifmkit.spaces import POINT_EQ_TOL

# ---------------------------------------------------------------------------
# The step-by-step reference, kept verbatim
# ---------------------------------------------------------------------------


def scalar_all_near(space, pairs, t, epsilon):
    """Every pair has mu > 1 - epsilon and nu < epsilon at t."""
    mu, nu, lo = space.mu, space.nu, 1.0 - epsilon
    for a, b in pairs:
        if not (mu(a, b, t) > lo and nu(a, b, t) < epsilon):
            return False
    return True


def scalar_picard_iterate(space, f, x0, config):
    """The Picard loop with per-step checks and diagnostics."""
    domain = space.domain
    if not domain.contains(x0):
        raise DomainError(f"starting point {x0!r} outside domain {domain!r}")
    fx0 = f.apply_checked(domain, x0)
    grid = config.t_grid
    for t in grid:
        if not (space.mu(x0, fx0, t) > 0.0 and space.nu(x0, fx0, t) < 1.0):
            return IterationTrace(
                space=space, map=f, t_grid=grid, points=[x0],
                mu_diag={t: [] for t in grid}, nu_diag={t: [] for t in grid},
                stop_reason="precondition_failed",
                note=f"mu(x0, f(x0), {t:g}) = {space.mu(x0, fx0, t)!r}, "
                     f"nu = {space.nu(x0, fx0, t)!r}",
            )

    points = [x0]
    mu_diag = {t: [] for t in grid}
    nu_diag = {t: [] for t in grid}
    t_min = grid[0]
    stop_reason = "max_iter"
    x = x0
    for _ in range(config.max_iter):
        x_next = f.apply_checked(domain, x)
        for t in grid:
            mu_diag[t].append(space.mu(x, x_next, t))
            nu_diag[t].append(space.nu(x, x_next, t))
        points.append(x_next)
        x = x_next
        window = min(config.cauchy_window, len(points))
        if scalar_all_near(space, combinations(points[-window:], 2), t_min, config.epsilon):
            stop_reason = "converged"
            break
    return IterationTrace(
        space=space, map=f, t_grid=grid, points=points,
        mu_diag=mu_diag, nu_diag=nu_diag, stop_reason=stop_reason,
    )


def scalar_trace_to_csv(trace: IterationTrace) -> str:
    """Render a trace as CSV: columns n, x_n, then mu@t and nu@t per grid
    value.  Values use 17 significant digits so reruns diff cleanly; the
    final row has no diagnostic entries (they pair consecutive points).
    """
    header = ["n", "x_n"]
    columns = []
    for t in trace.t_grid:
        label = _fixed_decimal(t)
        header += [f"mu@{label}", f"nu@{label}"]
        columns += [trace.mu_diag[t], trace.nu_diag[t]]
    shown = list(map(trace.space.domain.describe, trace.points))
    # a domain describes every point as a float (interval) or as a label
    x_field = "{:.17g}" if isinstance(shown[0], float) else "{}"
    row = ",".join(["{}", x_field] + ["{:.17g}"] * len(columns))
    n_diag = len(shown) - 1
    last = ",".join([str(n_diag), x_field.format(shown[-1])] + [""] * len(columns))
    lines = [",".join(header), *map(row.format, range(n_diag), shown, *columns), last]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Spaces and maps
# ---------------------------------------------------------------------------

NORMS = (TNorm.product(), TConorm.probabilistic_sum())


def nan_space(domain):
    """Standard grades, except a NaN mu on pairs further apart than 0.3; no
    array forms, so every grade is a scalar call."""
    dist = domain.distance

    def mu(x, y, t):
        d = dist(x, y)
        return math.nan if d > 0.3 else t / (t + d)

    def nu(x, y, t):
        d = dist(x, y)
        return d / (t + d)

    return IFSpace(domain, mu, nu, *NORMS, triangle_mode=NON_ARCHIMEDEAN, name="nan")


def squared_space(domain):
    """A custom space without array forms: grades of the squared distance."""
    dist = domain.distance

    def mu(x, y, t):
        return t / (t + dist(x, y) ** 2)

    def nu(x, y, t):
        return dist(x, y) ** 2 / (t + dist(x, y) ** 2)

    return IFSpace(domain, mu, nu, *NORMS, triangle_mode=NON_ARCHIMEDEAN, name="squared")


SPACES = {
    "standard": lambda d: standard_space(d, *NORMS),
    "crisp": lambda d: crisp_threshold_space(d, *NORMS),
    "nan": nan_space,
    "squared": squared_space,
}


def below(threshold, then, f):
    """A closure that is f, except that it returns then(x) for x < threshold;
    `then` may raise."""
    def g(x):
        return then(x) if x < threshold else f(x)
    return SelfMap.closure(g, name=f"below({threshold:g})")


def boom(x):
    raise ValueError(f"map failed at {x!r}")


def interval_maps(draw):
    c = draw(st.sampled_from((0.5, 0.9, 0.97, 0.995, -0.5, 0.0)))
    threshold = draw(st.floats(1e-9, 0.9))
    return draw(st.sampled_from((
        SelfMap.scale(c),
        SelfMap.identity(),
        SelfMap.constant(0.25),
        SelfMap.affine_clamped(0.99, 0.005, 0.0, 1.0),
        SelfMap.affine_clamped(-0.8, 0.9, 0.0, 1.0),
        SelfMap.affine_clamped(3.0, -1.0, 0.0, 1.0),  # clamps at both ends
        SelfMap.closure(lambda x: x * x, name="square"),
        SelfMap.closure(lambda x: np.float64(c) * x, name="numpy-scale"),
        SelfMap.scale(2.0),  # leaves [0, 1] from above 0.5
        below(threshold, lambda x: -1.0, lambda x: c * x),
        below(threshold, lambda x: 1.0 + threshold, lambda x: c * x),  # out and back in
        below(threshold, lambda x: math.nan, lambda x: c * x),
        below(threshold, boom, lambda x: c * x),
        below(threshold, lambda x: "half", lambda x: c * x),
        below(threshold, lambda x: np.array(c * x), lambda x: c * x),  # 0-d arrays
    )))


def finite_maps(draw, n):
    images = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    r = draw(st.integers(0, n - 1))

    def except_at(then):
        # i % n: an index past the end maps back into the domain
        return SelfMap.closure(lambda i: then(i) if i == r else images[i % n], name="except-at")

    return draw(st.sampled_from((
        SelfMap.table(images),
        SelfMap.identity(),
        SelfMap.constant(r),
        SelfMap.closure(lambda i: (3 * i + 1) % n, name="affine-mod"),
        SelfMap.closure(lambda i: i // 2, name="halve"),
        except_at(lambda i: n),           # an index past the end
        except_at(float),                 # a float is not a point index
        except_at(boom),
    )))


@st.composite
def orbits(draw):
    if draw(st.booleans()):
        n = draw(st.integers(2, 40))
        domain = FiniteDomain.line(n)
        f = finite_maps(draw, n)
        x0 = draw(st.integers(0, n - 1))
    else:
        domain = IntervalDomain(0.0, 1.0)
        f = interval_maps(draw)
        x0 = draw(st.sampled_from((1.0, 0.7, -0.0, 5e-324, 1)) | st.floats(0.0, 1.0))
    space = SPACES[draw(st.sampled_from(sorted(SPACES)))](domain)
    grid = sorted(set(draw(st.lists(st.sampled_from((0.1, 0.5, 1.0, 2.0, 10.0))
                                    | st.floats(0.01, 20.0), min_size=1, max_size=3))))
    config = SolverConfig(epsilon=draw(st.sampled_from((1e-2, 1e-6, 1e-12))),
                          t_grid=tuple(grid),
                          max_iter=draw(st.sampled_from((1, 2, 16, 17, 3000))
                                        | st.integers(1, 3000)),
                          cauchy_window=draw(st.integers(2, 7)))
    cap = draw(st.sampled_from((1, 3, 16, 1024)))
    return space, f, x0, config, cap


@st.composite
def long_orbits(draw):
    """Slow contractions on [0, 1] ([-1, 1] for a negative factor) that run
    for hundreds or thousands of steps, so the orbit spans many blocks, with
    faults placed late."""
    c = draw(st.sampled_from((0.9, 0.97, 0.995, -0.97, 0.0)))
    domain = IntervalDomain(-1.0 if c < 0 else 0.0, 1.0)  # a negative factor alternates signs
    threshold = draw(st.floats(1e-12, 1e-3))
    then = draw(st.sampled_from((lambda x: -1.0, lambda x: math.nan, boom)))
    f = draw(st.sampled_from((
        SelfMap.scale(c),
        SelfMap.affine_clamped(c, 0.005, 0.0, 1.0),
        SelfMap.closure(lambda x: np.float64(c) * x, name="numpy-scale"),
        below(threshold, then, lambda x: c * x),
    )))
    space = SPACES[draw(st.sampled_from(("standard", "nan", "squared")))](domain)
    config = SolverConfig(epsilon=draw(st.sampled_from((1e-6, 1e-9, 1e-12))),
                          t_grid=(draw(st.sampled_from((0.01, 0.1, 1.0))), 10.0),
                          max_iter=draw(st.sampled_from((17, 1000, 4000))
                                        | st.integers(1, 4000)),
                          cauchy_window=draw(st.integers(2, 7)))
    cap = draw(st.sampled_from((1, 3, 16, 1024)))
    return space, f, draw(st.floats(0.5, 1.0) | st.sampled_from((-0.0, 5e-324, 1))), config, cap


def _outcome(run):
    """Everything a trace shows, or the type and message of the exception."""
    try:
        trace = run()
    except Exception as exc:  # noqa: BLE001  compared across both loops
        return type(exc), str(exc)
    csv = trace_to_csv(trace)
    assert csv == scalar_trace_to_csv(trace)
    diagnostics = [{t: np.asarray(column, dtype=np.float64).tolist() for t, column in d.items()}
                   for d in (trace.mu_diag, trace.nu_diag)]
    return (trace.stop_reason, trace.note,
            [(type(p), repr(p)) for p in trace.points],
            json.dumps(diagnostics), csv)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(orbits())
def test_block_orbit_matches_per_step_loop(case):
    space, f, x0, config, cap = case
    with mock.patch.object(solver, "_BLOCK_CAP", cap):
        block = _outcome(lambda: picard_iterate(space, f, x0, config))
    assert block == _outcome(lambda: scalar_picard_iterate(space, f, x0, config))


@settings(max_examples=100, deadline=None)
@given(long_orbits())
def test_long_block_orbit_matches_per_step_loop(case):
    space, f, x0, config, cap = case
    with mock.patch.object(solver, "_BLOCK_CAP", cap):
        block = _outcome(lambda: picard_iterate(space, f, x0, config))
    assert block == _outcome(lambda: scalar_picard_iterate(space, f, x0, config))


@pytest.mark.parametrize("cap", [1, 3, 16, 1024])
@pytest.mark.parametrize("factor,max_iter", [(0.5, 10_000), (0.9, 10_000), (0.99, 10_000),
                                             (0.999, 700), (0.5, 1), (0.5, 2)])
def test_map_runs_at_most_a_block_past_the_stop(cap, factor, max_iter, monkeypatch):
    monkeypatch.setattr(solver, "_BLOCK_CAP", cap)
    calls = []

    def fn(x):
        calls.append(x)
        return factor * x

    space = standard_space(IntervalDomain(0.0, 1.0), *NORMS)
    config = SolverConfig(epsilon=1e-8, t_grid=(0.1, 1.0), max_iter=max_iter)
    trace = picard_iterate(space, SelfMap.closure(fn), 1.0, config)
    assert trace.stop_reason == ("converged" if max_iter == 10_000 else "max_iter")
    assert len(calls) <= min(max_iter, trace.iterations + cap)
    assert trace.points == [1.0] + [factor * x for x in calls[:trace.iterations]]


def test_error_past_the_stop_is_not_raised():
    # 0.5x from 1 stops at step 11 at eps 1e-2 (window 5, t = 1); the first
    # block runs on to step 15, where x < 1e-4 and the map fails
    space = standard_space(IntervalDomain(0.0, 1.0), *NORMS)
    config = SolverConfig(epsilon=1e-2, t_grid=(1.0,), max_iter=100)
    for then in (boom, lambda x: -1.0):
        reached = []

        def fault(x, then=then):
            reached.append(x)
            return then(x)

        f = below(1e-4, fault, lambda x: 0.5 * x)
        trace = picard_iterate(space, f, 1.0, config)
        assert reached
        assert trace.stop_reason == "converged" and trace.iterations == 11
        assert trace.points == scalar_picard_iterate(space, f, 1.0, config).points
        with pytest.raises((ValueError, DomainError)):
            picard_iterate(space, f, 1.0, replace(config, epsilon=1e-12))


def scalar_products(c: float, x: float, n: int) -> list[float]:
    """The next n iterates of x -> c * x, one Python product each."""
    out = []
    for _ in range(n):
        x = c * x
        out.append(x)
    return out


def scale_orbit(c, x, n) -> list[float]:
    """`SelfMap.scale(c).fn.orbit(x, n)` as Python floats, with every
    warning an error: overflow to inf and underflow stay silent."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orbit = SelfMap.scale(c).fn.orbit(x, n)
    assert isinstance(orbit, np.ndarray) and orbit.dtype == np.float64 and orbit.shape == (n,)
    return orbit.tolist()


@settings(max_examples=300, deadline=None)
@given(st.floats() | st.sampled_from((0.0, -0.0, 0.5, -0.5, 2.0, -3.0, 1e-300, 5e-324)),
       st.floats() | st.sampled_from((1.0, -0.0, 5e-324, 1e300, -1e-300)),
       st.integers(0, 80))
@example(2.0, 1e300, 40)       # overflow to inf
@example(-3.0, 1e300, 40)      # to +-inf, alternating
@example(1e300, -1e300, 3)
@example(0.5, 1e-300, 100)     # down through the subnormals to 0.0
@example(-0.5, 3e-308, 60)     # to +-0.0
@example(0.999, 5e-324, 5)     # rounds back up to 5e-324
@example(0.0, math.inf, 2)     # NaN
@example(math.inf, 0.0, 2)
def test_scale_orbit_matches_repeated_products(c, x, n):
    if not math.isfinite(c):  # scale takes finite factors only
        with pytest.raises(DomainError, match="factor must be finite"):
            SelfMap.scale(c)
        return
    assert list(map(float.hex, scale_orbit(c, x, n))) == list(
        map(float.hex, scalar_products(c, x, n)))


@settings(max_examples=100, deadline=None)
@given(orbits(), st.integers(1, 7), st.integers(1, 4), st.sampled_from((1e-2, 1e-6)))
def test_cauchy_detectors_match_scalar_pairs(case, window, m_offset, epsilon):
    space, f, x0, config, _ = case
    try:
        trace = picard_iterate(space, f, x0, config)
    except Exception:  # noqa: BLE001  the orbit property covers failing maps
        return
    pts, t = trace.points, config.t_grid[0]
    if window <= len(pts):
        expected = scalar_all_near(space, combinations(pts[-window:], 2), t, epsilon)
        assert detect_m_cauchy(trace, epsilon, t, window) is expected
    if len(pts) > m_offset + 2:
        first = max(0, len(pts) - m_offset - 3)
        pairs = [(pts[n], pts[n + m_offset]) for n in range(first, len(pts) - m_offset)]
        assert detect_g_cauchy(trace, m_offset, t, epsilon) is scalar_all_near(
            space, pairs, t, epsilon)


@st.composite
def window_checks(draw):
    """A window length `back` + 1 and nearness per pair of points 0 .. m-1:
    seeded noise at a drawn density, optionally overruled by every pair
    from a drawn point on being near."""
    back = draw(st.integers(0, 7))
    m = draw(st.integers(1, 40))
    density = draw(st.sampled_from((0.0, 0.0, 0.05, 0.5, 0.95, 1.0)))
    near_from = draw(st.none() | st.integers(0, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    table = rng.random((m, m)) < density
    if near_from is not None:
        table[near_from:, near_from:] = True
    return back, table


@settings(max_examples=500, deadline=None)
@given(window_checks())
def test_near_windows_is_the_pairwise_definition(case):
    back, table = case
    m = len(table)
    windows = [range(max(p - back, 0), p + 1) for p in range(m)]
    expected = [all(table[i, j] for i, j in combinations(w, 2)) for w in windows]
    points = np.arange(m)  # index points, as on a finite domain

    def near(older, newer):  # indexing fails on float indices
        return table[older, newer]

    for split in range(m + 1):  # the tail is the last `back` points before the block
        block = points[split:] if split < m else np.asarray([])  # empty, as Picard's is
        got = _near_windows(near, points[max(split - back, 0):split], block, back)
        assert got.dtype == bool and got.tolist() == expected[split:]


def test_zero_dim_array_orbit_matches_per_step_loop():
    # 0-d arrays are not points: both loops raise at the step that makes one
    space = standard_space(IntervalDomain(0.0, 1.0), *NORMS)
    f = below(0.3, lambda x: np.array(x / 2), lambda x: x / 2)
    config = SolverConfig(epsilon=1e-8, t_grid=(0.1, 1.0), max_iter=1000)
    outcome = _outcome(lambda: picard_iterate(space, f, 1.0, config))
    assert outcome == _outcome(lambda: scalar_picard_iterate(space, f, 1.0, config))
    assert outcome[0] is DomainError and "array(0.125)" in outcome[1]


@pytest.mark.parametrize("image", [True, False])
def test_bool_images_leave_a_finite_domain(image):
    # numpy reads a bool index as a mask: the Picard solver on a finite
    # domain raises the seed-by-seed loop's error at the first step
    space = standard_space(FiniteDomain.line(5), *NORMS)
    f = SelfMap.closure(lambda x: image)
    config = SolverConfig(epsilon=1e-6, t_grid=(0.1, 1.0), seeds=(2, 3))
    expected = (DomainError, f"map closure sends 2 to {image}, outside the domain")
    assert _outcome(lambda: scalar_picard_iterate(space, f, 2, config)) == expected
    assert _outcome(lambda: picard_iterate(space, f, 2, config)) == expected
    with pytest.raises(DomainError) as err:
        solve_fixed_point(space, f, config)
    assert (DomainError, str(err.value)) == expected


# float64 arrays: the interval compares them as one array
ODD_ARRAYS = ([0.5, -0.0, 1.0, 1.0 + 1e-12, 1.0 + 3e-12, -1e-12, -3e-12, 5e-324],
              [math.nan, math.inf, -math.inf, 0.25], [])

# odd points that a numpy conversion would unwrap or reinterpret
ODD_POINTS = ([np.array(0.5)], [np.array(3)], [np.True_, 1], [np.float32(0.5)],
              [Fraction(1, 2)], [True])


INTERVAL_POINTS = [[0.5, 0.25, float("nan")], [0.5, 2, True, 1e400],
                   [10**400, 0.0], ["0.5", 0.5], [(0.5, 0.5)], [1j],
                   ["0.5"], [np.True_, 0.25], ["0.5", np.float32(0.5), np.True_],
                   [], *ODD_POINTS, *map(np.array, ODD_ARRAYS),
                   np.array([0.5, 2.0], dtype=np.float32), np.array([0, 1, 2]),
                   np.array([True, False]), np.array([[0.5, 2.0]]),
                   np.array([0.5, Fraction(1, 2), "0.5", 2.0], dtype=object)]


@pytest.mark.parametrize("points", INTERVAL_POINTS)
def test_interval_contains_array_matches_contains(points):
    domain = IntervalDomain(0.0, 1.0)
    assert domain.contains_array(points).tolist() == [domain.contains(p) for p in points]


def general_contains(domain, p) -> bool:
    """`IntervalDomain.contains` without its exact-float fast path."""
    if not isinstance(p, (numbers.Real, np.bool_)):
        return False
    try:
        v = float(p)
    except OverflowError:
        return False
    return domain.lo - POINT_EQ_TOL <= v <= domain.hi + POINT_EQ_TOL


ANY_POINT = (st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1.0 + 1e-12,
                                            1.0 + 2e-12, -1e-12, -2e-12, 10**400, True, False])
             | st.integers() | st.booleans() | st.text(max_size=3)
             | st.floats().map(np.float64) | st.floats(width=32).map(np.float32)
             | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_))


@settings(max_examples=300, deadline=None)
@given(ANY_POINT, st.sampled_from([(0.0, 1.0), (-1000.0, 1000.0), (0.25, 0.5)]))
def test_interval_contains_fast_path_matches_general(p, bounds):
    domain = IntervalDomain(*bounds)
    assert domain.contains(p) is general_contains(domain, p)


@settings(max_examples=300, deadline=None)
@given(ANY_POINT | st.integers(-3, 12), st.integers(1, 10))
def test_finite_contains_fast_path_matches_general(p, n):
    # the rule without the exact-int fast path
    expected = isinstance(p, (int, np.integer)) and type(p) is not bool and 0 <= int(p) < n
    assert FiniteDomain.line(n).contains(p) is expected


# 1-d integer arrays, compared as one array, with negative entries and
# entries at or past the size; then bool, object, 2-d and float arrays
INT_ARRAYS = [np.array([0, 4, 5, -1, 127, -128, 3]).astype(t)
              for t in (np.int8, np.int16, np.int32, np.int64)]
INT_ARRAYS += [np.array([0, 4, 5, 255, 2]).astype(t)
               for t in (np.uint8, np.uint16, np.uint32, np.uint64)]
INT_ARRAYS += [np.array([2**63 - 1, -2**63, 3]), np.array([2**64 - 1, 2], dtype=np.uint64),
               np.array([], dtype=np.int64), np.array([True, False, True]),
               np.array([1, True, np.int64(3), 2.0, "1", np.array(2), 10**30, -1], dtype=object),
               np.array([[1, 2], [3, 7]]), np.array([1.0, 2.0, 7.0])]

FINITE_POINTS = [[0, 4, 5, -1], [1, True, np.int64(3)], [1, 2.0], [np.True_, np.False_],
                 [10**30, 1], [(1, 2)], ["1"], [2**63, -10**400, 4], [], *ODD_POINTS, *INT_ARRAYS]


@pytest.mark.parametrize("points", FINITE_POINTS)
def test_finite_contains_array_matches_contains(points):
    domain = FiniteDomain.line(5)
    assert domain.contains_array(points).tolist() == [domain.contains(p) for p in points]


def test_finite_contains_array_past_the_dtype_range():
    # a domain larger than int8 or uint8 holds, against arrays of those types
    domain = FiniteDomain.line(300)
    for points in (np.array([0, 127, -128, -1], dtype=np.int8), np.array([0, 255], np.uint8)):
        assert domain.contains_array(points).tolist() == [domain.contains(p) for p in points]


@pytest.mark.parametrize("points", INTERVAL_POINTS + FINITE_POINTS)
def test_interval_contains_cases_match_general(points):
    domain = IntervalDomain(0.0, 1.0)
    assert [domain.contains(p) for p in points] == [general_contains(domain, p) for p in points]


# ---------------------------------------------------------------------------
# The trace CSV against the per-value formatter
# ---------------------------------------------------------------------------


def g17(values) -> list[str]:
    """The fields `_FieldWriter` lays out for the values, one string per
    value, gap bytes deleted."""
    x = np.array(values, dtype=np.float64)
    writer = _FieldWriter(len(x))
    writer.x[:] = x
    slots = writer.render(len(x))
    assert slots.shape == (len(x), 32)
    fields = [bytes(s[s != 0xFF]).decode() for s in slots]
    assert all(f.endswith(",") for f in fields)
    return [f[:-1] for f in fields]


def near_powers_of_ten() -> list[float]:
    tens = [float(f"1e{k}") for k in range(-324, 309)]
    return [y for x in tens for y in (x, np.nextafter(x, 0.0), np.nextafter(x, math.inf))]


# exact halfway cases at 17 digits: a + 0.25 on [1e15, 2**51) and a + k/8,
# k odd, on [1e14, 1e15) have 18 digits, the last a 5
halfway = (st.integers(10**15, 2**51 - 1).flatmap(
               lambda a: st.sampled_from((a + 0.25, a + 0.75)))
           | st.integers(10**14, 10**15 - 1).flatmap(
               lambda a: st.sampled_from([a + k / 8 for k in (1, 3, 5, 7)])))
# integral doubles, as the n column holds them, and values >= 10 with a
# fraction, whose "." follows digit E >= 1
integral = st.integers(0, 2**53).map(float)
fractional = st.integers(10, 10**15 - 1).flatmap(
    lambda a: st.sampled_from([a + k / 8 for k in range(1, 8)]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats() | halfway | st.sampled_from(near_powers_of_ten()) | integral
                | fractional, min_size=1, max_size=64),
       st.lists(st.booleans(), min_size=64, max_size=64))
def test_g17_matches_format(values, negate):
    values = [-v if flip else v for v, flip in zip(values, negate)]
    assert g17(values) == [format(v, ".17g") for v in values]


# 17-digit significands a * 10**j with a not a multiple of 10: the last
# nonzero digit is digit 16 - j, so the trailing zero runs end inside every
# four-digit group and at each group boundary (j = 4, 8 and 12)
trailing_zeros = st.tuples(st.integers(0, 16), st.integers(-11, 16), st.booleans()).flatmap(
    lambda c: st.integers(10**(16 - c[0]), 10**(17 - c[0]) - 1).filter(lambda a: a % 10).map(
        lambda a: float(f"{'-' if c[2] else ''}{a}e{c[1] - 16 + c[0]}")))


@settings(max_examples=200, deadline=None)
@given(st.lists(trailing_zeros, min_size=1, max_size=64))
def test_g17_matches_format_on_trailing_zero_runs(values):
    assert g17(values) == [format(v, ".17g") for v in values]


def test_g17_matches_format_on_every_trailing_zero_run():
    # each j, sign and E in [-11, 16] once, and the exact dyadic fractions
    # m / 2**p, whose 17 digits end in zeros below E = 0 as well
    values = [float(f"{sign}{'12345678912345678'[:17 - j]}e{e - 16 + j}")
              for j in range(17) for e in range(-11, 17) for sign in ("", "-")]
    values += [sign * m / 2.0**p for m in (1, 3, 5, 7, 99, 12345) for p in range(60)
               for sign in (1.0, -1.0)]
    assert g17(values) == [format(v, ".17g") for v in values]


def test_g17_matches_format_on_wide_samples():
    rng = np.random.default_rng(8)
    values = np.concatenate([
        rng.random(5000),
        1.0 - rng.random(1000) * 1e-12,
        10.0 ** rng.uniform(-12, 17, 5000) * rng.choice([-1.0, 1.0], 5000),
        rng.integers(0, 2**64, 5000, dtype=np.uint64).view(np.float64),
        near_powers_of_ten(),
        rng.integers(0, 2**53, 5000).astype(np.float64),
        (rng.integers(10, 10**15, 5000) + rng.integers(1, 8, 5000) / 8) * rng.choice([-1, 1], 5000),
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-11,
         np.nextafter(1e-11, 1.0), 1e17, np.nextafter(1e17, 0.0), math.inf, -math.inf, math.nan],
    ])
    assert g17(values) == [format(v, ".17g") for v in values.tolist()]


@pytest.mark.parametrize("skew", [-0.5, 0.5])
def test_g17_corrects_its_exponent_estimate(skew, monkeypatch):
    # log10 one off on about half the values: each is redone at E -/+ 1
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x, out: np.add(log10(x, out=out), skew, out=out))
    values = np.concatenate([10.0 ** np.random.default_rng(3).uniform(-11, 17, 2000),
                             near_powers_of_ten()])
    assert g17(values) == [format(v, ".17g") for v in values.tolist()]


def _trace(space, points, columns, t_grid=(0.1, 1.0)):
    """A trace with the given points and one (mu, nu) column pair per t."""
    return IterationTrace(space=space, map=SelfMap.identity(), t_grid=t_grid, points=points,
                          mu_diag={t: mu for t, (mu, _) in zip(t_grid, columns)},
                          nu_diag={t: nu for t, (_, nu) in zip(t_grid, columns)},
                          stop_reason="max_iter")


SYMMETRIC = standard_space(IntervalDomain(-1.0, 1.0), *NORMS)
ODD_VALUES = [0.0, -0.0, 1e-12, -1e-12, 5e-324, -2.2250738585072014e-308, 1e-11,
              np.nextafter(1e-11, 1.0), 0.5, -1.0, 1e-5, 1e-4, math.nan, math.inf]


@pytest.mark.parametrize("seed", [1.0, -0.7, 0.3])
@pytest.mark.parametrize("t_grid", [(0.1, 1.0, 10.0), (1e-9, 1e20)])
def test_csv_matches_scalar_on_alternating_orbits(seed, t_grid):
    config = SolverConfig(epsilon=1e-12, t_grid=t_grid, max_iter=500)
    trace = picard_iterate(SYMMETRIC, SelfMap.scale(-0.5), seed, config)
    assert min(trace.points) < 0.0 < max(trace.points)
    assert trace_to_csv(trace) == scalar_trace_to_csv(trace)


def test_csv_matches_scalar_on_zeros_tiny_and_subnormal_values():
    points = ODD_VALUES[:-2] + [0.25, -0.0]
    rows = len(points) - 1
    trace = _trace(SYMMETRIC, points, [(ODD_VALUES[:rows], ODD_VALUES[::-1][:rows]),
                                       (ODD_VALUES[1:rows + 1], [-v for v in ODD_VALUES[:rows]])])
    assert trace_to_csv(trace) == scalar_trace_to_csv(trace)


@pytest.mark.parametrize("labels", [[str(i) for i in range(6)], ["", "β", "a b", "x", "", "ü"]])
def test_csv_matches_scalar_on_label_domains(labels):
    metric = [[abs(i - j) / 5 for j in range(6)] for i in range(6)]
    space = standard_space(FiniteDomain(labels, metric), *NORMS)
    config = SolverConfig(epsilon=1e-6, t_grid=(0.5, 1.0), max_iter=50)
    trace = picard_iterate(space, SelfMap.table([1, 2, 3, 4, 5, 5]), 0, config)
    assert trace.iterations >= 5
    assert trace_to_csv(trace) == scalar_trace_to_csv(trace)
    trace = _trace(space, [5, 1, 0, 1, 4, 3, 2], [(ODD_VALUES[:6], ODD_VALUES[6:12])] * 2)
    assert trace_to_csv(trace) == scalar_trace_to_csv(trace)
    # a 2-cycle runs to max_iter: its labels span three chunks (a row is n,
    # the label and four diagnostics: 6 fields)
    rows = _CSV_CHUNK_FIELDS // 6
    space = standard_space(FiniteDomain.line(5), *NORMS)
    steps = 2 * rows + rows // 5
    trace = picard_iterate(space, SelfMap.table([1, 0, 2, 3, 4]), 0, replace(config, max_iter=steps))
    assert trace.stop_reason == "max_iter" and trace.iterations == steps
    assert trace_to_csv(trace) == scalar_trace_to_csv(trace)


@pytest.mark.parametrize("domain", [IntervalDomain(0.0, 1.0), FiniteDomain.line(4)])
def test_csv_matches_scalar_on_a_zero_step_trace(domain):
    space = crisp_threshold_space(domain, *NORMS)
    config = SolverConfig(epsilon=1e-6, t_grid=(0.5, 2.0), max_iter=50)
    seed = 1.0 if isinstance(domain, IntervalDomain) else 3
    trace = picard_iterate(space, SelfMap.constant(domain.anchor()), seed, config)
    assert trace.stop_reason == "precondition_failed" and trace.iterations == 0
    assert trace_to_csv(trace) == scalar_trace_to_csv(trace)


# rows per chunk on an interval domain with a three-value t grid (n, x_n and
# six diagnostics: 8 fields); the boundaries of 1,024-row chunks (8,192
# fields) stay covered beside those of the current chunk size
CHUNK_ROWS = _CSV_CHUNK_FIELDS // 8
BOUNDARIES = (1024, CHUNK_ROWS)


@pytest.mark.parametrize("rows", sorted({r for c in BOUNDARIES
                                         for r in (2 * c - 1, 2 * c, 2 * c + 1, 6 * c)}))
def test_csv_matches_scalar_across_chunks(rows):
    rng = np.random.default_rng(rows)

    def column():
        return (10.0 ** rng.uniform(-14, 18, rows) * rng.choice([-1.0, 1.0], rows)).tolist()

    trace = _trace(SYMMETRIC, rng.uniform(-1.0, 1.0, rows + 1).tolist(),
                   [(column(), column()) for _ in range(3)], t_grid=(0.1, 1.0, 10.0))
    text = trace_to_csv(trace)
    assert text == scalar_trace_to_csv(trace)
    assert text.count("\n") == rows + 2


def _random_trace(space, rows, t_grid=(0.1, 1.0, 10.0), seed=0):
    """A trace of `rows` diagnostic rows of random values."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, rows + 1).tolist() if isinstance(
        space.domain, IntervalDomain) else rng.integers(0, space.domain.size, rows + 1).tolist()
    return _trace(space, points, [(rng.random(rows), rng.random(rows)) for _ in t_grid], t_grid)


LABELLED = standard_space(FiniteDomain(["a", "", "β", "long label " * 5], [[abs(i - j) for j in range(4)]
                                                                          for i in range(4)]), *NORMS)


@pytest.mark.parametrize("space", [SYMMETRIC, LABELLED], ids=["interval", "labels"])
@pytest.mark.parametrize("rows", sorted({1, 9, 10, 11, 99, 100, 101, 9_999, 10_000, 10_001}
                                         | {r for c in BOUNDARIES for r in (c - 1, c, c + 1)}))
def test_csv_n_column_across_digit_counts(space, rows):
    # the n field widens at 10, 100 and 10,000 rows; the final row's n is rows
    trace = _random_trace(space, rows, seed=rows)
    assert trace_to_csv(trace) == scalar_trace_to_csv(trace)


def test_n_column_beyond_the_default_max_iter():
    # n is a float column: .17g spells an integral double below 1e16 as %d
    n = np.concatenate([np.arange(10), np.arange(10**7 - 5, 10**7 + 5),
                        np.arange(10**12 - 5, 10**12 + 1)])
    assert g17(n.astype(np.float64)) == ["%d" % v for v in n]


def test_import_builds_no_writer_table():
    # the writer's tables are built on first use, so runs that write no
    # trace never pay for them
    code = ("import ifmkit\nfrom ifmkit import solver\n"
            "print(solver._tables.cache_info().currsize)")
    path = os.pathsep.join(filter(None, [str(Path(ifmkit.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert run.stdout == "0\n"
    solver._tables()
    assert solver._tables.cache_info().currsize == 1


def test_diagnostics_are_float64_columns():
    space = standard_space(IntervalDomain(0.0, 1.0), *NORMS)
    config = SolverConfig(epsilon=1e-8, t_grid=(0.1, 1.0), max_iter=100)
    trace = picard_iterate(space, SelfMap.scale(0.5), 1.0, config)
    crisp = crisp_threshold_space(IntervalDomain(0.0, 1.0), *NORMS)
    failed = picard_iterate(crisp, SelfMap.constant(0.0), 1.0, config)
    assert failed.stop_reason == "precondition_failed"
    for tr in (trace, failed):
        for column in [*tr.mu_diag.values(), *tr.nu_diag.values()]:
            assert isinstance(column, np.ndarray) and column.dtype == np.float64
            assert column.shape == (tr.iterations,)


def test_writer_buffers_stay_within_their_bytes():
    # one `_FieldWriter`'s work block and slot buffer stay within the
    # 1,769,472 bytes they took at 8,192 fields per chunk; a write of more
    # than one chunk adds a second slot buffer and the mask, 2.41 MiB in all
    # (test_pipeline_buffers_stay_within_their_bytes bounds the whole write)
    writer = _FieldWriter(_CSV_CHUNK_FIELDS)
    assert writer.block.nbytes + len(writer.raw) <= 1_769_472


def test_csv_write_faults_do_not_grow_with_chunk_count(tmp_path):
    # a write's buffers (2.41 MiB at 2,048 rows a chunk: the work block,
    # its narrow arrays in the bytes of the wide ones, two slot buffers and
    # the mask) are allocated once per trace, so a second write of a
    # 12-chunk trace takes about the page faults of a 3-chunk one
    resource = pytest.importorskip("resource")
    space = standard_space(IntervalDomain(0.0, 1.0), *NORMS)
    path = tmp_path / "trace.csv"

    def faults(chunks):
        config = SolverConfig(epsilon=1e-12, t_grid=(0.1, 1.0, 10.0), max_iter=chunks * CHUNK_ROWS)
        trace = picard_iterate(space, SelfMap.scale(0.9999), 1.0, config)
        assert trace.stop_reason == "max_iter"
        write_trace_csv(trace, path)
        counts = []
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            write_trace_csv(trace, path)
            counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return min(counts)

    few, many = faults(3), faults(12)
    # the slack absorbs a stray fault; per-chunk faulting takes thousands
    assert many <= 1.25 * few + 100


# ---------------------------------------------------------------------------
# The pipelined writer: the caller lays out chunk k + 1 while one worker
# thread deletes chunk k's gap bytes and writes it
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space", [SYMMETRIC, LABELLED], ids=["interval", "labels"])
@pytest.mark.parametrize("rows", [100, 3 * CHUNK_ROWS + 1], ids=["one-chunk", "four-chunks"])
def test_written_file_matches_scalar(tmp_path, space, rows):
    # a label row is n, two label slots and six diagnostics: 1,820 rows a
    # chunk, so 6,145 rows take four chunks on either domain
    trace = _random_trace(space, rows, seed=rows)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert path.read_bytes() == scalar_trace_to_csv(trace).encode()


class _FailingFile:
    """A binary file whose write number `fails` (from 1) raises."""

    def __init__(self, fails: int):
        self.fails, self.writes = fails, 0

    def write(self, data) -> int:
        self.writes += 1
        if self.writes == self.fails:
            raise OSError(28, "No space left on device")
        return len(data)


def _within(seconds: float, call):
    """The error call() raises, or None, run in a daemon thread that must
    end within `seconds`: a writer that waits forever fails the test."""
    raised = []

    def run():
        try:
            call()
        except BaseException as exc:
            raised.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), "the write did not end"
    return raised[0] if raised else None


# the header is write 1 and the first piece of chunk 0 write 2; a chunk of
# 2,048 rows is eight 64 KiB pieces, so write 20 falls in chunk 2; a trace
# of one chunk is written without a worker
@pytest.mark.parametrize("rows, fails", [(100, 2), (6 * CHUNK_ROWS, 1), (6 * CHUNK_ROWS, 2),
                                         (6 * CHUNK_ROWS, 20)])
def test_a_failed_write_reaches_the_caller_and_ends_the_worker(rows, fails):
    trace = _random_trace(SYMMETRIC, rows)
    threads = threading.active_count()
    fh = _FailingFile(fails)
    error = _within(60, lambda: solver._write_csv(trace, fh))
    assert isinstance(error, OSError) and error.strerror == "No space left on device"
    assert fh.writes == fails  # nothing is written after the failure
    assert threading.active_count() == threads


class _CountingFile:
    """A binary file that records `threading.active_count()` at each write."""

    def __init__(self):
        self.counts = []

    def write(self, data) -> int:
        self.counts.append(threading.active_count())
        return len(data)


@pytest.mark.parametrize("rows, workers", [(100, 0), (4 * CHUNK_ROWS, 1), (6 * CHUNK_ROWS + 1, 1)],
                         ids=["one-chunk", "four-chunks", "seven-chunks"])
def test_a_write_runs_one_worker_thread_past_one_chunk(rows, workers):
    # the header goes out before the worker starts, the worker's chunks while
    # exactly `workers` more threads run, and the caller's last chunk and the
    # final row after the worker is joined
    trace = _random_trace(SYMMETRIC, rows)
    threads = threading.active_count()
    fh = _CountingFile()
    solver._write_csv(trace, fh)
    assert set(fh.counts) == {threads, threads + workers}
    assert fh.counts[0] == fh.counts[-1] == threads
    assert threading.active_count() == threads


def test_a_failed_layout_ends_the_worker(tmp_path):
    trace = _random_trace(SYMMETRIC, 6 * CHUNK_ROWS)
    render, calls = _FieldWriter.render, []

    def failing(writer, size):
        calls.append(size)
        if len(calls) == 3:
            raise MemoryError("layout")
        return render(writer, size)

    threads = threading.active_count()
    with mock.patch.object(_FieldWriter, "render", failing):
        error = _within(60, lambda: write_trace_csv(trace, tmp_path / "trace.csv"))
    assert isinstance(error, MemoryError)
    assert threading.active_count() == threads
    # the two chunks laid out before the failure were written whole
    written = (tmp_path / "trace.csv").read_text()
    assert written == "".join(scalar_trace_to_csv(trace).splitlines(True)[:1 + 2 * CHUNK_ROWS])


def test_concurrent_writes_keep_their_chunks_in_order():
    # three writes at once, each with its worker: six threads on however
    # many CPUs, switching every 10 us; a buffer handed back before its
    # chunk was written, or written twice, changes some text
    traces = [_random_trace(space, 3 * CHUNK_ROWS + 1, seed=seed)
              for seed, space in enumerate([SYMMETRIC, LABELLED, SYMMETRIC])]
    texts = [None] * len(traces)

    def write(i):
        texts[i] = trace_to_csv(traces[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writers = [threading.Thread(target=write, args=(i,), daemon=True) for i in range(len(traces))]
        for w in writers:
            w.start()
        for w in writers:
            w.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in writers)
    assert texts == [scalar_trace_to_csv(tr) for tr in traces]


def test_pipeline_buffers_stay_within_their_bytes(tmp_path):
    # what a trace write adds to peak memory: the work block (950,272 bytes
    # at 16,384 fields a chunk), two 524,288-byte slot buffers and the
    # worker's 524,288-byte mask, then 8 bytes a row for the x_n column and
    # at most 256 KiB for a 64 KiB piece of text and the layout's temporaries
    tracemalloc = pytest.importorskip("tracemalloc")
    rows = 12 * CHUNK_ROWS
    trace = _random_trace(SYMMETRIC, rows)
    write_trace_csv(trace, tmp_path / "trace.csv")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_trace_csv(trace, tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 950_272 + 3 * 524_288 + 8 * (rows + 1) + (256 << 10)
