"""The array contraction scan and the batched Picard diagnostics against the
scalar loops they replaced, byte for byte.

`scalar_contraction_check` is the pair-by-pair loop the contraction checks
used to run, with the scalar side predicates of that time: one grade call
per (pair, t, side) and one Python comparison each.  `scalar_picard_iterate`
is the Picard loop that graded every step's diagnostics as it went.  Both
stay here as the references the array paths must match in every count,
witness, diagnostic and serialized byte.
"""

import json
import math
from functools import partial
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifmkit import (
    EXHAUSTIVE,
    NON_ARCHIMEDEAN,
    RANDOM,
    FiniteDomain,
    IFSpace,
    IntervalDomain,
    PsiPhiPair,
    SamplerConfig,
    SelfMap,
    SolverConfig,
    TConorm,
    TNorm,
    check_k_contractive,
    check_psi_phi_contractive,
    crisp_threshold_space,
    pair_from_k,
    picard_iterate,
    phi_from_k,
    psi_from_k,
    standard_space,
    trace_to_csv,
)
from ifmkit import contraction
from ifmkit.contraction import (
    CHECK_TOL,
    MAX_WITNESSES,
    ContractionReport,
    ContractionWitness,
    _k_side,
    _minimize_contraction_witness,
    _psi_phi_side,
)
from ifmkit.sampling import draw_tuples
from ifmkit.solver import IterationTrace, _all_near

# ---------------------------------------------------------------------------
# The scalar references, kept verbatim
# ---------------------------------------------------------------------------


def scalar_psi_phi_side(pair, side, g, g_f):
    if side == "mu":
        if g <= 0.0:
            return False, 0.0, g
        lhs = pair.psi(g_f)
        return lhs < g - CHECK_TOL, lhs, g
    if g >= 1.0:
        return False, 1.0, g
    lhs = pair.phi(g_f)
    return lhs > g + CHECK_TOL, lhs, g


def scalar_k_side(k, side, g, g_f):
    if g <= 0.0 or g_f <= 0.0:
        return False, 0.0, 0.0
    lhs = 1.0 / g_f - 1.0
    rhs = (k if side == "mu" else 1.0 / k) * (1.0 / g - 1.0)
    return lhs > rhs + CHECK_TOL * max(1.0, abs(lhs), abs(rhs)), lhs, rhs


def scalar_contraction_check(space, f, sampler, condition, side_check):
    """The scalar scan loop, kept verbatim as the reference."""
    pairs = draw_tuples(space.domain, sampler, 2)
    t_grid = sampler.t_grid
    t_target = t_grid[len(t_grid) // 2]
    sides = (("mu", space.mu), ("nu", space.nu))
    violations = 0
    raw_witnesses = []
    for x, y in pairs:
        fx, fy = f(x), f(y)
        for t in t_grid:
            for side, grade in sides:
                bad, lhs, rhs = side_check(side, grade(x, y, t), grade(fx, fy, t))
                if bad:
                    violations += 1
                    if len(raw_witnesses) < MAX_WITNESSES:
                        raw_witnesses.append(ContractionWitness(side, x, y, t, lhs, rhs))

    witnesses = [
        _minimize_contraction_witness(space, f, side_check, w, t_target)
        for w in raw_witnesses
    ]
    return ContractionReport(
        condition=condition,
        space_name=space.name,
        map_name=f.name,
        t_grid=t_grid,
        samples_checked=len(pairs),
        violation_count=violations,
        witnesses=witnesses,
        domain=space.domain,
    )


def scalar_picard_iterate(space, f, x0, config):
    """The Picard loop with per-step diagnostics, kept verbatim."""
    domain = space.domain
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
        if _all_near(space, combinations(points[-window:], 2), t_min, config.epsilon):
            stop_reason = "converged"
            break
    return IterationTrace(
        space=space, map=f, t_grid=grid, points=points,
        mu_diag=mu_diag, nu_diag=nu_diag, stop_reason=stop_reason,
    )


# ---------------------------------------------------------------------------
# Spaces, maps and control pairs
# ---------------------------------------------------------------------------

NORMS = (TNorm.product(), TConorm.probabilistic_sum())


def nan_space(domain):
    """Standard grades, except a NaN mu on pairs further apart than 0.5; no
    array forms, so every grade is a scalar call."""
    dist = domain.distance

    def mu(x, y, t):
        d = dist(x, y)
        return math.nan if d > 0.5 else t / (t + d)

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


def guarded_pair(k):
    """The from_k controls behind range guards, without array forms: psi
    raises outside (0, 1] and phi outside [0, 1)."""
    psi, phi = psi_from_k(k), phi_from_k(k)

    def guarded_psi(s):
        if not 0.0 < s <= 1.0:
            raise ValueError(f"psi called at {s!r}")
        return psi(s)

    def guarded_phi(s):
        if not 0.0 <= s < 1.0:
            raise ValueError(f"phi called at {s!r}")
        return phi(s)

    return PsiPhiPair(guarded_psi, guarded_phi)


def interval_maps():
    return (SelfMap.scale(0.5), SelfMap.scale(0.9), SelfMap.identity(),
            SelfMap.constant(0.25), SelfMap.affine_clamped(-0.8, 0.9, 0.0, 1.0),
            SelfMap.affine_clamped(3.0, -1.0, 0.0, 1.0),  # clamps at both ends
            SelfMap.closure(lambda x: x * x, name="square"))


def finite_maps(n, images, c):
    return (SelfMap.table(images), SelfMap.identity(), SelfMap.constant(c),
            SelfMap.closure(lambda i: (3 * i + 1) % n, name="affine-mod"))


def checks(condition, k):
    """(check function, scalar side predicate)."""
    if condition == "k":
        return partial(check_k_contractive, k=k), partial(scalar_k_side, k)
    pair = pair_from_k(k) if condition == "psi-phi" else guarded_pair(k)
    return partial(check_psi_phi_contractive, pair=pair), partial(scalar_psi_phi_side, pair)


def _outcome(run):
    """The serialized report, or the type of the exception raised."""
    try:
        return json.dumps(run().to_dict(), indent=2)
    except Exception as exc:  # noqa: BLE001  compared across both paths
        return type(exc)


def both_scans(space, f, sampler, condition, k):
    check, scalar_side = checks(condition, k)
    name = "k" if condition == "k" else "psi-phi"
    array = _outcome(lambda: check(space, f, sampler=sampler))
    scalar = _outcome(
        lambda: scalar_contraction_check(space, f, sampler, name, scalar_side))
    return array, scalar


# ---------------------------------------------------------------------------
# The contraction scan
# ---------------------------------------------------------------------------


@st.composite
def scans(draw):
    if draw(st.booleans()):
        n = draw(st.integers(2, 9))
        domain = FiniteDomain.line(n)
        images = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        f = draw(st.sampled_from(finite_maps(n, images, draw(st.integers(0, n - 1)))))
        mode = draw(st.sampled_from((EXHAUSTIVE, RANDOM)))
    else:
        domain = IntervalDomain(0.0, 1.0)
        f = draw(st.sampled_from(interval_maps()))
        mode = RANDOM
    space = SPACES[draw(st.sampled_from(sorted(SPACES)))](domain)
    grid = draw(st.lists(st.sampled_from((0.1, 0.5, 1.0, 2.0, 10.0))
                         | st.floats(0.01, 20.0), min_size=1, max_size=4))
    sampler = SamplerConfig(mode, draw(st.integers(1, 80)), tuple(grid),
                            seed=draw(st.integers(0, 2**16)))
    condition = draw(st.sampled_from(("psi-phi", "k", "guarded")))
    k = draw(st.sampled_from((0.2, 0.4, 0.5, 0.8)))
    chunk_cells = draw(st.sampled_from((1, 7, 64, contraction._CHUNK_CELLS)))
    return space, f, sampler, condition, k, chunk_cells


@settings(max_examples=200, deadline=None)
@given(scans())
def test_array_scan_matches_scalar_reference(case):
    space, f, sampler, condition, k, chunk_cells = case
    with mock.patch.object(contraction, "_CHUNK_CELLS", chunk_cells):
        array, scalar = both_scans(space, f, sampler, condition, k)
    assert array == scalar


@pytest.mark.parametrize("condition", ["psi-phi", "k", "guarded"])
@pytest.mark.parametrize("finite", [False, True], ids=["interval", "line9"])
@pytest.mark.parametrize("kind", sorted(SPACES))
def test_chunked_scan_matches_scalar_reference(kind, finite, condition, monkeypatch):
    # 900 random pairs, or the 81 exhaustive pairs of line(9), in chunks of
    # 5 pairs: the witnesses of the violating cases span many chunks
    monkeypatch.setattr(contraction, "_CHUNK_CELLS", 15)
    domain = FiniteDomain.line(9) if finite else IntervalDomain(0.0, 1.0)
    space = SPACES[kind](domain)
    f = SelfMap.identity()
    sampler = SamplerConfig(EXHAUSTIVE if finite else RANDOM, 900, (0.25, 1.0, 4.0), seed=5)
    array, scalar = both_scans(space, f, sampler, condition, 0.5)
    assert array == scalar
    if kind == "standard" and condition != "k":
        assert json.loads(array)["violation_count"] > MAX_WITNESSES


def test_control_function_called_only_where_antecedent_holds():
    # on the crisp space mu(x, y, t) = 0 for distinct points at t <= 1, where
    # mu(f(x), f(y), t) is 0 as well; psi must not see those entries
    space = crisp_threshold_space(FiniteDomain.line(6), *NORMS)
    f = SelfMap.table([5, 4, 3, 2, 1, 0])
    sampler = SamplerConfig(EXHAUSTIVE, 1, (0.5, 2.0))
    report = check_psi_phi_contractive(space, f, guarded_pair(0.5), sampler)
    assert report.passed and report.samples_checked == 36


def test_report_values_are_plain_python():
    space = standard_space(FiniteDomain.line(7), *NORMS)
    f = SelfMap.table([0, 0, 1, 2, 3, 4, 6])
    report = check_k_contractive(space, f, 0.2, SamplerConfig(EXHAUSTIVE, 1, (0.5, 2.0)))
    assert report.witnesses
    assert type(report.samples_checked) is int and type(report.violation_count) is int
    for w in report.witnesses:
        assert (type(w.x), type(w.y), type(w.t)) == (int, int, float)
        assert type(w.lhs) is float and type(w.rhs) is float


SPECIAL = st.sampled_from((0.0, -0.0, -1.0, 1.0, 2.0, math.nan, math.inf, 5e-324, 1e-300))


@settings(max_examples=300, deadline=None)
@given(side=st.sampled_from(("mu", "nu")), k=st.sampled_from((0.2, 0.5, 0.9)),
       g=SPECIAL | st.floats(0.0, 1.0), g_f=SPECIAL | st.floats(0.0, 1.0))
def test_side_predicates_on_floats_match_scalar_reference(side, k, g, g_f):
    pair = pair_from_k(k)
    for new, old in ((partial(_psi_phi_side, pair), partial(scalar_psi_phi_side, pair)),
                     (partial(_k_side, k), partial(scalar_k_side, k))):
        assert _value(new, side, g, g_f) == _value(old, side, g, g_f)


def _value(fn, *args):
    """repr of the result (NaN-safe), or the type of the exception raised."""
    try:
        return repr(fn(*args))
    except ArithmeticError as exc:  # the Moebius controls at g_f = 1/(1-k)
        return type(exc)


# ---------------------------------------------------------------------------
# Batched Picard diagnostics
# ---------------------------------------------------------------------------


@st.composite
def orbits(draw):
    if draw(st.booleans()):
        n = draw(st.integers(2, 9))
        domain = FiniteDomain.line(n)
        images = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        f = draw(st.sampled_from(finite_maps(n, images, draw(st.integers(0, n - 1)))))
        x0 = draw(st.integers(0, n - 1))
    else:
        domain = IntervalDomain(0.0, 1.0)
        f = draw(st.sampled_from(interval_maps()))
        x0 = draw(st.floats(0.0, 1.0))
    space = SPACES[draw(st.sampled_from(sorted(SPACES)))](domain)
    grid = sorted(set(draw(st.lists(st.sampled_from((0.1, 0.5, 1.0, 2.0, 10.0))
                                    | st.floats(0.01, 20.0), min_size=1, max_size=4))))
    config = SolverConfig(epsilon=draw(st.sampled_from((1e-2, 1e-6, 1e-12))),
                          t_grid=tuple(grid), max_iter=draw(st.integers(1, 120)),
                          cauchy_window=draw(st.integers(2, 6)))
    return space, f, x0, config


def _trace_bytes(trace):
    return (trace.stop_reason, trace.note, repr(trace.points),
            json.dumps([trace.mu_diag, trace.nu_diag]), trace_to_csv(trace))


@settings(max_examples=200, deadline=None)
@given(orbits())
def test_batched_diagnostics_match_per_step_loop(case):
    space, f, x0, config = case
    trace = picard_iterate(space, f, x0, config)
    assert _trace_bytes(trace) == _trace_bytes(scalar_picard_iterate(space, f, x0, config))
    for diag in (trace.mu_diag, trace.nu_diag):
        assert list(diag) == list(config.t_grid)
        for values in diag.values():
            assert len(values) == len(trace.points) - 1 or trace.stop_reason == "precondition_failed"
            assert all(type(v) is float for v in values)
