"""The array contraction scan against the scalar loop it replaced, byte for
byte.

`scalar_contraction_check` is the pair-by-pair loop the contraction checks
used to run, with scalar side predicates: one grade call per (pair, t,
side) and one Python comparison each.  It stays here as the reference the
array scan must match in every count, witness and serialized byte.  The
scalar predicates are written as "not (the condition that must hold)" and
treat a NaN grade at either end as a violation.  `scalar_first_failing_step`
is the per-step loop the sequence predicates used to run over a trace's
diagnostics; they now check whole columns and must give the same verdict
and step.  `masked_unless` is `_unless` on arrays with a mask, a gather
and a scatter on every call; `_unless` skips them when no entry is dead,
and must give the same bits either way.  The Picard reference is in
`test_picard_reference.py`.
"""

import dataclasses
import json
import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifmkit import (
    EXHAUSTIVE,
    NON_ARCHIMEDEAN,
    RANDOM,
    FiniteDomain,
    IFSpace,
    IntervalDomain,
    IterationTrace,
    PreconditionError,
    PsiPhiPair,
    SamplerConfig,
    SelfMap,
    TConorm,
    TNorm,
    check_k_contractive,
    check_psi_phi_contractive,
    crisp_threshold_space,
    is_contractive_sequence,
    is_k_contractive_sequence,
    pair_from_k,
    phi_from_k,
    psi_from_k,
    standard_space,
)
from ifmkit import sampling
from ifmkit.contraction import (
    CHECK_TOL,
    ContractionReport,
    ContractionWitness,
    _k_side,
    _minimize_contraction_witness,
    _psi_phi_side,
    _unless,
)
from ifmkit.sampling import MAX_WITNESSES, draw_tuples
from ifmkit.spaces import array_form

# ---------------------------------------------------------------------------
# The scalar references, kept verbatim
# ---------------------------------------------------------------------------


def scalar_psi_phi_side(pair, side, g, g_f):
    if side == "mu":
        if g <= 0.0:
            return math.isnan(g_f), 0.0, g
        lhs = pair.psi(g_f)
        return not (lhs >= g - CHECK_TOL and not math.isnan(g_f)), lhs, g
    if g >= 1.0:
        return math.isnan(g_f), 1.0, g
    lhs = pair.phi(g_f)
    return not (lhs <= g + CHECK_TOL and not math.isnan(g_f)), lhs, g


def scalar_k_side(k, side, g, g_f):
    if g <= 0.0 or g_f <= 0.0:
        return math.isnan(g) or math.isnan(g_f), 0.0, 0.0
    lhs = 1.0 / g_f - 1.0
    rhs = (k if side == "mu" else 1.0 / k) * (1.0 / g - 1.0)
    return not (lhs <= rhs + CHECK_TOL * max(1.0, abs(lhs), abs(rhs))), lhs, rhs


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
    chunk_cells = draw(st.sampled_from((1, 7, 64, sampling._CHUNK_CELLS)))
    return space, f, sampler, condition, k, chunk_cells


@settings(max_examples=200, deadline=None)
@given(scans())
def test_array_scan_matches_scalar_reference(case):
    space, f, sampler, condition, k, chunk_cells = case
    with mock.patch.object(sampling, "_CHUNK_CELLS", chunk_cells):
        array, scalar = both_scans(space, f, sampler, condition, k)
    assert array == scalar


@pytest.mark.parametrize("condition", ["psi-phi", "k", "guarded"])
@pytest.mark.parametrize("finite", [False, True], ids=["interval", "line9"])
@pytest.mark.parametrize("kind", sorted(SPACES))
def test_chunked_scan_matches_scalar_reference(kind, finite, condition, monkeypatch):
    # 900 random pairs, or the 81 exhaustive pairs of line(9), in chunks of
    # 5 pairs: the witnesses of the violating cases span many chunks
    monkeypatch.setattr(sampling, "_CHUNK_CELLS", 15)
    domain = FiniteDomain.line(9) if finite else IntervalDomain(0.0, 1.0)
    space = SPACES[kind](domain)
    f = SelfMap.identity()
    sampler = SamplerConfig(EXHAUSTIVE if finite else RANDOM, 900, (0.25, 1.0, 4.0), seed=5)
    array, scalar = both_scans(space, f, sampler, condition, 0.5)
    assert array == scalar
    if kind == "standard" and condition != "k":
        assert json.loads(array)["violation_count"] > MAX_WITNESSES


@pytest.mark.parametrize("finite", [False, True], ids=["interval", "line9"])
def test_replaced_nu_is_the_one_scanned(finite):
    # mu keeps the standard space's joint form, which must not grade the
    # replaced nu: the identity map violates the nu side of the standard
    # space, and never that of a zero nu
    domain = FiniteDomain.line(9) if finite else IntervalDomain(0.0, 1.0)
    space = dataclasses.replace(standard_space(domain, *NORMS), nu=lambda x, y, t: 0.0)
    sampler = SamplerConfig(EXHAUSTIVE if finite else RANDOM, 50, (0.25, 1.0, 4.0), seed=3)
    array, scalar = both_scans(space, SelfMap.identity(), sampler, "psi-phi", 0.5)
    assert array == scalar
    witnesses = json.loads(array)["witnesses"]
    assert witnesses and {w["side"] for w in witnesses} == {"mu"}


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


def masked_unless(dead, fn, arg, fallback):
    """`_unless` on arrays as it was: a mask, a gather and a scatter on
    every call, whether or not any entry is dead."""
    out = np.full(dead.shape, fallback)
    live = ~dead
    out[live] = array_form(fn, 1)(arg[live])
    return out


# array forms that return float64 (new, or the argument itself), float32,
# integers, a scalar, a length-one array or a list; None for a control
# without an array form, called element-wise
FORMS = {
    "float64": lambda s: s * 0.5 + 0.25,
    "itself": lambda s: s,
    "float32": lambda s: (s / 3).astype(np.float32),
    "int": lambda s: (s > 0.5).astype(np.int64) - 7,
    "scalar": lambda s: 0.75,
    "length-one": lambda s: np.full(1, 0.125),
    "list": lambda s: list(s * 2),
    "element-wise": None,
}


@st.composite
def masked_args(draw):
    """An argument array and a dead mask of its shape, all live about half
    the time: the unmasked route, else the masked one."""
    shape = draw(st.sampled_from(((0,), (1,), (7,), (3, 5), (1, 1), (2, 0), ())))
    size = math.prod(shape)
    arg = draw(st.lists(SPECIAL | st.floats(-1.0, 2.0), min_size=size, max_size=size))
    dead = draw(st.just([False] * size) | st.lists(st.booleans(), min_size=size, max_size=size))
    return np.array(arg, dtype=np.float64).reshape(shape), np.array(dead, dtype=bool).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(masked_args(), st.sampled_from(sorted(FORMS)), st.sampled_from((0.0, 1.0)))
# one value for the one dead entry: the masked route broadcasts it to no entry
@example((np.array([0.5]), np.array([True])), "length-one", 0.0)
def test_unless_routes_match_the_masked_reference(case, form, fallback):
    arg, dead = case
    seen = []

    def control(s):  # records what reaches it: an array, or one Python float at a time
        seen.append(np.array(s, dtype=np.float64).ravel())
        return 1.0 / (2.0 + s) if FORMS[form] is None else FORMS[form](s)

    if FORMS[form] is not None:
        control.array = control
    with np.errstate(all="ignore"):
        got = _unless(dead, control, arg, fallback)
        calls, seen[:] = list(seen), []
        expected = masked_unless(dead, control, arg, fallback)
    assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == dead.shape
    assert got.tobytes() == expected.tobytes()
    # the control sees exactly the live entries, in row-major order
    live = np.concatenate(calls) if calls else np.empty(0)
    assert live.tobytes() == arg[~dead].tobytes()


def _value(fn, *args):
    """repr of the result (NaN-safe), or the type of the exception raised."""
    try:
        return repr(fn(*args))
    except ArithmeticError as exc:  # the Moebius controls at g_f = 1/(1-k)
        return type(exc)


# ---------------------------------------------------------------------------
# The sequence predicates against the per-step loop
# ---------------------------------------------------------------------------


def scalar_first_failing_step(trace, side_check):
    """The per-step loop of the sequence predicates, kept verbatim as the
    reference: one side check per (n, t, side) on two diagnostic values."""
    if len(trace.points) < 3:
        raise PreconditionError(
            f"sequence predicates need at least 3 trace points, got {len(trace.points)}")
    for n in range(len(trace.points) - 2):
        for t in trace.t_grid:
            for side, diag in (("mu", trace.mu_diag[t]), ("nu", trace.nu_diag[t])):
                if side_check(side, diag[n], diag[n + 1])[0]:
                    return False, n
    return True, None


GRADES = st.sampled_from((0.0, 1.0, math.nan)) | st.floats(0.0, 1.0)


@st.composite
def graded_traces(draw):
    """Traces whose diagnostics are random grades, or an exactly contractive
    orbit (mu = 1, nu = 0) with a few zero, one or NaN grades put in."""
    steps = draw(st.integers(1, 40))
    grid = (0.1, 1.0, 10.0)[:draw(st.integers(1, 3))]

    def column(flat):
        if draw(st.booleans()):
            return draw(st.lists(GRADES, min_size=steps + 1, max_size=steps + 1))
        values = [flat] * (steps + 1)
        for _ in range(draw(st.integers(0, 3))):
            values[draw(st.integers(0, steps))] = draw(st.sampled_from((0.0, 1.0, math.nan)))
        return values

    return IterationTrace(
        space=standard_space(IntervalDomain(0.0, 1.0), TNorm.product(),
                             TConorm.probabilistic_sum()),
        map=SelfMap.identity(), t_grid=grid, points=[0.0] * (steps + 2),
        mu_diag={t: np.array(column(1.0)) for t in grid},
        nu_diag={t: np.array(column(0.0)) for t in grid}, stop_reason="max_iter")


@settings(max_examples=300, deadline=None)
@given(graded_traces(), st.sampled_from((0.2, 0.5, 0.9)))
def test_sequence_predicates_match_per_step_loop(trace, k):
    as_lists = dataclasses.replace(
        trace, mu_diag={t: c.tolist() for t, c in trace.mu_diag.items()},
        nu_diag={t: c.tolist() for t, c in trace.nu_diag.items()})
    pair = pair_from_k(k)
    assert is_contractive_sequence(trace, pair) == scalar_first_failing_step(
        as_lists, partial(_psi_phi_side, pair))
    assert is_k_contractive_sequence(trace, k) == scalar_first_failing_step(
        as_lists, partial(_k_side, k))
