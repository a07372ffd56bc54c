"""Fixed-point iteration with convergence diagnostics.

`picard_iterate` follows the orbit x0, f(x0), f^2(x0), ... until the
trailing-window Cauchy detector, the stopping rule, fires at the smallest
grid t.  It takes its steps in blocks, 16 steps at first and doubling up
to `_BLOCK_CAP` = 1024: a plain loop of scalar map calls, or, for
`SelfMap.scale` from a float point, one call of its orbit form
``fn.orbit`` (a running product in numpy, the same doubles).  One array
op checks every point of the block against the domain, and the points
inside become one array.  The window check is `detect_m_cauchy`'s rule,
`_near_windows`, over the block and the `cauchy_window` - 1 points before
it: each lag up to that is graded on slices, a step's window is near when
all of its pairs are, and the points past the first such step are dropped.
A block with no near lag-1 pair (most blocks) cannot stop, and its check
ends after that one lag.  The loop then records, at every grid time t,
the consecutive-step grades mu(x_n, x_{n+1}, t) and nu(x_n, x_{n+1}, t),
tabulated in one pass over the block arrays, concatenated, and kept as
float64 arrays.  Both passes grade through `spaces.grade_tables` (a grade
function without an array form is called element-wise).  For a psi-phi
contractive map the mu diagnostic is non-decreasing and the nu diagnostic
non-increasing in n.

`write_trace_csv` and `trace_to_csv` write those arrays, and on an interval
the float64 orbit that `picard_iterate` keeps, without a round trip through
Python lists: chunk by chunk, every number of the rows, n included, is
laid out in one flat run of 32-byte slots, in the process's one set of
work buffers, while a one-thread executor deletes the unused bytes of the
chunk before and writes it; the caller translates and writes the last one.

`edelstein_solve` is the finite-domain engine: orbits on a finite point set
must repeat within |X| steps, so convergence questions reduce to exact
cycle detection.  Cycles of length one are fixed points; longer cycles are
reported, not raised — they certify that the contraction hypothesis fails.
The map's array form runs once over every point (a map without one is
called element-wise on every point); each seed then walks its orbit
through that table of images, and a point whose image is missing or
outside the domain steps through `SelfMap.apply_checked`.
"""

from __future__ import annotations

import io
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import field
from functools import cache, partial

import numpy as np

from .contraction import SelfMap
from .errors import (DomainError, NonConvergenceError, PreconditionError, int_field, items,
                     real_field, record, shown)
from .sampling import MAX_WITNESSES
from .spaces import (FiniteDomain, IFSpace, IntervalDomain, NON_ARCHIMEDEAN, grade_tables,
                     time_grid)

_G_CAUCHY_TAIL_PAIRS = 3
# The Picard loop takes its steps in blocks: the first block has this many
# steps, and each next one doubles, up to the cap.
_FIRST_BLOCK = 16
_BLOCK_CAP = 1024


@record()
class SolverConfig:
    """The solver's settings, each checked, as a plain Python value (not the seeds)."""

    epsilon: float          # Cauchy threshold in (0, 1)
    t_grid: tuple[float, ...]
    max_iter: int = 10**6
    point_tol: float = 1e-8
    seeds: tuple = ()
    cauchy_window: int = 5  # trailing window for the stopping rule

    def __post_init__(self):
        set_ = partial(object.__setattr__, self)
        set_("epsilon", real_field("epsilon", self.epsilon, 0.0, 1.0, open_lo=True))
        set_("t_grid", time_grid(self.t_grid, increasing=True))
        set_("max_iter", int_field("max_iter", self.max_iter, 1))
        set_("point_tol", real_field("point_tol", self.point_tol, 0.0, error=PreconditionError))
        set_("seeds", items("seeds", self.seeds))
        set_("cauchy_window", int_field("cauchy_window", self.cauchy_window, 2))

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "t_grid": list(self.t_grid),
            "max_iter": self.max_iter,
            "point_tol": self.point_tol,
            "seeds": list(self.seeds),
            "cauchy_window": self.cauchy_window,
        }


@record(frozen=False)
class IterationTrace:
    """A Picard orbit plus per-t diagnostic sequences.

    ``mu_diag[t][n] = mu(x_n, x_{n+1}, t)`` and likewise for nu: float64
    arrays, one shorter than ``points``, which holds the orbit's own
    objects; ``orbit``, their float64 array from `picard_iterate`, is what
    the trace writer reads for x_n.
    """

    space: IFSpace = field(repr=False)
    map: SelfMap = field(repr=False)
    t_grid: tuple[float, ...]
    points: list
    mu_diag: dict[float, np.ndarray]
    nu_diag: dict[float, np.ndarray]
    stop_reason: str  # "converged" | "max_iter" | "precondition_failed"
    note: str | None = None
    orbit: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def iterations(self) -> int:
        return len(self.points) - 1

    @property
    def limit(self):
        return self.points[-1]


def _near_pairs(space: IFSpace, older, newer, t: float, epsilon: float) -> np.ndarray:
    """Cauchy nearness of every pair (older[i], newer[i]) at t: mu > 1 - epsilon
    and nu < epsilon.  NaN grades are not near."""
    mu, nu = grade_tables(space, older, newer, t)
    return (mu > 1.0 - epsilon) & (nu < epsilon)


def _near_windows(near, tail: np.ndarray, block: np.ndarray, back: int) -> np.ndarray:
    """Whether each point of `block` has a pairwise near window: the point
    and the up to `back` points before it, taken from `tail` and then from
    `block`.

    Lag 1 is graded first, on slices; if no lag-1 pair is near, only a
    window of one point is.  Otherwise each lag L <= `back` is graded on
    slices, from the largest down, and ``newest[j]`` becomes j - L for each
    pair (x_{j-L}, x_j) that is not near, so the smallest such lag wins.
    The window at position p is near when no such pair up to p has its
    older point at or after the window's first position, max(p - back, 0).
    """
    if not len(block):  # an empty float block would turn an int tail into float indices
        return np.zeros(0, dtype=bool)
    pts = np.concatenate((tail, block))
    at = np.arange(len(tail), len(pts))  # the block's positions in pts
    lag1 = near(pts[:-1], pts[1:])
    if not lag1.any():
        return np.minimum(at, back) == 0
    newest = np.full(len(pts), -1)
    for lag in range(min(back, len(pts) - 1), 0, -1):
        fail = ~(lag1 if lag == 1 else near(pts[:-lag], pts[lag:]))
        newest[lag:][fail] = np.flatnonzero(fail)
    return np.maximum.accumulate(newest)[at] < np.maximum(at - back, 0)


def detect_m_cauchy(trace: IterationTrace, epsilon: float, t: float, window: int) -> bool:
    """Finite-window surrogate for the Cauchy property: every pair among
    the trailing `window` points must satisfy mu > 1-eps and nu < eps at t.
    ``window`` is an integer field in [1, len(points)] (`int_field`'s bounds).
    The Picard stop applies the same rule (`_near_windows`) after each step."""
    epsilon = real_field("epsilon", epsilon, 0.0, 1.0, open_lo=True)
    t = real_field("t", t, 0.0, open_lo=True)
    window = int_field("window", window, 1, hi=len(trace.points))
    pts = np.asarray(trace.points[-window:])
    near = partial(_near_pairs, trace.space, t=t, epsilon=epsilon)
    return bool(_near_windows(near, pts[:-1], pts[-1:], window - 1)[0])


def detect_g_cauchy(trace: IterationTrace, m_offset: int, t: float,
                    eps_tail: float = 1e-6) -> bool:
    """Fixed-offset Cauchy probe: the last few pairs (x_n, x_{n+m}) must
    have mu above 1 - eps_tail and nu below eps_tail at the given t; eps_tail
    is in [0, 1).  ``m_offset`` is an integer field in [1, len(points) - 3]
    (`int_field`'s bounds), so that the trace holds three such pairs."""
    n_points = len(trace.points)
    m_offset = int_field("m_offset", m_offset, 1, hi=n_points - 3)
    eps_tail = real_field("eps_tail", eps_tail, 0.0, 1.0)
    t = real_field("t", t, 0.0, open_lo=True)
    first = max(0, n_points - m_offset - _G_CAUCHY_TAIL_PAIRS)
    pts = np.asarray(trace.points[first:])
    return bool(_near_pairs(trace.space, pts[:-m_offset], pts[m_offset:], t, eps_tail).all())


def picard_iterate(space: IFSpace, f: SelfMap, x0, config: SolverConfig) -> IterationTrace:
    """Iterate f from x0, recording diagnostics, until the trailing window
    is Cauchy at the smallest grid t or the iteration budget runs out.

    The hypothesis mu(x0, f(x0), t) > 0 and nu(x0, f(x0), t) < 1 is checked
    on every grid t up front, in one table (`grade_tables`, so a grade that
    is not a real number is a DomainError); failure is a distinguished
    non-error outcome (stop_reason = "precondition_failed") so degenerate
    spaces can still be exercised.

    The stopping rule checks the window at the smallest grid t only.  That
    is enough when mu is non-decreasing and nu non-increasing in t, which
    the axioms imply (iii and v); on a space that fails the audit the orbit
    may stop while the window is not yet near at larger t.

    The orbit advances in blocks of up to `_BLOCK_CAP` steps (see the module
    docstring), so f may run up to `_BLOCK_CAP - 1` steps past the stop, and
    the grade functions may be called on pairs among those points; they
    are discarded.  A map error (a point outside the domain, or an
    exception raised by f) is raised only if the orbit reaches it, with the
    same type and message as a step-by-step loop.

    A map with an orbit form ``f.fn.orbit(x, n)`` (`SelfMap.scale`) takes a
    block in one call while the current point is exactly a Python float,
    and `points` gets the block's Python floats; any other map or point
    runs the scalar loop.  The window check grades the pairs of the block
    and the points before it lag by lag, so the grade functions see the
    older points' pairs again in each block, and the stop is that of a
    step-by-step check.
    """
    domain = space.domain
    if not domain.contains(x0):
        raise DomainError(f"starting point {shown(x0)} outside domain {domain!r}")
    fx0 = f.apply_checked(domain, x0)
    grid = config.t_grid
    mu0, nu0 = grade_tables(space, x0, fx0, np.array(grid))
    held = (mu0 > 0.0) & (nu0 < 1.0)
    if not held.all():  # the note shows the scalar grades at the first failing t
        t = grid[int(np.argmin(held))]
        return IterationTrace(
            space=space, map=f, t_grid=grid, points=[x0],
            mu_diag={t: np.empty(0) for t in grid}, nu_diag={t: np.empty(0) for t in grid},
            stop_reason="precondition_failed",
            note=f"mu(x0, f(x0), {t:g}) = {shown(space.mu(x0, fx0, t))}, "
                 f"nu = {shown(space.nu(x0, fx0, t))}",
        )

    near = partial(_near_pairs, space, t=grid[0], epsilon=config.epsilon)
    step, orbit = f.fn, getattr(f.fn, "orbit", None)
    back = config.cauchy_window - 1  # the older points a window holds
    points, arrays = [x0], [np.asarray([x0])]  # the orbit, and its blocks as arrays
    x, block = fx0, [fx0]  # the first step ran in the precondition check
    size = _FIRST_BLOCK
    stop_reason = "max_iter"
    while True:
        error = None
        todo = min(size, config.max_iter + 1 - len(points)) - len(block)
        if orbit is not None and type(x) is float:
            values = np.concatenate((block, orbit(x, todo)))
            block = values.tolist()
        else:
            try:
                for _ in range(todo):
                    x = step(x)
                    block.append(x)
            except Exception as exc:  # noqa: BLE001  raised below only if the orbit gets there
                error = exc
            values = block
        inside = domain.contains_array(values)
        end = len(block) if inside.all() else int(inside.argmin())
        if end < len(block):
            error = f.domain_error(block[end - 1] if end else points[-1], block[end])
        values = np.asarray(values[:end])  # the points inside: a list is converted here, once
        near_window = _near_windows(near, np.asarray(points[-back:]), values, back)
        if near_window.any():
            stop = int(near_window.argmax())
            points += block[:stop + 1]
            arrays.append(values[:stop + 1])
            stop_reason = "converged"
            break
        if error is not None:
            raise error
        points += block
        arrays.append(values)
        if len(points) > config.max_iter:
            break
        x, block, size = block[-1], [], min(2 * size, _BLOCK_CAP)
    pts = np.concatenate(arrays)
    mu_diag, nu_diag = (dict(zip(grid, np.asarray(table, dtype=np.float64))) for table in
                        grade_tables(space, pts[:-1], pts[1:], np.array(grid)[:, None]))
    trace = IterationTrace(
        space=space, map=f, t_grid=grid, points=points,
        mu_diag=mu_diag, nu_diag=nu_diag, stop_reason=stop_reason,
    )
    trace.orbit = pts
    return trace


@record()
class ResidualCheck:
    """The fixed-point residuals of a point over the time grid, against ``tol``."""

    residual_mu: float  # min over grid t of mu(x, f(x), t)
    residual_nu: float  # max over grid t of nu(x, f(x), t)
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual_mu >= 1.0 - self.tol and self.residual_nu <= self.tol

    def to_dict(self) -> dict:
        return {
            "residual_mu": self.residual_mu,
            "residual_nu": self.residual_nu,
            "tol": self.tol,
            "passed": self.passed,
        }


def verify_fixed_point(space: IFSpace, f: SelfMap, x, t_grid, tol: float) -> ResidualCheck:
    """Residuals of the fixed-point property at x over the time grid (read
    by `time_grid`), to be within a tolerance tol in [0, 1)."""
    tol = real_field("tol", tol, 0.0, 1.0)
    grid = np.array(time_grid(t_grid))
    if not space.domain.contains(x):
        raise DomainError(f"point {shown(x)} outside domain")
    fx = f.apply_checked(space.domain, x)
    # np.min/np.max keep a NaN grade, which fails the check; min() would drop it
    mu, nu = grade_tables(space, x, fx, grid)
    return ResidualCheck(residual_mu=float(np.min(mu)), residual_nu=float(np.max(nu)), tol=tol)


@record(frozen=False)
class FixedPointReport:
    """The result of a solve: the limit of each seed, their agreement, the residual."""

    method: str  # "picard" | "edelstein"
    fixed_point: object
    limits: list            # one entry per seed; None when the seed found no limit
    iterations_per_seed: list[int]
    stop_reasons: list[str]
    residual: ResidualCheck | None
    unique: bool
    witnesses: list[tuple]  # the first (seed_i, seed_j, distance) beyond point_tol
    limit_pairs: int        # pairs of found limits
    max_limit_distance: float | None  # over those pairs; None below two limits
    cycle_lengths: list | None = None
    traces: list = field(default_factory=list, repr=False)
    domain: object = field(default=None, repr=False)

    @property
    def residual_mu(self):
        return self.residual.residual_mu if self.residual else None

    @property
    def residual_nu(self):
        return self.residual.residual_nu if self.residual else None

    def to_dict(self) -> dict:
        describe = self.domain.describe if self.domain is not None else (lambda p: p)
        return {
            "method": self.method,
            "fixed_point": describe(self.fixed_point) if self.fixed_point is not None else None,
            "limits": [describe(p) if p is not None else None for p in self.limits],
            "iterations_per_seed": list(self.iterations_per_seed),
            "stop_reasons": list(self.stop_reasons),
            "residual": self.residual.to_dict() if self.residual else None,
            "unique": self.unique,
            "witnesses": [list(w) for w in self.witnesses],
            "limit_pairs": self.limit_pairs,
            "max_limit_distance": self.max_limit_distance,
            "cycle_lengths": list(self.cycle_lengths) if self.cycle_lengths is not None else None,
        }


def _cross_checked(method: str, space: IFSpace, f: SelfMap, config: SolverConfig,
                   limits: list, **per_seed) -> FixedPointReport:
    """The report of either engine, from one limit (None if not reached) per
    seed: the first limit found is the fixed point, verified over the grid,
    and `unique` holds when every seed reached a limit and no two limits lie
    farther apart than `point_tol`.  Over their pairs it keeps their
    count, the largest distance and, as witnesses, the first `MAX_WITNESSES`
    beyond `point_tol`, so its size grows with the seeds only."""
    domain = space.domain
    idx = [i for i, p in enumerate(limits) if p is not None]
    points = [limits[i] for i in idx]
    if isinstance(domain, FiniteDomain):  # index arrays
        x = np.array(points, dtype=np.intp)
    else:  # Python arithmetic on points other than floats: distances keep their types
        x = np.array(points, dtype=float if {float}.issuperset(map(type, points)) else object)
    witnesses, largest = [], None
    for r in range(len(idx) - 1):  # the pairs (r, later), in combinations order
        d = domain.distance(x[r], x[r + 1:])
        [top] = d.max(keepdims=True).tolist()  # a Python scalar, as the report holds
        largest = top if largest is None or top > largest else largest
        if top > config.point_tol and len(witnesses) < MAX_WITNESSES:
            far = np.flatnonzero(d > config.point_tol)[:MAX_WITNESSES - len(witnesses)]
            witnesses += [(idx[r], idx[r + 1 + j], v)
                          for j, v in zip(far.tolist(), d[far].tolist())]
    fixed_point = points[0] if points else None
    return FixedPointReport(
        method=method,
        fixed_point=fixed_point,
        limits=limits,
        residual=None if fixed_point is None else verify_fixed_point(
            space, f, fixed_point, config.t_grid, config.epsilon),
        unique=bool(points) and len(points) == len(limits) and (
            largest is None or largest <= config.point_tol),
        witnesses=witnesses,
        limit_pairs=len(idx) * (len(idx) - 1) // 2,
        max_limit_distance=largest,
        domain=domain,
        **per_seed,
    )


def solve_fixed_point(space: IFSpace, f: SelfMap, config: SolverConfig) -> FixedPointReport:
    """Run Picard iteration from every seed and cross-check the limits.

    The fixed point reported is the first converged limit; `unique` states
    whether every seed converged and no two limits lie beyond `point_tol`.
    Raises `NonConvergenceError` (carrying all traces) when no seed
    converges within the iteration budget.
    """
    if not config.seeds:
        raise PreconditionError("solve_fixed_point needs at least one seed")
    if space.triangle_mode != NON_ARCHIMEDEAN:
        warnings.warn(
            "space does not use the strong (single-t) triangle bound; "
            "the uniqueness argument assumes it",
            UserWarning,
        )
    traces = [picard_iterate(space, f, x0, config) for x0 in config.seeds]
    if all(tr.stop_reason != "converged" for tr in traces):
        raise NonConvergenceError(
            f"no seed converged within {config.max_iter} iterations", traces
        )
    return _cross_checked(
        "picard", space, f, config,
        [tr.limit if tr.stop_reason == "converged" else None for tr in traces],
        iterations_per_seed=[tr.iterations for tr in traces],
        stop_reasons=[tr.stop_reason for tr in traces],
        traces=traces,
    )


def edelstein_solve(space: IFSpace, f: SelfMap, config: SolverConfig) -> FixedPointReport:
    """Exact orbit analysis on a finite domain.

    Every orbit repeats within |X| steps; the repeat closes a cycle whose
    length is reported per seed.  Length-one cycles are fixed points.  A
    report with no fixed point is a valid outcome (the caller decides how
    to treat it), since longer cycles certify the contraction hypothesis
    fails rather than signalling a numerical error.

    `SelfMap.array` runs once over every point (element-wise for a map
    without an array form) and gives the images the orbits step through;
    a point whose image is missing or outside the domain steps through
    `SelfMap.apply_checked`.  The seeds walk one after another, so a
    failure (a seed or an image outside the domain, or an exception from
    f) raises when the first failing orbit reaches it.
    """
    domain = space.domain
    if not isinstance(domain, FiniteDomain):
        raise PreconditionError("edelstein_solve requires a finite domain")
    seeds = config.seeds if config.seeds else tuple(domain.points())
    try:  # every point's image, None where it is missing or outside
        out = f.array(np.arange(domain.size))
        if np.shape(out) != (domain.size,):
            raise ValueError("not one image per point")
        images = [y if ok else None for y, ok in zip(out.tolist(), domain.contains_array(out))]
    except Exception:  # noqa: BLE001  each point then steps through apply_checked
        images = [None] * domain.size
    steps = min(config.max_iter, domain.size)
    traces, cycle_lengths = [], []
    for x0 in seeds:
        if not domain.contains(x0):
            raise DomainError(f"seed {shown(x0)} outside domain {domain!r}")
        orbit, seen, x, cycle = [x0], {x0: 0}, x0, None  # seen: each point's first step
        for step in range(1, steps + 1):
            y = images[x]
            x = f.apply_checked(domain, x) if y is None else y
            orbit.append(x)
            if x in seen:
                cycle = step - seen[x]
                break
            seen[x] = step
        traces.append(orbit)
        cycle_lengths.append(cycle)
    return _cross_checked(
        "edelstein", space, f, config,
        [orbit[-1] if c == 1 else None for orbit, c in zip(traces, cycle_lengths)],
        iterations_per_seed=[len(orbit) - 1 for orbit in traces],
        stop_reasons=["cycle" if c is not None else "max_iter" for c in cycle_lengths],
        cycle_lengths=cycle_lengths,
        traces=traces,
    )


@record()
class JointContinuityResult:
    """The result of `check_joint_continuity`; true when the probe passes."""

    ok: bool
    threshold_index: int | None
    max_mu_gap: float | None
    max_nu_gap: float | None
    hypothesis_warning: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_joint_continuity(space: IFSpace, xs, ys, x, y, t: float, tol: float) -> JointContinuityResult:
    """Probe joint sequential continuity of mu and nu.

    Given finite prefixes of two sequences with declared limits x and y,
    find the first index past which both sequences are within tol of their
    limits (mu >= 1 - tol and nu <= tol against the limit point) and check
    that from there on |mu(x_n, y_n, t) - mu(x, y, t)| <= tol, and the same
    for nu, with tol in [0, 1).  Every point of both sequences and both
    limits must lie in the domain.  Both sequences, every point, and the pairs
    past the threshold are graded as arrays (`grade_tables`).  A NaN grade
    never settles; a NaN gap fails the check and is reported as the max
    gap.  On spaces without the strong triangle bound the result carries a
    hypothesis warning rather than failing.
    """
    t = real_field("t", t, 0.0, open_lo=True)
    tol = real_field("tol", tol, 0.0, 1.0)
    xs, ys = items("xs", xs), items("ys", ys)
    if len(xs) != len(ys) or not xs:
        raise PreconditionError("sequences must be nonempty and of equal length")
    points = xs + ys + (x, y)
    inside = space.domain.contains_array(points)
    if not inside.all():
        raise DomainError(f"point {shown(points[int(inside.argmin())])} outside domain")
    xs, ys = np.asarray(xs), np.asarray(ys)
    warning = None
    if space.triangle_mode != NON_ARCHIMEDEAN:
        warning = "space lacks the strong triangle bound assumed by this check"
    (mu_x, nu_x), (mu_y, nu_y) = grade_tables(space, xs, x, t), grade_tables(space, ys, y, t)
    lo = 1.0 - tol
    settled = (mu_x >= lo) & (nu_x <= tol) & (mu_y >= lo) & (nu_y <= tol)
    if not settled.any():
        return JointContinuityResult(False, None, None, None, warning)
    threshold = int(settled.argmax())
    tables = grade_tables(space, xs[threshold:], ys[threshold:], t)
    # np.max keeps a NaN gap, which fails the check below; max() would drop it
    max_mu_gap, max_nu_gap = (float(np.max(abs(g - target))) for g, target
                              in zip(tables, grade_tables(space, x, y, t)))
    ok = max_mu_gap <= tol and max_nu_gap <= tol
    return JointContinuityResult(ok, threshold, max_mu_gap, max_nu_gap, warning)


def _fixed_decimal(t: float) -> str:
    return np.format_float_positional(t, trim="-")


# `_FieldWriter` renders float64 arrays as format(x, ".17g") does.  A value
# with 1e-11 < |x| < 1e17 has a decimal exponent E in [-11, 16], and its 17
# digits are N = round-half-even(m * 5**k * 2**(q + k)) for x = m * 2**q and
# k = 16 - E: the bits of |x| give m < 2**53 and q, 5**k shifted left by j
# to at least 2**59 (j = 0 from 5**26 up) stays below 2**63, their product
# is exact in 128 bits, held in two uint64 halves, and N is that product
# shifted right by j - q - k, which lies in [52, 63].  Integer constants
# are numpy scalars, so no step depends on how a numpy version promotes
# Python ints.
# A chunk holds about this many fields (2,048 rows of n, x_n and a three-value
# t grid's six diagnostics; 2**13 and 2**15 were slower), for which the
# writer's buffers take 2.41 MiB: the work block, two slot buffers and the
# mask of gap bytes.
_CSV_CHUNK_FIELDS = 16 << 10
# A chunk's text is written in pieces of this many layout bytes, so that no
# allocation per chunk reaches the 128 KiB at which glibc's malloc maps
# fresh pages (and faults them in again) by default.
_PIECE = 1 << 16
_LOW32, _U1, _U32, _U52, _U64 = (np.uint64(v) for v in (0xFFFFFFFF, 1, 32, 52, 64))
_ABS, _MANT, _HIDDEN, _HALF = (np.uint64(v) for v in (2**63 - 1, 2**52 - 1, 2**52, 2**63))
# |x| is in (1e-11, 1e17) when its bits, less the first such double's, are below the span
_FAST, _END, _ONE = np.array([np.nextafter(1e-11, 1.0), 1e17, 1.0]).view(np.uint64)
_FAST_SPAN = _END - _FAST
# by E + 11: 5**k * 2**j as 32-bit halves, and the right shift plus the
# biased binary exponent of x, q + 1075
_POW5 = [5**k << max(0, 60 - (5**k).bit_length()) for k in range(27, -1, -1)]
_POW5_HIGH, _POW5_LOW = np.divmod(np.array(_POW5, dtype=np.uint64), _LOW32 + _U1)
_SHIFT = np.array([p.bit_length() - (5**k).bit_length() + 1075 - k
                   for k, p in zip(range(27, -1, -1), _POW5)], dtype=np.int64)
_TEN4, _TEN8, _TEN16, _TEN17 = (np.uint64(10**k) for k in (4, 8, 16, 17))
# A field is a 32-byte slot: 0 the sign, 1-2 "0." and 3-5 up to three zeros
# (for 1e-4 <= |x| < 1), 6 the first digit, 7 its ".", 8-23 the other 16
# digits, 24-27 "e-" with two exponent digits, 28 the "," that ends the field.
# The bytes a value does not use hold the gap byte 0xFF, which UTF-8 text
# never contains, and the writer deletes every gap byte from its output.
_GAP = np.uint8(0xFF)
_SLOT = 32
_FIELD = np.frombuffer(b"-0.0000." + b"0" * 16 + b"e-00," + b"\xff" * 3, dtype=np.uint8)


# built on first use, not at import: building them at import slowed audit
# runs, which never write a trace, by about 12% in the benchmark
@cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The writer's read-only tables.  The bytes of a field, gaps included,
    by layout code (E + 11) * 34 + 2 * last + negative, where `last` is the
    index of the last nonzero digit: the digits themselves are added as
    offsets, and those a value does not show are 0 on a gap.  Then, for
    g < 10**4, its four digits as the bytes of a uint32 word, and for each
    group of digits 1-4, 5-8, 9-12 and 13-16, twice the index among the 17
    of g's last nonzero digit there (0 for g = 0).  Last, by layout code,
    whether digits 1..E move left over the "."."""
    e10, last, negative = (a.ravel() for a in np.meshgrid(
        np.arange(-11, 17), np.arange(17), [False, True], indexing="ij"))
    sci = e10 < -4
    point = np.where(sci, 0, e10)  # the digit the "." follows; below 0, "0." leads
    lead = ~sci & (e10 < 0)
    chars = np.repeat(_FIELD[None, :], len(e10), axis=0)
    chars[:, 26] += np.where(sci, -e10 // 10, 0).astype(np.uint8)
    chars[:, 27] += np.where(sci, -e10 % 10, 0).astype(np.uint8)
    keep = np.zeros(chars.shape, dtype=bool)
    keep[:, 0] = negative
    keep[:, 1] = keep[:, 2] = lead
    keep[:, 3:6] = lead[:, None] & (np.arange(3) < -1 - e10[:, None])
    keep[:, 6] = keep[:, 28] = True
    keep[:, 7] = (point >= 0) & (last > point)  # moved after digit E >= 1 by the writer
    keep[:, 8:24] = np.arange(1, 17) <= np.maximum(last, point)[:, None]
    keep[:, 24:28] = sci[:, None]
    chars[~keep] = _GAP
    g = np.arange(10**4, dtype=np.uint16)
    words = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    within = sum((g % p > 0).astype(np.uint8) for p in (10**4, 1000, 100, 10))
    lasts = (within + np.arange(0, 16, 4, dtype=np.uint8)[:, None]) * (within > 0) * np.uint8(2)
    tables = chars, words.view(np.uint32).ravel(), lasts, (last > e10) & (e10 > 0)
    for table in tables:
        table.setflags(write=False)
    return tables


def _scaled(m, exp2, e10, work):
    """floor(N) and whether it rounds up, half to even, for N = m *
    2**(exp2 - 1075) * 10**(27 - e10), from the uint64 m < 2**53 and the
    int64 biased exponent exp2 and E + 11 in [0, 27].
    Both results are written into `work`: five uint64 arrays and one bool
    array shaped like m."""
    a, b, c, d, e, up = work
    np.take(_POW5_LOW, e10, out=a, mode="clip")
    np.take(_POW5_HIGH, e10, out=b, mode="clip")
    # m * 5**k * 2**j = b * 2**64 + a, from 32-bit halves (m's high half is below 2**21)
    np.right_shift(m, _U32, out=c)
    np.bitwise_and(m, _LOW32, out=d)
    np.multiply(d, a, out=e)
    d *= b
    a *= c
    b *= c
    d += a  # the middle term, below 2**64
    np.left_shift(d, _U32, out=a)
    a += e
    np.less(a, e, out=up)  # the carry out of the low word
    d >>= _U32
    b += d
    b += up
    # shift right by r = _SHIFT[e10] - exp2, in c: b below 2**52 <= 2**r
    r = c.view(np.int64)
    np.take(_SHIFT, e10, out=r, mode="clip")
    r -= exp2
    np.subtract(_U64, c, out=e)
    b <<= e
    np.right_shift(a, c, out=d)
    b |= d
    # up when the remainder, moved to the top, with (floor odd) as its lowest bit is > 2**63
    a <<= e
    np.bitwise_and(b, _U1, out=d)
    a |= d
    np.greater(a, _HALF, out=up)
    return b, up


class _FieldWriter:
    """Work buffers that lay out up to `size` float64 values at a time, put
    in `x` in text order, as .17g fields: one 32-byte slot per value, gaps
    included, in `raw`, one of two slot `buffers` that take turns; and the
    worker's `mask` of gap bytes."""

    # E + 11, the mantissa of |x|, five uint64 temporaries and two flags;
    # after the scaling, the temporaries hold the digit groups and the
    # mantissa's bytes the narrow arrays
    _WORK = (np.int64,) + (np.uint64,) * 6 + (bool,) * 2

    def __init__(self, size: int):
        # one block for the per-value arrays, so the allocator keeps or reuses it whole
        widths = [size * np.dtype(t).itemsize for t in self._WORK]
        self.size, self.block = size, np.empty(sum(widths), dtype=np.uint8)
        self.work = [self.block[end - width:end].view(t)
                     for t, width, end in zip(self._WORK, widths, np.cumsum(widths))]
        self.buffers = [np.empty(size * _SLOT, dtype=np.uint8) for _ in range(2)]
        self.mask = np.empty(size * _SLOT, dtype=bool)
        self.take(self.buffers[0])

    def take(self, raw: np.ndarray) -> None:
        """Lay out the next values in `raw`, a uint8 slot buffer of 32 bytes
        per value: x and the binary exponents of |x| live in its bytes until
        the layouts are taken into them."""
        size = len(raw) // _SLOT
        self.raw, self.slots = raw, raw.reshape(size, _SLOT)
        self.x, self.exp2 = raw.view(np.float64)[:2 * size].reshape(2, size)

    def render(self, size: int) -> np.ndarray:
        """The (size, 32) slots of the first `size` values of `x`, which
        they overwrite."""
        e10, m, a, b, c, d, e, slow, up = (w[:size] for w in self.work)
        x, exp2 = self.x[:size], self.exp2[:size].view(np.int64)
        np.bitwise_and(x.view(np.uint64), _ABS, out=a)  # the bits of |x|
        # zero, tiny, huge, inf and NaN go through format(), scaled as 1.0
        np.greater_equal(np.subtract(a, _FAST, out=b), _FAST_SPAN, out=slow)
        np.copyto(a, _ONE, where=slow)
        np.bitwise_and(a, _MANT, out=m)
        m |= _HIDDEN
        np.right_shift(a, _U52, out=exp2.view(np.uint64))
        # E + 11 is log10|x| + 11 truncated, at most 27: above 1e-11 the sum
        # is >= 0 up to rounding, so truncating floors it (or clips it to 0)
        estimate = b.view(np.float64)
        np.log10(a.view(np.float64), out=estimate)
        estimate += 11.0
        np.copyto(e10, np.minimum(estimate, 27.0, out=estimate), casting="unsafe")
        work = [a, b, c, d, e, up]
        n, up = _scaled(m, exp2, e10, work)
        # log10 can be one off near a power of ten; N then falls outside
        # [1e16, 1e17), and the chunk is redone with those exponents moved
        if n.min() < _TEN16 or n.max() >= _TEN17:
            below, above = n < _TEN16, n >= _TEN17
            e10 -= below
            e10 += above
            n, up = _scaled(m, exp2, e10, work)
        # no rounding carry to 1e17: below every power of ten in range, the
        # nearest double rounds down at 17 digits (the tests check each)
        n += up
        # the first digit, then digits 1-4, 5-8, 9-12 and 13-16 as table
        # indices; the narrow arrays take m's bytes
        word, narrow = m.view(np.uint32)[:size], m.view(np.uint8)[4 * size:]
        first, last, flag = narrow[:size], narrow[size:2 * size], narrow[2 * size:3 * size].view(bool)
        g0, g1, g2 = a, c, d
        _split(n, _TEN16, first, e)
        _split(n, _TEN8, g1, e)
        _split(g1, _TEN4, g0, e)
        _split(n, _TEN4, g2, e)
        groups = [g.view(np.int64) for g in (g0, g1, g2, n)]
        layouts, words, lasts, moves = _tables()
        np.take(lasts[3], groups[3], out=last, mode="clip")
        # only where digits 13-16 are zero is the last nonzero digit before them
        zero = np.flatnonzero(np.equal(last, np.uint8(0), out=flag))
        if zero.size:
            last[zero] = np.maximum.reduce([t[g[zero]] for t, g in zip(lasts[:3], groups)])
        last |= np.signbit(x, out=flag).view(np.uint8)
        e10 *= np.int64(34)  # the layout code
        e10 += last
        # a value >= 10 with a fraction has its "." after digit E: digits
        # 1..E move one byte left, over the "." at 7
        moved = np.flatnonzero(np.take(moves, e10, out=flag, mode="clip"))
        moved_e10 = e10[moved] // 34 - 11
        slow_at = np.flatnonzero(slow)
        shown = [format(v, ".17g").encode() for v in x[slow_at].tolist()]
        slots = self.slots[:size]
        np.take(layouts, e10, axis=0, out=slots, mode="clip")
        slots[:, 6] += first
        for col, g in enumerate(groups, 2):
            slots.view(np.uint32)[:, col] += np.take(words, g, out=word, mode="clip")
        for ex in set(moved_e10.tolist()):
            at, cols = moved[moved_e10 == ex][:, None], np.arange(7, 8 + ex)
            slots[at, cols] = slots[at, np.roll(cols, -1)]
        if shown:
            slots[slow_at, :28] = _padded(shown, 28)
        return slots


def _split(x, unit, high, spare) -> None:
    """high = x // unit, x %= unit: floor_divide runs faster than divmod."""
    np.floor_divide(x, unit, out=high)
    x -= np.multiply(high, unit, out=spare)


def _padded(encoded, width: int) -> np.ndarray:
    """(rows, width) bytes holding the byte strings, padded with gaps."""
    fill = _GAP.tobytes()
    return np.frombuffer(b"".join(b.ljust(width, fill) for b in encoded),
                         dtype=np.uint8).reshape(-1, width)


def _write_text(fh, text, mask=None) -> None:
    """Write the slot bytes `text` to `fh` in pieces of `_PIECE`, gap bytes
    deleted through `mask` (numpy's masked copy releases the GIL), else by
    `bytes.translate`, which holds it but takes about half the time."""
    keep = None if mask is None else np.not_equal(text, _GAP, out=mask[:len(text)])
    for i in range(0, len(text), _PIECE):
        piece = text[i:i + _PIECE]
        fh.write(piece.tobytes().translate(None, b"\xff") if keep is None else piece[keep[i:i + _PIECE]])


_SHARED, _shared = threading.Lock(), None  # the process's writer, grown to the largest chunk


@contextmanager
def _writer(size: int):
    """A `_FieldWriter` of at least `size` values: the process's, grown if
    need be, unless another write holds it; then one of its own."""
    global _shared
    if not _SHARED.acquire(blocking=False):
        yield _FieldWriter(size)
        return
    try:
        if _shared is None or _shared.size < size:
            _shared = _FieldWriter(size)
        yield _shared
    finally:
        _SHARED.release()


def _write_csv(trace: IterationTrace, fh) -> None:
    """Write the trace CSV to the binary file `fh`: the header, blocks of
    diagnostic rows, and the final row.  One loop writes every trace, in
    the buffers of `_writer`: the caller lays out each chunk in one of two
    slot buffers that take turns, waits on the future of the chunk before,
    which frees the other buffer or raises the worker's error (nothing more
    is written after one), and hands every chunk but the last to a
    one-thread executor.  The last chunk the caller writes itself, once the
    worker is joined; the thread starts at the first hand-over, so a trace
    of one chunk starts none."""
    header = ["n", "x_n"]
    columns = []
    for t in trace.t_grid:
        label = _fixed_decimal(t)
        header += [f"mu@{label}", f"nu@{label}"]
        columns += [trace.mu_diag[t], trace.nu_diag[t]]
    fh.write((",".join(header) + "\n").encode())
    domain, points = trace.space.domain, trace.points
    n_diag = len(points) - 1
    labels = not isinstance(domain, IntervalDomain)
    x_last = format(domain.describe(points[-1]), "" if labels else ".17g")
    final = (",".join([str(n_diag), x_last] + [""] * len(columns)) + "\n").encode()
    if n_diag:
        # a row's slots: n, on a finite domain the label's, then the values
        lead = 0
        if labels:  # each distinct label formatted once, then gathered per chunk
            distinct, label_at = np.unique(np.asarray(points[:-1], dtype=np.intp),
                                           return_inverse=True)
            shown = [format(domain.describe(p)).encode() + b"," for p in distinct.tolist()]
            lead = -(-max(map(len, shown)) // _SLOT)
            label_slots = _padded(shown, _SLOT * lead)
        else:
            orbit = trace.orbit
            fits = orbit is not None and orbit.dtype == np.float64 and len(orbit) == len(points)
            columns.insert(0, orbit if fits else np.asarray(points, dtype=np.float64))
        cols = 1 + lead + len(columns)
        rows = min(n_diag, max(1, _CSV_CHUNK_FIELDS // cols))
        n, written = np.arange(rows, dtype=np.float64), None

        def lay_out(lo: int) -> int:
            """Lay out the chunk of rows from `lo` in the writer's slot
            buffer, and return its byte count."""
            r = min(rows, n_diag - lo)
            x = writer.x[:rows * cols].reshape(rows, cols)
            np.add(n[:r], lo, out=x[:r, 0])
            x[:r, 1:1 + lead] = 1.0  # rendered, then overwritten by the label
            for j, column in enumerate(columns, 1 + lead):
                x[:r, j] = column[lo:lo + r]
            lines = writer.render(r * cols).reshape(r, -1)
            if lead:
                lines[:, _SLOT:_SLOT * (1 + lead)] = label_slots[label_at[lo:lo + r]]
            lines[:, 28 - _SLOT] = ord("\n")  # over the last field's ","
            return lines.size

        with _writer(rows * cols) as writer:
            with ThreadPoolExecutor(max_workers=1) as worker:
                for k, lo in enumerate(range(0, n_diag, rows)):
                    writer.take(writer.buffers[k % 2])
                    end = lay_out(lo)
                    if written is not None:  # raises the worker's error; frees the other buffer
                        written.result()
                    if lo + rows < n_diag:
                        written = worker.submit(_write_text, fh, writer.raw[:end], writer.mask)
            _write_text(fh, writer.raw[:end])
    fh.write(final)


def trace_to_csv(trace: IterationTrace) -> str:
    """Render a trace as CSV: columns n, x_n, then mu@t and nu@t per grid
    value.  Values use 17 significant digits so reruns diff cleanly; the
    final row has no diagnostic entries (they pair consecutive points).

    Every number reads exactly as format(value, ".17g") would give it, and
    a `FiniteDomain` point as its label.  The rows are laid out as one
    flat run of 32-byte slots, one per number in text order, in chunks of
    about 16,384 (2,048 rows at a three-value t grid), through the work
    buffers of `write_trace_csv`: digits come from exact 128-bit integer
    scaling of the float's mantissa and exponent bits (the integer route of
    Gay 1990 and Adams's Ryu, 2018), not from one dtoa call per value, and
    are added four at a time from a table.  n is a float column too: .17g
    spells an integral double below 1e16 as %d.  Zero, values with
    |x| <= 1e-11 or |x| >= 1e17, subnormals, inf and NaN are rendered by
    format().

    The text is written as `write_trace_csv` writes it, into an in-memory
    file.
    """
    out = io.BytesIO()
    _write_csv(trace, out)
    return out.getvalue().decode()


def write_trace_csv(trace: IterationTrace, path) -> None:
    """Write `trace_to_csv`'s text to the file at `path`, chunk by chunk.

    While the caller lays out chunk k + 1, one worker thread (a
    one-thread `ThreadPoolExecutor`) deletes the gap bytes of chunk k with
    a numpy boolean mask, which releases the GIL, and writes it; the caller
    deletes those of the last chunk with `bytes.translate`, which holds the
    GIL but costs about half as much (0.9 against 1.8 ns a layout byte on
    a 2-CPU Xeon), and writes it, so a trace of one chunk starts no thread.
    Every write runs in the process's one set of buffers (2.41 MiB at a
    full chunk: the work block, two slot buffers and the mask), grown to
    the largest chunk written so far and never shrunk, so a write of a
    shape seen before allocates none of them.  A non-blocking lock guards
    them, held for the whole write, an error included; a write that finds
    it held, in another thread, allocates its own."""
    with open(path, "wb") as fh:
        _write_csv(trace, fh)
