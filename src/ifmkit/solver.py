"""Fixed-point iteration with convergence diagnostics.

`picard_iterate` follows the orbit x0, f(x0), f^2(x0), ... until the
trailing-window Cauchy detector, the stopping rule, fires at the smallest
grid t.  It then records, at every grid time t, the consecutive-step grades
mu(x_n, x_{n+1}, t) and nu(x_n, x_{n+1}, t), tabulated in one pass over the
orbit through the grade functions' array forms (`spaces.array_form`; a grade
function without one is called element-wise).  For a psi-phi contractive
map the mu diagnostic is non-decreasing and the nu diagnostic
non-increasing in n.

`edelstein_solve` is the finite-domain engine: orbits on a finite point set
must repeat within |X| steps, so convergence questions reduce to exact
cycle detection.  Cycles of length one are fixed points; longer cycles are
reported, not raised — they certify that the contraction hypothesis fails.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .contraction import SelfMap
from .errors import DomainError, NonConvergenceError, PreconditionError
from .spaces import FiniteDomain, IFSpace, NON_ARCHIMEDEAN, array_form

_G_CAUCHY_TAIL_PAIRS = 3


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float          # Cauchy threshold in (0, 1)
    t_grid: tuple[float, ...]
    max_iter: int = 10**6
    point_tol: float = 1e-8
    seeds: tuple = ()
    cauchy_window: int = 5  # trailing window for the stopping rule

    def __post_init__(self):
        if not (isinstance(self.epsilon, float) and 0.0 < self.epsilon < 1.0):
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        grid = tuple(float(t) for t in self.t_grid)
        if not grid:
            raise PreconditionError("t_grid must be nonempty")
        if any(t <= 0 or not math.isfinite(t) for t in grid):
            raise PreconditionError("t_grid values must be positive and finite")
        if any(a >= b for a, b in zip(grid, grid[1:])):
            raise PreconditionError("t_grid must be strictly increasing")
        if self.max_iter < 1:
            raise PreconditionError("max_iter must be >= 1")
        if self.point_tol < 0:
            raise PreconditionError("point_tol must be nonnegative")
        if self.cauchy_window < 2:
            raise PreconditionError("cauchy_window must be >= 2")
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "seeds", tuple(self.seeds))

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "t_grid": list(self.t_grid),
            "max_iter": self.max_iter,
            "point_tol": self.point_tol,
            "seeds": list(self.seeds),
            "cauchy_window": self.cauchy_window,
        }


@dataclass
class IterationTrace:
    """A Picard orbit plus per-t diagnostic sequences.

    ``mu_diag[t][n] = mu(x_n, x_{n+1}, t)`` and likewise for nu, so the
    diagnostic lists are one shorter than ``points``.
    """

    space: IFSpace = field(repr=False)
    map: SelfMap = field(repr=False)
    t_grid: tuple[float, ...]
    points: list
    mu_diag: dict[float, list[float]]
    nu_diag: dict[float, list[float]]
    stop_reason: str  # "converged" | "max_iter" | "precondition_failed"
    note: str | None = None

    @property
    def iterations(self) -> int:
        return len(self.points) - 1

    @property
    def limit(self):
        return self.points[-1]


def _all_near(space: IFSpace, pairs, t: float, epsilon: float) -> bool:
    """Every pair has mu > 1 - epsilon and nu < epsilon at t."""
    mu, nu, lo = space.mu, space.nu, 1.0 - epsilon
    for a, b in pairs:
        if not (mu(a, b, t) > lo and nu(a, b, t) < epsilon):
            return False
    return True


def detect_m_cauchy(trace: IterationTrace, epsilon: float, t: float, window: int) -> bool:
    """Finite-window surrogate for the Cauchy property: every pair among
    the trailing `window` points must satisfy mu > 1-eps and nu < eps at t.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if t <= 0:
        raise DomainError("t must be positive")
    if window < 1 or window > len(trace.points):
        raise PreconditionError(
            f"window must be in [1, {len(trace.points)}], got {window}"
        )
    return _all_near(trace.space, combinations(trace.points[-window:], 2), t, epsilon)


def detect_g_cauchy(trace: IterationTrace, m_offset: int, t: float,
                    eps_tail: float = 1e-6) -> bool:
    """Fixed-offset Cauchy probe: the last few pairs (x_n, x_{n+m}) must
    have mu above 1 - eps_tail and nu below eps_tail at the given t.
    """
    if m_offset < 1:
        raise PreconditionError("m_offset must be >= 1")
    n_points = len(trace.points)
    if n_points <= m_offset + 2:
        raise PreconditionError(
            f"trace length must exceed m_offset + 2 = {m_offset + 2}, got {n_points}"
        )
    if t <= 0:
        raise DomainError("t must be positive")
    first = max(0, n_points - m_offset - _G_CAUCHY_TAIL_PAIRS)
    pts = trace.points
    pairs = ((pts[n], pts[n + m_offset]) for n in range(first, n_points - m_offset))
    return _all_near(trace.space, pairs, t, eps_tail)


def picard_iterate(space: IFSpace, f: SelfMap, x0, config: SolverConfig) -> IterationTrace:
    """Iterate f from x0, recording diagnostics, until the trailing window
    is Cauchy at the smallest grid t or the iteration budget runs out.

    The hypothesis mu(x0, f(x0), t) > 0 and nu(x0, f(x0), t) < 1 is checked
    on every grid t up front; failure is a distinguished non-error outcome
    (stop_reason = "precondition_failed") so degenerate spaces can still be
    exercised.
    """
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
    t_min = grid[0]
    stop_reason = "max_iter"
    x = x0
    for _ in range(config.max_iter):
        x = f.apply_checked(domain, x)
        points.append(x)
        window = min(config.cauchy_window, len(points))
        if _all_near(space, combinations(points[-window:], 2), t_min, config.epsilon):
            stop_reason = "converged"
            break
    mu_diag, nu_diag = (_step_grades(grade, points, grid) for grade in (space.mu, space.nu))
    return IterationTrace(
        space=space, map=f, t_grid=grid, points=points,
        mu_diag=mu_diag, nu_diag=nu_diag, stop_reason=stop_reason,
    )


def _step_grades(grade, points, grid) -> dict[float, list[float]]:
    """``{t: [grade(x_n, x_{n+1}, t) for each n]}`` over the grid."""
    pts = np.array(points)
    table = array_form(grade, 3)(pts[:-1, None], pts[1:, None], np.array(grid))
    return dict(zip(grid, table.T.tolist()))


@dataclass(frozen=True)
class ResidualCheck:
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
    """Residuals of the fixed-point property at x over the time grid."""
    if not space.domain.contains(x):
        raise DomainError(f"point {x!r} outside domain")
    fx = f.apply_checked(space.domain, x)
    mus = [space.mu(x, fx, t) for t in t_grid]
    nus = [space.nu(x, fx, t) for t in t_grid]
    return ResidualCheck(residual_mu=min(mus), residual_nu=max(nus), tol=tol)


@dataclass
class FixedPointReport:
    method: str  # "picard" | "edelstein"
    fixed_point: object
    limits: list            # one entry per seed; None when the seed found no limit
    iterations_per_seed: list[int]
    stop_reasons: list[str]
    residual: ResidualCheck | None
    unique: bool
    witnesses: list[tuple]  # (seed_i, seed_j, distance) between found limits
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
            "cycle_lengths": list(self.cycle_lengths) if self.cycle_lengths is not None else None,
        }


def _cross_checked(method: str, space: IFSpace, f: SelfMap, config: SolverConfig,
                   limits: list, **per_seed) -> FixedPointReport:
    """The report of either engine, from one limit (None if not reached) per
    seed: the first limit found is the fixed point, verified over the grid,
    and `unique` holds when every seed reached a limit and all limits agree
    within `point_tol`.  Witnesses are the distances between found limits."""
    domain = space.domain
    found = [(i, p) for i, p in enumerate(limits) if p is not None]
    fixed_point = found[0][1] if found else None
    return FixedPointReport(
        method=method,
        fixed_point=fixed_point,
        limits=limits,
        residual=None if fixed_point is None else verify_fixed_point(
            space, f, fixed_point, config.t_grid, config.epsilon),
        unique=bool(found) and len(found) == len(limits) and all(
            domain.distance(fixed_point, p) <= config.point_tol for _, p in found),
        witnesses=[(i, j, domain.distance(p, q)) for (i, p), (j, q) in combinations(found, 2)],
        domain=domain,
        **per_seed,
    )


def solve_fixed_point(space: IFSpace, f: SelfMap, config: SolverConfig) -> FixedPointReport:
    """Run Picard iteration from every seed and cross-check the limits.

    The fixed point reported is the first converged limit; `unique` states
    whether every seed converged and all limits agree within `point_tol`.
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
    """
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


@dataclass(frozen=True)
class JointContinuityResult:
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
    for nu.  On spaces without the strong triangle bound the result carries
    a hypothesis warning rather than failing.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys) or not xs:
        raise PreconditionError("sequences must be nonempty and of equal length")
    warning = None
    if space.triangle_mode != NON_ARCHIMEDEAN:
        warning = "space lacks the strong triangle bound assumed by this check"
    mu, nu = space.mu, space.nu
    lo = 1.0 - tol
    threshold = None
    for n in range(len(xs)):
        if (mu(xs[n], x, t) >= lo and nu(xs[n], x, t) <= tol
                and mu(ys[n], y, t) >= lo and nu(ys[n], y, t) <= tol):
            threshold = n
            break
    if threshold is None:
        return JointContinuityResult(False, None, None, None, warning)
    mu_target = mu(x, y, t)
    nu_target = nu(x, y, t)
    max_mu_gap = 0.0
    max_nu_gap = 0.0
    for n in range(threshold, len(xs)):
        max_mu_gap = max(max_mu_gap, abs(mu(xs[n], ys[n], t) - mu_target))
        max_nu_gap = max(max_nu_gap, abs(nu(xs[n], ys[n], t) - nu_target))
    ok = max_mu_gap <= tol and max_nu_gap <= tol
    return JointContinuityResult(ok, threshold, max_mu_gap, max_nu_gap, warning)


def _fixed_decimal(t: float) -> str:
    return np.format_float_positional(t, trim="-")


def trace_to_csv(trace: IterationTrace) -> str:
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


def write_trace_csv(trace: IterationTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(trace_to_csv(trace))
