"""Control functions and contraction conditions for self-maps.

Two notions are implemented:

* the reciprocal-gap condition with constant k in (0,1):
      1/mu(f(x), f(y), t) - 1 <= k   * (1/mu(x, y, t) - 1)
      1/nu(f(x), f(y), t) - 1 <= 1/k * (1/nu(x, y, t) - 1)

* the psi-phi condition for control functions psi, phi on [0,1]:
      mu(x, y, t) > 0  =>  psi(mu(f(x), f(y), t)) >= mu(x, y, t)
      nu(x, y, t) < 1  =>  phi(nu(f(x), f(y), t)) <= nu(x, y, t)

The pair derived from k is the Moebius pair

    psi_k(s) = k*s / (1 - (1-k)*s),      phi_k(s) = s / ((1-k)*s + k),

mutually inverse on [0,1].  psi_k is exactly the inverse of phi_k, which
makes the mu-side psi condition *equivalent* to the mu-side k condition;
on the nu side the two printed conditions meet only at equality (see the
grid oracle in the test suite, which pins this down numerically).

Each condition is written once, as a side predicate over the grade values
g = grade(x, y, t) and g_f = grade(f(x), f(y), t): `_psi_phi_side` and
`_k_side`, which work on floats and numpy arrays alike.  The pairwise scan
applies them to grade tables, its witness shrinker (`sampling.shrink`) to
the grades of one witness, and the sequence predicates over iteration
traces to consecutive diagnostic values.

The scan draws its pairs as one array and works through them in chunks of
at most 2^14 (pair, t) cells, so memory does not grow with the sample
count.  Per chunk it maps the points once (`SelfMap.array`), tabulates mu
and nu of (x, y) and of (f(x), f(y)) over the grid, and applies the side
predicates as masks; it keeps the exact violation count and the first ten
witnesses in the order of a pair-by-pair scan: pair, then t, then mu
before nu.  Array forms travel with the functions, as in the auditor:
grade functions and the `from_k` controls carry one as ``fn.array``, the
built-in self-maps have one, and any other callable (a custom control, a
user closure) is evaluated element-wise on plain Python scalars.  A control
function is only called where its antecedent holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DomainError, PreconditionError
from .sampling import MAX_WITNESSES, SamplerConfig, chunks, draw_array, shrink
from .sampling import draw_tuples  # noqa: F401  perfbench/tracer.py patches this name
from .spaces import IFSpace, IntervalDomain, array_form

if TYPE_CHECKING:  # pragma: no cover
    from .solver import IterationTrace

CHECK_TOL = 1e-12
_JUMP_THRESHOLD = 0.1
# The scan grades its pairs per chunk; a chunk holds at most this many
# (pair, t) cells, so memory stays bounded for any sample count.
_CHUNK_CELLS = 1 << 14


def psi_from_k(k: float) -> Callable[[float], float]:
    """The mu-side control function for contraction constant k.

    psi_k(s) = k*s / (1 - (1-k)*s).  It fixes 0 and 1, satisfies
    psi_k(s) < s on (0,1), and inverts phi_k.
    """
    k = _validated_k(k)
    one_minus_k = 1.0 - k

    def psi(s: float) -> float:
        return k * s / (1.0 - one_minus_k * s)

    psi.array = psi  # the same arithmetic works element-wise on arrays
    return psi


def phi_from_k(k: float) -> Callable[[float], float]:
    """The nu-side control function for contraction constant k.

    phi_k(s) = s / ((1-k)*s + k).  It fixes 0 and 1 and satisfies
    phi_k(s) > s on (0,1).
    """
    k = _validated_k(k)
    one_minus_k = 1.0 - k

    def phi(s: float) -> float:
        return s / (one_minus_k * s + k)

    phi.array = phi
    return phi


def _validated_k(k) -> float:
    k = float(k)
    if not (math.isfinite(k) and 0.0 < k < 1.0):
        raise DomainError(f"contraction constant must lie in (0, 1), got {k!r}")
    return k


@dataclass(frozen=True)
class KContraction:
    k: float

    def __post_init__(self):
        object.__setattr__(self, "k", _validated_k(self.k))


@dataclass(frozen=True)
class PsiPhiPair:
    """A psi/phi control pair.  Constructed pairs are not verified here;
    `check_admissible` reports range, strictness, monotonicity and a
    continuity probe."""

    psi: Callable[[float], float] = field(repr=False)
    phi: Callable[[float], float] = field(repr=False)
    provenance: tuple = ("custom",)

    @classmethod
    def from_k(cls, k: float) -> "PsiPhiPair":
        k = _validated_k(k)
        return cls(psi_from_k(k), phi_from_k(k), ("from_k", k))


def pair_from_k(k: float) -> PsiPhiPair:
    return PsiPhiPair.from_k(k)


@dataclass(frozen=True)
class SelfMap:
    """A self-map of a point domain: a finite image table or a closure.

    `array` maps a whole array of points.  The built-in closures carry an
    array form as ``fn.array``; a closure without one is called element-wise
    on plain Python scalars.
    """

    kind: str  # "table" | "closure"
    images: tuple[int, ...] | None = None
    fn: Callable = field(default=None, repr=False, compare=False)
    name: str = "closure"

    @classmethod
    def table(cls, images) -> "SelfMap":
        images = tuple(int(i) for i in images)
        if any(not 0 <= i < len(images) for i in images):
            raise DomainError(f"table images {images} must index into the point set")
        return cls("table", images=images, name="table")

    @classmethod
    def closure(cls, fn: Callable, name: str = "closure") -> "SelfMap":
        return cls("closure", fn=fn, name=name)

    @classmethod
    def scale(cls, factor: float) -> "SelfMap":
        c = float(factor)

        def fn(x):
            return c * x

        fn.array = fn
        return cls.closure(fn, name=f"scale({c:g})")

    @classmethod
    def constant(cls, value) -> "SelfMap":
        def fn(_x):
            return value

        fn.array = lambda xs: np.full(np.shape(xs), value)
        return cls.closure(fn, name=f"constant({value!r})")

    @classmethod
    def identity(cls) -> "SelfMap":
        def fn(x):
            return x

        fn.array = fn
        return cls.closure(fn, name="identity")

    @classmethod
    def affine_clamped(cls, a: float, b: float, lo: float, hi: float) -> "SelfMap":
        a, b, lo, hi = float(a), float(b), float(lo), float(hi)

        def fn(x):
            return min(max(a * x + b, lo), hi)

        def fn_array(xs):
            # np.minimum/np.maximum with the ties of min/max: they differ
            # from Python's on signed zeros, np.where does not
            v = a * xs + b
            v = np.where(lo > v, lo, v)
            return np.where(hi < v, hi, v)

        fn.array = fn_array
        return cls.closure(fn, name=f"affine_clamped({a:g},{b:g})")

    def __call__(self, x):
        if self.kind == "table":
            return self.images[int(x)]
        return self.fn(x)

    def array(self, xs: np.ndarray) -> np.ndarray:
        """The images of a 1-d array of points, element by element."""
        if self.kind == "table":
            return np.array(self.images)[xs]
        form = getattr(self.fn, "array", None)
        if form is not None:
            return form(xs)
        # the dtype follows the images: index points stay integers
        return np.array([self.fn(x) for x in xs.tolist()])

    def apply_checked(self, domain, x):
        y = self(x)
        if not domain.contains(y):
            raise DomainError(f"map {self.name} sends {x!r} to {y!r}, outside the domain")
        return y


# ---------------------------------------------------------------------------
# Admissibility of control pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionAdmissibility:
    label: str
    range_ok: bool
    range_witness: tuple | None
    strict_ok: bool
    strict_witness: tuple | None
    monotone_direction: str
    continuity_ok: bool
    max_grid_jump: float

    @property
    def admissible(self) -> bool:
        return self.range_ok and self.strict_ok and self.continuity_ok


@dataclass(frozen=True)
class AdmissibilityReport:
    psi: FunctionAdmissibility
    phi: FunctionAdmissibility
    grid_size: int

    @property
    def admissible(self) -> bool:
        return self.psi.admissible and self.phi.admissible

    def to_dict(self) -> dict:
        def f(a: FunctionAdmissibility) -> dict:
            return {
                "range_ok": a.range_ok,
                "range_witness": list(a.range_witness) if a.range_witness else None,
                "strict_ok": a.strict_ok,
                "strict_witness": list(a.strict_witness) if a.strict_witness else None,
                "monotone_direction": a.monotone_direction,
                "continuity_ok": a.continuity_ok,
                "max_grid_jump": a.max_grid_jump,
            }

        return {
            "grid_size": self.grid_size,
            "admissible": self.admissible,
            "psi": f(self.psi),
            "phi": f(self.phi),
        }


def _persistent_jump(fn, a: float, b: float, depth: int = 40) -> bool:
    """True when a gap larger than the jump threshold survives bisection
    down to negligible width — the sampled signature of a discontinuity."""
    gap = abs(fn(b) - fn(a))
    if gap <= _JUMP_THRESHOLD:
        return False
    if depth == 0 or b - a <= 1e-9:
        return True
    m = 0.5 * (a + b)
    return _persistent_jump(fn, a, m, depth - 1) or _persistent_jump(fn, m, b, depth - 1)


def _probe_function(label: str, fn, grid_size: int, strict_below: bool) -> FunctionAdmissibility:
    grid = [i / (grid_size - 1) for i in range(grid_size)]
    values = [fn(t) for t in grid]

    range_viol = [
        (t, v) for t, v in zip(grid, values) if math.isnan(v) or v < 0.0 or v > 1.0
    ]
    if strict_below:
        strict_viol = [(t, v) for t, v in zip(grid[1:-1], values[1:-1]) if v >= t]
    else:
        strict_viol = [(t, v) for t, v in zip(grid[1:-1], values[1:-1]) if v <= t]

    deltas = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    nondec = all(d >= -CHECK_TOL for d in deltas)
    noninc = all(d <= CHECK_TOL for d in deltas)
    if nondec and noninc:
        direction = "constant"
    elif nondec:
        direction = "non-decreasing"
    elif noninc:
        direction = "non-increasing"
    else:
        direction = "mixed"

    max_jump = max((abs(d) for d in deltas), default=0.0)
    continuity_ok = True
    for i, d in enumerate(deltas):
        if abs(d) > _JUMP_THRESHOLD and _persistent_jump(fn, grid[i], grid[i + 1]):
            continuity_ok = False
            break

    def closest(viol):
        return min(viol, key=lambda w: abs(w[0] - 0.5)) if viol else None

    return FunctionAdmissibility(
        label=label,
        range_ok=not range_viol,
        range_witness=closest(range_viol),
        strict_ok=not strict_viol,
        strict_witness=closest(strict_viol),
        monotone_direction=direction,
        continuity_ok=continuity_ok,
        max_grid_jump=max_jump,
    )


def check_admissible(pair: PsiPhiPair, grid_size: int) -> AdmissibilityReport:
    """Grid-based admissibility probe for a control pair.

    Admissibility requires range containment, strict separation from the
    identity on the open interval (psi below, phi above), and no sampled
    discontinuity.  The observed monotonicity direction is recorded but not
    enforced: the fixed-point arguments only use continuity and strictness,
    and the useful pairs in practice are non-decreasing on both sides.
    Boundary values psi(1)=1 and phi(0)=0 are admissible.
    """
    if grid_size < 2:
        raise PreconditionError("grid_size must be >= 2")
    return AdmissibilityReport(
        psi=_probe_function("psi", pair.psi, grid_size, strict_below=True),
        phi=_probe_function("phi", pair.phi, grid_size, strict_below=False),
        grid_size=grid_size,
    )


# ---------------------------------------------------------------------------
# Contraction checks over sampled pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractionWitness:
    side: str  # "mu" | "nu"
    x: object
    y: object
    t: float
    lhs: float
    rhs: float

    def to_dict(self, domain=None) -> dict:
        describe = domain.describe if domain is not None else (lambda p: p)
        return {
            "side": self.side,
            "x": describe(self.x),
            "y": describe(self.y),
            "t": self.t,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass
class ContractionReport:
    condition: str  # "psi-phi" | "k"
    space_name: str
    map_name: str
    t_grid: tuple[float, ...]
    samples_checked: int
    violation_count: int
    witnesses: list[ContractionWitness]
    domain: object = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "space": self.space_name,
            "map": self.map_name,
            "t_grid": list(self.t_grid),
            "samples_checked": self.samples_checked,
            "violation_count": self.violation_count,
            "passed": self.passed,
            "witnesses": [w.to_dict(self.domain) for w in self.witnesses],
        }


# Side predicates: one side ("mu" or "nu") of a condition at one pair and t,
# as (violated, lhs, rhs) of g = grade(x, y, t) and g_f = grade(f(x), f(y), t).
# Each works on floats and on numpy arrays alike: the pairwise scan applies
# it to grade tables, its shrinker and the sequence checks to single values.
# Where an antecedent fails ("dead"), lhs and rhs take values that make the
# comparison false.  A comparison with NaN is false, so a NaN grade is never
# dead and never violates.


def _unless(dead, fn, arg, fallback):
    """fn(arg), or ``fallback`` where ``dead`` holds.  On arrays fn runs
    through its array form (`array_form`) on the live entries only, so a
    control function is never called where its antecedent fails."""
    if isinstance(dead, np.ndarray):
        out = np.full(dead.shape, fallback)
        live = ~dead
        out[live] = array_form(fn, 1)(arg[live])
        return out
    return fallback if dead else fn(arg)


def _gap(v):
    """The reciprocal gap 1/v - 1."""
    return 1.0 / v - 1.0


def _gap_array(v):
    with np.errstate(over="ignore"):  # 1/subnormal is inf, as for floats
        return 1.0 / v - 1.0


_gap.array = _gap_array


def _psi_phi_side(pair: PsiPhiPair, side: str, g, g_f):
    """psi(mu_f) >= mu when mu > 0, and phi(nu_f) <= nu when nu < 1; the
    vacuous antecedents (mu <= 0, nu >= 1) satisfy the implication."""
    if side == "mu":
        lhs = _unless(g <= 0.0, pair.psi, g_f, 0.0)
        return lhs < g - CHECK_TOL, lhs, g
    lhs = _unless(g >= 1.0, pair.phi, g_f, 1.0)
    return lhs > g + CHECK_TOL, lhs, g


def _k_side(k: float, side: str, g, g_f):
    """1/g_f - 1 <= c * (1/g - 1) with c = k on the mu side and 1/k on the
    nu side.  A zero grade on either end skips the comparison (the
    reciprocal gap is undefined there)."""
    dead = (g <= 0.0) | (g_f <= 0.0)
    lhs = _unless(dead, _gap, g_f, 0.0)
    rhs = (k if side == "mu" else 1.0 / k) * _unless(dead, _gap, g, 0.0)
    # Reciprocal gaps are unbounded, so the tolerance scales with the
    # comparison magnitude; a flat 1e-12 would sit below one ulp for large
    # gaps and turn rounding noise into violations.  lhs > rhs + tol *
    # max(1, |lhs|, |rhs|) is written as one comparison per term of the max
    # (the largest term gives the largest bound), which floats and arrays
    # both evaluate.
    violated = ((lhs > rhs + CHECK_TOL) & (lhs > rhs + CHECK_TOL * abs(lhs))
                & (lhs > rhs + CHECK_TOL * abs(rhs)))
    return violated, lhs, rhs


def _minimize_contraction_witness(space, f, side_check, witness: ContractionWitness,
                                  t_target: float) -> ContractionWitness:
    """Shrink the witness pair toward its midpoint (fixed per round) and t
    toward the central grid value while the violation persists."""
    grade = space.mu if witness.side == "mu" else space.nu
    interval = isinstance(space.domain, IntervalDomain)

    def targets(c):
        x, y = c["x"], c["y"]
        mid = (x + y) / 2 if interval else (int(x) + int(y)) // 2
        return {"x": mid, "y": mid, "t": t_target}

    def violated_at(c):
        x, y, t = c["x"], c["y"], c["t"]
        return side_check(witness.side, grade(x, y, t), grade(f(x), f(y), t))

    coords = {"x": witness.x, "y": witness.y, "t": witness.t}
    c, lhs, rhs = shrink(space.domain, coords, targets, violated_at, witness.lhs, witness.rhs)
    return ContractionWitness(witness.side, c["x"], c["y"], c["t"], lhs, rhs)


def _run_contraction_check(space, f, sampler, condition, side_check) -> ContractionReport:
    pairs = draw_array(space.domain, sampler, 2)
    t_grid = sampler.t_grid
    t_target = t_grid[len(t_grid) // 2]
    grid = np.array(t_grid)
    sides = (("mu", array_form(space.mu, 3)), ("nu", array_form(space.nu, 3)))
    violations = 0
    raw_witnesses: list[ContractionWitness] = []
    for chunk in chunks(pairs, max(1, _CHUNK_CELLS // len(t_grid))):
        x, y = chunk.T
        fx, fy = f.array(x)[:, None], f.array(y)[:, None]
        checked = [side_check(side, grade(x[:, None], y[:, None], grid), grade(fx, fy, grid))
                   for side, grade in sides]
        # (pair, t, side): flat order is the pair-by-pair scan order
        bad = np.stack([violated for violated, _, _ in checked], axis=2)
        hits = int(np.count_nonzero(bad))
        violations += hits
        room = MAX_WITNESSES - len(raw_witnesses)
        if not hits or room <= 0:
            continue
        for cell in np.flatnonzero(bad)[:room].tolist():
            rc, s = divmod(cell, 2)
            r, c = divmod(rc, len(t_grid))
            _, lhs, rhs = checked[s]
            raw_witnesses.append(ContractionWitness(
                sides[s][0], x[r].tolist(), y[r].tolist(), t_grid[c],
                lhs[r, c].tolist(), rhs[r, c].tolist()))

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


def check_psi_phi_contractive(space: IFSpace, f: SelfMap, pair: PsiPhiPair,
                              sampler: SamplerConfig) -> ContractionReport:
    """Sampled check of the psi-phi contraction condition.

    Violations are data, not errors: the report carries the total count and
    up to ten minimized witnesses, deterministically given the sampler seed.
    """
    return _run_contraction_check(space, f, sampler, "psi-phi", partial(_psi_phi_side, pair))


def check_k_contractive(space: IFSpace, f: SelfMap, k, sampler: SamplerConfig) -> ContractionReport:
    """Sampled check of the reciprocal-gap contraction condition for k."""
    kv = k.k if isinstance(k, KContraction) else _validated_k(k)
    return _run_contraction_check(space, f, sampler, "k", partial(_k_side, kv))


# ---------------------------------------------------------------------------
# Sequence predicates over iteration traces
# ---------------------------------------------------------------------------


def is_contractive_sequence(trace: "IterationTrace", pair: PsiPhiPair):
    """Whether the traced orbit satisfies, at every step n and grid t,

        mu(x_n, x_{n+1}, t) > 0  =>  psi(mu(x_{n+1}, x_{n+2}, t)) >= mu(x_n, x_{n+1}, t)
        nu(x_n, x_{n+1}, t) < 1  =>  phi(nu(x_{n+1}, x_{n+2}, t)) <= nu(x_n, x_{n+1}, t)

    within 1e-12, the pairwise condition along the orbit.  Returns (ok,
    first_failing_step) with the step index None when the trace passes.
    """
    return _first_failing_step(trace, partial(_psi_phi_side, pair))


def is_k_contractive_sequence(trace: "IterationTrace", k):
    """Trace-level variant of the reciprocal-gap condition: consecutive
    diagnostic values must satisfy the k inequalities at every grid t.
    Zero grades are skipped on the affected side, as in the pairwise check.
    """
    kv = k.k if isinstance(k, KContraction) else _validated_k(k)
    return _first_failing_step(trace, partial(_k_side, kv))


def _first_failing_step(trace, side_check):
    """The pairwise side predicates on consecutive diagnostics: the step
    n -> n+1 maps (x_n, x_{n+1}) to (x_{n+1}, x_{n+2})."""
    _require_three_points(trace)
    for n in range(len(trace.points) - 2):
        for t in trace.t_grid:
            for side, diag in (("mu", trace.mu_diag[t]), ("nu", trace.nu_diag[t])):
                if side_check(side, diag[n], diag[n + 1])[0]:
                    return False, n
    return True, None


def _require_three_points(trace):
    if len(trace.points) < 3:
        raise PreconditionError(
            f"sequence predicates need at least 3 trace points, got {len(trace.points)}"
        )
