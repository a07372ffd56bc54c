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
`_k_side`, which work on floats and numpy arrays alike.  Each is the
negation of the condition that must hold, so a NaN grade violates; so does
a NaN at the other end of a vacuous antecedent.  The pairwise scan applies
them to grade tables, its witness shrinker (`sampling.shrink`) to the
grades of one witness, and the sequence predicates over iteration traces
to consecutive diagnostic columns.

The scan draws its pairs as one array and works through them in chunks of
at most 2^14 (pair, t) cells (`sampling.chunks`), so memory does not grow
with the sample count.  Per chunk it maps the points once (`SelfMap.array`),
tabulates mu and nu of (x, y) and of (f(x), f(y)) over the grid as
(times, pairs) tables (`grade_tables`), and applies the side predicates as
masks; a `sampling.Recorder`, given them as one (pair, t, side) array,
keeps the exact violation count and the first ten witnesses in the order
of a pair-by-pair scan: pair, then t, then mu before nu.  Array forms
travel with the functions, as in the auditor: grade functions and the
`from_k` controls carry one as ``fn.array``, and so does the closure
``fn`` of every built-in `SelfMap` (an image table's indexes its images
as one numpy array); any other callable (a custom control, a user
closure) is evaluated element-wise on plain Python scalars.  A control
function is only called where its antecedent holds.  Every grade and
control result is read by the one rule, `errors.real_number`, and every
table an array form returns by `errors.real_array`.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import field
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import (DomainError, PreconditionError, int_field, items, real_array,
                     real_call, real_field, real_result, record, shown)
from .norms import _closest_witness
from .sampling import Recorder, SamplerConfig, chunks, draw_array, shrink, violated
from .sampling import draw_tuples  # noqa: F401  perfbench/tracer.py patches this name
from .spaces import IFSpace, IntervalDomain, array_form, grade_tables

if TYPE_CHECKING:  # pragma: no cover
    from .solver import IterationTrace

CHECK_TOL = 1e-12
_JUMP_THRESHOLD = 0.1
_SIDES = ("mu", "nu")
_NO_ERRSTATE = nullcontext()  # reusable: the shrinker's float calls build no context


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
    """k as a float in (0, 1) (`real_field`); DomainError otherwise."""
    return real_field("k", k, 0.0, 1.0, open_lo=True)


@record()
class KContraction:
    """The constant k of the k-contraction condition, checked to lie in (0, 1)."""

    k: float

    def __post_init__(self):
        object.__setattr__(self, "k", _validated_k(self.k))


def _k_constant(k) -> float:
    """The constant of the k check: a `KContraction`'s, or k validated."""
    return k.k if isinstance(k, KContraction) else _validated_k(k)


@record()
class PsiPhiPair:
    """A psi/phi control pair.  Constructed pairs are not verified here;
    `check_admissible` reports range, strictness, monotonicity and a
    continuity probe."""

    psi: Callable[[float], float] = field(repr=False)
    phi: Callable[[float], float] = field(repr=False)

    @classmethod
    def from_k(cls, k: float) -> "PsiPhiPair":
        k = _validated_k(k)
        return cls(psi_from_k(k), phi_from_k(k))


def pair_from_k(k: float) -> PsiPhiPair:
    return PsiPhiPair.from_k(k)


@record(eq=False)
class SelfMap:
    """A self-map of a point domain, applied through the closure ``fn``:
    calling the map, `array` and the Picard loop all step with ``fn``.

    `array` maps a whole array of points.  The built-in maps carry an array
    form as ``fn.array``; a closure without one is called element-wise on
    plain Python scalars.  `scale` also carries ``fn.orbit(x, n)``, the
    next n iterates from a float x as one float64 array, which the Picard
    loop uses.  A finite image table (`table`) is a closure that
    looks points up in its ``images``, which it keeps, so tables compare and
    hash by name and images; any other map compares and hashes by name and
    ``fn``.
    """

    fn: Callable = field(repr=False)
    name: str = "closure"
    images: tuple[int, ...] | None = None

    @classmethod
    def table(cls, images) -> "SelfMap":
        images = items("images", images, DomainError)
        images = tuple(int_field("images", i, 0, DomainError, hi=len(images) - 1) for i in images)

        def fn(i):
            return images[i]

        fn.array = np.array(images).__getitem__
        return cls(fn, "table", images)

    @classmethod
    def closure(cls, fn: Callable, name: str = "closure") -> "SelfMap":
        return cls(fn, name)

    @classmethod
    def scale(cls, factor: float) -> "SelfMap":
        c = real_field("factor", factor)

        def fn(x):
            return c * x

        def orbit(x: float, n: int) -> np.ndarray:
            # the next n iterates from a float x, as one running product of
            # [x, c, c, ...]: IEEE products commute and round alike in numpy
            # and Python, so these are the doubles of n calls of fn
            factors = np.full(n + 1, c)
            factors[0] = x
            with np.errstate(all="ignore"):  # Python floats overflow to inf silently
                return np.multiply.accumulate(factors, out=factors)[1:]

        fn.array = fn
        fn.orbit = orbit
        return cls.closure(fn, name=f"scale({c:g})")

    @classmethod
    def constant(cls, value) -> "SelfMap":
        def fn(_x):
            return value

        fn.array = lambda xs: np.full(np.shape(xs), value)
        return cls.closure(fn, name=f"constant({shown(value)})")

    @classmethod
    def identity(cls) -> "SelfMap":
        def fn(x):
            return x

        fn.array = fn
        return cls.closure(fn, name="identity")

    @classmethod
    def affine_clamped(cls, a: float, b: float, lo: float, hi: float) -> "SelfMap":
        a, b = real_field("a", a), real_field("b", b)
        lo, hi = real_field("lo", lo), real_field("hi", hi)

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

    def _key(self) -> tuple:
        return self.name, self.fn if self.images is None else self.images

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, SelfMap) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __call__(self, x):
        return self.fn(x)

    def array(self, xs: np.ndarray) -> np.ndarray:
        """The images of a 1-d array of points, element by element."""
        form = getattr(self.fn, "array", None)
        if form is not None:
            return form(xs)
        # the dtype follows the images; an array or bool image stays an object, outside
        # every finite domain, instead of becoming an array or the point 0 or 1
        images = [self.fn(x) for x in xs.tolist()]
        return np.array(images, dtype=object if any(isinstance(i, (np.ndarray, bool, np.bool_))
                                                    for i in images) else None)

    def apply_checked(self, domain, x):
        y = self(x)
        if not domain.contains(y):
            raise self.domain_error(x, y)
        return y

    def domain_error(self, x, y) -> DomainError:
        """The error of a step that sends x to y, outside the domain."""
        return DomainError(f"map {self.name} sends {shown(x)} to {shown(y)}, outside the domain")


# ---------------------------------------------------------------------------
# Admissibility of control pairs
# ---------------------------------------------------------------------------


@record()
class FunctionAdmissibility:
    """The grid probe of one control function.  `max_grid_jump` is the
    largest |f(s') - f(s)| over neighbouring grid points that is not NaN;
    a NaN difference counts as a jump for `continuity_ok` instead."""

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


@record()
class AdmissibilityReport:
    """The result of `check_admissible`: the grid probes of psi and phi."""

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
    if abs(real_call(fn, b) - real_call(fn, a)) <= _JUMP_THRESHOLD:  # a NaN gap is a jump
        return False
    if depth == 0 or b - a <= 1e-9:
        return True
    m = 0.5 * (a + b)
    return _persistent_jump(fn, a, m, depth - 1) or _persistent_jump(fn, m, b, depth - 1)


def _probe_function(label: str, fn, grid_size: int, strict_below: bool) -> FunctionAdmissibility:
    grid = [i / (grid_size - 1) for i in range(grid_size)]
    values = [real_call(fn, t) for t in grid]

    # violations as (operands, results) for `_closest_witness`
    range_viol = [((t,), (v,)) for t, v in zip(grid, values)
                  if math.isnan(v) or v < 0.0 or v > 1.0]
    strict_viol = [((t,), (v,)) for t, v in zip(grid[1:-1], values[1:-1])
                   if not (v < t if strict_below else v > t)]

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

    max_jump = max((abs(d) for d in deltas if not math.isnan(d)), default=0.0)
    continuity_ok = True
    for i, d in enumerate(deltas):
        if not abs(d) <= _JUMP_THRESHOLD and _persistent_jump(fn, grid[i], grid[i + 1]):
            continuity_ok = False
            break

    return FunctionAdmissibility(
        label=label,
        range_ok=not range_viol,
        range_witness=_closest_witness(range_viol),
        strict_ok=not strict_viol,
        strict_witness=_closest_witness(strict_viol),
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
    Boundary values psi(1)=1 and phi(0)=0 are admissible.  ``grid_size`` is
    an integer field in [2, intp max] (`int_field`'s bounds), the most items
    a Python list holds: each probe lists the grid's values.
    """
    grid_size = int_field("grid_size", grid_size, 2, hi=np.iinfo(np.intp).max)
    return AdmissibilityReport(
        psi=_probe_function("psi", pair.psi, grid_size, strict_below=True),
        phi=_probe_function("phi", pair.phi, grid_size, strict_below=False),
        grid_size=grid_size,
    )


# ---------------------------------------------------------------------------
# Contraction checks over sampled pairs
# ---------------------------------------------------------------------------


@record()
class ContractionWitness:
    """One pair of points at which a map breaks a contraction on one side."""

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


@record(frozen=False)
class ContractionReport:
    """The result of a contraction check: the pairs checked and the first witnesses."""

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
# it to grade tables, the sequence checks to diagnostic columns and its
# shrinker to single values.
# Each returns the negation of the condition that must hold.  Where an
# antecedent fails ("dead"), lhs and rhs take values that satisfy it.  A
# comparison with NaN is false, so a NaN grade is never dead and violates;
# a NaN at the other end of a dead entry violates too.


def _unless(dead, fn, arg, fallback):
    """fn(arg), or ``fallback`` where ``dead`` holds.  On arrays fn runs
    through its array form (`array_form`) on the live entries only, flat
    in row-major order, so a control function is never called where its
    antecedent fails, and its table is read by `real_array`.  The result is
    float64, shaped like ``dead``; with every entry live, no scatter."""
    if not isinstance(dead, np.ndarray):  # one value, read as a real number
        v = fallback if dead else fn(arg)
        return v if type(v) is float else real_result(fn, (arg,), v)
    every = not dead.any()
    live = slice(None) if every else ~dead.reshape(-1)
    values = real_array(fn, array_form(fn, 1)(arg.reshape(-1)[live]))
    as_is = every and type(values) is np.ndarray and values.dtype == np.float64
    if as_is and values.shape == (dead.size,):
        return values.reshape(dead.shape)
    out = np.full(dead.size, fallback)
    out[live] = values
    return out.reshape(dead.shape)


def _gap(v):
    """The reciprocal gap 1/v - 1."""
    return 1.0 / v - 1.0


_gap.array = _gap  # the same arithmetic works element-wise on arrays


def _psi_phi_side(pair: PsiPhiPair, side: str, g, g_f):
    """psi(mu_f) >= mu when mu > 0, and phi(nu_f) <= nu when nu < 1; the
    vacuous antecedents (mu <= 0, nu >= 1) satisfy the implication."""
    if side == "mu":
        lhs = _unless(g <= 0.0, pair.psi, g_f, 0.0)
        ok = lhs >= g - CHECK_TOL
    else:
        lhs = _unless(g >= 1.0, pair.phi, g_f, 1.0)
        ok = lhs <= g + CHECK_TOL
    return violated(ok & (g_f == g_f)), lhs, g


def _k_side(k: float, side: str, g, g_f):
    """1/g_f - 1 <= c * (1/g - 1) with c = k on the mu side and 1/k on the
    nu side.  A zero grade on either end skips the comparison (the
    reciprocal gap is undefined there), unless the other end is NaN."""
    dead = (g <= 0.0) | (g_f <= 0.0)
    # A gap past the largest double is inf.  numpy (arrays, numpy scalars)
    # warns on the overflow and Python floats do not, so the shrinker's
    # float calls skip the cost of np.errstate.
    with _NO_ERRSTATE if type(dead) is bool else np.errstate(over="ignore"):
        lhs = _unless(dead, _gap, g_f, 0.0)
        rhs = (k if side == "mu" else 1.0 / k) * _unless(dead, _gap, g, 0.0)
    # Reciprocal gaps are unbounded, so the tolerance scales with the
    # comparison magnitude; a flat 1e-12 would sit below one ulp for large
    # gaps and turn rounding noise into violations.  lhs <= rhs + tol *
    # max(1, |lhs|, |rhs|) is written as one comparison per term of the max
    # (the largest term gives the largest bound), which floats and arrays
    # both evaluate.
    ok = ((lhs <= rhs + CHECK_TOL) | (lhs <= rhs + CHECK_TOL * abs(lhs))
          | (lhs <= rhs + CHECK_TOL * abs(rhs)))
    return violated(ok & (g == g) & (g_f == g_f)), lhs, rhs


def _minimize_contraction_witness(space, f, side_check, witness: ContractionWitness,
                                  t_target: float) -> ContractionWitness:
    """Shrink the witness pair toward its midpoint (fixed per round) and t
    toward the central grid value while the violation persists; f sending a
    shrunk x, then y, outside the domain raises `SelfMap.domain_error`."""
    grade = space.mu if witness.side == "mu" else space.nu
    step = f.fn  # the closure itself, as the Picard loop steps
    domain = space.domain
    interval = isinstance(domain, IntervalDomain)

    def targets(c):
        x, y = c["x"], c["y"]
        mid = (x + y) / 2 if interval else (int(x) + int(y)) // 2
        return {"x": mid, "y": mid, "t": t_target}

    def violated_at(c):
        x, y, t = c["x"], c["y"], c["t"]
        fx, fy = step(x), step(y)
        if not domain.contains(fx):
            raise f.domain_error(x, fx)
        if not domain.contains(fy):
            raise f.domain_error(y, fy)
        g, g_f = grade(x, y, t), grade(fx, fy, t)
        if type(g) is not float or type(g_f) is not float:  # read as real numbers
            g, g_f = real_result(grade, (x, y, t), g), real_result(grade, (fx, fy, t), g_f)
        return side_check(witness.side, g, g_f)

    coords = {"x": witness.x, "y": witness.y, "t": witness.t}
    c, lhs, rhs = shrink(domain, coords, targets, violated_at, witness.lhs, witness.rhs)
    return ContractionWitness(witness.side, c["x"], c["y"], c["t"], lhs, rhs)


def _run_contraction_check(space, f, sampler, condition, side_check) -> ContractionReport:
    pairs = draw_array(space.domain, sampler, 2)
    t_grid = sampler.t_grid
    t_target = t_grid[len(t_grid) // 2]
    grid = np.array(t_grid)[:, None]  # a column: tables are (times, pairs)
    found = Recorder()
    for chunk in chunks(pairs, len(t_grid)):
        x, y = chunk.T
        fx, fy = f.array(x), f.array(y)
        outside = ~np.stack([space.domain.contains_array(fx), space.domain.contains_array(fy)], 1)
        if outside.any():  # not a self-map: the first pair in scan order, x before y
            r, s = divmod(int(outside.argmax()), 2)
            raise f.domain_error(chunk[r, s].tolist(), (fx, fy)[s].tolist()[r])
        grades = grade_tables(space, x, y, grid)
        mapped = grade_tables(space, fx, fy, grid)
        checked = [side_check(*args) for args in zip(_SIDES, grades, mapped)]

        def witness(r, c, s):
            _, lhs, rhs = checked[s]
            return ContractionWitness(_SIDES[s], x[r].tolist(), y[r].tolist(), t_grid[c],
                                      lhs[c, r].tolist(), rhs[c, r].tolist())

        # (pair, t, side) by transposing: row-major order is the pair-by-pair scan order
        found.record(np.stack([bad for bad, _, _ in checked]).T, witness)

    witnesses = [
        _minimize_contraction_witness(space, f, side_check, w, t_target)
        for w in found.witnesses
    ]
    return ContractionReport(
        condition=condition,
        space_name=space.name,
        map_name=f.name,
        t_grid=t_grid,
        samples_checked=len(pairs),
        violation_count=found.count,
        witnesses=witnesses,
        domain=space.domain,
    )


def check_psi_phi_contractive(space: IFSpace, f: SelfMap, pair: PsiPhiPair,
                              sampler: SamplerConfig) -> ContractionReport:
    """Sampled check of the psi-phi contraction condition.

    Violations are data, not errors: the report carries the total count and
    up to ten minimized witnesses, deterministically given the sampler seed.
    f must be a self-map: the first sampled (scan order, x before y) or
    shrunk point it sends outside the domain raises `SelfMap.domain_error`.
    """
    return _run_contraction_check(space, f, sampler, "psi-phi", partial(_psi_phi_side, pair))


def check_k_contractive(space: IFSpace, f: SelfMap, k, sampler: SamplerConfig) -> ContractionReport:
    """Sampled check of the reciprocal-gap contraction condition for k; a
    map that is not a self-map raises as in `check_psi_phi_contractive`."""
    return _run_contraction_check(space, f, sampler, "k", partial(_k_side, _k_constant(k)))


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
    return _first_failing_step(trace, partial(_k_side, _k_constant(k)))


def _first_failing_step(trace, side_check):
    """The pairwise side predicates on consecutive diagnostics: the step
    n -> n+1 maps (x_n, x_{n+1}) to (x_{n+1}, x_{n+2}).  Each side is
    checked once per grid t, on whole diagnostic columns; the smallest
    failing n is returned."""
    steps = len(trace.points) - 2
    if steps < 1:
        raise PreconditionError(
            f"sequence predicates need at least 3 trace points, got {len(trace.points)}")
    first = steps
    for t in trace.t_grid:
        for side, diag in (("mu", trace.mu_diag[t]), ("nu", trace.nu_diag[t])):
            g = np.asarray(diag, dtype=np.float64)
            bad = side_check(side, g[:-1], g[1:])[0]
            if bad.any():
                first = min(first, int(bad.argmax()))
    return (True, None) if first == steps else (False, first)
