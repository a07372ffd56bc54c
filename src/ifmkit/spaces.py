"""Point domains and intuitionistic fuzzy metric structure.

A space carries a nearness grade mu(x, y, t) and a non-nearness grade
nu(x, y, t) over pairs of points and a positive time parameter, together
with a t-norm / t-conorm pair and a triangle mode:

* ``archimedean``      — triangle bounds split the time argument (t + s),
* ``non_archimedean``  — triangle bounds hold at a single t (the strong form).

Constructors never reject non-conforming grade functions; the auditor is
the place where axioms are certified or falsified, and `eval_mu` /
`eval_nu` validate single queries.

The built-in spaces attach an element-wise form of each grade function as
``mu.array`` / ``nu.array``.  Every grade table of the package (the audit
rows and continuity probe, the contraction scan, the Picard loop, the
Cauchy probes, `verify_fixed_point` and the joint continuity check) comes
from one call, `grade_tables`, the only caller of `array_form` on a grade
function: it uses these forms or, while mu and nu carry the same one
(`standard_space`), their joint form, for scalar or broadcast arguments.
``distance`` and ``same_point`` of either domain also work element-wise.
``contains_array`` is ``contains`` over a list of points:
one array comparison when every point is exactly a ``float`` (interval; a
1-d float64 array too) or an ``int`` (finite; a 1-d integer array too),
where the two agree by construction, else ``contains`` per point.

Arguments are read by the rules of `errors` (`int_field` also bounds
``line``'s n), and a caller's value appears in a message through `shown`.
Interval points, metric entries and grade results are real numbers by the
one rule, `errors.real_number`, so a bool or a numeric string is none.
"""

from __future__ import annotations

from dataclasses import field
from functools import partial
from typing import Callable

import numpy as np

from .errors import (DomainError, PreconditionError, int_field, items, real_array, real_call,
                     real_field, real_number, record, shown)
from .norms import TConorm, TNorm, UnitValue

POINT_EQ_TOL = 1e-12

ARCHIMEDEAN = "archimedean"
NON_ARCHIMEDEAN = "non_archimedean"


@record()
class IntervalDomain:
    """A real interval [lo, hi] with the absolute-difference metric."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", real_field("lo", self.lo))
        object.__setattr__(self, "hi", real_field("hi", self.hi))
        if not self.lo < self.hi:
            raise DomainError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    def contains(self, p) -> bool:
        if type(p) is not float:  # a float, the common case, is compared as is
            try:
                p = real_number(p)  # not a bool, nor a numeric string
            except DomainError:
                return False
        return self.lo - POINT_EQ_TOL <= p <= self.hi + POINT_EQ_TOL

    def contains_array(self, points) -> np.ndarray:
        if isinstance(points, np.ndarray) and points.dtype == np.float64 and points.ndim == 1:
            v = points
        elif {float}.issuperset(map(type, points)):  # every point exactly a float
            v = np.array(points, dtype=float)
        else:
            return np.array([self.contains(p) for p in points], dtype=bool)
        return (self.lo - POINT_EQ_TOL <= v) & (v <= self.hi + POINT_EQ_TOL)

    def distance(self, x, y):
        return abs(x - y)

    def same_point(self, x, y) -> bool:
        return abs(x - y) <= POINT_EQ_TOL

    def anchor(self):
        return 0.5 * (self.lo + self.hi)

    def describe(self, p):
        return float(p)

    def random_points(self, rng: np.random.Generator, shape):
        return rng.uniform(self.lo, self.hi, shape)


class FiniteDomain:
    """A finite labelled point set with an explicit metric matrix.

    Points are integer indices into ``labels``, not bools.  The matrix is
    validated at construction (square, nonnegative, zero diagonal,
    symmetric, triangle inequality, all within 1e-12) and kept once, as
    the read-only float64 ``metric``.
    """

    def __init__(self, labels, metric, *, _metric_by_construction: bool = False):
        labels = tuple(str(lab) for lab in items("labels", labels, DomainError))
        try:
            # float() takes numeric strings and bools; an integer or float array holds neither
            if not (isinstance(metric, np.ndarray) and metric.dtype.kind in "iuf"):
                for v in np.array(metric, dtype=object).flat:
                    real_number(v, "an entry")
            m = np.array(metric, dtype=float)
        except (TypeError, ValueError) as exc:  # a DomainError is a ValueError
            raise DomainError(f"metric must be a matrix of numbers: {exc}") from None
        n = len(labels)
        if m.shape != (n, n):
            raise DomainError(f"metric must be {n}x{n} to match {n} labels, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError("metric entries must be finite")
        if np.any(m < -POINT_EQ_TOL):
            raise DomainError("metric entries must be nonnegative")
        if np.any(np.abs(np.diag(m)) > POINT_EQ_TOL):
            raise DomainError("metric diagonal must be zero")
        if np.any(np.abs(m - m.T) > POINT_EQ_TOL):
            raise DomainError("metric must be symmetric")
        # One O(n^2) slab per i: bad[j, k] is m[i, k] > m[i, j] + m[j, k] + tol,
        # so the first hit of the first failing i is the lexicographically
        # first (i, j, k).
        for i in range(0 if _metric_by_construction else n):
            bad = m[i][None, :] > m[i][:, None] + m + POINT_EQ_TOL
            if bad.any():
                j, k = np.argwhere(bad)[0].tolist()
                raise DomainError(
                    f"triangle inequality fails at indices ({i}, {j}, {k}): "
                    f"{m[i, k]} > {m[i, j]} + {m[j, k]}"
                )
        m.setflags(write=False)
        self.labels = labels
        self.metric = m

    @classmethod
    def line(cls, n: int, diameter: float = 1.0) -> "FiniteDomain":
        """n >= 1 points labelled '0'..'n-1' spaced evenly over [0, diameter > 0].
        n is at most 8192, `int_field`'s upper bound: the metric is an n x n
        float64 matrix, so it stays within 512 MiB (2^26 cells)."""
        n = int_field("n", n, 1, DomainError, hi=8192)
        diameter = real_field("diameter", diameter, 0.0, open_lo=True)
        spacing = diameter / (n - 1) if n > 1 else 0.0
        i = np.arange(n, dtype=float)  # |i - j| is exact, so these are the doubles of a list build
        with np.errstate(over="ignore"):  # past the largest double is inf, refused as not finite
            metric = np.abs(i[:, None] - i) * spacing
        # a metric in exact arithmetic, whose rounding can fail the 1e-12 triangle pass
        return cls([str(k) for k in range(n)], metric, _metric_by_construction=True)

    @property
    def size(self) -> int:
        return len(self.labels)

    def points(self):
        return range(self.size)

    def contains(self, p) -> bool:  # not a bool: numpy reads one as a mask, not an index
        if type(p) is int:  # the common case, compared as is
            return 0 <= p < len(self.labels)
        return isinstance(p, (int, np.integer)) and type(p) is not bool and 0 <= int(p) < self.size

    def contains_array(self, points) -> np.ndarray:
        if isinstance(points, np.ndarray) and points.dtype.kind in "iu" and points.ndim == 1:
            v = points
        elif not {int}.issuperset(map(type, points)):  # a type other than exactly int
            return np.array([self.contains(p) for p in points], dtype=bool)
        else:  # ints past int64 make a float or an object array; both compare right
            v = np.array(points)
        return (0 <= v) & (v < self.size)

    def distance(self, x, y):
        """The exact Python float of the cell for two points; for index
        arrays, the broadcast cells ``metric[x, y]``."""
        try:
            return self.metric.item(x, y)
        except TypeError:  # index arrays; a bool point stays an error, not a mask
            if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
                return self.metric[x, y]
            raise

    def same_point(self, x, y) -> bool:
        return x == y

    def anchor(self):
        return self.size // 2

    def describe(self, p):
        return self.labels[int(p)]

    def random_points(self, rng: np.random.Generator, shape):
        return rng.integers(0, self.size, shape)

    def __repr__(self):
        return f"FiniteDomain(n={self.size})"


PointDomain = IntervalDomain | FiniteDomain


def time_grid(values, increasing: bool = False) -> tuple[float, ...]:
    """A grid of time parameters as a tuple of floats: a nonempty sequence
    (`items`) of real fields above 0 (`real_field`), strictly increasing
    when ``increasing``; otherwise a PreconditionError about ``t_grid``."""
    grid = tuple(real_field("t_grid", t, 0.0, open_lo=True, error=PreconditionError)
                 for t in items("t_grid", values))
    if not grid:
        raise PreconditionError.about("t_grid", "must be nonempty")
    if increasing and any(a >= b for a, b in zip(grid, grid[1:])):
        raise PreconditionError.about("t_grid", "must be strictly increasing")
    return grid


def array_form(fn, nargs: int):
    """The array form attached to ``fn`` as ``fn.array``; without one, fn
    called element-wise on plain Python scalars, each result read by
    `real_call`, as a float array (0-d for scalar arguments)."""
    form = getattr(fn, "array", None)
    if form is not None:
        return form
    scalar = np.frompyfunc(partial(real_call, fn), nargs, 1)
    return lambda *args: np.asarray(scalar(*args), dtype=float)


def grade_tables(space: "IFSpace", x, y, t):
    """(mu, nu) of the space at the broadcast arrays of points x, y and
    times t: one pass of the joint form ``.joint`` when mu and nu carry the
    same one, else their array forms (`array_form`).  Each table, mu's
    first, must hold integers or floats (`real_array`): strings, bools or
    objects are a DomainError naming the grade function."""
    mu, nu = space.mu, space.nu
    joint = getattr(mu, "joint", None)
    if joint is not None and joint is getattr(nu, "joint", None):
        mu_table, nu_table = joint(x, y, t)
        return real_array(mu, mu_table), real_array(nu, nu_table)
    return real_array(mu, array_form(mu, 3)(x, y, t)), real_array(nu, array_form(nu, 3)(x, y, t))


@record(eq=False)
class IFSpace:
    """An intuitionistic fuzzy metric structure over a point domain.

    ``mu`` and ``nu`` take (point, point, t > 0) and should return values in
    [0, 1]; they are stored as given and only validated through `eval_mu` /
    `eval_nu` or the auditor.
    """

    domain: PointDomain
    mu: Callable[..., float] = field(repr=False)
    nu: Callable[..., float] = field(repr=False)
    tnorm: TNorm
    tconorm: TConorm
    triangle_mode: str = ARCHIMEDEAN
    name: str = "custom"

    def __post_init__(self):
        if self.triangle_mode not in (ARCHIMEDEAN, NON_ARCHIMEDEAN):
            raise DomainError(f"unknown triangle mode {self.triangle_mode!r}")


def standard_space(domain: PointDomain, tnorm: TNorm, tconorm: TConorm) -> IFSpace:
    """The induced space mu = t/(t+d), nu = d/(t+d) over the domain's metric.

    Under the product t-norm the strong (single-t) triangle bound follows
    from the metric triangle inequality — (t+d1)(t+d2) >= t(t+d12) — so the
    space is tagged non-Archimedean exactly in that case.
    """
    distance = domain.distance  # points or arrays of them alike

    def mu(x, y, t):
        return t / (t + distance(x, y))

    def nu(x, y, t):
        d = distance(x, y)
        return d / (t + d)

    def joint(x, y, t):  # (mu, nu) from one gap table and one t + d
        d = distance(x, y)
        s = t + d
        return t / s, d / s

    mu.array = lambda x, y, t: joint(x, y, t)[0]
    nu.array = lambda x, y, t: joint(x, y, t)[1]
    mu.joint = nu.joint = joint
    mode = NON_ARCHIMEDEAN if tnorm.kind == "product" else ARCHIMEDEAN
    return IFSpace(domain, mu, nu, tnorm, tconorm, mode, name="standard")


def crisp_threshold_space(domain: PointDomain, tnorm: TNorm, tconorm: TConorm) -> IFSpace:
    """The two-valued space that switches at t = 1.

    Distinct points are fully far (mu=0, nu=1) at t <= 1 and fully near
    (mu=1, nu=0) at t > 1; identical points are always fully near.  This
    space deliberately violates strict positivity of mu at t <= 1 (the
    audit fails axiom ii); every self-map on it is psi-phi contractive,
    which makes it the canonical stress case for the contraction checker.
    """
    if isinstance(domain, FiniteDomain) and domain.size < 2:
        raise PreconditionError("crisp threshold space needs at least two points")
    same = domain.same_point

    def mu(x, y, t):
        if same(x, y):
            return 1.0
        return 1.0 if t > 1.0 else 0.0

    def nu(x, y, t):
        if same(x, y):
            return 0.0
        return 0.0 if t > 1.0 else 1.0

    mu.array = lambda x, y, t: np.where(same(x, y), 1.0, np.where(t > 1.0, 1.0, 0.0))
    nu.array = lambda x, y, t: np.where(same(x, y), 0.0, np.where(t > 1.0, 0.0, 1.0))

    return IFSpace(domain, mu, nu, tnorm, tconorm, NON_ARCHIMEDEAN, name="crisp")


def _eval_grade(space: IFSpace, name: str, x, y, t) -> UnitValue:
    t = real_field("t", t, 0.0, open_lo=True)
    for p in (x, y):
        if not space.domain.contains(p):
            raise DomainError(f"point {shown(p)} outside domain {space.domain!r}")
    v = getattr(space, name)(x, y, t)
    try:
        return UnitValue(v)
    except Exception as exc:
        raise DomainError(f"{name}({shown(x)}, {shown(y)}, {t!r}) = {shown(v)} "
                          "is not a unit value") from exc


def eval_mu(space: IFSpace, x, y, t) -> UnitValue:
    """Validated nearness evaluation: checks t > 0, domain membership, range."""
    return _eval_grade(space, "mu", x, y, t)


def eval_nu(space: IFSpace, x, y, t) -> UnitValue:
    """Validated non-nearness evaluation, mirror of `eval_mu`."""
    return _eval_grade(space, "nu", x, y, t)
