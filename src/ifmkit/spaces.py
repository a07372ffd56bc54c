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
``mu.array`` / ``nu.array``, which the auditor, the contraction scan and
the Picard diagnostics evaluate on point and time arrays (`array_form`);
``same_point`` of either domain also works element-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, PreconditionError
from .norms import TConorm, TNorm, UnitValue

POINT_EQ_TOL = 1e-12

ARCHIMEDEAN = "archimedean"
NON_ARCHIMEDEAN = "non_archimedean"


@dataclass(frozen=True)
class IntervalDomain:
    """A real interval [lo, hi] with the absolute-difference metric."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("interval bounds must be finite")
        if not self.lo < self.hi:
            raise DomainError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    kind = "interval"

    def contains(self, p) -> bool:
        try:
            v = float(p)
        except (TypeError, ValueError):
            return False
        return self.lo - POINT_EQ_TOL <= v <= self.hi + POINT_EQ_TOL

    def distance(self, x, y) -> float:
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

    Points are integer indices into ``labels``.  The matrix is validated at
    construction: square, nonnegative, zero diagonal, symmetric, and the
    triangle inequality must hold (all within 1e-12).
    """

    kind = "finite"

    def __init__(self, labels, metric):
        labels = tuple(str(lab) for lab in labels)
        m = np.array(metric, dtype=float)
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
        for i in range(n):
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
        self._rows = m.tolist()  # plain lists: fast scalar lookups in hot loops

    @classmethod
    def line(cls, n: int, diameter: float = 1.0) -> "FiniteDomain":
        """n points labelled '0'..'n-1' spaced evenly over [0, diameter]."""
        if n < 1:
            raise DomainError("line domain needs at least one point")
        spacing = diameter / (n - 1) if n > 1 else 0.0
        metric = [[abs(i - j) * spacing for j in range(n)] for i in range(n)]
        return cls([str(i) for i in range(n)], metric)

    @property
    def size(self) -> int:
        return len(self.labels)

    def points(self):
        return range(self.size)

    def contains(self, p) -> bool:
        return isinstance(p, (int, np.integer)) and 0 <= int(p) < self.size

    def distance(self, x, y) -> float:
        return self._rows[x][y]

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


def array_form(fn, nargs: int):
    """The array form attached to ``fn`` as ``fn.array``; without one, fn
    called element-wise on plain Python scalars, results as a float array."""
    form = getattr(fn, "array", None)
    if form is not None:
        return form
    scalar = np.frompyfunc(fn, nargs, 1)
    return lambda *args: scalar(*args).astype(float)


@dataclass(frozen=True, eq=False)
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
    if isinstance(domain, IntervalDomain):

        def mu(x, y, t):
            return t / (t + abs(x - y))

        def nu(x, y, t):
            d = abs(x - y)
            return d / (t + d)

        # the same arithmetic works element-wise on arrays
        mu.array, nu.array = mu, nu

    else:
        rows, metric = domain._rows, domain.metric

        def mu(x, y, t):
            return t / (t + rows[x][y])

        def nu(x, y, t):
            d = rows[x][y]
            return d / (t + d)

        def mu_array(x, y, t):
            return t / (t + metric[x, y])

        def nu_array(x, y, t):
            d = metric[x, y]
            return d / (t + d)

        mu.array, nu.array = mu_array, nu_array

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
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t > 0):
        raise DomainError(f"time parameter must be positive and finite, got {t!r}")
    for p in (x, y):
        if not space.domain.contains(p):
            raise DomainError(f"point {p!r} outside domain {space.domain!r}")
    v = getattr(space, name)(x, y, float(t))
    try:
        return UnitValue(v)
    except Exception as exc:
        raise DomainError(f"{name}({x!r}, {y!r}, {t!r}) = {v!r} is not a unit value") from exc


def eval_mu(space: IFSpace, x, y, t) -> UnitValue:
    """Validated nearness evaluation: checks t > 0, domain membership, range."""
    return _eval_grade(space, "mu", x, y, t)


def eval_nu(space: IFSpace, x, y, t) -> UnitValue:
    """Validated non-nearness evaluation, mirror of `eval_mu`."""
    return _eval_grade(space, "nu", x, y, t)
