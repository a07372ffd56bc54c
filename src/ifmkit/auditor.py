"""Sampled certification / falsification of the space axioms.

Eleven numbered properties are checked per sampled tuple, plus the two
strong-triangle inequalities on spaces that claim them:

    i     mu + nu <= 1
    ii    mu > 0
    iii   mu(x,x,t) = 1; and distinct points must not have mu = 1 at every
          sampled t (the identity-of-indiscernibles direction, read over
          the sampled grid)
    iv    mu symmetric in (x, y)
    v     mu(x, z, t+s) >= mu(x, y, t) * mu(y, z, s)
    vi    continuity of mu in t — probed, not decided
    vii   nu > 0 for distinct pairs that are not fully near (mu = 1 forces
          nu = 0 through (i), so strict positivity is only meaningful when
          mu < 1)
    viii  nu(x,x,t) = 0; distinct points must show nu > 0 at some sampled t
    ix    nu symmetric
    x     nu(x, z, t+s) <= nu(x, y, t) <> nu(y, z, s)
    xi    continuity of nu in t — probed
    na-mu, na-nu: the single-t triangle bounds (and their max(t,s) variant),
          checked only on spaces tagged non-Archimedean, SKIPPED otherwise.

A violation must exceed 1e-12 on the violating side, so rounding noise
cannot fail a sound space.  Reports are deterministic given the sampler
seed, and byte-identical when serialized twice.

The rows are array comparisons over grade tables, built one chunk of drawn
tuples at a time.  Per chunk, mu and nu are tabulated once over the t-grid
for (x, y), (y, x), (y, z) and the singles (x, x), and once over the grid
plus every t+s and max(t, s) for (x, z); v, x and na-* index into those
tables instead of grading again.  A chunk covers at most 2^14
(tuple, t, s) cells, so no array grows with the sample count.

Array forms travel with the functions: a grade function or t-(co)norm
function may carry one as its ``array`` attribute, and the built-ins of
`standard_space`, `crisp_threshold_space` and `norms` do.  A function
without one (a custom space, or any wrapper around a built-in) fills the
same tables by element-wise calls on plain Python floats and ints, so a
replaced mu or nu is never audited through a stale array form.

Each row keeps its exact violation count and its first ten witnesses in
the order of a tuple-by-tuple scan: (pair, t) for the pair rows; singles,
then distinct pairs, for iii/viii; (triple, t, s) with t outer for v/x;
per triple the single-t entries, then the (t, s) entries, for na-*.  The
all-grid iii/viii witness is the min((mu, t)) / max((nu, t)) over the
grid.  Witness points, times and sides are plain Python scalars, so the
serialized report is byte-identical to that of the scalar loop.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PreconditionError, WitnessIntegrityError
from .sampling import EXHAUSTIVE, SamplerConfig, draw_array
from .sampling import draw_tuples  # noqa: F401  perfbench/tracer.py patches this name
from .spaces import IFSpace, IntervalDomain, NON_ARCHIMEDEAN

AUDIT_TOL = 1e-12
MAX_WITNESSES = 10
_CONTINUITY_GRID_POINTS = 64
_CONTINUITY_PROBE_PAIRS = 8
_MAX_SHRINK_ROUNDS = 64
# Grade tables are built per chunk of tuples; a chunk holds at most this
# many (tuple, t, s) cells, so memory stays bounded for any grid size.
_CHUNK_CELLS = 1 << 14

AXIOM_ORDER = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi",
               "na-mu", "na-nu")


@dataclass(frozen=True)
class Witness:
    axiom: str
    x: object
    y: object
    t: float
    z: object = None
    s: float | None = None
    lhs: float = 0.0
    rhs: float = 0.0

    def to_dict(self, domain=None) -> dict:
        describe = domain.describe if domain is not None else (lambda p: p)
        return {
            "x": describe(self.x),
            "y": describe(self.y),
            "z": describe(self.z) if self.z is not None else None,
            "t": self.t,
            "s": self.s,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    status: str  # "PASS" | "FAIL" | "PROBED" | "SKIPPED"
    violation_count: int = 0
    witnesses: tuple[Witness, ...] = ()
    detail: str | None = None


@dataclass
class AuditReport:
    space_name: str
    triangle_mode: str
    sampler: SamplerConfig
    checks: tuple[AxiomCheck, ...]
    domain: object = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return all(c.status != "FAIL" for c in self.checks)

    @property
    def failing_axioms(self) -> list[str]:
        return [c.axiom for c in self.checks if c.status == "FAIL"]

    def check(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    def to_dict(self) -> dict:
        return {
            "space": self.space_name,
            "triangle_mode": self.triangle_mode,
            "sampler": self.sampler.to_dict(),
            "passed": self.passed,
            "failing_axioms": self.failing_axioms,
            "checks": [
                {
                    "axiom": c.axiom,
                    "status": c.status,
                    "violation_count": c.violation_count,
                    "witnesses": [w.to_dict(self.domain) for w in c.witnesses],
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


class _Collector:
    """Accumulates violations for one axiom, keeping the first few."""

    __slots__ = ("axiom", "count", "witnesses")

    def __init__(self, axiom: str):
        self.axiom = axiom
        self.count = 0
        self.witnesses = []

    def add(self, x, y, t, z=None, s=None, lhs=0.0, rhs=0.0):
        self.witnesses.append(Witness(self.axiom, x, y, t, z=z, s=s, lhs=lhs, rhs=rhs))

    def take(self, mask) -> list[int]:
        """Count the hits of a boolean mask; return the flat indices, in
        row-major order, of those that still fit among the witnesses."""
        hits = int(np.count_nonzero(mask))
        self.count += hits
        room = MAX_WITNESSES - len(self.witnesses)
        if not hits or room <= 0:
            return []
        return np.flatnonzero(mask)[:room].tolist()

    def scan(self, mask, lhs, rhs, points, times):
        """Record the hits of a (tuples, len(times)) mask.

        Row r is the tuple ``points[.][r]`` (x, y and z, where z may be
        None) and column c the ``times[c] = (t, s)`` pair; lhs and rhs
        broadcast to the mask's shape.
        """
        cells = self.take(mask)
        if not cells:
            return
        lhs = np.broadcast_to(lhs, mask.shape)
        rhs = np.broadcast_to(rhs, mask.shape)
        for cell in cells:
            r, c = divmod(cell, mask.shape[1])
            x, y, z = (None if p is None else p[r].tolist() for p in points)
            t, s = times[c]
            self.add(x, y, t, z=z, s=s, lhs=lhs[r, c].tolist(), rhs=rhs[r, c].tolist())

    def merge(self, later: "_Collector"):
        """Append the violations of a later scan of the same axiom."""
        self.count += later.count
        self.witnesses += later.witnesses[:MAX_WITNESSES - len(self.witnesses)]

    def finish(self, detail=None) -> AxiomCheck:
        status = "FAIL" if self.count else "PASS"
        return AxiomCheck(self.axiom, status, self.count, tuple(self.witnesses), detail)


def violation_margin(space: IFSpace, w: Witness):
    """Re-evaluate a witness directly against the space.

    Returns (violated, lhs, rhs) using the same per-axiom semantics as the
    audit loops; this is the single arbiter used by `minimize_witness` and
    by soundness tests.
    """
    mu, nu = space.mu, space.nu
    same = space.domain.same_point
    x, y, z, t, s = w.x, w.y, w.z, w.t, w.s
    a = w.axiom
    if a == "i":
        total = mu(x, y, t) + nu(x, y, t)
        return total > 1.0 + AUDIT_TOL, total, 1.0
    if a == "ii":
        m = mu(x, y, t)
        return m <= 0.0, m, 0.0
    if a == "iii":
        m = mu(x, y, t)
        if same(x, y):
            return abs(m - 1.0) > AUDIT_TOL, m, 1.0
        # distinct points flagged only when fully near (strict, so a grade
        # genuinely below 1 is never a false positive)
        return m >= 1.0, m, 1.0
    if a == "iv":
        l, r = mu(x, y, t), mu(y, x, t)
        return abs(l - r) > AUDIT_TOL, l, r
    if a == "v":
        lhs = mu(x, z, t + s)
        rhs = space.tnorm.fn(mu(x, y, t), mu(y, z, s))
        return lhs < rhs - AUDIT_TOL, lhs, rhs
    if a == "vii":
        if same(x, y):
            return False, 0.0, 0.0
        m = mu(x, y, t)
        if m >= 1.0 - AUDIT_TOL:
            return False, m, 0.0
        n = nu(x, y, t)
        return n <= 0.0, n, 0.0
    if a == "viii":
        n = nu(x, y, t)
        if same(x, y):
            return abs(n) > AUDIT_TOL, n, 0.0
        return n <= 0.0, n, 0.0
    if a == "ix":
        l, r = nu(x, y, t), nu(y, x, t)
        return abs(l - r) > AUDIT_TOL, l, r
    if a == "x":
        lhs = nu(x, z, t + s)
        rhs = space.tconorm.fn(nu(x, y, t), nu(y, z, s))
        return lhs > rhs + AUDIT_TOL, lhs, rhs
    if a == "na-mu":
        if s is None:
            lhs = mu(x, z, t)
            rhs = space.tnorm.fn(mu(x, y, t), mu(y, z, t))
        else:
            lhs = mu(x, z, max(t, s))
            rhs = space.tnorm.fn(mu(x, y, t), mu(y, z, s))
        return lhs < rhs - AUDIT_TOL, lhs, rhs
    if a == "na-nu":
        if s is None:
            lhs = nu(x, z, t)
            rhs = space.tconorm.fn(nu(x, y, t), nu(y, z, t))
        else:
            lhs = nu(x, z, max(t, s))
            rhs = space.tconorm.fn(nu(x, y, t), nu(y, z, s))
        return lhs > rhs + AUDIT_TOL, lhs, rhs
    raise PreconditionError(f"axiom {a!r} has no re-evaluable violation semantics")


def _array_form(fn, nargs: int):
    """The array form attached to ``fn`` as ``fn.array``; without one, fn
    called element-wise on plain Python scalars, results as a float array."""
    form = getattr(fn, "array", None)
    if form is not None:
        return form
    scalar = np.frompyfunc(fn, nargs, 1)
    return lambda *args: scalar(*args).astype(float)


def _chunks(rows, size: int):
    for start in range(0, len(rows), size):
        yield rows[start:start + size]


class _ArrayScan:
    """The audit's predicate rows, evaluated chunk by chunk over grade tables.

    Each scan method takes one chunk of tuples and records its rows'
    violations in the scalar scan order: (pair, t); single then distinct
    pair for iii/viii; (triple, t, s) with t outer for v/x; per triple the g
    single-t entries, then the g^2 (t, s) entries, for na-*.  The
    comparisons are written as in `violation_margin`, so NaN compares the
    same way.
    """

    def __init__(self, space: IFSpace, grid: tuple[float, ...]):
        self.mu = _array_form(space.mu, 3)
        self.nu = _array_form(space.nu, 3)
        self.tnorm = _array_form(space.tnorm.fn, 2)
        self.tconorm = _array_form(space.tconorm.fn, 2)
        self.same = space.domain.same_point
        self.non_archimedean = space.triangle_mode == NON_ARCHIMEDEAN
        g = len(grid)
        self.chunk = max(1, _CHUNK_CELLS // (g * g))
        self.t_grid = grid
        self.grid = np.array(grid)
        t, s = self.grid[:, None], self.grid[None, :]
        # (x, z) is graded once over grid | {t+s} | {max(t, s)}; these index
        # its columns.  max(t, s) is written as Python's max picks.
        self.xz_times, at = np.unique(
            np.concatenate([self.grid, (t + s).ravel(), np.where(s > t, s, t).ravel()]),
            return_inverse=True,
        )
        self.at_t, self.at_sum, self.at_max = at[:g], at[g:g + g * g], at[g + g * g:]
        self.single_times = [(t, None) for t in grid]
        self.split_times = [(t, s) for t in grid for s in grid]
        self.col = {axiom: _Collector(axiom) for axiom in AXIOM_ORDER}
        # the all-grid identity rows come after every single in scan order
        self.indiscernible = {"iii": _Collector("iii"), "viii": _Collector("viii")}

    def grades(self, a, b, times=None):
        """(mu, nu) tables of shape (len(a), len(times)); the grid by default."""
        times = self.grid if times is None else times
        a, b = a[:, None], b[:, None]
        return self.mu(a, b, times), self.nu(a, b, times)

    def pairs(self, x, y, mxy, nxy):
        col, tol, times, pts = self.col, AUDIT_TOL, self.single_times, (x, y, None)
        myx, nyx = self.grades(y, x)
        total = mxy + nxy
        col["i"].scan(total > 1.0 + tol, total, 1.0, pts, times)
        col["ii"].scan(mxy <= 0.0, mxy, 0.0, pts, times)
        col["iv"].scan(abs(mxy - myx) > tol, mxy, myx, pts, times)
        col["ix"].scan(abs(nxy - nyx) > tol, nxy, nyx, pts, times)
        distinct = ~self.same(x, y)
        col["vii"].scan(distinct[:, None] & (mxy < 1.0 - tol) & (nxy <= 0.0),
                        nxy, 0.0, pts, times)
        # sampled identity of indiscernibles: distinct pairs fully near /
        # fully non-far at every grid t; the witness is the worst t
        near, far = self.indiscernible["iii"], self.indiscernible["viii"]
        for r in near.take(distinct & (mxy >= 1.0).all(axis=1)):
            m, t = min(zip(mxy[r].tolist(), self.t_grid))
            near.add(x[r].tolist(), y[r].tolist(), t, lhs=m, rhs=1.0)
        for r in far.take(distinct & (nxy <= 0.0).all(axis=1)):
            n, t = max(zip(nxy[r].tolist(), self.t_grid))
            far.add(x[r].tolist(), y[r].tolist(), t, lhs=n, rhs=0.0)

    def singles(self, x):
        col, tol, times, pts = self.col, AUDIT_TOL, self.single_times, (x, x, None)
        mxx, nxx = self.grades(x, x)
        col["iii"].scan(abs(mxx - 1.0) > tol, mxx, 1.0, pts, times)
        col["viii"].scan(abs(nxx) > tol, nxx, 0.0, pts, times)

    def triples(self, x, y, z, mxy, nxy):
        col, tol, times, pts = self.col, AUDIT_TOL, self.split_times, (x, y, z)
        myz, nyz = self.grades(y, z)
        mxz, nxz = self.grades(x, z, self.xz_times)
        # (tuples, g, g) bounds flattened with t outer, s inner
        bound = self.tnorm(mxy[:, :, None], myz[:, None, :]).reshape(len(x), -1)
        nbound = self.tconorm(nxy[:, :, None], nyz[:, None, :]).reshape(len(x), -1)
        lhs, nlhs = mxz[:, self.at_sum], nxz[:, self.at_sum]
        col["v"].scan(lhs < bound - tol, lhs, bound, pts, times)
        col["x"].scan(nlhs > nbound + tol, nlhs, nbound, pts, times)
        if not self.non_archimedean:
            return
        times = self.single_times + self.split_times
        lhs = np.concatenate([mxz[:, self.at_t], mxz[:, self.at_max]], axis=1)
        bound = np.concatenate([self.tnorm(mxy, myz), bound], axis=1)
        col["na-mu"].scan(lhs < bound - tol, lhs, bound, pts, times)
        nlhs = np.concatenate([nxz[:, self.at_t], nxz[:, self.at_max]], axis=1)
        nbound = np.concatenate([self.tconorm(nxy, nyz), nbound], axis=1)
        col["na-nu"].scan(nlhs > nbound + tol, nlhs, nbound, pts, times)


def audit_space(space: IFSpace, sampler: SamplerConfig) -> AuditReport:
    """Check every axiom on every drawn sample.

    Triangle bounds with a split time argument (v, x) sample (t, s) as
    independent grid pairs.  Spaces tagged non-Archimedean additionally get
    the single-t bounds and their max(t,s) variant (na-mu, na-nu); on other
    spaces those rows are SKIPPED.  Continuity rows (vi, xi) are probed on
    a 64-point logarithmic grid and never PASS or FAIL: finitely many
    samples cannot decide continuity.
    """
    domain = space.domain
    grid = sampler.t_grid
    scan = _ArrayScan(space, grid)

    triples = draw_array(domain, sampler, 3)
    if sampler.mode == EXHAUSTIVE:
        # enumerate each tuple exactly once so violation counts are exact
        pairs = draw_array(domain, sampler, 2)
        for chunk in _chunks(pairs, scan.chunk):
            x, y = chunk.T
            scan.pairs(x, y, *scan.grades(x, y))
        for chunk in _chunks(draw_array(domain, sampler, 1), scan.chunk):
            scan.singles(chunk[:, 0])
        for chunk in _chunks(triples, scan.chunk):
            x, y, z = chunk.T
            scan.triples(x, y, z, *scan.grades(x, y))
    else:
        # pairs and singles are the prefixes of the triples, so one set of
        # (x, y) tables serves all three scans
        pairs = triples[:, :2]
        for chunk in _chunks(triples, scan.chunk):
            x, y, z = chunk.T
            mxy, nxy = scan.grades(x, y)
            scan.pairs(x, y, mxy, nxy)
            scan.singles(x)
            scan.triples(x, y, z, mxy, nxy)

    col = scan.col
    col["iii"].merge(scan.indiscernible["iii"])
    col["viii"].merge(scan.indiscernible["viii"])
    probe_pairs = pairs[:_CONTINUITY_PROBE_PAIRS].tolist()
    checks: list[AxiomCheck] = []
    checks.append(col["i"].finish())
    checks.append(col["ii"].finish())
    checks.append(col["iii"].finish())
    checks.append(col["iv"].finish())
    checks.append(col["v"].finish())
    checks.append(_continuity_probe("vi", space.mu, probe_pairs, grid))
    checks.append(col["vii"].finish(detail="checked for distinct pairs with mu < 1"))
    checks.append(col["viii"].finish())
    checks.append(col["ix"].finish())
    checks.append(col["x"].finish())
    checks.append(_continuity_probe("xi", space.nu, probe_pairs, grid))

    if scan.non_archimedean:
        checks.append(col["na-mu"].finish(detail="single-t bound plus max(t,s) variant"))
        checks.append(col["na-nu"].finish(detail="single-t bound plus max(t,s) variant"))
    else:
        skipped = "space is not tagged non-Archimedean"
        checks.append(AxiomCheck("na-mu", "SKIPPED", detail=skipped))
        checks.append(AxiomCheck("na-nu", "SKIPPED", detail=skipped))

    return AuditReport(
        space_name=space.name,
        triangle_mode=space.triangle_mode,
        sampler=sampler,
        checks=tuple(checks),
        domain=domain,
    )


def _continuity_probe(axiom: str, grade_fn, pairs, grid) -> AxiomCheck:
    lo = min(grid) / 10.0
    hi = max(grid) * 10.0
    log_lo, log_hi = math.log(lo), math.log(hi)
    tgrid = [
        math.exp(log_lo + (log_hi - log_lo) * i / (_CONTINUITY_GRID_POINTS - 1))
        for i in range(_CONTINUITY_GRID_POINTS)
    ]
    max_delta = 0.0
    probed = 0
    for x, y in pairs:
        if probed >= _CONTINUITY_PROBE_PAIRS:
            break
        probed += 1
        values = [grade_fn(x, y, t) for t in tgrid]
        for a, b in zip(values, values[1:]):
            max_delta = max(max_delta, abs(b - a))
    return AxiomCheck(
        axiom,
        "PROBED",
        0,
        (),
        detail=f"max adjacent delta {max_delta:.6g} over {probed} pairs "
               f"on a {_CONTINUITY_GRID_POINTS}-point log grid",
    )


def minimize_witness(space: IFSpace, violation: Witness) -> Witness:
    """Shrink a violating witness toward canonical coordinates.

    Each round halves every point coordinate's distance to the domain
    anchor (the midpoint) and every time coordinate's distance to 1,
    keeping a proposed step only if the violation persists.  Runs at most
    64 rounds.  A witness that does not reproduce raises
    `WitnessIntegrityError`, which signals a nondeterministic space.
    """
    violated, lhs, rhs = violation_margin(space, violation)
    if not violated:
        raise WitnessIntegrityError(
            f"witness for axiom {violation.axiom!r} does not reproduce its violation"
        )
    domain = space.domain
    interval = isinstance(domain, IntervalDomain)
    anchor = domain.anchor()

    def half_point(p):
        if interval:
            return p + (anchor - p) * 0.5
        return int(p) + (int(anchor) - int(p)) // 2

    def half_time(t):
        return t + (1.0 - t) * 0.5

    current = replace(violation, lhs=lhs, rhs=rhs)
    for _ in range(_MAX_SHRINK_ROUNDS):
        moved = False
        for coord in ("x", "y", "z", "t", "s"):
            old = getattr(current, coord)
            if old is None:
                continue
            new = half_time(old) if coord in ("t", "s") else half_point(old)
            if new == old:
                continue
            candidate = replace(current, **{coord: new})
            ok, cl, cr = violation_margin(space, candidate)
            if ok:
                current = replace(candidate, lhs=cl, rhs=cr)
                moved = True
        if not moved:
            break
    return current
