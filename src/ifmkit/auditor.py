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

Each row's comparison is one predicate over grade values, written so that
it works on Python floats and numpy arrays alike: `_ArrayScan` applies it
to grade tables and `violation_margin` to the grades of one witness, so a
reported witness re-checks by the very comparison that found it.
`minimize_witness` shrinks witnesses through `sampling.shrink`.

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
from .sampling import EXHAUSTIVE, MAX_WITNESSES, SamplerConfig, chunks, draw_array, shrink
from .sampling import draw_tuples  # noqa: F401  perfbench/tracer.py patches this name
from .spaces import IFSpace, NON_ARCHIMEDEAN, array_form

AUDIT_TOL = 1e-12
_CONTINUITY_GRID_POINTS = 64
_CONTINUITY_PROBE_PAIRS = 8
# Grade tables are built per chunk of tuples; a chunk holds at most this
# many (tuple, t, s) cells, so memory stays bounded for any grid size.
_CHUNK_CELLS = 1 << 14

AXIOM_ORDER = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi",
               "na-mu", "na-nu")
_DETAILS = {"vii": "checked for distinct pairs with mu < 1",
            "na-mu": "single-t bound plus max(t,s) variant",
            "na-nu": "single-t bound plus max(t,s) variant"}


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


# Row predicates: grade values -> (violated, lhs, rhs).  Each works on Python
# floats and on numpy arrays alike, so `_ArrayScan` applies it to grade
# tables and `violation_margin` to the grades of one witness.  A comparison
# with NaN is false, so NaN grades never count as violations here.


def _sum_at_most_one(m, n):  # i
    total = m + n
    return total > 1.0 + AUDIT_TOL, total, 1.0


def _positive(g):  # ii; vii and viii on distinct pairs
    return g <= 0.0, g, 0.0


def _below_one(m):  # iii on distinct pairs, at each sampled t
    # strict, so a grade genuinely below 1 is never a false positive
    return m >= 1.0, m, 1.0


def _equal(left, right):  # iv, ix; iii and viii on the diagonal (right = 1, 0)
    return abs(left - right) > AUDIT_TOL, left, right


def _mu_triangle(lhs, bound):  # v, na-mu
    return lhs < bound - AUDIT_TOL, lhs, bound


def _nu_triangle(lhs, bound):  # x, na-nu
    return lhs > bound + AUDIT_TOL, lhs, bound


def _nu_positive_unless_near(distinct, m, n):  # vii
    return distinct & (m < 1.0 - AUDIT_TOL) & (n <= 0.0), n, 0.0


def violation_margin(space: IFSpace, w: Witness):
    """Re-evaluate a witness directly against the space.

    Returns (violated, lhs, rhs) from the same row predicates as the audit
    scan; this is the single arbiter used by `minimize_witness` and by
    soundness tests.  On iii and viii a witness with x = y is checked
    against the diagonal row, any other against the distinct-pair row.
    """
    mu, nu = space.mu, space.nu
    x, y, z, t, s = w.x, w.y, w.z, w.t, w.s
    a = w.axiom
    if a in ("v", "na-mu", "x", "na-nu"):
        if a in ("v", "na-mu"):
            grade, op, row = mu, space.tnorm.fn, _mu_triangle
        else:
            grade, op, row = nu, space.tconorm.fn, _nu_triangle
        if a in ("v", "x"):
            at = t + s
        elif s is None:  # the single-t na bound
            at = s = t
        else:
            at = max(t, s)
        return row(grade(x, z, at), op(grade(x, y, t), grade(y, z, s)))
    same = space.domain.same_point(x, y)
    if a == "i":
        return _sum_at_most_one(mu(x, y, t), nu(x, y, t))
    if a == "ii":
        return _positive(mu(x, y, t))
    if a == "iii":
        return _equal(mu(x, y, t), 1.0) if same else _below_one(mu(x, y, t))
    if a == "iv":
        return _equal(mu(x, y, t), mu(y, x, t))
    if a == "vii":
        return _nu_positive_unless_near(not same, mu(x, y, t), nu(x, y, t))
    if a == "viii":
        return _equal(nu(x, y, t), 0.0) if same else _positive(nu(x, y, t))
    if a == "ix":
        return _equal(nu(x, y, t), nu(y, x, t))
    raise PreconditionError(f"axiom {a!r} has no re-evaluable violation semantics")


class _ArrayScan:
    """The audit's predicate rows, evaluated chunk by chunk over grade tables.

    Each scan method takes one chunk of tuples and records its rows'
    violations in the scalar scan order: (pair, t); single then distinct
    pair for iii/viii; (triple, t, s) with t outer for v/x; per triple the g
    single-t entries, then the g^2 (t, s) entries, for na-*.  The
    comparisons are the row predicates that `violation_margin` uses.
    """

    def __init__(self, space: IFSpace, grid: tuple[float, ...]):
        self.mu = array_form(space.mu, 3)
        self.nu = array_form(space.nu, 3)
        self.tnorm = array_form(space.tnorm.fn, 2)
        self.tconorm = array_form(space.tconorm.fn, 2)
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
        col, times, pts = self.col, self.single_times, (x, y, None)
        myx, nyx = self.grades(y, x)
        col["i"].scan(*_sum_at_most_one(mxy, nxy), pts, times)
        col["ii"].scan(*_positive(mxy), pts, times)
        col["iv"].scan(*_equal(mxy, myx), pts, times)
        col["ix"].scan(*_equal(nxy, nyx), pts, times)
        distinct = np.logical_not(self.same(x, y))
        col["vii"].scan(*_nu_positive_unless_near(distinct[:, None], mxy, nxy), pts, times)
        # sampled identity of indiscernibles: distinct pairs fully near /
        # fully non-far at every grid t; the witness is the worst t
        near, far = self.indiscernible["iii"], self.indiscernible["viii"]
        for r in near.take(distinct & _below_one(mxy)[0].all(axis=1)):
            m, t = min(zip(mxy[r].tolist(), self.t_grid))
            near.add(x[r].tolist(), y[r].tolist(), t, lhs=m, rhs=1.0)
        for r in far.take(distinct & _positive(nxy)[0].all(axis=1)):
            n, t = max(zip(nxy[r].tolist(), self.t_grid))
            far.add(x[r].tolist(), y[r].tolist(), t, lhs=n, rhs=0.0)

    def singles(self, x):
        col, times, pts = self.col, self.single_times, (x, x, None)
        mxx, nxx = self.grades(x, x)
        col["iii"].scan(*_equal(mxx, 1.0), pts, times)
        col["viii"].scan(*_equal(nxx, 0.0), pts, times)

    def triples(self, x, y, z, mxy, nxy):
        pts = (x, y, z)
        myz, nyz = self.grades(y, z)
        mxz, nxz = self.grades(x, z, self.xz_times)
        sides = (("v", "na-mu", _mu_triangle, self.tnorm, mxy, myz, mxz),
                 ("x", "na-nu", _nu_triangle, self.tconorm, nxy, nyz, nxz))
        for split, single, row, op, gxy, gyz, gxz in sides:
            # (tuples, g, g) bounds flattened with t outer, s inner
            bound = op(gxy[:, :, None], gyz[:, None, :]).reshape(len(x), -1)
            self.col[split].scan(*row(gxz[:, self.at_sum], bound), pts, self.split_times)
            if self.non_archimedean:
                lhs = np.concatenate([gxz[:, self.at_t], gxz[:, self.at_max]], axis=1)
                bound = np.concatenate([op(gxy, gyz), bound], axis=1)
                self.col[single].scan(*row(lhs, bound), pts,
                                      self.single_times + self.split_times)


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
        for chunk in chunks(pairs, scan.chunk):
            x, y = chunk.T
            scan.pairs(x, y, *scan.grades(x, y))
        for chunk in chunks(draw_array(domain, sampler, 1), scan.chunk):
            scan.singles(chunk[:, 0])
        for chunk in chunks(triples, scan.chunk):
            x, y, z = chunk.T
            scan.triples(x, y, z, *scan.grades(x, y))
    else:
        # pairs and singles are the prefixes of the triples, so one set of
        # (x, y) tables serves all three scans
        pairs = triples[:, :2]
        for chunk in chunks(triples, scan.chunk):
            x, y, z = chunk.T
            mxy, nxy = scan.grades(x, y)
            scan.pairs(x, y, mxy, nxy)
            scan.singles(x)
            scan.triples(x, y, z, mxy, nxy)

    col = scan.col
    col["iii"].merge(scan.indiscernible["iii"])
    col["viii"].merge(scan.indiscernible["viii"])
    probe_pairs = pairs[:_CONTINUITY_PROBE_PAIRS].tolist()
    probed = {"vi": space.mu, "xi": space.nu}
    checks = []
    for axiom in AXIOM_ORDER:
        if axiom in probed:
            checks.append(_continuity_probe(axiom, probed[axiom], probe_pairs, grid))
        elif axiom.startswith("na-") and not scan.non_archimedean:
            checks.append(AxiomCheck(axiom, "SKIPPED",
                                     detail="space is not tagged non-Archimedean"))
        else:
            checks.append(col[axiom].finish(detail=_DETAILS.get(axiom)))
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
    pairs = pairs[:_CONTINUITY_PROBE_PAIRS]
    max_delta = 0.0
    for x, y in pairs:
        values = [grade_fn(x, y, t) for t in tgrid]
        for a, b in zip(values, values[1:]):
            max_delta = max(max_delta, abs(b - a))
    return AxiomCheck(
        axiom,
        "PROBED",
        0,
        (),
        detail=f"max adjacent delta {max_delta:.6g} over {len(pairs)} pairs "
               f"on a {_CONTINUITY_GRID_POINTS}-point log grid",
    )


def minimize_witness(space: IFSpace, violation: Witness) -> Witness:
    """Shrink a violating witness toward canonical coordinates.

    Each round halves every point coordinate's distance to the domain
    anchor (the midpoint) and every time coordinate's distance to 1,
    keeping a proposed step only if the violation persists (`shrink`).  A
    witness that does not reproduce raises `WitnessIntegrityError`, which
    signals a nondeterministic space.
    """
    violated, lhs, rhs = violation_margin(space, violation)
    if not violated:
        raise WitnessIntegrityError(
            f"witness for axiom {violation.axiom!r} does not reproduce its violation"
        )
    anchor = space.domain.anchor()
    targets = {"x": anchor, "y": anchor, "z": anchor, "t": 1.0, "s": 1.0}
    coords = {c: getattr(violation, c) for c in targets}
    coords, lhs, rhs = shrink(
        space.domain, coords, lambda _: targets,
        lambda c: violation_margin(space, replace(violation, **c)), lhs, rhs,
    )
    return replace(violation, **coords, lhs=lhs, rhs=rhs)
