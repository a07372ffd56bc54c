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
    na-mu, na-nu: the max(t,s) bounds, whose t = s entries count apart as the
          single-t bounds; on spaces tagged non-Archimedean, SKIPPED otherwise.

A violation must exceed 1e-12 on the violating side, so rounding noise
cannot fail a sound space; a NaN grade fails every condition, so it always
violates.  Reports are deterministic given the sampler seed, and
byte-identical when serialized twice.

The rows are array comparisons over (times, tuples) grade tables, built by
three loops that both sampler modes share (random mode's pairs and singles
are the prefixes of its triples).  On a g-value grid, pairs and singles go
in chunks of 2^14 // g rows and triples in chunks of 2^14 // g^2 rows
(`sampling.chunks`), so no table exceeds 2^14 cells or grows with the
sample count.  The triple loop grades (x, y) again, (y, z) over the grid
and (x, z) once over every t+s and max(t, s), whose rows v, x and na-*
gather (the single-t na entries are the max(t, s) rows at t = s).  The
continuity rows vi and xi come from one pair of (pair, t) tables; every
table is one call of `spaces.grade_tables`.

Array forms travel with the functions: a grade function or t-(co)norm
function may carry one as its ``array`` attribute, and the built-ins of
`standard_space`, `crisp_threshold_space` and `norms` do.  A function
without one (a custom space, or any wrapper around a built-in) fills the
same tables by element-wise calls on plain Python floats and ints, so a
replaced mu or nu is never audited through a stale array form (nor through
the joint form of `standard_space`, see `spaces.grade_tables`).

Each row's comparison is one predicate over grade values, the negation of
the condition that must hold, written so that it works on Python floats
and numpy arrays alike: `_ArrayScan` applies it to grade tables and
`violation_margin` to the grades of one witness, so a reported witness
re-checks by the very comparison that found it.  Both read each grade and
t-(co)norm result by the one rule, `errors.real_number`, and the scan each
table an array form returns by `errors.real_array`.
`minimize_witness` shrinks witnesses through `sampling.shrink`.

Each row keeps (`sampling.Recorder`, on the transposed view of each mask)
its exact violation count and its first ten witnesses in the order of a
tuple-by-tuple scan: (pair, t) for the pair rows; singles, then distinct
pairs, for iii/viii; (triple, t, s) with t outer for v/x; per triple the
single-t entries, then the (t, s) entries, for na-*.  The all-grid
iii/viii witness is the min((mu, t)) / max((nu, t)) over the grid, or a
NaN grade at the least t that has one.
Witness points, times and sides are plain Python scalars, so the
serialized report is byte-identical to that of the scalar loop.
"""

from __future__ import annotations

import json
import math
from dataclasses import field, replace
from functools import partial

import numpy as np

from .errors import PreconditionError, WitnessIntegrityError, real_array, real_call, record
from .sampling import EXHAUSTIVE, Recorder, SamplerConfig, chunks, draw_array, shrink, violated
from .sampling import draw_tuples  # noqa: F401  perfbench/tracer.py patches this name
from .spaces import IFSpace, NON_ARCHIMEDEAN, array_form, grade_tables

AUDIT_TOL = 1e-12
_CONTINUITY_GRID_POINTS = 64
_CONTINUITY_PROBE_PAIRS = 8

AXIOM_ORDER = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi",
               "na-mu", "na-nu")
_DETAILS = {"vii": "checked for distinct pairs with mu < 1",
            "na-mu": "single-t bound plus max(t,s) variant",
            "na-nu": "single-t bound plus max(t,s) variant"}


@record()
class Witness:
    """One violation of an axiom: its points, times and the two sides of the bound."""

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


@record()
class AxiomCheck:
    """The verdict on one axiom, with its violation count and first witnesses."""

    axiom: str
    status: str  # "PASS" | "FAIL" | "PROBED" | "SKIPPED"
    violation_count: int = 0
    witnesses: tuple[Witness, ...] = ()
    detail: str | None = None


@record(frozen=False)
class AuditReport:
    """The result of `audit_space`: one `AxiomCheck` per axiom of the space."""

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


class _Collector(Recorder):
    """The violations of one axiom, recorded as `Witness` objects."""

    def __init__(self, axiom: str):
        super().__init__()
        self.axiom = axiom

    def scan(self, mask, lhs, rhs, points, times):
        """Record the hits of a (len(times), tuples) mask.

        Row c is the ``times[c] = (t, s)`` pair and column r the tuple
        ``points[.][r]`` (x, y and z, where z may be None); lhs and rhs
        broadcast to the mask's shape.  Hits are recorded tuple by tuple.
        """
        def witness(r, c):
            x, y, z = (None if p is None else p[r].tolist() for p in points)
            t, s = times[c]
            return Witness(self.axiom, x, y, t, z=z, s=s,
                           lhs=np.broadcast_to(lhs, mask.shape)[c, r].tolist(),
                           rhs=np.broadcast_to(rhs, mask.shape)[c, r].tolist())

        self.record(mask.T, witness)

    def finish(self, detail=None) -> AxiomCheck:
        status = "FAIL" if self.count else "PASS"
        return AxiomCheck(self.axiom, status, self.count, tuple(self.witnesses), detail)


# Row predicates: grade values -> (violated, lhs, rhs).  Each works on Python
# floats and on numpy arrays alike, so `_ArrayScan` applies it to grade
# tables and `violation_margin` to the grades of one witness.  Each is the
# negation of the condition that must hold: a comparison with NaN is false,
# so a NaN grade counts as a violation.


def _sum_at_most_one(m, n):  # i
    total = m + n
    return violated(total <= 1.0 + AUDIT_TOL), total, 1.0


def _positive(g):  # ii; vii and viii on distinct pairs
    return violated(g > 0.0), g, 0.0


def _below_one(m):  # iii on distinct pairs, at each sampled t
    # strict, so a grade genuinely below 1 is never a false positive
    return violated(m < 1.0), m, 1.0


def _equal(left, right):  # iv, ix; iii and viii on the diagonal (right = 1, 0)
    return violated(abs(left - right) <= AUDIT_TOL), left, right


def _mu_triangle(lhs, bound):  # v, na-mu
    return violated(lhs >= bound - AUDIT_TOL), lhs, bound


def _nu_triangle(lhs, bound):  # x, na-nu
    return violated(lhs <= bound + AUDIT_TOL), lhs, bound


def _nu_positive_unless_near(distinct, m, n):  # vii
    return distinct & violated((m >= 1.0 - AUDIT_TOL) | (n > 0.0)), n, 0.0


def violation_margin(space: IFSpace, w: Witness):
    """Re-evaluate a witness directly against the space.

    Returns (violated, lhs, rhs) from the same row predicates as the audit
    scan; this is the single arbiter used by `minimize_witness` and by
    soundness tests.  On iii and viii a witness with x = y is checked
    against the diagonal row, any other against the distinct-pair row.
    """
    mu, nu = partial(real_call, space.mu), partial(real_call, space.nu)
    x, y, z, t, s = w.x, w.y, w.z, w.t, w.s
    a = w.axiom
    if a in ("v", "na-mu", "x", "na-nu"):
        if a in ("v", "na-mu"):
            grade, op, row = mu, partial(real_call, space.tnorm.fn), _mu_triangle
        else:
            grade, op, row = nu, partial(real_call, space.tconorm.fn), _nu_triangle
        if s is None:  # the single-t na bound, the t = s case of max(t, s)
            s = t
        at = t + s if a in ("v", "x") else max(t, s)
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

    Each scan method grades one chunk of its own rows, 2^14 // g of them for
    `pairs` and `singles` and 2^14 // g^2 for `triples` (which grades (x, y)
    again), and records its rows' violations in the scalar scan order:
    (pair, t); single then distinct pair for iii/viii; (triple, t, s) with t
    outer for v/x; per triple the g single-t entries, then the g^2 (t, s)
    entries, for na-*.  The comparisons are the row predicates that
    `violation_margin` uses.
    """

    def __init__(self, space: IFSpace, grid: tuple[float, ...]):
        self.space = space
        self.tnorm = array_form(space.tnorm.fn, 2)
        self.tconorm = array_form(space.tconorm.fn, 2)
        self.same = space.domain.same_point
        self.non_archimedean = space.triangle_mode == NON_ARCHIMEDEAN
        g = len(grid)
        self.t_grid = grid
        self.grid = t = np.array(grid)[:, None]  # a column: tables are (times, tuples)
        s = t.T
        # (x, z) is graded once, over {t+s} | {max(t, s)} (max as Python's max picks);
        # the t = s rows of max(t, s) (`diag`) are the single-t na entries, counted apart
        self.xz_times, at = np.unique(
            np.concatenate([(t + s).ravel(), np.where(s > t, s, t).ravel()]), return_inverse=True)
        self.at_sum, self.at_max = at[:g * g], at[g * g:]
        self.diag = slice(None, None, g + 1)
        self.single_times = [(t, None) for t in grid]
        self.split_times = [(t, s) for t in grid for s in grid]
        self.col = {axiom: _Collector(axiom) for axiom in AXIOM_ORDER}

    def grades(self, a, b, times=None):
        """(mu, nu) tables of shape (len(times), len(a)); the grid by default."""
        times = self.grid if times is None else times
        return grade_tables(self.space, a, b, times)

    def pairs(self, x, y):
        col, times, pts = self.col, self.single_times, (x, y, None)
        mxy, nxy = self.grades(x, y)
        myx, nyx = self.grades(y, x)
        col["i"].scan(*_sum_at_most_one(mxy, nxy), pts, times)
        col["ii"].scan(*_positive(mxy), pts, times)
        col["iv"].scan(*_equal(mxy, myx), pts, times)
        col["ix"].scan(*_equal(nxy, nyx), pts, times)
        distinct = np.logical_not(self.same(x, y))
        col["vii"].scan(*_nu_positive_unless_near(distinct, mxy, nxy), pts, times)
        # sampled identity of indiscernibles: distinct pairs fully near / non-far
        self._indiscernible("iii", _below_one, min, mxy, x, y, distinct)
        self._indiscernible("viii", _positive, max, nxy, x, y, distinct)

    def _indiscernible(self, axiom, row, worst, grades, x, y, distinct):
        """Record the distinct pairs that violate ``row`` at every grid t; the
        witness is the worst (grade, t), or a NaN grade at its least t."""
        bad, _, rhs = row(grades)

        def witness(r):
            cells = list(zip(grades[:, r].tolist(), self.t_grid))
            nan_times = [t for g, t in cells if g != g]
            g, t = (math.nan, min(nan_times)) if nan_times else worst(cells)
            return Witness(axiom, x[r].tolist(), y[r].tolist(), t, lhs=g, rhs=rhs)

        self.col[axiom].record(distinct & bad.all(axis=0), witness)

    def singles(self, x):
        col, times, pts = self.col, self.single_times, (x, x, None)
        mxx, nxx = self.grades(x, x)
        col["iii"].scan(*_equal(mxx, 1.0), pts, times)
        col["viii"].scan(*_equal(nxx, 0.0), pts, times)

    def triples(self, x, y, z):
        pts = (x, y, z)
        mxy, nxy = self.grades(x, y)
        myz, nyz = self.grades(y, z)
        mxz, nxz = self.grades(x, z, self.xz_times[:, None])
        sides = (("v", "na-mu", _mu_triangle, self.space.tnorm.fn, self.tnorm, mxy, myz, mxz),
                 ("x", "na-nu", _nu_triangle, self.space.tconorm.fn, self.tconorm, nxy, nyz, nxz))
        for split, single, row, fn, op, gxy, gyz, gxz in sides:
            # (g, g, tuples) bounds flattened with t outer, s inner
            bound = real_array(fn, op(gxy[:, None, :], gyz[None, :, :])).reshape(-1, len(x))
            self.col[split].scan(*row(gxz[self.at_sum], bound), pts, self.split_times)
            if self.non_archimedean:
                rows = row(gxz[self.at_max], bound)
                if rows[0].any():  # the single-t entries (`diag`) go first, per triple
                    self.col[single].scan(*(np.concatenate([a[self.diag], a]) for a in rows),
                                          pts, self.single_times + self.split_times)


def audit_space(space: IFSpace, sampler: SamplerConfig) -> AuditReport:
    """Check every axiom on every drawn sample.

    Triangle bounds with a split time argument (v, x) sample (t, s) as
    independent grid pairs.  Spaces tagged non-Archimedean additionally get
    the max(t,s) bounds (na-mu, na-nu), whose t = s entries count apart as
    the single-t bounds; on other spaces those rows are SKIPPED.  Continuity
    rows (vi, xi) are probed on a 64-point logarithmic grid and never PASS
    or FAIL: finitely many samples cannot decide continuity.
    """
    domain = space.domain
    grid = sampler.t_grid
    scan = _ArrayScan(space, grid)

    triples = draw_array(domain, sampler, 3)
    if sampler.mode == EXHAUSTIVE:
        # enumerate each tuple exactly once so violation counts are exact
        pairs, singles = draw_array(domain, sampler, 2), draw_array(domain, sampler, 1)
    else:
        # the pairs and singles are the prefixes of the drawn triples
        pairs, singles = triples[:, :2], triples[:, :1]
    g = len(grid)
    # singles first: the distinct-pair iii/viii rows follow the diagonal ones
    for rows, scan_rows, cells in ((singles, scan.singles, g), (pairs, scan.pairs, g),
                                   (triples, scan.triples, g * g)):
        for chunk in chunks(rows, cells):
            scan_rows(*chunk.T)

    probed = _continuity_probe(space, pairs, grid)
    checks = []
    for axiom in AXIOM_ORDER:
        if axiom in probed:
            checks.append(probed[axiom])
        elif axiom.startswith("na-") and not scan.non_archimedean:
            checks.append(AxiomCheck(axiom, "SKIPPED",
                                     detail="space is not tagged non-Archimedean"))
        else:
            checks.append(scan.col[axiom].finish(detail=_DETAILS.get(axiom)))
    return AuditReport(
        space_name=space.name,
        triangle_mode=space.triangle_mode,
        sampler=sampler,
        checks=tuple(checks),
        domain=domain,
    )


def _continuity_probe(space: IFSpace, pairs, grid) -> dict[str, AxiomCheck]:
    """The rows vi and xi, from one pair of (pair, t) grade tables."""
    lo = min(grid) / 10.0
    hi = max(grid) * 10.0
    log_lo, log_hi = math.log(lo), math.log(hi)
    tgrid = [
        math.exp(log_lo + (log_hi - log_lo) * i / (_CONTINUITY_GRID_POINTS - 1))
        for i in range(_CONTINUITY_GRID_POINTS)
    ]
    pairs = pairs[:_CONTINUITY_PROBE_PAIRS]
    x, y = np.array(pairs).reshape(-1, 2).T
    # (pair, t) cells, graded in the order of a pair-by-pair loop; np.max
    # keeps a NaN delta, which max() would drop
    deltas = [np.max(np.abs(np.diff(values, axis=-1)), initial=0.0)
              for values in grade_tables(space, x[:, None], y[:, None], np.array(tgrid))]
    return {axiom: AxiomCheck(axiom, "PROBED",
                              detail=f"max adjacent delta {delta:.6g} over {len(pairs)} pairs "
                                     f"on a {_CONTINUITY_GRID_POINTS}-point log grid")
            for axiom, delta in zip(("vi", "xi"), deltas)}


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
