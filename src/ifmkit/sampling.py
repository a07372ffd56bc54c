"""Deterministic sample generation, chunking, violation recording and
witness shrinking for axiom and contraction checks.

All sampling is derived from a single integer seed so that identical
(space, sampler) inputs yield byte-identical reports.  Exhaustive mode
enumerates the whole finite domain instead of drawing.  The auditor and the
contraction scan share what is defined once here: the chunk budget of their
grade tables (`chunks`), the recorder of each check's violation count and
first witnesses (`Recorder`), the negation of a predicate's condition that
makes a NaN grade violate (`violated`) and the witness shrinker (`shrink`).
"""

from __future__ import annotations


import numpy as np

from .errors import DomainError, PreconditionError, int_field, record, shown
from .spaces import FiniteDomain, IntervalDomain, PointDomain, time_grid

EXHAUSTIVE = "exhaustive"
RANDOM = "random"
_MODES = (RANDOM, EXHAUSTIVE)

MAX_WITNESSES = 10
_MAX_SHRINK_ROUNDS = 64
# Grade tables are built per chunk of rows; a chunk holds at most this many
# cells, so memory stays bounded for any sample count and grid size.
_CHUNK_CELLS = 1 << 14


@record()
class SamplerConfig:
    """How a check draws its points; each field checked, as a plain Python value."""

    mode: str  # EXHAUSTIVE (finite domains only) or RANDOM
    sample_count: int
    t_grid: tuple[float, ...]
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.mode, str) and self.mode in _MODES):
            raise DomainError.about("mode", f"must be one of {list(_MODES)}, got {shown(self.mode)}")
        object.__setattr__(self, "sample_count", int_field("sample_count", self.sample_count, 1))
        object.__setattr__(self, "t_grid", time_grid(self.t_grid))
        object.__setattr__(self, "seed", int_field("seed", self.seed, 0))

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "sample_count": self.sample_count,
            "t_grid": list(self.t_grid),
            "seed": self.seed,
        }


def draw_array(domain: PointDomain, cfg: SamplerConfig, arity: int) -> np.ndarray:
    """Point tuples of the given arity as the rows of an (N, arity) array.

    Exhaustive mode lists every tuple of the finite domain in lexicographic
    order; random mode draws ``sample_count`` rows from the seeded generator.
    """
    if cfg.mode == EXHAUSTIVE:
        if not isinstance(domain, FiniteDomain):
            raise PreconditionError("exhaustive sampling requires a finite domain")
        return np.indices((domain.size,) * arity).reshape(arity, -1).T
    rng = np.random.default_rng(cfg.seed)
    return domain.random_points(rng, (cfg.sample_count, arity))


def draw_tuples(domain: PointDomain, cfg: SamplerConfig, arity: int) -> list[tuple]:
    """`draw_array` as a list of tuples of plain Python floats or ints."""
    return [tuple(row) for row in draw_array(domain, cfg, arity).tolist()]


def chunks(rows, cells_per_row: int):
    """Consecutive slices of the rows, each of at most `_CHUNK_CELLS` cells
    (and at least one row) when every row holds ``cells_per_row`` cells."""
    size = max(1, _CHUNK_CELLS // cells_per_row)
    for start in range(0, len(rows), size):
        yield rows[start:start + size]


def violated(ok):
    """``not ok`` on a bool, element-wise on a boolean array."""
    return np.logical_not(ok) if isinstance(ok, np.ndarray) else not ok


class Recorder:
    """The violations of one check: their exact count and the first
    `MAX_WITNESSES` witnesses."""

    def __init__(self):
        self.count = 0
        self.witnesses = []

    def record(self, mask, witness):
        """Count the hits of a boolean mask of any rank, and keep
        ``witness(*index)`` for each hit, in row-major order, that still
        fits among the witnesses."""
        hits = int(np.count_nonzero(mask))
        self.count += hits
        room = MAX_WITNESSES - len(self.witnesses)
        if hits and room > 0:
            flat = np.flatnonzero(mask)[:room]
            for index in zip(*(i.tolist() for i in np.unravel_index(flat, mask.shape))):
                self.witnesses.append(witness(*index))


def shrink(domain: PointDomain, coords: dict, targets, violated_at, lhs, rhs):
    """Halve a violating witness's coordinates toward targets while it still
    violates.

    ``coords`` maps coordinate names to values: points "x", "y", "z" and
    times "t", "s", tried in that order; None values are left alone.  Each
    round, ``targets(coords)`` gives every coordinate's target, and each
    coordinate in turn moves halfway toward it (points of a finite domain
    by integer halving) when ``violated_at(candidate)`` still returns a
    violation.  Stops after a round without a move or after 64 rounds.
    Returns the final coordinates with their ``(lhs, rhs)``.
    """
    interval = isinstance(domain, IntervalDomain)
    for _ in range(_MAX_SHRINK_ROUNDS):
        moved = False
        for coord, target in targets(coords).items():
            old = coords[coord]
            if old is None:
                continue
            if interval or coord in ("t", "s"):
                new = old + (target - old) * 0.5
            else:
                new = int(old) + (int(target) - int(old)) // 2
            if new == old:
                continue
            candidate = {**coords, coord: new}
            violated, cl, cr = violated_at(candidate)
            if violated:
                coords, lhs, rhs, moved = candidate, cl, cr, True
        if not moved:
            break
    return coords, lhs, rhs
