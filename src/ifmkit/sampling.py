"""Deterministic sample generation and witness shrinking for axiom and
contraction checks.

All sampling is derived from a single integer seed so that identical
(space, sampler) inputs yield byte-identical reports.  Exhaustive mode
enumerates the whole finite domain instead of drawing.  `shrink` is the one
witness shrinker: both the auditor and the contraction checks halve their
witnesses' coordinates through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .spaces import FiniteDomain, IntervalDomain, PointDomain

EXHAUSTIVE = "exhaustive"
RANDOM = "random"

MAX_WITNESSES = 10
_MAX_SHRINK_ROUNDS = 64


@dataclass(frozen=True)
class SamplerConfig:
    mode: str  # EXHAUSTIVE (finite domains only) or RANDOM
    sample_count: int
    t_grid: tuple[float, ...]
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (EXHAUSTIVE, RANDOM):
            raise DomainError(f"unknown sampler mode {self.mode!r}")
        if self.sample_count < 1:
            raise PreconditionError("sample_count must be >= 1")
        grid = tuple(float(t) for t in self.t_grid)
        if not grid:
            raise PreconditionError("t_grid must be nonempty")
        if any(t <= 0 or not math.isfinite(t) for t in grid):
            raise PreconditionError("t_grid values must be positive and finite")
        object.__setattr__(self, "t_grid", grid)

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


def chunks(rows, size: int):
    """Consecutive slices of at most ``size`` rows."""
    for start in range(0, len(rows), size):
        yield rows[start:start + size]


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
