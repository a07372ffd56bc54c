"""Deterministic sample generation for axiom and contraction checks.

All sampling is derived from a single integer seed so that identical
(space, sampler) inputs yield byte-identical reports.  Exhaustive mode
enumerates the whole finite domain instead of drawing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .spaces import FiniteDomain, PointDomain

EXHAUSTIVE = "exhaustive"
RANDOM = "random"


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
        if any(t <= 0 for t in grid):
            raise PreconditionError("t_grid values must be positive")
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
