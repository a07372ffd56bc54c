"""Triangular norms and conorms on the closed unit interval.

A t-norm models conjunction of membership degrees (identity 1), a t-conorm
models disjunction of non-membership degrees (identity 0).  Built-in pairs
are exact in double precision up to rounding, so algebraic identities are
checked against a single global tolerance of 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, PreconditionError, UnitRangeError

ALGEBRA_TOL = 1e-12

# Fixed anchor grid folded into every sample set so that witnesses land on
# readable values (0.5 in particular) and boundary behaviour is always hit.
_ANCHOR_GRID = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)


@dataclass(frozen=True, order=True)
class UnitValue:
    """A real number constrained to [0, 1]; NaN and out-of-range are rejected."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", as_unit(self.value))

    def __float__(self) -> float:
        return self.value


def as_unit(x) -> float:
    """Validate *x* as a unit-interval value and return it as a plain float."""
    v = float(x)
    if math.isnan(v):
        raise UnitRangeError("unit value is NaN")
    if not 0.0 <= v <= 1.0:
        raise UnitRangeError(f"unit value {v!r} outside [0, 1]")
    return v


def _product(a: float, b: float) -> float:
    return a * b


def _minimum(a: float, b: float) -> float:
    return a if a <= b else b


def _lukasiewicz(a: float, b: float) -> float:
    s = a + b - 1.0
    return s if s > 0.0 else 0.0


def _probabilistic_sum(a: float, b: float) -> float:
    return a + b - a * b


def _maximum(a: float, b: float) -> float:
    return a if a >= b else b


def _bounded_sum(a: float, b: float) -> float:
    s = a + b
    return s if s < 1.0 else 1.0


def _lukasiewicz_array(a, b):
    s = a + b - 1.0
    return np.where(s > 0.0, s, 0.0)


def _bounded_sum_array(a, b):
    s = a + b
    return np.where(s < 1.0, s, 1.0)


# Element-wise array forms of the built-ins, attached to the scalar function
# so that a replaced ``fn`` never keeps a stale one.  Each mirrors its scalar
# branch (np.minimum / np.maximum would treat NaN differently).
_product.array = _product
_probabilistic_sum.array = _probabilistic_sum
_minimum.array = lambda a, b: np.where(a <= b, a, b)
_maximum.array = lambda a, b: np.where(a >= b, a, b)
_lukasiewicz.array = _lukasiewicz_array
_bounded_sum.array = _bounded_sum_array


_TNORM_BUILTINS = {
    "product": _product,
    "minimum": _minimum,
    "lukasiewicz": _lukasiewicz,
}

_TCONORM_BUILTINS = {
    "probabilistic_sum": _probabilistic_sum,
    "maximum": _maximum,
    "bounded_sum": _bounded_sum,
}

# De Morgan duals of the built-in t-norms.
_DUAL_KIND = {
    "product": "probabilistic_sum",
    "minimum": "maximum",
    "lukasiewicz": "bounded_sum",
}


@dataclass(frozen=True)
class TNorm:
    """A binary operation on [0,1] intended to satisfy the t-norm axioms.

    Built-in kinds are verified analytically; custom functions are accepted
    unverified so that `check_norm_axioms` can exercise failure paths.
    """

    kind: str
    fn: Callable[[float, float], float] = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        if self.kind in _TNORM_BUILTINS:
            object.__setattr__(self, "fn", _TNORM_BUILTINS[self.kind])
        elif self.kind == "custom":
            if self.fn is None:
                raise DomainError("custom t-norm requires a binary function")
        else:
            raise DomainError(f"unknown t-norm kind {self.kind!r}")

    @classmethod
    def product(cls) -> "TNorm":
        return cls("product")

    @classmethod
    def minimum(cls) -> "TNorm":
        return cls("minimum")

    @classmethod
    def lukasiewicz(cls) -> "TNorm":
        return cls("lukasiewicz")

    @classmethod
    def custom(cls, fn: Callable[[float, float], float]) -> "TNorm":
        return cls("custom", fn)

    @property
    def identity_element(self) -> float:
        return 1.0

    def __call__(self, a: float, b: float) -> float:
        """Raw, unvalidated application; use `tnorm_apply` at API boundaries."""
        return self.fn(a, b)


@dataclass(frozen=True)
class TConorm:
    """Dual of `TNorm`: identity element 0, built-ins verified analytically."""

    kind: str
    fn: Callable[[float, float], float] = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        if self.kind in _TCONORM_BUILTINS:
            object.__setattr__(self, "fn", _TCONORM_BUILTINS[self.kind])
        elif self.kind == "custom":
            if self.fn is None:
                raise DomainError("custom t-conorm requires a binary function")
        else:
            raise DomainError(f"unknown t-conorm kind {self.kind!r}")

    @classmethod
    def probabilistic_sum(cls) -> "TConorm":
        return cls("probabilistic_sum")

    @classmethod
    def maximum(cls) -> "TConorm":
        return cls("maximum")

    @classmethod
    def bounded_sum(cls) -> "TConorm":
        return cls("bounded_sum")

    @classmethod
    def custom(cls, fn: Callable[[float, float], float]) -> "TConorm":
        return cls("custom", fn)

    @property
    def identity_element(self) -> float:
        return 0.0

    def __call__(self, a: float, b: float) -> float:
        return self.fn(a, b)


def _checked_apply(op, a, b) -> UnitValue:
    av = as_unit(a)
    bv = as_unit(b)
    raw = op.fn(av, bv)
    # Absorb rounding dust from custom functions; anything larger is an error.
    if -ALGEBRA_TOL <= raw < 0.0:
        raw = 0.0
    elif 1.0 < raw <= 1.0 + ALGEBRA_TOL:
        raw = 1.0
    if math.isnan(raw) or not 0.0 <= raw <= 1.0:
        raise DomainError(
            f"{op.kind} operation returned {raw!r} outside [0, 1] "
            f"for operands a={av!r}, b={bv!r}"
        )
    return UnitValue(raw)


def tnorm_apply(norm: TNorm, a, b) -> UnitValue:
    """Apply a t-norm to two unit values, validating operands and result."""
    return _checked_apply(norm, a, b)


def tconorm_apply(conorm: TConorm, a, b) -> UnitValue:
    """Apply a t-conorm to two unit values, validating operands and result."""
    return _checked_apply(conorm, a, b)


def dual_of(norm: TNorm) -> TConorm:
    """De Morgan dual of a t-norm: (a, b) -> 1 - norm(1-a, 1-b).

    Built-in norms map to their built-in dual conorms; custom norms get a
    wrapped custom conorm.
    """
    if norm.kind in _DUAL_KIND:
        return TConorm(_DUAL_KIND[norm.kind])
    fn = norm.fn

    def dual_fn(a: float, b: float) -> float:
        return 1.0 - fn(1.0 - a, 1.0 - b)

    return TConorm.custom(dual_fn)


@dataclass(frozen=True)
class NormCheck:
    """Outcome of one axiom check: PASS/FAIL plus a witness when failing."""

    axiom: str
    status: str
    violation_count: int = 0
    witness: tuple | None = None
    detail: str | None = None


@dataclass(frozen=True)
class NormAxiomReport:
    op_kind: str
    identity_element: float
    sample_count: int
    seed: int
    checks: tuple[NormCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "FAIL" for c in self.checks)

    def check(self, axiom: str) -> NormCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    def to_dict(self) -> dict:
        return {
            "op_kind": self.op_kind,
            "identity_element": self.identity_element,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {
                    "axiom": c.axiom,
                    "status": c.status,
                    "violation_count": c.violation_count,
                    "witness": list(c.witness) if c.witness is not None else None,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _unit_samples(sample_count: int, seed: int, width: int) -> list[tuple[float, ...]]:
    """Anchor grid first, then seeded uniform fill, as width-tuples."""
    rng = np.random.default_rng(seed)
    n_random = max(0, sample_count - len(_ANCHOR_GRID))
    randoms = rng.random((n_random, width)).tolist()
    anchored = [(g,) * width for g in _ANCHOR_GRID]
    return anchored[: max(1, sample_count)] + [tuple(row) for row in randoms]


def _closest_witness(violations: list[tuple], anchor: float = 0.5) -> tuple:
    """Pick the violating tuple whose operand coordinates are nearest 0.5."""

    def dist(v):
        return sum((c - anchor) ** 2 for c in v[0])

    best = min(violations, key=dist)
    return best[0] + best[1]


def check_norm_axioms(op, sample_count: int, seed: int) -> NormAxiomReport:
    """Sampled verification of the t-norm / t-conorm axioms.

    Checks range containment, the identity element, commutativity,
    associativity, monotonicity, and a modulus-of-continuity probe
    (|f(a,b)-f(a',b')| <= |a-a'| + |b-b'|, the 1-Lipschitz bound that all
    built-ins satisfy).  Sampled checks cannot prove continuity, only refute
    gross violations; that limitation is inherent.

    Deterministic given `seed`.  Witnesses are the violating tuples closest
    to the (0.5, ...) anchor, so failures read naturally.
    """
    if sample_count < 1:
        raise PreconditionError("sample_count must be >= 1")
    e = op.identity_element
    fn = op.fn
    tol = ALGEBRA_TOL

    singles = [s[0] for s in _unit_samples(sample_count, seed, 1)]
    pairs = _unit_samples(sample_count, seed + 1, 2)
    triples = _unit_samples(sample_count, seed + 2, 3)
    quads = _unit_samples(sample_count, seed + 3, 4)

    checks = []

    def finish(axiom, violations, detail=None):
        if violations:
            checks.append(
                NormCheck(axiom, "FAIL", len(violations), _closest_witness(violations), detail)
            )
        else:
            checks.append(NormCheck(axiom, "PASS", 0, None, detail))

    # Range: results must stay inside [0,1].  Raw fn access on purpose —
    # custom functions are accepted unverified at construction.
    violations = []
    for a, b in pairs:
        r = fn(a, b)
        if math.isnan(r) or r < -tol or r > 1.0 + tol:
            violations.append(((a, b), (r,)))
    finish("range", violations)

    # Identity element: f(a, e) = a.
    violations = []
    for a in singles:
        r = fn(a, e)
        if math.isnan(r) or abs(r - a) > tol:
            violations.append(((a, e), (r,)))
    finish("identity", violations)

    violations = []
    for a, b in pairs:
        if abs(fn(a, b) - fn(b, a)) > tol:
            violations.append(((a, b), (fn(a, b), fn(b, a))))
    finish("commutativity", violations)

    violations = []
    for a, b, c in triples:
        left = fn(fn(a, b), c)
        right = fn(a, fn(b, c))
        if abs(left - right) > tol:
            violations.append(((a, b, c), (left, right)))
    finish("associativity", violations)

    # Monotonicity: a <= c, b <= d implies f(a,b) <= f(c,d).
    violations = []
    for u1, u2, u3, u4 in quads:
        a, c = (u1, u3) if u1 <= u3 else (u3, u1)
        b, d = (u2, u4) if u2 <= u4 else (u4, u2)
        if fn(a, b) > fn(c, d) + tol:
            violations.append(((a, b, c, d), (fn(a, b), fn(c, d))))
    finish("monotonicity", violations)

    # Continuity probe: 1-Lipschitz bound at shrinking perturbation scales.
    violations = []
    max_ratio = 0.0
    for (a, b), delta in ((p, d) for p in pairs[: max(32, len(pairs) // 8)]
                          for d in (1e-2, 1e-4, 1e-6)):
        a2 = min(1.0, a + delta)
        b2 = min(1.0, b + delta)
        step = abs(a2 - a) + abs(b2 - b)
        if step == 0.0:
            continue
        gap = abs(fn(a2, b2) - fn(a, b))
        max_ratio = max(max_ratio, gap / step)
        if gap > step + tol:
            violations.append(((a, b), (gap, step)))
    finish("continuity", violations, detail=f"max observed modulus ratio {max_ratio:.6g}")

    return NormAxiomReport(
        op_kind=op.kind,
        identity_element=e,
        sample_count=sample_count,
        seed=seed,
        checks=tuple(checks),
    )
