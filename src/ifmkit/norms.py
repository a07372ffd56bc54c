"""Triangular norms and conorms on the closed unit interval.

A t-norm models conjunction of membership degrees (identity 1), a t-conorm
models disjunction of non-membership degrees (identity 0).  Built-in pairs
are exact in double precision up to rounding, so algebraic identities are
checked against a single global tolerance of 1e-12.

`TNorm` and `TConorm` are thin subclasses of one frozen binary-operation
class holding the kind, the function and the identity element; each
subclass lists its built-in kinds in ``BUILTINS``.  Unit values and what
a custom function returns are read by the one rule, `errors.real_number`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainError, UnitRangeError, int_field, real_call, real_number

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
    """*x*, a real number (`errors.real_number`) in [0, 1], as a float."""
    v = real_number(x, "unit value", UnitRangeError)
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


# De Morgan duals of the built-in t-norms.
_DUAL_KIND = {
    "product": "probabilistic_sum",
    "minimum": "maximum",
    "lukasiewicz": "bounded_sum",
}


@dataclass(frozen=True)
class _BinaryOp:
    """A binary operation on [0,1]: a built-in ``kind`` from the subclass's
    ``BUILTINS`` table, or ``"custom"`` with a caller-supplied ``fn``.

    Built-in kinds are verified analytically; custom functions are accepted
    unverified so that `check_norm_axioms` can exercise failure paths.
    """

    kind: str
    fn: Callable[[float, float], float] = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        if self.kind in self.BUILTINS:
            object.__setattr__(self, "fn", self.BUILTINS[self.kind])
        elif self.kind == "custom":
            if self.fn is None:
                raise DomainError(f"custom {self._LABEL} requires a binary function")
        else:
            raise DomainError(f"unknown {self._LABEL} kind {self.kind!r}")

    @classmethod
    def custom(cls, fn: Callable[[float, float], float]):
        return cls("custom", fn)

    @property
    def identity_element(self) -> float:
        return self._IDENTITY

    def __call__(self, a: float, b: float) -> float:
        """Raw, unvalidated application; use `tnorm_apply` at API boundaries."""
        return self.fn(a, b)


class TNorm(_BinaryOp):
    """A t-norm: conjunction of membership degrees, identity element 1."""

    BUILTINS = {"product": _product, "minimum": _minimum, "lukasiewicz": _lukasiewicz}
    _LABEL = "t-norm"
    _IDENTITY = 1.0

    @classmethod
    def product(cls) -> "TNorm":
        return cls("product")

    @classmethod
    def minimum(cls) -> "TNorm":
        return cls("minimum")

    @classmethod
    def lukasiewicz(cls) -> "TNorm":
        return cls("lukasiewicz")


class TConorm(_BinaryOp):
    """Dual of `TNorm`: disjunction of non-membership degrees, identity 0."""

    BUILTINS = {"probabilistic_sum": _probabilistic_sum, "maximum": _maximum,
                "bounded_sum": _bounded_sum}
    _LABEL = "t-conorm"
    _IDENTITY = 0.0

    @classmethod
    def probabilistic_sum(cls) -> "TConorm":
        return cls("probabilistic_sum")

    @classmethod
    def maximum(cls) -> "TConorm":
        return cls("maximum")

    @classmethod
    def bounded_sum(cls) -> "TConorm":
        return cls("bounded_sum")


def tnorm_apply(op: TNorm | TConorm, a, b) -> UnitValue:
    """Apply a t-norm (or t-conorm) to two unit values, validating operands
    and result."""
    av = as_unit(a)
    bv = as_unit(b)
    raw = real_call(op.fn, av, bv)
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


tconorm_apply = tnorm_apply


def dual_of(norm: TNorm) -> TConorm:
    """De Morgan dual of a t-norm: (a, b) -> 1 - norm(1-a, 1-b).

    Built-in norms map to their built-in dual conorms; custom norms get a
    wrapped custom conorm.
    """
    if norm.kind in _DUAL_KIND:
        return TConorm(_DUAL_KIND[norm.kind])
    fn = norm.fn

    def dual_fn(a: float, b: float) -> float:
        return 1.0 - real_call(fn, 1.0 - a, 1.0 - b)

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


def _closest_witness(violations: list[tuple]) -> tuple | None:
    """The violation (operands, results) whose operands lie nearest (0.5,
    ...) in squared distance, as one tuple operands + results; the first
    such on a tie, and None without violations."""
    if not violations:
        return None
    best = min(violations, key=lambda v: sum((c - 0.5) ** 2 for c in v[0]))
    return best[0] + best[1]


def check_norm_axioms(op, sample_count: int, seed: int) -> NormAxiomReport:
    """Sampled verification of the t-norm / t-conorm axioms.

    Checks range containment, the identity element, commutativity,
    associativity, monotonicity, and a modulus-of-continuity probe
    (|f(a,b)-f(a',b')| <= |a-a'| + |b-b'|, the 1-Lipschitz bound that all
    built-ins satisfy).  Sampled checks cannot prove continuity, only refute
    gross violations; that limitation is inherent.  Each sample passes only
    when its comparison holds, so a NaN result fails every axiom it enters.

    Deterministic given `seed`.  Witnesses are the violating tuples closest
    to the (0.5, ...) anchor, so failures read naturally.  ``sample_count``
    is an integer field in [1, intp max // 4] (`int_field`'s bounds): the
    monotonicity samples are one (count, 4) numpy array.
    """
    sample_count = int_field("sample_count", sample_count, 1, hi=np.iinfo(np.intp).max // 4)
    seed = int_field("seed", seed, 0)
    e = op.identity_element
    # a custom function is accepted unverified, its results read as real numbers
    fn = op.fn if op.kind in op.BUILTINS else partial(real_call, op.fn)
    tol = ALGEBRA_TOL

    def range_row(a, b):
        r = fn(a, b)
        return (a, b), (r,), not -tol <= r <= 1.0 + tol

    def identity_row(a):
        r = fn(a, e)
        return (a, e), (r,), not abs(r - a) <= tol

    def agree(operands, *results):
        # two results that must be equal, within tol
        return operands, results, not abs(results[0] - results[1]) <= tol

    def monotonicity_row(u1, u2, u3, u4):
        # a <= c and b <= d must give f(a, b) <= f(c, d)
        (a, c), (b, d) = sorted((u1, u3)), sorted((u2, u4))
        r = fn(a, b), fn(c, d)
        return (a, b, c, d), r, not r[0] <= r[1] + tol

    pairs = _unit_samples(sample_count, seed + 1, 2)
    # axiom -> (one sample's row (operands, results, violated), samples)
    table = {
        "range": (range_row, pairs),
        "identity": (identity_row, _unit_samples(sample_count, seed, 1)),
        "commutativity": (lambda a, b: agree((a, b), fn(a, b), fn(b, a)), pairs),
        "associativity": (lambda a, b, c: agree((a, b, c), fn(fn(a, b), c), fn(a, fn(b, c))),
                          _unit_samples(sample_count, seed + 2, 3)),
        "monotonicity": (monotonicity_row, _unit_samples(sample_count, seed + 3, 4)),
    }
    checks = []

    def finish(axiom, violations, detail=None):
        checks.append(NormCheck(axiom, "FAIL" if violations else "PASS", len(violations),
                                _closest_witness(violations), detail))

    for axiom, (row, samples) in table.items():
        rows = (row(*sample) for sample in samples)
        finish(axiom, [(operands, results) for operands, results, bad in rows if bad])

    # Continuity probe: 1-Lipschitz bound at shrinking perturbation scales.
    violations = []
    ratios = []
    for (a, b), delta in ((p, d) for p in pairs[: max(32, len(pairs) // 8)]
                          for d in (1e-2, 1e-4, 1e-6)):
        a2 = min(1.0, a + delta)
        b2 = min(1.0, b + delta)
        step = abs(a2 - a) + abs(b2 - b)
        if step == 0.0:
            continue
        gap = abs(fn(a2, b2) - fn(a, b))
        ratios.append(gap / step)
        if not gap <= step + tol:
            violations.append(((a, b), (gap, step)))
    max_ratio = float(np.max(ratios, initial=0.0))  # a NaN ratio stays NaN
    finish("continuity", violations, detail=f"max observed modulus ratio {max_ratio:.6g}")

    return NormAxiomReport(
        op_kind=op.kind,
        identity_element=e,
        sample_count=sample_count,
        seed=seed,
        checks=tuple(checks),
    )
