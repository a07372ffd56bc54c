"""Exception types shared across the package, and how a caller's number or
sequence is read (`real_field`, `int_field`, `items`) and shown (`shown`).
`real_number` is the one rule for a real number: `real_result` reads every
result of a caller's grade, t-(co)norm or control by it, `real_array` every
table of its array form."""

import math
import numbers

import numpy as np


class IfmError(Exception):
    """Base class for all errors raised by ifmkit.  One made by `about`
    keeps the argument's ``field`` name and the ``reason``."""

    field = reason = None

    @classmethod
    def about(cls, field: str, reason: str) -> "IfmError":
        exc = cls(f"{field} {reason}")
        exc.field, exc.reason = field, reason
        return exc


class UnitRangeError(IfmError, ValueError):
    """A value that must lie in the closed unit interval does not."""


class DomainError(IfmError, ValueError):
    """An operand is outside its admissible domain (points, times, metrics)."""


class PreconditionError(IfmError):
    """A documented precondition of an operation was not met by the caller."""


class NonConvergenceError(IfmError):
    """No seed produced a convergent orbit within the iteration budget.

    Carries the per-seed traces so callers can diagnose what happened.
    """

    def __init__(self, message, traces):
        super().__init__(message)
        self.traces = list(traces)


class WitnessIntegrityError(IfmError):
    """A witness handed to the minimizer does not reproduce its violation.

    This signals a nondeterministic space function (or a stale witness),
    both of which make shrinking meaningless.
    """


class ConfigError(IfmError, ValueError):
    """A run configuration failed validation; `field` names the bad entry."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


def real_number(value, name: str = "value", error=DomainError) -> float:
    """``value`` as a plain float if it is a real number (`numbers.Real`), not
    a bool, that fits a float (NaN and ±inf too); else ``error`` about ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error.about(name, f"must be a real number, got {shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise error.about(name, "integer too large for a float") from None


def real_result(fn, args: tuple, value) -> float:
    """``value``, what ``fn(*args)`` returned, as a `real_number`; else a
    DomainError naming the call: ``mu(0.5, 1.0, 2.0) = '1' is not a real number``."""
    try:
        return real_number(value)
    except DomainError:
        call = f"{getattr(fn, '__name__', 'fn')}({', '.join(map(shown, args))})"
        raise DomainError(f"{call} = {shown(value)} is not a real number") from None


def real_call(fn, *args) -> float:
    """``fn(*args)``, read by `real_result` unless it is a float."""
    value = fn(*args)
    return value if type(value) is float else real_result(fn, args, value)


def real_array(fn, table):
    """``table``, what ``fn``'s array form returned, if it holds integers or
    floats; else a DomainError: ``psi.array returns <U3 values, not real numbers``."""
    if (dtype := np.asarray(table).dtype).kind not in "iuf":
        raise DomainError(f"{getattr(fn, '__name__', 'fn')}.array returns {dtype} values, not real numbers")
    return table


def real_field(name: str, value, lo=None, hi=None, *, open_lo=False,
               error=DomainError) -> float:
    """``value`` as a plain float: a `real_number` that is finite, at least
    ``lo`` (above it if ``open_lo``) and below ``hi``.  Otherwise ``error``
    about ``name``."""
    v = real_number(value, name, error)
    if not math.isfinite(v):  # NaN would pass every range check
        raise error.about(name, f"must be finite, got {v}")
    if lo is not None and (v <= lo if open_lo else v < lo):
        raise error.about(name, f"must be {'>' if open_lo else '>='} {lo}, got {v}")
    if hi is not None and v >= hi:
        raise error.about(name, f"must be < {hi}, got {v}")
    return v


def int_field(name: str, value, lo: int, error=PreconditionError, hi: int | None = None) -> int:
    """``value`` as a plain int (numpy's are not JSON): an integral number,
    not a bool, in [``lo``, ``hi``].  Otherwise ``error`` about ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error.about(name, f"expected an integer, got {type(value).__name__}")
    v = int(value)
    if v < lo:
        raise error.about(name, f"must be >= {lo}, got {shown(v)}")
    if hi is not None and v > hi:
        raise error.about(name, f"must be <= {hi}, got {shown(v)}")
    return v


def items(name: str, values, error=PreconditionError) -> tuple:
    """The sequence ``values`` as a tuple, else ``error`` about ``name``."""
    try:  # iter() only: a TypeError raised while iterating is not the caller's type
        values = iter(values)
    except TypeError:
        raise error.about(name, f"must be iterable, not {type(values).__name__}") from None
    return tuple(values)


def shown(value) -> str:
    """``value`` as a message shows it: its repr, or an int past 64 bits by its
    size, since str() refuses an int past 4,300 digits."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"a {value.bit_length()}-bit {'negative ' if value < 0 else ''}integer"
    return repr(value)
