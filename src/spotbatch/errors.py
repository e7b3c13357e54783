"""Exception types shared across the package, and the one rule for input numbers."""

import math


class SpotbatchError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SpotbatchError):
    """An input file is malformed (bad JSON, wrong CSV header, ...)."""


class ValidationError(SpotbatchError, ValueError):
    """A loaded object violates one of its declared invariants."""


class MissingRecordError(SpotbatchError, LookupError):
    """A required price or benchmark record is not available."""


class SimulationError(SpotbatchError):
    """The simulation cannot proceed (time regression, deadlocked queue)."""


def finite_number(key: str, value, low: float = -math.inf, high: float = math.inf, low_open: bool = False):
    """``value`` when it is a finite number in [low, high], or (low, high] when ``low_open``.

    Anything else (NaN, an infinity, a value out of range, a boolean or a
    non-number) raises a ValidationError naming ``key``.
    """
    try:
        # The cheap range comparisons go first: every loaded number passes through here.
        if (
            (low < value if low_open else low <= value)
            and value <= high
            and math.isfinite(value)
            and value.__class__ is not bool
        ):
            return value
    except (TypeError, OverflowError):  # not a number, or an int beyond every float
        pass
    if high < math.inf:
        rule = f" in {'(' if low_open else '['}{low:g}, {high:g}]"
    elif low > -math.inf:
        rule = f" {'>' if low_open else '>='} {low:g}"
    else:
        rule = ""
    raise ValidationError(f"{key} must be a finite number{rule}, got {value!r}")
