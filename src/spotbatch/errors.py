"""Exception types shared across the package."""


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
