"""Exception types shared across the toolkit.

All of these subclass ValueError so existing ``except ValueError`` code keeps
working.  Each class carries the CLI's exit code for it: 2 for a validation
failure (bad parameters, grids or input files), 1 for a data or runtime one.
"""


class StokitError(ValueError):
    """Base class for all toolkit errors."""

    exit_code = 1


class DomainError(StokitError):
    """A parameter is outside its documented domain."""

    exit_code = 2


class SizeError(StokitError):
    """A count, length, or shape precondition is violated."""

    exit_code = 2


class StabilityError(StokitError):
    """An explicit time-stepping scheme would be unstable."""

    exit_code = 2


class GridError(StokitError):
    """A spatial grid does not divide the domain."""

    exit_code = 2


class PositivityError(StokitError):
    """Strictly positive data was required but not supplied."""


class DegenerateError(StokitError):
    """The input is degenerate (zero spread, zero threshold, zero horizon)."""


class SchemaError(StokitError):
    """An input file does not match the expected schema."""

    exit_code = 2
