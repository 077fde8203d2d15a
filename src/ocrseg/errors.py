"""Shared exception types."""


class OcrsegError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(OcrsegError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ParameterError(OcrsegError, ValueError):
    """A scalar argument or call contract was violated."""


class ConfigError(OcrsegError, ValueError):
    """A configuration value is missing, unknown, or out of range."""


class DataError(OcrsegError, ValueError):
    """Input data (labels, datasets, files) violates its contract."""


class StateError(OcrsegError, RuntimeError):
    """An operation was issued in a state that does not allow it."""


class TrainingDiverged(OcrsegError, RuntimeError):
    """The optimizer produced a non-finite loss."""
