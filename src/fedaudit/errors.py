"""Exception types shared across the package."""


class FedAuditError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(FedAuditError, ValueError):
    """Operands have incompatible dimensions."""


class EmptySampleError(FedAuditError, ValueError):
    """An operation that needs at least one sample received none."""


class DegenerateDistributionError(FedAuditError, ValueError):
    """A distribution parameter (e.g. variance) is not strictly positive."""


class ZeroVectorError(FedAuditError, ValueError):
    """A zero-norm operand where a direction is required (zero gradient).

    ``row`` is the cohort row of the offending record, when there is one.
    """

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class ParameterError(FedAuditError, ValueError):
    """A numeric parameter is outside its admissible range."""


class ConfigError(FedAuditError, ValueError):
    """Invalid or inconsistent configuration."""


class InsufficientDataError(ConfigError):
    """Not enough samples to satisfy the requested partition."""


class InsufficientClientsError(FedAuditError, ValueError):
    """Fewer clients than the attack statistics require."""


class DataFormatError(ConfigError):
    """A data file could not be read or parsed; parse errors name the line."""


class CohortError(FedAuditError, ValueError):
    """A scored cohort is missing one of the two classes."""


class ReferencePointError(FedAuditError, ValueError):
    """A point is not dominated by the hypervolume reference point."""


class IntegrityError(FedAuditError, RuntimeError):
    """A persisted artifact is missing, truncated, or inconsistent."""
