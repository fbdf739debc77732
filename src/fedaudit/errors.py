"""Exception types shared across the package: one per CLI exit code, plus the
zero-gradient error that carries its cohort row."""


class FedAuditError(Exception):
    """Base class for all errors raised by this package; a runtime failure (exit 4)."""


class ConfigError(FedAuditError, ValueError):
    """Invalid or inconsistent configuration or data input (exit 2)."""


class IntegrityError(FedAuditError, RuntimeError):
    """A persisted artifact is missing, truncated, or inconsistent (exit 3)."""


class ZeroVectorError(FedAuditError, ValueError):
    """A zero-norm operand where a direction is required (zero gradient).

    ``row`` is the cohort row of the offending record, when there is one.
    """

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row
