"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class ContractViolation(WorkbenchError):
    """An argument violated a documented precondition."""


class DimensionError(WorkbenchError):
    """Array shapes are mutually inconsistent."""


class EnumerationCapExceeded(WorkbenchError):
    """Alignment enumeration refused: T+U above the configured cap."""


class SearchBudgetExceeded(WorkbenchError):
    """Exhaustive search refused: candidate count above the configured budget."""


class OracleFailure(WorkbenchError):
    """A verification oracle could not be evaluated."""


class IngestError(WorkbenchError):
    """A data file failed validation during ingestion."""


class ConfigError(WorkbenchError):
    """An experiment config failed to parse or validate."""


class TrainingDiverged(WorkbenchError):
    """Training aborted on a non-finite loss or gradient."""
