"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2, data
problems exit 3, a search that produced no usable pipeline exits 4.
"""


class TabcashError(Exception):
    """Base class for all package errors."""


class ConfigurationError(TabcashError):
    """Invalid option, parameter, or search-space setup."""


class SchemaError(TabcashError):
    """Malformed tabular input (missing header, ragged rows, ...)."""


class DataError(TabcashError):
    """Input values violate a precondition (missing response, constant y, ...)."""


class DomainError(DataError):
    """A cell value is outside the mathematical domain of a transform."""


class ContractError(TabcashError):
    """Caller broke an API contract (length mismatch, transform before fit)."""


class RegistrationError(TabcashError):
    """Duplicate id in the metric registry."""


class UndefinedMetricError(TabcashError):
    """The metric is mathematically undefined on this input (TSS = 0, one class)."""


class InvalidPredictionError(TabcashError):
    """Predictions violate the metric's validity rule (e.g. nonpositive rates)."""


class ImputationError(TabcashError):
    """No statistic exists to fill a column (entirely missing)."""


class BalancingError(TabcashError):
    """Resampling target is unattainable (empty minority, target below 1 row)."""


class FitError(TabcashError):
    """Model training failed (singular system, no convergence path)."""


class TaskError(TabcashError):
    """Model is incompatible with the response (e.g. counts required)."""


class OptimizationError(TabcashError):
    """Search exhausted its budget without a single valid trial.

    Carries a histogram of failure reasons in ``failures``, the trials in ``history``.
    """

    def __init__(self, message: str, failures: dict[str, int] | None = None, history=()):
        super().__init__(message)
        self.failures = dict(failures or {})
        self.history = list(history)


class EnsembleError(TabcashError):
    """Ensemble construction failed (a subset produced no valid pipeline).

    Carries the failed group search's ``failures`` and every group's ``histories``.
    """

    def __init__(self, message: str, failures: dict[str, int] | None = None, histories=()):
        super().__init__(message)
        self.failures = dict(failures or {})
        self.histories = list(histories)


class FormatError(TabcashError):
    """Serialized artifact has an unsupported schema version or layout."""
