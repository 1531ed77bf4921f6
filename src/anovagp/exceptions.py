"""Exception types shared across the package."""


class AnovaGpError(Exception):
    """Base class for all package-specific errors."""


class DegenerateReferenceError(AnovaGpError):
    """Raised when a contribution weight would divide by a zero reference norm."""


class IllConditionedKernelError(AnovaGpError):
    """Raised when a kernel matrix cannot be factorized or gives no finite NLML."""


class TrainingFailedError(AnovaGpError):
    """Raised when every hyperparameter optimization restart fails.

    Raised from a PCA + GP block, it carries and names in its message
    ``term`` (an ANOVA index, or "sgp" for the baseline), ``mode`` (the PCA
    mode) and ``stage`` (the pipeline stage and refit).  From ``train_gp``
    called directly, ``term`` and ``stage`` are None, and ``mode`` is the
    failed row of targets (None when the block's pair distances would not
    fit in memory).
    """

    def __init__(self, message, term=None, mode=None, stage=None):
        if term is not None:
            message = f"term {term}, mode {mode}, {stage}: {message}"
        super().__init__(message)
        self.term = term
        self.mode = mode
        self.stage = stage


class SimulatorError(AnovaGpError):
    """Raised when a simulator evaluation fails.

    Carries the offending input point in ``point`` when available.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class UndefinedIndicatorError(AnovaGpError):
    """Raised when the variance indicator is requested for a rank-zero term."""


class ConfigError(AnovaGpError):
    """Raised for invalid experiment configurations."""
