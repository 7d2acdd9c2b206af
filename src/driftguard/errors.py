"""Exception hierarchy shared by all driftguard modules."""


class DriftguardError(Exception):
    """Base class for all package errors."""


class InvalidProblem(DriftguardError):
    """Intake refuses the problem description: a missing key or a bad
    value, or a problem its model or the method catalog cannot run."""


class UnknownEstimator(DriftguardError):
    """Estimator id not present in the method catalog."""


class UnknownModel(DriftguardError):
    """Benchmark model id not present in the catalog."""


class ConfigError(DriftguardError):
    """Configuration file missing, unparsable, or structurally invalid."""


class DimensionError(DriftguardError):
    """Vector dimensions do not agree."""


class InsufficientCorpus(DriftguardError):
    """Null-calibration corpus has fewer than two entries."""


class InsufficientSamples(DriftguardError):
    """Sample size below the estimator's hard minimum."""


class OverBudget(DriftguardError):
    """A plan would spend more model evaluations than its problem's
    ``n_budget``; raised before any evaluation, and carries the budget that
    the Debugger's patch fits."""

    def __init__(self, message: str, n_budget: int):
        super().__init__(message)
        self.n_budget = n_budget


class InvalidReward(DriftguardError):
    """Reward is non-finite or outside the accepted range."""


class PersistError(DriftguardError):
    """Archive write failed; in-memory state rolled back."""


class LoadError(DriftguardError):
    """Archive file exists but cannot be parsed."""


class NoData(DriftguardError):
    """Analysis requested over an empty trace collection."""
