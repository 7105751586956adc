"""Exception types shared across the package."""


class MergeOptError(Exception):
    """Base class for all package-specific errors."""


class MisalignedSets(MergeOptError):
    """Parameter collections disagree on names, shapes, or entry order."""


class FormatError(MergeOptError):
    """Malformed checkpoint file."""


class InvalidProbability(MergeOptError, ValueError):
    """Reserve rate outside (0, 1]."""


class EmptyInput(MergeOptError, ValueError):
    """An operation that needs at least one element got none."""


class MissingBaseModel(MergeOptError):
    """Full-merge optimizer configured without base model parameters."""


class NonFiniteGradient(MergeOptError, FloatingPointError):
    """A gradient contained NaN or infinity; the step is aborted."""


class NonFiniteLoss(MergeOptError, FloatingPointError):
    """Training loss went non-finite; carries the last good step and metrics."""

    def __init__(self, message, last_good_step=None, metrics=None):
        super().__init__(message)
        self.last_good_step = last_good_step
        self.metrics = metrics


class InvalidBeta(MergeOptError, ValueError):
    """Preference-loss temperature must be positive."""


class InvalidConfig(MergeOptError, ValueError):
    """Run or data configuration is inconsistent or has unknown keys."""
