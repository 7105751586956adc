"""Exception types shared across the package, and the rules that decide
the values a public entry point accepts."""

import math
import numbers

_U64 = 1 << 64


class MergeOptError(Exception):
    """Base class for all package-specific errors."""


class MisalignedSets(MergeOptError):
    """Parameter collections disagree on names, shapes, or entry order."""


class FormatError(MergeOptError):
    """Malformed checkpoint file."""


class EmptyInput(MergeOptError, ValueError):
    """An operation that needs at least one element got none."""


class NonFiniteGradient(MergeOptError, FloatingPointError):
    """A gradient contained NaN or infinity; the step is aborted."""


class NonFiniteResult(MergeOptError, FloatingPointError):
    """An offline merge produced NaN or infinity; nothing is written."""


class NonFiniteLoss(MergeOptError, FloatingPointError):
    """Training loss went non-finite; carries the last good step and metrics."""

    def __init__(self, message, last_good_step=None, metrics=None):
        super().__init__(message)
        self.last_good_step = last_good_step
        self.metrics = metrics


class InvalidConfig(MergeOptError, ValueError):
    """Run or data configuration is inconsistent or has unknown keys."""


class InvalidProbability(InvalidConfig):
    """Reserve rate outside (0, 1]."""


class InvalidBeta(InvalidConfig):
    """Preference-loss temperature must be positive."""


def is_count(value, least: int) -> bool:
    """An integer, not a bool, of at least `least`."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def is_real(value) -> bool:
    """A finite real number that is not a bool."""
    if type(value) is float:
        return math.isfinite(value)
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def check_u64(value, what: str) -> int:
    """value as an int after checking that it is an integer, not a bool, in
    [0, 2**64): the rule for seeds and steps. InvalidConfig otherwise."""
    if type(value) is int:  # the common case, checked without the ABCs
        if 0 <= value < _U64:
            return value
    elif is_count(value, 0) and value < _U64:
        return int(value)
    raise InvalidConfig(f"{what} must be an integer in [0, 2**64), got {value!r}")


def validate_probability(p, what: str = "reserve rate") -> float:
    """p as a float after checking that it is a finite real, not a bool, in
    (0, 1]: the rule for reserve rates. InvalidProbability otherwise."""
    if not (is_real(p) and 0.0 < p <= 1.0):
        raise InvalidProbability(f"{what} must be in (0, 1], got {p!r}")
    return float(p)
