"""Exception types shared across the package, and its finiteness and seed checks."""

import math
import numbers


def check_finite(**values):
    """Raise ValueError naming the first of ``values`` that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def check_seed(seed):
    """Raise ValueError naming ``seed`` unless it is a nonnegative integer,
    the seed that ``numpy.random.default_rng`` takes."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


class CnsError(Exception):
    """Base class for all cnsopt errors."""


class DivergenceError(CnsError):
    """A solver produced a non-finite iterate or objective."""


class InfeasibleBudgetError(CnsError):
    """The requested (theta, p, rho) combination violates a budget-row constraint."""


class BudgetEstimationError(CnsError):
    """Automatic stage-1 budget search hit its cap without meeting the target."""


class WrongDriverError(CnsError):
    """The problem does not match the selected continuation driver."""


class StageConvergedError(CnsError):
    """The stage started already converged; a reduction factor is undefined."""


class TuningError(CnsError):
    """Every step-size candidate diverged."""


class LibsvmFormatError(CnsError):
    """Malformed LIBSVM input. Carries the 1-based line number, and the path
    when the input was read from one."""

    def __init__(self, lineno, message, path=None):
        where = f"line {lineno}: {message}"
        super().__init__(where if path is None else f"{path}: {where}")
        self.lineno = lineno
        self.message = message
        self.path = path

    def __reduce__(self):
        # rebuilt from every argument, so the error survives a process pool
        return type(self), (self.lineno, self.message, self.path)
