"""Exception types shared across the package."""


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
    """Malformed LIBSVM input. Carries the 1-based line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
        self.message = message

    def __reduce__(self):
        # rebuilt from both arguments, so the error survives a process pool
        return type(self), (self.lineno, self.message)
