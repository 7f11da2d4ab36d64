"""Exception types shared across the package, and the checks of its settings."""

import collections
import dataclasses
import functools
import math
import numbers
import typing
from typing import Annotated


def check_finite(**values):
    """Raise ValueError naming the first of ``values`` that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


# a number field's lower bound ``low`` (excluded when ``strict``), and what an error
# says the field must be: ``words``, or for a value that is not an integer ``integer_words``
Domain = collections.namedtuple("Domain", "low strict words integer_words",
                                defaults=["an integer"])

COUNT = Annotated[int, Domain(1, False, ">= 1", "an integer >= 1")]
SEED = Annotated[int, Domain(0, False, "a nonnegative integer", "a nonnegative integer")]
POSITIVE = Annotated[float, Domain(0.0, True, "positive")]
NONNEGATIVE = Annotated[float, Domain(0.0, False, "nonnegative")]
_NUMBERS = {int: numbers.Integral, float: numbers.Real}


@functools.cache
def field_rules(cls):
    """``(name, class, optional, domain)`` of each field of the dataclass ``cls``:
    optional when annotated ``X | None``, the Domain of an alias such as ``COUNT`` or None."""
    hints, rules = typing.get_type_hints(cls, include_extras=True), []
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        optional = type(None) in typing.get_args(kind)
        if optional:
            (kind,) = [arg for arg in typing.get_args(kind) if arg is not type(None)]
        kind, domain = typing.get_args(kind) if typing.get_origin(kind) is Annotated else (kind, None)
        rules.append((f.name, kind, optional, domain))
    return tuple(rules)


def check_fields(spec):
    """Raise ValueError naming the first field of the dataclass ``spec`` its annotation
    rejects: an ``int`` takes an integer and a ``float`` a finite real, neither a bool;
    another class an instance of it; ``X | None`` also None; then the Domain applies."""
    for name, kind, optional, domain in field_rules(type(spec)):
        value = getattr(spec, name)
        if value is None and optional:
            continue
        if isinstance(value, bool) or not isinstance(value, _NUMBERS.get(kind, kind)):
            what = {int: getattr(domain, "integer_words", "an integer"), float: "a real number"}
            raise ValueError(f"{name} must be {what.get(kind, f'a {kind.__name__}')}"
                             f"{' or None' * optional}, got {value!r}")
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if domain and (value <= domain.low if domain.strict else value < domain.low):
            raise ValueError(f"{name} must be {domain.words}, got {value}")


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
