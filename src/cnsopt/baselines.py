"""Stochastic subgradient baselines operating on the exact nonsmooth objective.

FOBOS and RDA exploit the regularizer through prox / closed-form minimization
and therefore produce exact zeros under an l1 penalty; polynomial-decay
averaged SGD treats the whole objective through its subgradient and does not.
Subgradients at kinks use the minimal-norm element (0 at the hinge margin and
at a zero residual or coordinate).
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .datasets import sample_minibatch
from .errors import DivergenceError
from .problem import objective_original
from .prox import prox_l1, prox_regularizer
from .smoothing import HINGE
from .solvers import SolverRun

FOBOS = "fobos"
RDA = "rda"
POLY_SGD = "poly-sgd"


@dataclass(frozen=True)
class BaselineSpec:
    """Baseline identity and step/averaging parameters.

    ``strongly_convex`` selects the 1/(mu t) style schedules; otherwise the
    1/sqrt(t) ones are used. ``eta0`` is the FOBOS / Poly-SGD step scale,
    ``rda_scale`` the RDA dual-averaging scale, ``averaging_exponent`` the
    polynomial-decay weight.
    """

    method: str = FOBOS
    eta0: float = 1.0
    rda_scale: float = 1.0
    averaging_exponent: float = 3.0
    batch_size: int = 50
    seed: int = 0
    strongly_convex: bool = False

    def __post_init__(self):
        if self.method not in (FOBOS, RDA, POLY_SGD):
            raise ValueError(f"unknown baseline {self.method!r}")
        if self.eta0 <= 0 or self.rda_scale <= 0:
            raise ValueError("step scales must be positive")
        if self.averaging_exponent < 1:
            raise ValueError("averaging_exponent must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def loss_subgradient(problem, x, batch):
    """Mean minimal-norm subgradient of the nonsmooth loss over the batch."""
    rows = problem.features[batch]
    y = problem.data.labels[batch]
    scores = rows @ x
    if problem.loss == HINGE:
        weights = np.where(y * scores < 1.0, -y, 0.0)
    else:
        weights = -np.sign(y - scores)
    return (rows.T @ weights) / len(y)


def _baseline_loop(problem, spec, budget, update, result, *, callback=None,
                   callback_every=None, record_every=None):
    if budget < 1:
        raise ValueError(f"iteration budget must be >= 1, got {budget}")
    rng = np.random.default_rng(spec.seed)
    n = problem.n
    b = min(spec.batch_size, n)
    trace = []
    elapsed = 0.0
    tick = time.perf_counter()
    # divergence is detected and raised; silence the overflow noise on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, budget + 1):
            batch = sample_minibatch(n, b, rng)
            update(t, batch)
            out = result()
            if not np.isfinite(out).all():
                raise DivergenceError(
                    f"{spec.method}: non-finite iterate at iteration {t}"
                )
            want_record = record_every is not None and (
                t % record_every == 0 or t == budget
            )
            want_callback = (
                callback is not None
                and callback_every is not None
                and t % callback_every == 0
            )
            if want_record or want_callback:
                elapsed += time.perf_counter() - tick
                if want_record:
                    trace.append((t, elapsed, objective_original(problem, out)))
                if want_callback:
                    callback(t, out, elapsed)
                tick = time.perf_counter()
    elapsed += time.perf_counter() - tick
    return SolverRun(x=result(), iterations=budget, trace=trace, elapsed=elapsed)


def _step_size(spec, problem, t):
    if spec.strongly_convex:
        mu = problem.mu
        if mu <= 0:
            raise ValueError("strongly convex schedule needs mu > 0")
        return spec.eta0 / (mu * t)
    return spec.eta0 / math.sqrt(t)


def run_fobos(problem, spec, budget, x0=None, **kwargs):
    """Forward-backward splitting: subgradient step on the loss, prox on r."""
    x = np.zeros(problem.d) if x0 is None else np.array(x0, dtype=float)
    state = {"x": x}

    def update(t, batch):
        eta = _step_size(spec, problem, t)
        g = loss_subgradient(problem, state["x"], batch)
        state["x"] = prox_regularizer(state["x"] - eta * g, eta, problem.reg)

    return _baseline_loop(problem, spec, budget, update, lambda: state["x"], **kwargs)


def run_rda(problem, spec, budget, x0=None, **kwargs):
    """Regularized dual averaging with closed-form per-step minimization.

    x_{t+1} minimizes <gbar_t, x> + r(x) + (beta_t / 2t) ||x||^2, i.e.
    soft-threshold the averaged subgradient at nu1 and shrink by the total
    quadratic weight. beta_t = scale * sqrt(t) in the general case; under the
    strongly convex schedule the regularizer's own modulus does the damping
    and beta_t = 0.
    """
    x = np.zeros(problem.d) if x0 is None else np.array(x0, dtype=float)
    gbar = np.zeros(problem.d)
    state = {"x": x, "gbar": gbar}
    nu1, nu2 = problem.reg.nu1, problem.reg.nu2
    if spec.strongly_convex and nu2 <= 0:
        raise ValueError("strongly convex RDA schedule needs nu2 > 0")

    def update(t, batch):
        g = loss_subgradient(problem, state["x"], batch)
        state["gbar"] = ((t - 1) * state["gbar"] + g) / t
        beta_t = 0.0 if spec.strongly_convex else spec.rda_scale * math.sqrt(t)
        quad = nu2 + beta_t / t
        state["x"] = -prox_l1(state["gbar"], nu1) / quad

    return _baseline_loop(problem, spec, budget, update, lambda: state["x"], **kwargs)


def run_poly_sgd(problem, spec, budget, x0=None, **kwargs):
    """Stochastic subgradient on the full objective with polynomial-decay averaging.

    No prox: the regularizer enters through its subgradient, so l1 weights do
    not sparsify the iterates. Returns the running average, which weights
    iterate t by (exponent + 1)/(t + exponent).
    """
    x = np.zeros(problem.d) if x0 is None else np.array(x0, dtype=float)
    state = {"x": x, "avg": x.copy()}
    nu1, nu2 = problem.reg.nu1, problem.reg.nu2
    k = spec.averaging_exponent

    def update(t, batch):
        g = loss_subgradient(problem, state["x"], batch)
        if nu1:
            g = g + nu1 * np.sign(state["x"])
        if nu2:
            g = g + nu2 * state["x"]
        eta = _step_size(spec, problem, t)
        state["x"] = state["x"] - eta * g
        w = (k + 1.0) / (t + k)
        state["avg"] = (1.0 - w) * state["avg"] + w * state["x"]

    return _baseline_loop(problem, spec, budget, update, lambda: state["avg"], **kwargs)


_RUNNERS = {FOBOS: run_fobos, RDA: run_rda, POLY_SGD: run_poly_sgd}


def run_baseline(problem, spec, budget, x0=None, **kwargs):
    """Dispatch to the baseline named by ``spec.method``."""
    return _RUNNERS[spec.method](problem, spec, budget, x0=x0, **kwargs)
