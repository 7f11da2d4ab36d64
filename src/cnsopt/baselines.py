"""Stochastic subgradient baselines operating on the exact nonsmooth objective.

FOBOS and RDA exploit the regularizer through prox / closed-form minimization
and therefore produce exact zeros under an l1 penalty; polynomial-decay
averaged SGD treats the whole objective through its subgradient and does not.
Subgradients at kinks use the minimal-norm element (0 at a zero slack and at a
zero coordinate).
"""

import math
from dataclasses import dataclass

import numpy as np

from .datasets import sample_minibatch
from .prox import prox_l1, prox_regularizer
from .smoothing import dual_spec
from .solvers import drive

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
    """Mean minimal-norm subgradient of the nonsmooth loss over the batch.

    The loss's derivative in the slack a is clip(sign(a), u_lo, u_hi), the
    minimal-norm dual point (both dual intervals lie in [-1, 1]); it is
    negated here, like the smoothed kernels' weights, since da/ds is -y or -1.
    """
    spec = dual_spec(problem.loss)
    rows = problem.features[batch]
    y = problem.data.labels[batch]
    weights = np.sign(-spec.slack(y, rows @ x))
    # the clip to [-u_hi, -u_lo], one bound at a time: a bound of magnitude 1
    # never binds on a sign, and a single ufunc costs less than np.clip
    if spec.u_hi < 1.0:
        np.maximum(weights, -spec.u_hi, out=weights)
    if spec.u_lo > -1.0:
        np.minimum(weights, -spec.u_lo, out=weights)
    if spec.label_slope:
        weights *= y
    return (rows.T @ weights) / len(y)


def _step_size(spec, problem, t):
    if spec.strongly_convex:
        mu = problem.mu
        if mu <= 0:
            raise ValueError("strongly convex schedule needs mu > 0")
        return spec.eta0 / (mu * t)
    return spec.eta0 / math.sqrt(t)


def _start(problem, x0):
    return np.zeros(problem.d) if x0 is None else np.array(x0, dtype=float)


def run_fobos(problem, spec, budget, x0=None, **kwargs):
    """Forward-backward splitting: subgradient step on the loss, prox on r."""
    rng = np.random.default_rng(spec.seed)
    b = min(spec.batch_size, problem.n)

    def step(t, x):
        batch = sample_minibatch(problem.n, b, rng)
        eta = _step_size(spec, problem, t)
        g = loss_subgradient(problem, x, batch)
        return prox_regularizer(x - eta * g, eta, problem.reg)

    return drive(step, _start(problem, x0), budget, context=f"{spec.method}: ", **kwargs)


def run_rda(problem, spec, budget, x0=None, **kwargs):
    """Regularized dual averaging with closed-form per-step minimization.

    x_{t+1} minimizes <gbar_t, x> + r(x) + (beta_t / 2t) ||x||^2, i.e.
    soft-threshold the averaged subgradient at nu1 and shrink by the total
    quadratic weight. beta_t = scale * sqrt(t) in the general case; under the
    strongly convex schedule the regularizer's own modulus does the damping
    and beta_t = 0.
    """
    rng = np.random.default_rng(spec.seed)
    b = min(spec.batch_size, problem.n)
    state = {"gbar": np.zeros(problem.d)}
    nu1, nu2 = problem.reg.nu1, problem.reg.nu2
    if spec.strongly_convex and nu2 <= 0:
        raise ValueError("strongly convex RDA schedule needs nu2 > 0")

    def step(t, x):
        batch = sample_minibatch(problem.n, b, rng)
        g = loss_subgradient(problem, x, batch)
        state["gbar"] = ((t - 1) * state["gbar"] + g) / t
        beta_t = 0.0 if spec.strongly_convex else spec.rda_scale * math.sqrt(t)
        quad = nu2 + beta_t / t
        return -prox_l1(state["gbar"], nu1) / quad

    return drive(step, _start(problem, x0), budget, context=f"{spec.method}: ", **kwargs)


def run_poly_sgd(problem, spec, budget, x0=None, **kwargs):
    """Stochastic subgradient on the full objective with polynomial-decay averaging.

    No prox: the regularizer enters through its subgradient, so l1 weights do
    not sparsify the iterates. Reports the running average, which weights
    iterate t by (exponent + 1)/(t + exponent).
    """
    rng = np.random.default_rng(spec.seed)
    b = min(spec.batch_size, problem.n)
    state = {"x": _start(problem, x0)}
    nu1, nu2 = problem.reg.nu1, problem.reg.nu2
    k = spec.averaging_exponent

    def step(t, avg):
        batch = sample_minibatch(problem.n, b, rng)
        g = loss_subgradient(problem, state["x"], batch)
        if nu1:
            g = g + nu1 * np.sign(state["x"])
        if nu2:
            g = g + nu2 * state["x"]
        eta = _step_size(spec, problem, t)
        state["x"] = state["x"] - eta * g
        w = (k + 1.0) / (t + k)
        return (1.0 - w) * avg + w * state["x"]

    return drive(step, state["x"], budget, context=f"{spec.method}: ", **kwargs)


_RUNNERS = {FOBOS: run_fobos, RDA: run_rda, POLY_SGD: run_poly_sgd}


def run_baseline(problem, spec, budget, x0=None, **kwargs):
    """Dispatch to the baseline named by ``spec.method``."""
    return _RUNNERS[spec.method](problem, spec, budget, x0=x0, **kwargs)
