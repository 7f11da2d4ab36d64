"""Stochastic subgradient baselines operating on the exact nonsmooth objective.

FOBOS and RDA exploit the regularizer through prox / closed-form minimization
and therefore produce exact zeros under an l1 penalty; polynomial-decay
averaged SGD treats the whole objective through its subgradient and does not.
Subgradients at kinks use the minimal-norm element (0 at a zero slack and at a
zero coordinate).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .datasets import epoch_batches, minibatches
from .errors import check_finite
from .prox import _soft_threshold, prox_regularizer, prox_scalars
from .smoothing import dual_spec, precast
from .solvers import drive, start_point

FOBOS = "fobos"
RDA = "rda"
POLY_SGD = "poly-sgd"

# Poly-SGD's polynomial-decay averaging exponent k (Shamir & Zhang 2013)
AVERAGING_EXPONENT = 3.0


@dataclass(frozen=True)
class BaselineSpec:
    """Baseline identity, step and sampling parameters.

    ``eta0`` is the step scale: of the FOBOS / Poly-SGD steps, and RDA's
    beta_t = eta0 * sqrt(t). The schedule comes from the problem
    (``run_baseline``).
    """

    method: str = FOBOS
    eta0: float = 1.0
    batch_size: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.method not in (FOBOS, RDA, POLY_SGD):
            raise ValueError(f"unknown baseline {self.method!r}")
        check_finite(eta0=self.eta0)
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def subgradient_scalars(loss, count):
    """The operands of ``loss_subgradient`` over ``count`` rows, cast once
    (``smoothing.precast``) for every call that shares them:
    ``(-u_hi, -u_lo, count)``, a bound None where it never binds on a sign
    (magnitude 1)."""
    spec = dual_spec(loss)
    return precast(-spec.u_hi if spec.u_hi < 1.0 else None,
                   -spec.u_lo if spec.u_lo > -1.0 else None, count)


def loss_subgradient(rows, offsets, scalars, x):
    """Mean minimal-norm subgradient of the nonsmooth loss over pre-sliced
    rows and offsets.

    The loss's derivative in the slack a is clip(sign(a), u_lo, u_hi), the
    minimal-norm dual point (both dual intervals lie in [-1, 1]); it is
    negated here, like the smoothed kernels' weights, since the slack
    a = c - s falls one for one with the score s on the problem's rows.
    ``scalars`` are ``subgradient_scalars(loss, len(offsets))``.
    """
    neg_u_hi, neg_u_lo, count = scalars
    # .dot, not @: the same BLAS call without the matmul gufunc's dispatch
    weights = rows.dot(x)
    weights -= offsets
    np.sign(weights, out=weights)
    # the clip to [-u_hi, -u_lo], one bound at a time: a single ufunc costs
    # less than np.clip
    if neg_u_hi is not None:
        np.maximum(weights, neg_u_hi, out=weights)
    if neg_u_lo is not None:
        np.minimum(weights, neg_u_lo, out=weights)
    g = rows.T.dot(weights)
    g /= count
    return g


def _step_sizes(eta0, mu, strongly_convex):
    """The FOBOS / Poly-SGD step size at step t: eta0 / (mu t) under the
    strongly convex schedule, else eta0 / sqrt(t)."""
    if strongly_convex:
        return lambda t: eta0 / (mu * t)
    return lambda t: eta0 / math.sqrt(t)


def _fobos_step(problem, spec, x0, batches, scalars, strongly_convex):
    """Forward-backward splitting: subgradient step on the loss, prox on r.
    The step size changes every step, so its prox operands stay floats."""
    step_size = _step_sizes(spec.eta0, problem.mu, strongly_convex)

    def step(t, x):
        eta = step_size(t)
        g = loss_subgradient(*next(batches), scalars, x)
        g *= eta
        return prox_regularizer(np.subtract(x, g, out=g), prox_scalars(eta, problem.reg))

    return step


def _rda_step(problem, spec, x0, batches, scalars, strongly_convex):
    """Regularized dual averaging with closed-form per-step minimization.

    x_{t+1} minimizes <gbar_t, x> + r(x) + (beta_t / 2t) ||x||^2, i.e.
    soft-threshold the averaged subgradient at nu1 and shrink by the total
    quadratic weight. beta_t = eta0 * sqrt(t) in the general case; under the
    strongly convex schedule the regularizer's own modulus does the damping
    and beta_t = 0.
    """
    gbar = np.zeros(problem.d)
    nu1, nu2 = problem.reg.nu1, problem.reg.nu2
    threshold = precast(-nu1, nu1) if nu1 else None

    def step(t, x):
        g = loss_subgradient(*next(batches), scalars, x)
        # gbar = ((t - 1) gbar + g) / t, in place
        np.multiply(gbar, t - 1, out=gbar)
        np.add(gbar, g, out=gbar)
        np.divide(gbar, t, out=gbar)
        quad = nu2 if strongly_convex else nu2 + spec.eta0 * math.sqrt(t) / t
        out = gbar.copy() if threshold is None else _soft_threshold(gbar, *threshold)
        # -p / quad as p / -quad: the same bits, in one ufunc
        out /= -quad
        return out

    return step


def _poly_sgd_step(problem, spec, x0, batches, scalars, strongly_convex):
    """Stochastic subgradient on the full objective with polynomial-decay averaging.

    No prox: the regularizer enters through its subgradient, so l1 weights do
    not sparsify the iterates. Reports the running average, which weights
    iterate t by (k + 1)/(t + k) at k = ``AVERAGING_EXPONENT``.
    """
    x = x0.copy()
    buf = np.empty_like(x)
    nu1, nu2 = precast(problem.reg.nu1 or None, problem.reg.nu2 or None)
    k = AVERAGING_EXPONENT
    step_size = _step_sizes(spec.eta0, problem.mu, strongly_convex)

    def step(t, avg):
        g = loss_subgradient(*next(batches), scalars, x)
        if nu1 is not None:
            g += np.multiply(np.sign(x, out=buf), nu1, out=buf)
        if nu2 is not None:
            g += np.multiply(x, nu2, out=buf)
        g *= step_size(t)
        np.subtract(x, g, out=x)
        # the average (1 - w) avg + w x in one new array: drive and its
        # callback may hold the previous one
        w = (k + 1.0) / (t + k)
        out = np.multiply(avg, 1.0 - w)
        out += np.multiply(x, w, out=buf)
        return out

    return step


_STEPS = {FOBOS: _fobos_step, RDA: _rda_step, POLY_SGD: _poly_sgd_step}


def run_baseline(problem, spec, budget, x0=None, **kwargs):
    """Run the baseline named by ``spec.method`` from ``x0`` (zeros when None),
    on one ``minibatches`` stream of min(batch_size, n) rows seeded from
    ``spec.seed`` (many epochs per draw), each epoch's rows and offsets
    gathered once (``epoch_batches``). The schedule is picked here, once per
    run: the strongly convex one (steps eta0 / (mu t), RDA's beta_t = 0) when
    mu = nu2 > 0, else the 1/sqrt(t) one."""
    x0 = start_point(x0, problem.d)
    b = min(spec.batch_size, problem.n)
    blocks = minibatches(problem.n, b, np.random.default_rng(spec.seed), budget)
    batches = itertools.chain.from_iterable(
        epoch_batches(block, problem.features, problem.offsets) for block in blocks)
    scalars = subgradient_scalars(problem.loss, b)
    step = _STEPS[spec.method](problem, spec, x0, batches, scalars, problem.mu > 0)
    return drive(step, x0, budget, context=f"{spec.method}: ", **kwargs)
