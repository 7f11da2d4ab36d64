"""Nesterov smoothing of the hinge and absolute losses through their duals.

Each loss is max u * a over a dual interval [u_lo, u_hi], where a = c - r'x
is the per-sample slack on the problem's row r and offset c
(``CompositeProblem.features`` and ``offsets``): 1 - y z'x for the hinge,
y - z'x for the absolute loss. Subtracting the prox term gamma u^2 / 2 inside
the max gives a surrogate whose derivative in a is the maximizing dual point
clip(a / gamma, u_lo, u_hi), Lipschitz with constant 1/gamma. The surrogate
sits within gamma * D_u below the exact loss everywhere, with D_u = max u^2 / 2
over the interval = 1/2 for both losses. ``_DUAL_SPECS`` is the one table of the
losses; every other function reads it instead of naming a loss.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sparse

from .datasets import CLASSIFICATION, REGRESSION

HINGE = "hinge"
ABSOLUTE = "absolute"


def _check_gamma(gamma):
    if gamma <= 0:
        raise ValueError(f"smoothness parameter must be positive, got {gamma}")


def _hinge_values(a, gamma):
    return np.where(a <= 0.0, 0.0, np.where(a > gamma, a - gamma / 2.0, a * a / (2.0 * gamma)))


def _absolute_values(a, gamma):
    m = np.abs(a)
    return np.where(m >= gamma, m - gamma / 2.0, a * a / (2.0 * gamma))


@dataclass(frozen=True)
class LossDualSpec:
    """One row of the loss table: the loss as a max over its dual interval.

    The prox-function is fixed to 0.5 u^2 (1-strongly convex, so zeta = 1),
    which makes d_u = max 0.5 u^2 over [u_lo, u_hi]. Only the surrogate's
    value ``smoothed(a, gamma)`` differs in form between the losses.
    """

    task: str
    u_lo: float
    u_hi: float
    smoothed: Callable
    d_u: float = 0.5
    zeta: float = 1.0


_DUAL_SPECS = {
    HINGE: LossDualSpec(CLASSIFICATION, 0.0, 1.0, smoothed=_hinge_values),
    ABSOLUTE: LossDualSpec(REGRESSION, -1.0, 1.0, smoothed=_absolute_values),
}
LOSSES = tuple(_DUAL_SPECS)


def dual_spec(loss):
    """The LossDualSpec for a loss kind."""
    try:
        return _DUAL_SPECS[loss]
    except KeyError:
        raise ValueError(f"unknown loss {loss!r}") from None


def exact_loss_values(a, loss):
    """Exact nonsmooth per-sample losses max(u_lo a, u_hi a) at slacks a."""
    spec = dual_spec(loss)
    a = np.asarray(a, dtype=float)
    return np.maximum(spec.u_lo * a, spec.u_hi * a)


def smoothed_loss_values(a, loss, gamma):
    """Smoothed per-sample losses at slacks a."""
    spec = dual_spec(loss)
    _check_gamma(gamma)
    return spec.smoothed(np.asarray(a, dtype=float), gamma)


def smoothing_gap(spec, gamma):
    """Worst-case surrogate error gamma * D_u for the given dual spec."""
    _check_gamma(gamma)
    return gamma * spec.d_u


def _check_x(problem, x):
    if x.shape != (problem.d,):
        raise ValueError(f"x has shape {x.shape}, expected ({problem.d},)")


def slacks(problem, x):
    """Per-sample slacks a = c - Z x on the problem's offsets and rows:
    1 - y_i z_i'x for hinge, y_i - z_i'x for absolute."""
    _check_x(problem, x)
    return problem.offsets - problem.features.dot(x)


def _score_weights(spec, c, scores, gamma):
    """-alpha at each sample, where alpha = clip(a / gamma, u_lo, u_hi) is its
    dual point at slack a = c - s, in one clip by dividing by -gamma. It is the
    smoothed loss's derivative in the score s, since da/ds is -1.

    Overwrites ``scores`` (a float array whose last axis runs over the
    samples) with the weights and returns it.
    """
    np.subtract(c, scores, out=scores)
    np.divide(scores, -gamma, out=scores)
    # bound first: on a tie (the hinge's bound is -0.0) these return the
    # score, as ndarray.clip does, so the weights keep clip's bits
    np.maximum(-spec.u_hi, scores, out=scores)
    return np.minimum(-spec.u_lo, scores, out=scores)


def gradient_kernel(rows, offsets, loss, gamma, x):
    """Mean gradient of the smoothed loss over pre-sliced rows and offsets,
    and the per-sample weights -alpha that it averages."""
    spec = dual_spec(loss)
    # ndarray.dot calls the BLAS directly: on the contiguous rows the solvers
    # pass, the bits of @ without the matmul gufunc's dispatch, which costs
    # more than the product itself at b x 50
    weights = _score_weights(spec, offsets, rows.dot(x), gamma)
    return rows.T.dot(weights) / len(offsets), weights


def vr_gradient_kernel(rows, offsets, loss, gamma, x, snapshot_weights, full_gradient):
    """Variance-reduced estimate over pre-sliced rows and offsets:

    batch gradient at x, minus batch gradient at the snapshot, plus the full
    gradient at the snapshot. ``snapshot_weights`` are these rows' weights
    -alpha at the snapshot, from the full pass that gave ``full_gradient``
    (``loss_gradient(..., with_weights=True)``), so the batch rows are applied
    once for the scores at x and once for the correction. When x == snapshot
    the estimate equals ``full_gradient`` up to the rounding of the batch
    scores, which the BLAS may sum in another order than the full pass's.
    """
    spec = dual_spec(loss)
    # .dot, not @: see gradient_kernel
    weights = _score_weights(spec, offsets, rows.dot(x), gamma)
    weights -= snapshot_weights
    return rows.T.dot(weights) / len(offsets) + full_gradient


def loss_gradient(sp, x, with_weights=False):
    """Gradient of the averaged smoothed loss alone (no ridge term); with
    ``with_weights``, the pair (gradient, per-sample weights -alpha at x)."""
    problem = sp.base
    _check_x(problem, x)
    out = gradient_kernel(problem.features, problem.offsets, problem.loss, sp.gamma, x)
    return out if with_weights else out[0]


def smoothed_loss_gradient(sp, x):
    """Gradient of the full smooth part: averaged smoothed loss plus lam * x."""
    g = loss_gradient(sp, x)
    if sp.lam:
        g = g + sp.lam * x
    return g


def max_row_sq_norm(features):
    """max_i ||z_i||_2^2 over the rows of a dense or CSR matrix."""
    if sparse.issparse(features):
        sq = features.multiply(features).sum(axis=1)
        return float(np.max(np.asarray(sq)))
    return float(np.max(np.einsum("ij,ij->i", features, features)))


def lipschitz_constant(sp):
    """Upper bound on the smooth part's gradient Lipschitz constant.

    Uses the per-row bound max_i ||z_i||^2 / (gamma * zeta) + lam, which is
    valid for sample-averaged losses and cheap on sparse data (a spectral
    bound on the stacked matrix would be tighter but costlier).
    """
    _check_gamma(sp.gamma)
    if sp.base.data.n < 1:
        raise ValueError("empty dataset")
    spec = dual_spec(sp.base.loss)
    return sp.base.max_row_sq_norm / (sp.gamma * spec.zeta) + sp.lam


def condition_number(sp, mu_eff):
    """Condition number of the stage objective for modulus ``mu_eff``."""
    if mu_eff <= 0:
        raise ValueError(f"mu_eff must be positive, got {mu_eff}")
    return lipschitz_constant(sp) / mu_eff
