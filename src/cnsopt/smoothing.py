"""Nesterov smoothing of the hinge and absolute losses through their duals.

Each loss is max u * a over a dual interval [u_lo, u_hi], where a is the
per-sample slack (1 - y z'x for the hinge, y - z'x for the absolute loss).
Subtracting the prox term gamma u^2 / 2 inside the max gives a surrogate
whose derivative in a is the maximizing dual point clip(a / gamma, u_lo,
u_hi), Lipschitz with constant 1/gamma. The surrogate sits within
gamma * D_u below the exact loss everywhere, with D_u = max u^2 / 2 over the
interval = 1/2 for both losses. ``_DUAL_SPECS`` is the one table of the
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


def _hinge_slack(y, s):
    return 1.0 - y * s


def _absolute_slack(y, s):
    return y - s


def _hinge_values(a, gamma):
    return np.where(a <= 0.0, 0.0, np.where(a > gamma, a - gamma / 2.0, a * a / (2.0 * gamma)))


def _absolute_values(a, gamma):
    m = np.abs(a)
    return np.where(m >= gamma, m - gamma / 2.0, a * a / (2.0 * gamma))


@dataclass(frozen=True)
class LossDualSpec:
    """One row of the loss table: the loss as a max over its dual interval.

    The prox-function is fixed to 0.5 u^2 (1-strongly convex, so zeta = 1),
    which makes d_u = max 0.5 u^2 over [u_lo, u_hi]. Only three parts differ
    in form between the losses: ``slack(y, s)`` is a at label y and score
    s = z'x, ``smoothed(a, gamma)`` the surrogate's value, and
    ``label_slope`` says whether da/ds is -y (else -1).
    """

    kind: str
    task: str
    u_lo: float
    u_hi: float
    slack: Callable
    smoothed: Callable
    label_slope: bool
    d_u: float = 0.5
    zeta: float = 1.0


_DUAL_SPECS = {
    HINGE: LossDualSpec(HINGE, CLASSIFICATION, 0.0, 1.0, slack=_hinge_slack,
                        smoothed=_hinge_values, label_slope=True),
    ABSOLUTE: LossDualSpec(ABSOLUTE, REGRESSION, -1.0, 1.0, slack=_absolute_slack,
                           smoothed=_absolute_values, label_slope=False),
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


def _batch_rows(problem, x, batch=None):
    """``(rows, labels)`` of the batch's samples, or of all samples when
    ``batch`` is None, after checking x's shape and the batch's indices."""
    if x.shape != (problem.d,):
        raise ValueError(f"x has shape {x.shape}, expected ({problem.d},)")
    feats, y = problem.features, problem.data.labels
    if batch is None:
        return feats, y
    batch = np.asarray(batch)
    if batch.size and (batch.min() < 0 or batch.max() >= problem.n):
        raise ValueError("batch index out of range")
    return feats[batch], y[batch]


def slacks(problem, x, batch=None):
    """Per-sample slacks a_i: 1 - y_i z_i'x for hinge, y_i - z_i'x for absolute.

    ``batch`` restricts to a subset of sample indices (validated)."""
    feats, y = _batch_rows(problem, x, batch)
    return dual_spec(problem.loss).slack(y, feats @ x)


def _score_weights(spec, y, scores, gamma):
    """-alpha at each sample, where alpha = clip(a / gamma, u_lo, u_hi) is its
    dual point, in one clip by dividing by -gamma. Times y when
    ``spec.label_slope`` (the caller's multiply), it is the smoothed loss's
    derivative in the score, since da/ds is -y or -1."""
    return (spec.slack(y, scores) / -gamma).clip(-spec.u_hi, -spec.u_lo)


def gradient_kernel(rows, y, loss, x, gamma):
    """Mean gradient of the smoothed loss over pre-sliced rows and labels.

    Hot path for the stochastic solvers: callers slice the batch rows once and
    reuse them for several evaluation points.
    """
    spec = dual_spec(loss)
    weights = _score_weights(spec, y, rows @ x, gamma)
    if spec.label_slope:
        weights *= y
    return (rows.T @ weights) / len(y)


def vr_gradient_kernel(rows, y, loss, gamma, x, snapshot, full_gradient):
    """Variance-reduced estimate over pre-sliced rows:

    batch gradient at x, minus batch gradient at the snapshot, plus the full
    gradient at the snapshot. Fused so the batch matrix is applied once for
    the correction term. Equals ``full_gradient`` exactly when x == snapshot.
    """
    spec = dual_spec(loss)
    weights = (_score_weights(spec, y, rows @ x, gamma)
               - _score_weights(spec, y, rows @ snapshot, gamma))
    if spec.label_slope:
        weights *= y
    return (rows.T @ weights) / len(y) + full_gradient


def loss_gradient(sp, x, batch=None):
    """Gradient of the averaged smoothed loss alone (no ridge term)."""
    feats, y = _batch_rows(sp.base, x, batch)
    return gradient_kernel(feats, y, sp.base.loss, x, sp.gamma)


def smoothed_loss_gradient(sp, x, batch=None):
    """Gradient of the full smooth part: averaged smoothed loss plus lam * x."""
    g = loss_gradient(sp, x, batch)
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
