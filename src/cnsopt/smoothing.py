"""Closed-form smoothing of the hinge and absolute losses.

Each nonsmooth loss is replaced by a three-branch surrogate with a gradient
that is Lipschitz with constant proportional to 1/gamma. The surrogate sits
within gamma/2 below the exact loss everywhere (the dual prox-term penalty is
at most gamma * D_u with D_u = 1/2 for both built-in losses).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sparse

HINGE = "hinge"
ABSOLUTE = "absolute"

FLAT = "flat"
LINEAR = "linear"
QUADRATIC = "quadratic"


class ScalarBranchResult(NamedTuple):
    value: float
    derivative: float
    branch: str


def _check_gamma(gamma):
    if gamma <= 0:
        raise ValueError(f"smoothness parameter must be positive, got {gamma}")


def smoothed_hinge(margin, gamma):
    """Smoothed hinge at a scalar margin m = y * z'x.

    Flat for m >= 1, linear (slope -1) for m < 1 - gamma, quadratic between.
    """
    _check_gamma(gamma)
    m = float(margin)
    if m >= 1.0:
        return ScalarBranchResult(0.0, 0.0, FLAT)
    if m < 1.0 - gamma:
        return ScalarBranchResult(1.0 - m - gamma / 2.0, -1.0, LINEAR)
    return ScalarBranchResult((1.0 - m) ** 2 / (2.0 * gamma), -(1.0 - m) / gamma, QUADRATIC)


def smoothed_absolute(residual, gamma):
    """Smoothed absolute loss at a scalar residual rho = y - z'x.

    Linear with slope +/-1 outside [-gamma, gamma], quadratic rho^2/(2 gamma)
    inside (the classic Huber shape).
    """
    _check_gamma(gamma)
    r = float(residual)
    if r >= gamma:
        return ScalarBranchResult(r - gamma / 2.0, 1.0, LINEAR)
    if r < -gamma:
        return ScalarBranchResult(-r - gamma / 2.0, -1.0, LINEAR)
    return ScalarBranchResult(r * r / (2.0 * gamma), r / gamma, QUADRATIC)


def hinge_values(margins, gamma):
    """Vectorized smoothed-hinge values over an array of margins."""
    _check_gamma(gamma)
    m = np.asarray(margins, dtype=float)
    gap = 1.0 - m
    out = np.where(
        gap <= 0.0,
        0.0,
        np.where(gap > gamma, gap - gamma / 2.0, gap * gap / (2.0 * gamma)),
    )
    return out


def hinge_derivatives(margins, gamma):
    """Vectorized d/dm of the smoothed hinge."""
    _check_gamma(gamma)
    m = np.asarray(margins, dtype=float)
    gap = 1.0 - m
    return np.where(gap <= 0.0, 0.0, np.where(gap > gamma, -1.0, -gap / gamma))

def absolute_values(residuals, gamma):
    """Vectorized smoothed-absolute values over an array of residuals."""
    _check_gamma(gamma)
    r = np.asarray(residuals, dtype=float)
    a = np.abs(r)
    return np.where(a >= gamma, a - gamma / 2.0, r * r / (2.0 * gamma))


def absolute_derivatives(residuals, gamma):
    """Vectorized d/drho of the smoothed absolute loss."""
    _check_gamma(gamma)
    r = np.asarray(residuals, dtype=float)
    return np.clip(r / gamma, -1.0, 1.0)


def exact_loss_values(margins_or_residuals, loss):
    """Exact nonsmooth per-sample losses on margins (hinge) or residuals (absolute)."""
    v = np.asarray(margins_or_residuals, dtype=float)
    if loss == HINGE:
        return np.maximum(0.0, 1.0 - v)
    if loss == ABSOLUTE:
        return np.abs(v)
    raise ValueError(f"unknown loss {loss!r}")


def smoothed_loss_values(margins_or_residuals, loss, gamma):
    """Smoothed per-sample losses, dispatching on the loss kind."""
    if loss == HINGE:
        return hinge_values(margins_or_residuals, gamma)
    if loss == ABSOLUTE:
        return absolute_values(margins_or_residuals, gamma)
    raise ValueError(f"unknown loss {loss!r}")


@dataclass(frozen=True)
class LossDualSpec:
    """Dual description of a supported loss under the quadratic prox-function.

    The prox-function is fixed to 0.5 ||u||^2 (1-strongly convex), so the
    only loss-specific data are the dual interval and its penalty maximum.
    """

    kind: str
    u_lo: float
    u_hi: float
    d_u: float = 0.5
    zeta: float = 1.0


_DUAL_SPECS = {
    HINGE: LossDualSpec(HINGE, 0.0, 1.0),
    ABSOLUTE: LossDualSpec(ABSOLUTE, -1.0, 1.0),
}


def dual_spec(loss):
    """The LossDualSpec for a loss kind."""
    try:
        return _DUAL_SPECS[loss]
    except KeyError:
        raise ValueError(f"unknown loss {loss!r}") from None


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


def margins(problem, x, batch=None):
    """Per-sample map: margins y_i z_i'x for hinge, residuals y_i - z_i'x for absolute.

    ``batch`` restricts to a subset of sample indices (validated)."""
    feats, y = _batch_rows(problem, x, batch)
    scores = feats @ x
    if problem.loss == HINGE:
        return y * scores
    return y - scores


def gradient_kernel(rows, y, loss, x, gamma):
    """Mean gradient of the smoothed loss over pre-sliced rows and labels.

    Hot path for the stochastic solvers: callers slice the batch rows once and
    reuse them for several evaluation points.
    """
    scores = rows @ x
    if loss == HINGE:
        weights = hinge_derivatives(y * scores, gamma) * y
    else:
        weights = -absolute_derivatives(y - scores, gamma)
    return (rows.T @ weights) / len(y)


def vr_gradient_kernel(rows, y, loss, gamma, x, snapshot, full_gradient):
    """Variance-reduced estimate over pre-sliced rows:

    batch gradient at x, minus batch gradient at the snapshot, plus the full
    gradient at the snapshot. Fused so the batch matrix is applied once for
    the correction term. Equals ``full_gradient`` exactly when x == snapshot.
    """
    scores_x = rows @ x
    scores_s = rows @ snapshot
    if loss == HINGE:
        weights = (
            hinge_derivatives(y * scores_x, gamma)
            - hinge_derivatives(y * scores_s, gamma)
        ) * y
    else:
        weights = -(
            absolute_derivatives(y - scores_x, gamma)
            - absolute_derivatives(y - scores_s, gamma)
        )
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
