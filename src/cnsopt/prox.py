"""Proximal operators for the supported regularizers."""

import numpy as np


def _soft_threshold(v, neg_t, t):
    """sign(v) * max(|v| - t, 0) for a float array v and a threshold t > 0
    (given with its negation), as v - clip(v, -t, t): the same bits on finite
    input (v - v is +0 and t * +-1 is exact), and NaN stays NaN. Returns a new
    array, the only one it allocates."""
    out = np.maximum(v, neg_t)
    np.minimum(out, t, out=out)
    return np.subtract(v, out, out=out)


def prox_l1(v, threshold):
    """Entrywise soft-thresholding: sign(v) * max(|v| - threshold, 0)."""
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    v = np.asarray(v, dtype=float)
    if threshold == 0:
        return v.copy()
    return _soft_threshold(v, -threshold, threshold)


def prox_scalars(eta, reg, lam_extra=0.0):
    """The operands of ``prox_regularizer`` as Python floats
    ``(-threshold, threshold, shrink)``, threshold eta * nu1 and shrink
    1 + eta * (nu2 + lam_extra), each None where it is a no-op; a solver with
    a constant step casts them once per stage (``smoothing.precast``)."""
    if eta <= 0:
        raise ValueError(f"step size must be positive, got {eta}")
    if lam_extra < 0:
        raise ValueError(f"lam_extra must be nonnegative, got {lam_extra}")
    # eta > 0 and the Regularizer's nu1 >= 0 make the threshold nonnegative
    threshold = eta * reg.nu1
    quad = reg.nu2 + lam_extra
    return (-threshold if threshold else None, threshold or None,
            1.0 + eta * quad if quad else None)


def prox_regularizer(v, scalars):
    """Prox of eta * (nu1 ||x||_1 + ((nu2 + lam_extra)/2) ||x||_2^2) at a float
    array v, whose operands are ``scalars = prox_scalars(eta, reg, lam_extra)``.

    Soft-threshold then shrink; exact because the quadratic weights add. The
    stage ridge term lands here (as lam_extra) rather than in the gradient so
    the update stays in closed form. Reduces to prox_l1 when both quadratic
    weights vanish.
    """
    neg_threshold, threshold, shrink = scalars
    out = (np.array(v, dtype=float) if threshold is None
           else _soft_threshold(v, neg_threshold, threshold))
    if shrink is not None:
        out /= shrink
    return out
