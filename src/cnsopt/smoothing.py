"""Nesterov smoothing of the hinge and absolute losses through their duals.

Each loss is max u * a over a dual interval [u_lo, u_hi], where a = c - r'x
is the per-sample slack on the problem's row r and offset c
(``CompositeProblem.features`` and ``offsets``): 1 - y z'x for the hinge,
y - z'x for the absolute loss. Subtracting the prox term gamma u^2 / 2 inside
the max gives a surrogate u a - gamma u^2 / 2 at the maximizing dual point
u = clip(a / gamma, u_lo, u_hi), which is also its derivative in a, Lipschitz
with constant 1/gamma. The surrogate sits within gamma * D_u below the exact
loss everywhere, with D_u = max u^2 / 2 over the interval = 1/2 for both
losses. ``_DUAL_SPECS`` is the one table of the losses, a task and an interval
each; every other function reads it instead of naming a loss.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .datasets import CLASSIFICATION, REGRESSION
from .errors import check_finite

HINGE = "hinge"
ABSOLUTE = "absolute"


def _check_gamma(gamma):
    check_finite(gamma=gamma)
    if gamma <= 0:
        raise ValueError(f"smoothness parameter must be positive, got {gamma}")


@dataclass(frozen=True)
class LossDualSpec:
    """One row of the loss table: the dataset task a loss needs and the dual
    interval [u_lo, u_hi] it is the max over.

    The prox-function is fixed to 0.5 u^2, so the interval fixes the
    surrogate, its gap ``d_u`` and its smoothness.
    """

    task: str
    u_lo: float
    u_hi: float

    @property
    def d_u(self):
        """max 0.5 u^2 over the dual interval."""
        return 0.5 * max(self.u_lo**2, self.u_hi**2)


_DUAL_SPECS = {
    HINGE: LossDualSpec(CLASSIFICATION, 0.0, 1.0),
    ABSOLUTE: LossDualSpec(REGRESSION, -1.0, 1.0),
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
    """Smoothed per-sample losses u a - gamma u^2 / 2 at slacks a, where
    u = clip(a / gamma, u_lo, u_hi) is each sample's dual point."""
    spec = dual_spec(loss)
    _check_gamma(gamma)
    a = np.asarray(a, dtype=float)
    u = np.clip(a / gamma, spec.u_lo, spec.u_hi)
    return u * a - gamma * u * u / 2.0


def _check_x(problem, x):
    if x.shape != (problem.d,):
        raise ValueError(f"x has shape {x.shape}, expected ({problem.d},)")


def slacks(problem, x):
    """Per-sample slacks a = c - Z x on the problem's offsets and rows:
    1 - y_i z_i'x for hinge, y_i - z_i'x for absolute."""
    _check_x(problem, x)
    return problem.offsets - problem.features.dot(x)


def precast(*values):
    """The tuple of ``values``, each number cast to a read-only 0-d float64
    array (None stays None).

    Every step's ufuncs read the step operands cast here once; do not fold
    them back into floats. With numpy 2.4.6 on 50 floats (x86-64 Xeon VM), an
    in-place ufunc costs about 0.69 us with a Python-float operand, which it
    converts on every call, and 0.45 us with a 0-d array; a cast costs about
    0.8 us, so a per-step value (FOBOS's step size) stays a float. Both forms
    give the same bits; read-only, so no step can change a stage's constant.
    """
    out = []
    for value in values:
        if value is not None:
            value = np.array(value, dtype=float)
            value.flags.writeable = False
        out.append(value)
    return tuple(out)


def kernel_scalars(loss, gamma, count):
    """The operands (-gamma, -u_hi, -u_lo, count) of a gradient kernel over
    ``count`` rows at a finite gamma > 0, cast once (``precast``)."""
    spec = dual_spec(loss)
    _check_gamma(gamma)
    return precast(-gamma, -spec.u_hi, -spec.u_lo, count)


def _score_weights(scalars, c, scores):
    """-alpha at each sample, where alpha = clip(a / gamma, u_lo, u_hi) is its
    dual point at slack a = c - s, in one clip by dividing by -gamma. It is the
    smoothed loss's derivative in the score s, since da/ds is -1. ``scalars``
    are ``kernel_scalars``.

    Overwrites ``scores`` (a float array whose last axis runs over the
    samples) with the weights and returns it.
    """
    neg_gamma, neg_u_hi, neg_u_lo, _ = scalars
    # (c - s) / -gamma, not (s - c) / gamma: they differ in the sign of a zero
    # weight, and the hinge's bound -0.0 passes that sign on
    np.subtract(c, scores, out=scores)
    np.divide(scores, neg_gamma, out=scores)
    # bound first: on a tie (the hinge's bound is -0.0) these return the
    # score, as ndarray.clip does, so the weights keep clip's bits
    np.maximum(neg_u_hi, scores, out=scores)
    return np.minimum(neg_u_lo, scores, out=scores)


def gradient_kernel(rows, offsets, scalars, x):
    """Mean gradient of the smoothed loss over pre-sliced rows and offsets,
    and the per-sample weights -alpha that it averages. ``scalars`` are
    ``kernel_scalars(loss, gamma, len(offsets))``."""
    # ndarray.dot calls the BLAS directly: on the contiguous rows the solvers
    # pass, the bits of @ without the matmul gufunc's dispatch, which costs
    # more than the product itself at b x 50
    weights = _score_weights(scalars, offsets, rows.dot(x))
    g = rows.T.dot(weights)
    g /= scalars[3]
    return g, weights


def vr_gradient_kernel(rows, offsets, scalars, x, snapshot_weights, full_gradient):
    """Variance-reduced estimate over pre-sliced rows and offsets:

    batch gradient at x, minus batch gradient at the snapshot, plus the full
    gradient at the snapshot. ``snapshot_weights`` are these rows' weights
    -alpha at the snapshot, from the full pass that gave ``full_gradient``
    (``loss_gradient(..., with_weights=True)``), so the batch rows are applied
    once for the scores at x and once for the correction. When x == snapshot
    the estimate equals ``full_gradient`` up to the rounding of the batch
    scores, which the BLAS may sum in another order than the full pass's.
    ``scalars`` as in ``gradient_kernel``.
    """
    # .dot, not @: see gradient_kernel
    weights = _score_weights(scalars, offsets, rows.dot(x))
    weights -= snapshot_weights
    g = rows.T.dot(weights)
    g /= scalars[3]
    g += full_gradient
    return g


def loss_gradient(sp, x, with_weights=False):
    """Gradient of the averaged smoothed loss alone (no ridge term); with
    ``with_weights``, the pair (gradient, per-sample weights -alpha at x).
    The operands are the stage's own (``SmoothedProblem.kernel_scalars``)."""
    problem = sp.base
    _check_x(problem, x)
    out = gradient_kernel(problem.features, problem.offsets, sp.kernel_scalars, x)
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


# relative slack on a computed lambda_max(Z'Z / n). It covers the rounding of
# the dense Gram matrix and its eigenvalue, at most about (n + d) min(n, d) eps
# relative (below 1e-6 while (n + d) min(n, d) < 4.5e9), and Lanczos stopped
# at a relative residual of GRAM_TOL
GRAM_MARGIN = 1e-6
GRAM_TOL = 1e-10


def gram_norm(features):
    """lambda_max(Z'Z / n) of a dense or CSR matrix Z with n rows, rounded up
    by the relative ``GRAM_MARGIN`` so that it bounds the exact value.

    Dense input takes the top eigenvalue of the smaller Gram matrix (Z'Z or
    ZZ', the same nonzero spectrum). A CSR takes the square of its top
    singular value from ``svds`` (Lanczos from a fixed start vector, so a
    rerun gives the same bits), or, with a single row or column or no nonzero,
    its squared Frobenius norm, which then equals it.
    """
    n, d = features.shape
    if not sparse.issparse(features):
        gram = features.T.dot(features) if d <= n else features.dot(features.T)
        top = np.linalg.eigvalsh(gram)[-1]
    elif min(n, d) == 1 or features.nnz == 0:
        top = features.multiply(features).sum()
    else:
        # imported here: scipy.sparse.linalg adds about 10 MB to a process,
        # which only a CSR that stays CSR needs
        from scipy.sparse.linalg import svds

        start = np.random.default_rng(0).standard_normal(min(n, d))
        top = svds(features, k=1, tol=GRAM_TOL, v0=start, return_singular_vectors=False)[0] ** 2
    return float(top) / n * (1.0 + GRAM_MARGIN)


def lipschitz_constant(sp):
    """The per-sample bound max_i ||z_i||^2 / gamma + lam on the smooth
    part's gradient Lipschitz constant.

    It also bounds every single row's smoothed gradient, so the
    variance-reduced steps, whose estimates mix the full gradient with a few
    rows', and ``condition_number`` use it. The full-gradient steps of
    ``run_solver`` (prox-gd, apg) use the spectral bound
    lambda_max(Z'Z / n) / gamma + lam (``CompositeProblem.gram_norm``), the
    constant of Nesterov's smoothing theorem, which is never larger and is 1.4
    to 30 times smaller on the test suites.
    """
    return sp.base.max_row_sq_norm / sp.gamma + sp.lam


def condition_number(sp, mu_eff):
    """Condition number of the stage objective for modulus ``mu_eff``."""
    if mu_eff <= 0:
        raise ValueError(f"mu_eff must be positive, got {mu_eff}")
    return lipschitz_constant(sp) / mu_eff
