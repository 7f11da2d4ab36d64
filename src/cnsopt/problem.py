"""Composite objective P(x) = average loss + regularizer, and its smoothed form."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sparse

from . import smoothing
from .datasets import CLASSIFICATION, SparseDataset
from .errors import check_finite


@dataclass(frozen=True)
class Regularizer:
    """l1 or elastic-net penalty nu1 ||x||_1 + (nu2 / 2) ||x||_2^2."""

    nu1: float = 0.0
    nu2: float = 0.0

    def __post_init__(self):
        check_finite(nu1=self.nu1, nu2=self.nu2)
        if self.nu1 < 0 or self.nu2 < 0:
            raise ValueError("regularization weights must be nonnegative")

    def value(self, x):
        v = self.nu1 * float(np.sum(np.abs(x)))
        if self.nu2:
            v += 0.5 * self.nu2 * float(x.dot(x))
        return v


@dataclass(frozen=True)
class CompositeProblem:
    """Nonsmooth risk: (1/n) sum of hinge or absolute losses, plus a regularizer.

    The strong-convexity modulus mu comes from the regularizer only; the
    supported losses contribute none. The loss must be in the loss table and
    the dataset's task must be the loss's task.
    """

    data: SparseDataset
    loss: str
    reg: Regularizer

    def __post_init__(self):
        task = smoothing.dual_spec(self.loss).task
        if self.data.task != task:
            raise ValueError(f"{self.loss} loss requires a {task} dataset")

    @property
    def n(self):
        return self.data.n

    @property
    def d(self):
        return self.data.d

    @property
    def mu(self):
        return self.reg.nu2

    @cached_property
    def features(self):
        """The rows Z of the slack map a = c - Z x, built on first use.

        CSR input is copied to a dense array when the copy takes no more
        bytes than the CSR's own data, indices and indptr, so it costs at
        most the input's size again; dense row slices and matvecs are several
        times cheaper than CSR ones. Genuinely sparse input stays CSR. A
        classification set's rows are then multiplied by their +/-1 labels
        (exactly), so no kernel reads a label: dense input gets one signed
        copy, again at most its own size, and a CSR scales a copy of its data
        and shares the input's indices and indptr. ``data`` stays the
        caller's matrix either way.
        """
        feats = self.data.features
        if sparse.issparse(feats):
            csr_bytes = feats.data.nbytes + feats.indices.nbytes + feats.indptr.nbytes
            if feats.shape[0] * feats.shape[1] * feats.dtype.itemsize <= csr_bytes:
                feats = feats.toarray()
        if self.data.task != CLASSIFICATION:
            return feats
        y = self.data.labels
        if sparse.issparse(feats):
            signs = np.repeat(y, np.diff(feats.indptr))
            return type(feats)((feats.data * signs, feats.indices, feats.indptr),
                               shape=feats.shape)
        # a dense copy made above is signed in place, the caller's array never
        out = None if feats is self.data.features else feats
        return np.multiply(feats, y[:, None], out=out)

    @cached_property
    def offsets(self):
        """The offsets c of the slack map a = c - Z x (read-only): 1 for a
        classification set, the targets y for a regression one."""
        c = np.ones(self.n) if self.data.task == CLASSIFICATION else self.data.labels.view()
        c.flags.writeable = False
        return c

    @cached_property
    def max_row_sq_norm(self):
        return smoothing.max_row_sq_norm(self.features)

    @cached_property
    def gram_norm(self):
        """An upper bound on lambda_max(Z'Z / n), the smoothed loss's gradient
        Lipschitz constant at gamma = 1 (``smoothing.gram_norm``), never above
        ``max_row_sq_norm``. Computed on first use: only a full-gradient step
        reads it."""
        return min(smoothing.gram_norm(self.features), self.max_row_sq_norm)


@dataclass(frozen=True)
class SmoothedProblem:
    """A stage's surrogate: smoothed losses at level gamma plus (lam/2)||x||^2.

    lam = 0 corresponds to the plain smoothed objective; lam > 0 is the
    ridge-augmented stage objective used by the general-convex driver.
    """

    base: CompositeProblem
    gamma: float
    lam: float = 0.0

    def __post_init__(self):
        check_finite(gamma=self.gamma, lam=self.lam)
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not np.isfinite(self.base.max_row_sq_norm / self.gamma):
            raise ValueError(f"gamma = {self.gamma:g} is too small: the Lipschitz bound "
                             "max ||z_i||^2 / gamma overflows")
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")

    @cached_property
    def kernel_scalars(self):
        """The full pass's ``smoothing.kernel_scalars``, cast on first use."""
        return smoothing.kernel_scalars(self.base.loss, self.gamma, self.base.n)


def objective_original(problem, x, scores=None):
    """Exact nonsmooth objective: mean hinge/absolute loss plus regularizer.

    ``scores``, when given, is ``problem.features.dot(x)``, which a caller
    that already has it passes so that the slacks c - Z x need no second
    product (the same bits).
    """
    a = smoothing.slacks(problem, x) if scores is None else problem.offsets - scores
    losses = smoothing.exact_loss_values(a, problem.loss)
    return float(losses.mean()) + problem.reg.value(x)


def objective_smoothed(sp, x):
    """Stage objective: mean smoothed loss + regularizer + (lam/2)||x||^2."""
    a = smoothing.slacks(sp.base, x)
    vals = smoothing.smoothed_loss_values(a, sp.base.loss, sp.gamma)
    out = float(vals.mean()) + sp.base.reg.value(x)
    if sp.lam:
        out += 0.5 * sp.lam * float(x.dot(x))
    return out
