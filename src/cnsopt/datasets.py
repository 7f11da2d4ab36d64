"""Dataset containers, LIBSVM text I/O, mini-batch sampling, synthetic generators."""

import gzip
import io
import logging
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .errors import LibsvmFormatError

log = logging.getLogger(__name__)

CLASSIFICATION = "classification"
REGRESSION = "regression"


@dataclass(frozen=True)
class SparseDataset:
    """Row-indexed design matrix with per-sample labels.

    ``features`` is an (n, d) CSR matrix (what the LIBSVM parser produces) or a
    dense ndarray (what the desk-scale synthetic generators produce; row
    slicing on dense arrays is an order of magnitude faster, which matters in
    stochastic inner loops). A ``CompositeProblem`` solves on a dense copy of
    CSR features (``CompositeProblem.features``, built on first use) when that
    copy takes no more bytes than the CSR's data, indices and indptr together,
    so the copy costs at most the CSR's own size again; sparser CSR input is
    solved as is, and the dataset itself always keeps the caller's matrix.
    Labels are exactly +/-1 for classification and arbitrary reals for
    regression. Instances are immutable after construction and safe to share
    between concurrent runs.
    """

    features: "sparse.csr_matrix | np.ndarray"
    labels: np.ndarray
    task: str

    def __post_init__(self):
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise ValueError(f"unknown task {self.task!r}")
        n = self.features.shape[0]
        if n < 1:
            raise ValueError("dataset needs at least one sample")
        labels = np.asarray(self.labels, dtype=float)
        if labels.shape != (n,):
            raise ValueError(f"labels shape {labels.shape} does not match n={n}")
        if self.task == CLASSIFICATION and not np.all(np.abs(labels) == 1.0):
            raise ValueError("classification labels must be exactly +1/-1")
        object.__setattr__(self, "labels", labels)
        if sparse.issparse(self.features):
            mat = self.features.tocsr()
            mat.sort_indices()
            object.__setattr__(self, "features", mat)
        else:
            object.__setattr__(self, "features", np.asarray(self.features, dtype=float))

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    def densify(self):
        """Return a dataset backed by a dense feature array (self if already dense)."""
        if not sparse.issparse(self.features):
            return self
        return SparseDataset(self.features.toarray(), self.labels, self.task)

    def subset(self, indices):
        """Dataset restricted to the given sample indices (copying rows)."""
        idx = np.asarray(indices, dtype=int)
        return SparseDataset(self.features[idx], self.labels[idx], self.task)


def _open_maybe_gzip(source, mode):
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        if path.endswith(".gz"):
            return gzip.open(path, mode + "t"), True
        return open(path, mode), True
    return source, False


# largest 1-based feature index whose 0-based CSR index fits in int32
_MAX_INDEX = np.iinfo(np.int32).max + 1


def parse_libsvm(source, task=CLASSIFICATION, n_features=None):
    """Parse LIBSVM text (``label idx:val ...``, 1-based ascending indices).

    ``source`` may be a path (gzip detected by suffix), a file-like object, or
    an iterable of lines. ``n_features`` overrides the inferred dimension
    (useful to align a test split with its training split). Classification
    files using {0,1} labels are remapped to {-1,+1}, and the remap is logged;
    any other classification label that is not +1/-1 raises LibsvmFormatError
    at its line, and so do a non-finite label or feature value and a feature
    index beyond the int32 range of the CSR indices.
    """
    stream, owned = _open_maybe_gzip(source, "r")
    labels = []
    linenos = []  # the line of each sample, for errors found after the loop
    data = []
    indices = []
    indptr = [0]
    max_index = 0
    first_non_pm1 = None  # (lineno, token) of the first label other than +1/-1
    try:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise LibsvmFormatError(lineno, f"bad label {tokens[0]!r}") from None
            if first_non_pm1 is None and abs(label) != 1.0:
                first_non_pm1 = (lineno, tokens[0])
            labels.append(label)
            linenos.append(lineno)
            prev = 0
            for token in tokens[1:]:
                idx_str, _, val_str = token.partition(":")
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise LibsvmFormatError(lineno, f"bad feature token {token!r}") from None
                if idx < 1:
                    raise LibsvmFormatError(lineno, f"feature index {idx} is not 1-based")
                if idx <= prev:
                    raise LibsvmFormatError(
                        lineno, f"feature indices not strictly ascending at {idx}"
                    )
                if n_features is not None and idx > n_features:
                    raise LibsvmFormatError(
                        lineno, f"feature index {idx} exceeds n_features={n_features}"
                    )
                prev = idx
                indices.append(idx - 1)
                data.append(val)
            if prev > _MAX_INDEX:
                raise LibsvmFormatError(lineno, f"feature index {prev} exceeds the int32 range")
            max_index = max(max_index, prev)
            indptr.append(len(indices))
    finally:
        if owned:
            stream.close()

    if not labels:
        raise LibsvmFormatError(0, "no samples in input")
    d = n_features if n_features is not None else max_index
    y = np.asarray(labels, dtype=float)
    values = np.asarray(data, dtype=float)
    if not np.isfinite(y).all():
        raise LibsvmFormatError(linenos[np.argmin(np.isfinite(y))], "non-finite label")
    if not np.isfinite(values).all():
        row = np.searchsorted(indptr, np.argmin(np.isfinite(values)), side="right") - 1
        raise LibsvmFormatError(linenos[row], "non-finite feature value")
    if task == CLASSIFICATION and first_non_pm1 is not None:
        if not np.all((y == 0.0) | (y == 1.0)):
            lineno, token = first_non_pm1
            raise LibsvmFormatError(
                lineno, f"classification label {token!r} is not +1/-1 in a file "
                "that is not all 0/1"
            )
        log.info("mapping {0,1} labels to {-1,+1} (%d zeros)", int(np.sum(y == 0.0)))
        y = np.where(y == 0.0, -1.0, 1.0)
    mat = sparse.csr_matrix(
        (values, np.asarray(indices, dtype=np.int32), indptr),
        shape=(len(labels), d),
    )
    return SparseDataset(mat, y, task)


def _format_label(value, task):
    if task == CLASSIFICATION:
        return "+1" if value > 0 else "-1"
    return repr(float(value))


def serialize_libsvm(dataset, target):
    """Write the dataset in canonical LIBSVM text form (1-based sorted indices).

    ``target`` is a path (gzip by suffix) or a writable text file object.
    Values are written with full round-trip precision.
    """
    stream, owned = _open_maybe_gzip(target, "w")
    try:
        mat = dataset.features
        if not sparse.issparse(mat):
            mat = sparse.csr_matrix(mat)
            mat.sort_indices()
        indptr = mat.indptr.tolist()
        cols = (mat.indices + 1).tolist()
        vals = mat.data.tolist()
        for i, label in enumerate(dataset.labels.tolist()):
            lo, hi = indptr[i], indptr[i + 1]
            parts = [_format_label(label, dataset.task)]
            parts += [f"{j}:{v!r}" for j, v in zip(cols[lo:hi], vals[lo:hi])]
            stream.write(" ".join(parts) + "\n")
    finally:
        if owned:
            stream.close()


def libsvm_dumps(dataset):
    """Canonical LIBSVM text of the dataset, as a string."""
    buf = io.StringIO()
    serialize_libsvm(dataset, buf)
    return buf.getvalue()


def sample_minibatch(n, batch_size, rng):
    """Indices of a uniform-with-replacement mini-batch (duplicates allowed)."""
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must be in [1, {n}], got {batch_size}")
    return rng.integers(0, n, size=batch_size)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a seeded synthetic problem instance.

    ``sparsity`` is the fraction of nonzero ground-truth weights; ``noise`` is
    the margin-noise scale (classification) or Laplace scale (regression).
    ``separation`` shifts classification features along the ground-truth
    direction, so the two classes are linearly separable at noise 0.
    ``atoms`` draws the feature rows from that many distinct patterns instead
    of fully general position; repeated patterns let a constant fraction of
    samples sit exactly at the loss kinks at the optimum, which is what makes
    the smoothing-bias floor visible at desk scale (with fully general rows
    the kink mass is capped near d/n). ``feature_norm_range`` controls row
    norms and through them the conditioning of the smoothed subproblems.
    """

    n: int
    d: int
    task: str = CLASSIFICATION
    sparsity: float = 0.2
    noise: float = 0.1
    separation: float = 1.0
    atoms: "int | None" = None
    seed: int = 0
    feature_norm_range: tuple = (1.0, 1.0)

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be >= 1")
        if not 0.0 < self.sparsity <= 1.0:
            raise ValueError("sparsity must be in (0, 1]")
        if self.separation < 0:
            raise ValueError("separation must be nonnegative")
        if self.atoms is not None and self.atoms < 1:
            raise ValueError("atoms must be >= 1")
        lo, hi = self.feature_norm_range
        if not 0 < lo <= hi:
            raise ValueError("feature_norm_range must satisfy 0 < lo <= hi")


@dataclass
class SyntheticReference:
    """Ground truth for a synthetic instance, plus a slot for the oracle optimum.

    ``p_star`` stays None until a long reference run fills it in.
    """

    seed: int
    w_true: np.ndarray
    p_star: "float | None" = None


def make_synthetic(spec):
    """Generate a seeded synthetic dataset with a sparse ground-truth model.

    Returns ``(dataset, reference)``. Features are dense rows with norms drawn
    from ``feature_norm_range``. For classification the rows of each class are
    shifted by +/- separation along the (unit) ground-truth direction, labels
    are sign(z'w + noise * e), and the returned w_true is rescaled so a
    decently separating predictor has margins around 1.5. For regression the
    scores z'w are standardized and targets get additive Laplace noise.
    Bit-reproducible from the seed.
    """
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n, spec.d
    k = max(1, round(spec.sparsity * d))
    support = rng.choice(d, size=k, replace=False)
    w = np.zeros(d)
    w[support] = rng.normal(size=k)
    w /= np.linalg.norm(w)

    if spec.atoms is None:
        features = rng.normal(size=(n, d)) / math.sqrt(d)
        if spec.task == CLASSIFICATION:
            latent = rng.choice([-1.0, 1.0], size=n)
            features += (spec.separation * latent)[:, None] * w
        norms = np.linalg.norm(features, axis=1)
        target_norms = rng.uniform(*spec.feature_norm_range, size=n)
        features *= (target_norms / norms)[:, None]
    else:
        patterns = rng.normal(size=(spec.atoms, d)) / math.sqrt(d)
        if spec.task == CLASSIFICATION:
            latent = rng.choice([-1.0, 1.0], size=spec.atoms)
            patterns += (spec.separation * latent)[:, None] * w
        norms = np.linalg.norm(patterns, axis=1)
        target_norms = rng.uniform(*spec.feature_norm_range, size=spec.atoms)
        patterns *= (target_norms / norms)[:, None]
        assignment = rng.integers(0, spec.atoms, size=n)
        features = patterns[assignment]
    scores = features @ w

    if spec.task == CLASSIFICATION:
        y = np.sign(scores + spec.noise * rng.standard_normal(n))
        y[y == 0] = 1.0
        w_true = 1.5 * w / np.mean(np.abs(scores))
    else:
        scale = scores.std()
        if scale > 0:
            w /= scale
            scores /= scale
        y = scores + rng.laplace(scale=spec.noise, size=n)
        w_true = w

    dataset = SparseDataset(features, y, spec.task)
    return dataset, SyntheticReference(seed=spec.seed, w_true=w_true)
