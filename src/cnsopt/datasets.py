"""Dataset containers, LIBSVM text I/O, mini-batch sampling, synthetic generators."""

import contextlib
import gzip
import io
import logging
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .errors import COUNT, NONNEGATIVE, SEED, LibsvmFormatError, check_fields

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
    solved as is. A classification problem then signs each row by its label
    (one more copy of dense rows, or of the CSR's data).
    Labels are exactly +/-1 for classification and arbitrary finite reals for
    regression, and every feature value is finite: a NaN or an infinity
    raises ValueError naming ``labels`` or ``features`` and its first row
    (0-based). The dataset itself keeps the caller's arrays, neither copied
    (unless not float64, or a CSR with unsorted indices) nor frozen: nothing in
    ``cnsopt`` writes to them, and ``bench.load_problem`` shares its datasets
    with every array read-only.
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
        k = _first_nonfinite(labels)
        if k is not None:
            raise ValueError(f"labels: non-finite value {labels[k]} at row {k}")
        if self.task == CLASSIFICATION and not np.all(np.abs(labels) == 1.0):
            raise ValueError("classification labels must be exactly +1/-1")
        object.__setattr__(self, "labels", labels)
        if sparse.issparse(self.features):
            mat = self.features.tocsr()
            if not mat.has_sorted_indices:
                # tocsr() returns the caller's own CSR; sort a copy of it
                mat = mat.copy()
                mat.sort_indices()
            object.__setattr__(self, "features", mat)
        else:
            object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        feats = self.features
        if _first_nonfinite(feats.data if sparse.issparse(feats) else feats) is not None:
            # on this error path only: a COO copy lists the entries row by row
            coo = sparse.coo_matrix(feats)
            k = _first_nonfinite(coo.data)
            raise ValueError(f"features: non-finite value {coo.data[k]} at row {coo.row[k]}, "
                             f"column {coo.col[k]}")

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


def _first_nonfinite(values):
    """The flat (C-order) index of the first NaN or infinite entry of an
    array, else None."""
    # one isfinite pass costs less than a reduction that could only prove
    # the finite case (12 against 15 us for 1000 x 50 doubles)
    finite = np.isfinite(values)
    return None if finite.all() else int(np.flatnonzero(~finite)[0])


@contextlib.contextmanager
def _open_maybe_gzip(source, mode):
    """Yield ``(stream, path)``: for a path, the file opened in text ``mode``
    (gzip by its ``.gz`` suffix) and closed on exit; for a caller's stream or
    iterable of lines, that object, left open, and None."""
    if not isinstance(source, (str, os.PathLike)):
        yield source, None
        return
    path = os.fspath(source)
    with (gzip.open if path.endswith(".gz") else open)(path, mode + "t") as stream:
        yield stream, path


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
    index beyond the int32 range of the CSR indices. When ``source`` is a
    path, the error names it.
    """
    labels = []
    linenos = []  # the line of each sample, for errors found after the loop
    data = []
    indices = []
    indptr = [0]
    max_index = 0
    first_non_pm1 = None  # (lineno, token) of the first label other than +1/-1
    with _open_maybe_gzip(source, "r") as (stream, path):
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise LibsvmFormatError(lineno, f"bad label {tokens[0]!r}", path) from None
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
                    raise LibsvmFormatError(lineno, f"bad feature token {token!r}", path) from None
                if idx < 1:
                    raise LibsvmFormatError(lineno, f"feature index {idx} is not 1-based", path)
                if idx <= prev:
                    raise LibsvmFormatError(
                        lineno, f"feature indices not strictly ascending at {idx}", path
                    )
                if n_features is not None and idx > n_features:
                    raise LibsvmFormatError(
                        lineno, f"feature index {idx} exceeds n_features={n_features}", path
                    )
                prev = idx
                indices.append(idx - 1)
                data.append(val)
            if prev > _MAX_INDEX:
                raise LibsvmFormatError(
                    lineno, f"feature index {prev} exceeds the int32 range", path
                )
            max_index = max(max_index, prev)
            indptr.append(len(indices))

    if not labels:
        raise LibsvmFormatError(0, "no samples in input", path)
    d = n_features if n_features is not None else max_index
    y = np.asarray(labels, dtype=float)
    values = np.asarray(data, dtype=float)
    if not np.isfinite(y).all():
        raise LibsvmFormatError(linenos[np.argmin(np.isfinite(y))], "non-finite label", path)
    if not np.isfinite(values).all():
        row = np.searchsorted(indptr, np.argmin(np.isfinite(values)), side="right") - 1
        raise LibsvmFormatError(linenos[row], "non-finite feature value", path)
    if task == CLASSIFICATION and first_non_pm1 is not None:
        if not np.all((y == 0.0) | (y == 1.0)):
            lineno, token = first_non_pm1
            raise LibsvmFormatError(
                lineno, f"classification label {token!r} is not +1/-1 in a file "
                "that is not all 0/1", path
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
    mat = dataset.features
    if not sparse.issparse(mat):
        # sorted indices, as SparseDataset keeps a CSR's
        mat = sparse.csr_matrix(mat)
    indptr = mat.indptr.tolist()
    cols = (mat.indices + 1).tolist()
    vals = mat.data.tolist()
    with _open_maybe_gzip(target, "w") as (stream, _):
        for i, label in enumerate(dataset.labels.tolist()):
            lo, hi = indptr[i], indptr[i + 1]
            parts = [_format_label(label, dataset.task)]
            parts += [f"{j}:{v!r}" for j, v in zip(cols[lo:hi], vals[lo:hi])]
            stream.write(" ".join(parts) + "\n")


def libsvm_dumps(dataset):
    """Canonical LIBSVM text of the dataset, as a string."""
    buf = io.StringIO()
    serialize_libsvm(dataset, buf)
    return buf.getvalue()


def sample_minibatch(n, batch_size, rng, steps):
    """Indices of ``steps`` uniform-with-replacement mini-batches (duplicates
    allowed) in one draw, shape (steps, batch_size): row k equals the (k+1)-th
    of ``steps`` successive ``rng.integers(0, n, size=batch_size)`` draws from
    the same rng, which ends in the same state. (The generator keeps any spare
    half of a 64-bit output in its own state, not in the call.) ``minibatches``
    calls it once per block of whole epochs.
    """
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must be in [1, {n}], got {batch_size}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return rng.integers(0, n, size=(steps, batch_size))


# indices per ``sample_minibatch`` call in ``minibatches`` (64 KB of int64):
# enough to spread the call's fixed cost, few enough to keep memory bounded
DRAW_INDICES = 8192


def minibatches(n, batch_size, rng, budget):
    """Yield the index blocks of ``budget`` mini-batches, one epoch
    (ceil(n / batch_size) steps) per block of shape (steps, batch_size). The
    blocks are views of ``sample_minibatch`` draws of as many whole epochs as
    fit in ``DRAW_INDICES`` indices (at least one), the last draw capped at the
    steps left, so a shared rng ends where per-step draws would leave it."""
    epoch = math.ceil(n / batch_size)
    block = epoch * max(1, DRAW_INDICES // (epoch * batch_size))
    for done in range(0, budget, block):
        draw = sample_minibatch(n, batch_size, rng, min(block, budget - done))
        for lo in range(0, len(draw), epoch):
            yield draw[lo:lo + epoch]


def epoch_batches(block, *arrays):
    """An iterator over the rows of an index block from ``minibatches``: for
    each batch, the tuple of each array's rows at it.

    Each array is gathered once for the whole block. A dense array is taken
    as (steps, batch_size, ...), so each step's rows are a view of the copy;
    CSR rows cannot be fancy-indexed to 3-D, so a CSR matrix is gathered as
    (steps * batch_size) rows and sliced into one matrix per step.
    """
    steps, b = block.shape
    parts = []
    for a in arrays:
        if sparse.issparse(a):
            rows = a[block.ravel()]
            parts.append([rows[lo:lo + b] for lo in range(0, steps * b, b)])
        else:
            parts.append(a.take(block, axis=0))
    return zip(*parts)


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
    the kink mass is capped near d/n). Row norms are drawn uniformly from
    [``norm_lo``, ``norm_hi``]; through them they set the conditioning of the
    smoothed subproblems.
    """

    n: COUNT
    d: COUNT = 50
    task: str = CLASSIFICATION
    sparsity: float = 0.2
    noise: NONNEGATIVE = 0.1
    separation: NONNEGATIVE = 1.0
    atoms: "COUNT | None" = None
    seed: SEED = 0
    norm_lo: float = 1.0
    norm_hi: float = 1.0

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.sparsity <= 1.0:
            raise ValueError("sparsity must be in (0, 1]")
        if not 0 < self.norm_lo <= self.norm_hi:
            raise ValueError("norm_lo and norm_hi must satisfy 0 < norm_lo <= norm_hi")


def make_synthetic(spec):
    """Generate a seeded synthetic dataset with a sparse ground-truth model.

    Returns ``(dataset, w_true)``, w_true being the planted model. Features
    are dense rows with norms drawn from [norm_lo, norm_hi]. For
    classification the rows of each class are shifted by +/- separation along
    the (unit) ground-truth direction, labels are sign(z'w + noise * e), and
    w_true is rescaled so a decently separating predictor has margins around
    1.5. For regression the scores z'w are standardized and targets get
    additive Laplace noise.
    Bit-reproducible from the seed.
    """
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n, spec.d
    k = max(1, round(spec.sparsity * d))
    support = rng.choice(d, size=k, replace=False)
    w = np.zeros(d)
    w[support] = rng.normal(size=k)
    w /= np.linalg.norm(w)

    # one row per sample, or one per pattern that the samples then repeat
    m = n if spec.atoms is None else spec.atoms
    features = rng.normal(size=(m, d)) / math.sqrt(d)
    if spec.task == CLASSIFICATION:
        latent = rng.choice([-1.0, 1.0], size=m)
        features += (spec.separation * latent)[:, None] * w
    norms = np.linalg.norm(features, axis=1)
    target_norms = rng.uniform(spec.norm_lo, spec.norm_hi, size=m)
    features *= (target_norms / norms)[:, None]
    if spec.atoms is not None:
        features = features[rng.integers(0, spec.atoms, size=n)]
    scores = features.dot(w)

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
    return dataset, w_true
