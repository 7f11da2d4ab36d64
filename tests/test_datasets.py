import gzip
import io
import logging
import math
import os

import numpy as np
import pytest
import scipy.sparse as sparse

from cnsopt import (
    CLASSIFICATION,
    REGRESSION,
    HINGE,
    CompositeProblem,
    LibsvmFormatError,
    Regularizer,
    SparseDataset,
    SyntheticSpec,
    libsvm_dumps,
    make_synthetic,
    objective_original,
    parse_libsvm,
    sample_minibatch,
    serialize_libsvm,
)


def test_parse_basic_line():
    ds = parse_libsvm(["+1 3:0.5 7:1.25"])
    assert ds.n == 1 and ds.d == 7
    row = ds.features.toarray()[0]
    assert row[2] == 0.5 and row[6] == 1.25
    assert np.count_nonzero(row) == 2
    assert ds.labels[0] == 1.0


def test_parse_empty_feature_list():
    ds = parse_libsvm(["-1", "+1 2:1.0"])
    assert ds.n == 2 and ds.d == 2
    assert ds.features.getnnz(axis=1)[0] == 0
    assert ds.labels[0] == -1.0


def test_parse_malformed_label():
    with pytest.raises(LibsvmFormatError) as err:
        parse_libsvm(["+1 1:1.0", "spam 1:2.0"])
    assert err.value.lineno == 2


def test_parse_malformed_token():
    with pytest.raises(LibsvmFormatError) as err:
        parse_libsvm(["+1 1:one"])
    assert err.value.lineno == 1


def test_parse_error_names_a_path_and_crosses_a_pickle(tmp_path, monkeypatch):
    # read from a path, the message names it as given; the line number and
    # message stay, and pickling (a sweep's process pool) keeps all three
    import pickle
    (tmp_path / "bad.libsvm").write_text("1 1:0.5\n-1 x:2\n")
    monkeypatch.chdir(tmp_path)
    for source in ("bad.libsvm", tmp_path / "bad.libsvm"):
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm(source)
        text = f"{os.fspath(source)}: line 2: bad feature token 'x:2'"
        assert str(err.value) == text
        assert (err.value.lineno, err.value.path) == (2, os.fspath(source))
        again = pickle.loads(pickle.dumps(err.value))
        assert (str(again), again.lineno, again.message, again.path) == (
            text, 2, "bad feature token 'x:2'", os.fspath(source))
    # lines and streams have no path to name
    with pytest.raises(LibsvmFormatError, match="^line 2: ") as err:
        parse_libsvm(["1 1:0.5", "-1 x:2"])
    assert err.value.path is None


def test_parse_rejects_nonascending_indices():
    with pytest.raises(LibsvmFormatError):
        parse_libsvm(["+1 3:1.0 2:1.0"])
    with pytest.raises(LibsvmFormatError):
        parse_libsvm(["+1 2:1.0 2:1.0"])  # duplicates are non-ascending
    with pytest.raises(LibsvmFormatError):
        parse_libsvm(["+1 0:1.0"])  # indices are 1-based


def test_parse_dimension_override():
    ds = parse_libsvm(["+1 2:1.0"], n_features=10)
    assert ds.d == 10
    with pytest.raises(LibsvmFormatError):
        parse_libsvm(["+1 11:1.0"], n_features=10)


def test_parse_zero_one_label_remap(caplog):
    with caplog.at_level(logging.INFO, logger="cnsopt.datasets"):
        ds = parse_libsvm(["1 1:1.0", "0 1:2.0"])
    assert set(ds.labels) == {1.0, -1.0}
    assert any("mapping {0,1} labels" in rec.message for rec in caplog.records)


def test_parse_bad_classification_label_names_its_line():
    with pytest.raises(LibsvmFormatError) as err:
        parse_libsvm(["+1 1:1.0", "", "2 1:1.0"])
    assert err.value.lineno == 3
    assert "'2'" in str(err.value)


def test_parse_mixed_signed_and_zero_one_labels_rejected():
    # -1 rules out a pure {0,1} file, so the first 0 is the bad label
    with pytest.raises(LibsvmFormatError) as err:
        parse_libsvm(["1 1:1.0", "-1 1:1.0", "0 1:1.0", "1 1:2.0"])
    assert err.value.lineno == 3


@pytest.mark.parametrize("line, message", (
    ("1 3000000000:1.0", "int32 range"),
    ("1 1:nan", "non-finite feature value"),
    ("1 1:0.5 4:1e400", "non-finite feature value"),
    ("inf 1:1.0", "non-finite label"),
))
def test_parse_out_of_range_index_and_non_finite_values_name_their_line(line, message):
    # an index past int32 was a bare OverflowError; nan/inf values were accepted
    with pytest.raises(LibsvmFormatError, match=message) as err:
        parse_libsvm(["0.5 1:1.0", "", line, "2.0 2:1.0"], task=REGRESSION)
    assert err.value.lineno == 3


def test_parse_regression_keeps_labels():
    ds = parse_libsvm(["3.25 1:1.0", "-7.5 1:2.0"], task=REGRESSION)
    assert list(ds.labels) == [3.25, -7.5]


def test_round_trip_canonical_form():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(1, 12))
        d = int(rng.integers(1, 9))
        density = rng.uniform(0.1, 0.9)
        mat = sparse.random(n, d, density=density, random_state=int(rng.integers(1 << 30)),
                            format="csr")
        task = CLASSIFICATION if trial % 2 == 0 else REGRESSION
        if task == CLASSIFICATION:
            labels = rng.choice([-1.0, 1.0], size=n)
        else:
            labels = rng.normal(size=n)
        ds = SparseDataset(mat, labels, task)
        text = libsvm_dumps(ds)
        ds2 = parse_libsvm(io.StringIO(text), task=task, n_features=d)
        assert libsvm_dumps(ds2) == text
        assert np.array_equal(ds2.labels, ds.labels)
        assert (ds2.features != ds.features).nnz == 0


def test_serialize_golden_csr():
    mat = sparse.csr_matrix(
        (np.array([0.1, -2.5, 1 / 3, -1e-300, 12345.678901234567]),
         np.array([0, 3, 1, 2, 3], dtype=np.int32),
         np.array([0, 2, 2, 5])),
        shape=(3, 4),
    )
    ds = SparseDataset(mat, np.array([-0.5, 3.0, 1e-17]), REGRESSION)
    assert libsvm_dumps(ds) == (
        "-0.5 1:0.1 4:-2.5\n"
        "3.0\n"
        "1e-17 2:0.3333333333333333 3:-1e-300 4:12345.678901234567\n"
    )


def test_serialize_golden_dense():
    rows = np.array([[0.0, -0.1, 2.0], [0.0, 0.0, 0.0], [np.pi, 0.0, -7.25]])
    ds = SparseDataset(rows, np.array([1.0, -1.0, 1.0]), CLASSIFICATION)
    assert libsvm_dumps(ds) == (
        "+1 2:-0.1 3:2.0\n"
        "-1\n"
        "+1 1:3.141592653589793 3:-7.25\n"
    )


def test_gzip_round_trip(tmp_path):
    ds = parse_libsvm(["+1 1:0.25 3:-2.0", "-1 2:1.5"])
    path = tmp_path / "data.libsvm.gz"
    serialize_libsvm(ds, str(path))
    with gzip.open(path, "rt") as fh:
        assert fh.readline().startswith("+1 1:0.25")
    ds2 = parse_libsvm(str(path), n_features=3)
    assert libsvm_dumps(ds2) == libsvm_dumps(ds)


def test_dataset_validation():
    with pytest.raises(ValueError):
        SparseDataset(np.ones((2, 2)), np.array([1.0, 2.0]), CLASSIFICATION)
    with pytest.raises(ValueError):
        SparseDataset(np.ones((2, 2)), np.array([1.0]), REGRESSION)
    with pytest.raises(ValueError):
        SparseDataset(np.ones((0, 2)), np.zeros(0), REGRESSION)
    with pytest.raises(ValueError):
        SparseDataset(np.ones((1, 1)), np.array([1.0]), "ranking")


@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
def test_dataset_rejects_non_finite_values_at_their_row(value):
    # a NaN label once surfaced as a non-finite iterate, an infinite feature
    # as an overflowing Lipschitz bound, both far into a run
    rng = np.random.default_rng(0)
    z, y = rng.normal(size=(40, 5)), rng.normal(size=40)
    bad_y = y.copy()
    bad_y[3] = value
    with pytest.raises(ValueError, match=rf"^labels: non-finite value {value} at row 3$"):
        SparseDataset(z, bad_y, REGRESSION)
    with pytest.raises(ValueError, match=r"^labels: non-finite value"):
        SparseDataset(z, np.where(np.arange(40) == 5, value, 1.0), CLASSIFICATION)
    bad_z = z.copy()
    bad_z[2, 1] = value
    message = rf"^features: non-finite value {value} at row 2, column 1$"
    with pytest.raises(ValueError, match=message):
        SparseDataset(bad_z, y, REGRESSION)
    # a CSR's stored values, found by row and column
    bad_z[np.abs(bad_z) < 0.5] = 0.0
    with pytest.raises(ValueError, match=message):
        SparseDataset(sparse.csr_matrix(bad_z), y, REGRESSION)


def test_dataset_accepts_finite_values_whose_sum_overflows():
    z = np.full((3, 2), 1e308)
    z[1, 0] = -1e308
    ds = SparseDataset(z, np.array([1e308, 1e308, -1.0]), REGRESSION)
    assert np.array_equal(ds.features, z)
    ds = SparseDataset(sparse.csr_matrix(z), ds.labels, REGRESSION)
    assert np.array_equal(ds.features.toarray(), z)


def test_densify_and_subset():
    ds = parse_libsvm(["+1 1:1.0 2:2.0", "-1 2:3.0", "+1 1:4.0"])
    dense = ds.densify()
    assert isinstance(dense.features, np.ndarray)
    assert np.array_equal(dense.features, ds.features.toarray())
    sub = dense.subset([2, 0])
    assert sub.n == 2
    assert np.array_equal(sub.labels, [1.0, 1.0])
    assert np.array_equal(sub.features[0], dense.features[2])


def test_minibatch_bounds():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_minibatch(10, 11, rng, 1)
    with pytest.raises(ValueError):
        sample_minibatch(10, 0, rng, 1)
    idx = sample_minibatch(10, 10, rng, 1)
    assert idx.shape == (1, 10) and idx.min() >= 0 and idx.max() < 10


def test_minibatch_steps_must_be_positive():
    with pytest.raises(ValueError, match="steps"):
        sample_minibatch(10, 3, np.random.default_rng(0), 0)


def test_dataset_leaves_the_callers_csr_unsorted():
    mat = sparse.csr_matrix((np.array([2.0, 1.0]), np.array([1, 0]), np.array([0, 2])),
                            shape=(1, 2))
    ds = SparseDataset(mat, np.array([1.0]), CLASSIFICATION)
    assert np.array_equal(mat.indices, [1, 0]) and np.array_equal(mat.data, [2.0, 1.0])
    assert np.array_equal(ds.features.indices, [0, 1])
    assert np.array_equal(ds.features.data, [1.0, 2.0])
    assert ds.features.has_sorted_indices


def test_minibatch_allows_duplicates():
    rng = np.random.default_rng(1)
    seen_duplicate = any(len(set(batch)) < 5 for batch in sample_minibatch(5, 5, rng, 50))
    assert seen_duplicate


def test_minibatch_seeded_stream_reproducible():
    a = sample_minibatch(100, 7, np.random.default_rng(42), 3)
    b = sample_minibatch(100, 7, np.random.default_rng(42), 3)
    assert np.array_equal(a, b)


def test_minibatch_uniformity_chi_square():
    # empirical frequencies within 3-sigma binomial bands over 1e6 draws
    rng = np.random.default_rng(2)
    n, total = 20, 1_000_000
    draws = sample_minibatch(n, n, rng, total // n).ravel()
    counts = np.bincount(draws, minlength=n)
    p = 1.0 / n
    sigma = np.sqrt(total * p * (1 - p))
    assert np.all(np.abs(counts - total * p) <= 3 * sigma)


def test_synthetic_reproducible():
    spec = SyntheticSpec(n=50, d=10, seed=7)
    a, wa = make_synthetic(spec)
    b, wb = make_synthetic(spec)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(wa, wb)


def test_synthetic_classification_shape():
    spec = SyntheticSpec(n=200, d=20, task=CLASSIFICATION, noise=0.2, seed=3)
    ds, _ = make_synthetic(spec)
    assert ds.task == CLASSIFICATION
    assert set(np.unique(ds.labels)) <= {-1.0, 1.0}
    assert ds.features.shape == (200, 20)


def test_noise_free_instance_is_separable():
    spec = SyntheticSpec(n=300, d=25, task=CLASSIFICATION, noise=0.0, seed=11)
    ds, w_true = make_synthetic(spec)
    scores = ds.features @ w_true
    margins = ds.labels * scores
    assert np.all(margins > 0)
    # scaling the separator up drives the hinge loss to exactly zero
    scale = 1.0 / margins.min()
    prob = CompositeProblem(ds, HINGE, Regularizer())
    assert objective_original(prob, 1.01 * scale * w_true) == 0.0


def test_synthetic_regression_laplace_noise():
    spec = SyntheticSpec(n=400, d=10, task=REGRESSION, noise=0.1, seed=5)
    ds, w_true = make_synthetic(spec)
    residuals = ds.labels - ds.features @ w_true
    assert abs(np.mean(np.abs(residuals)) - 0.1) < 0.02


def test_synthetic_norm_range():
    spec = SyntheticSpec(n=100, d=15, norm_lo=0.5, norm_hi=2.0, seed=1)
    ds, _ = make_synthetic(spec)
    norms = np.linalg.norm(ds.features, axis=1)
    assert norms.min() >= 0.5 - 1e-12 and norms.max() <= 2.0 + 1e-12


def test_synthetic_atoms_repeat_rows():
    spec = SyntheticSpec(n=200, d=10, atoms=12, seed=2)
    ds, _ = make_synthetic(spec)
    unique = np.unique(ds.features, axis=0)
    assert unique.shape[0] <= 12


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n=0, d=5)
    with pytest.raises(ValueError):
        SyntheticSpec(n=5, d=5, sparsity=0.0)
    with pytest.raises(ValueError, match="0 < norm_lo <= norm_hi"):
        SyntheticSpec(n=5, d=5, norm_lo=2.0, norm_hi=1.0)
    with pytest.raises(ValueError):
        SyntheticSpec(n=5, d=5, atoms=0)
    with pytest.raises(ValueError, match="separation must be nonnegative"):
        SyntheticSpec(n=5, d=5, separation=-0.5)
    # a NaN noise once made every absolute-loss run "diverge"
    for value in (math.nan, math.inf, -math.inf):
        for settings in (dict(sparsity=value), dict(noise=value), dict(separation=value),
                         dict(norm_lo=value), dict(norm_hi=value)):
            with pytest.raises(ValueError, match=next(iter(settings))):
                SyntheticSpec(n=5, d=5, **settings)
