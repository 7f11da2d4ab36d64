import numpy as np
import pytest
import scipy.sparse as sparse

from cnsopt import (
    ABSOLUTE,
    HINGE,
    CompositeProblem,
    Regularizer,
    SmoothedProblem,
    SparseDataset,
    dual_spec,
    objective_original,
    objective_smoothed,
    smoothing_gap,
)
from cnsopt.smoothing import lipschitz_constant


def _problem(rows, labels, loss, nu1=0.0, nu2=0.0):
    task = "classification" if loss == HINGE else "regression"
    data = SparseDataset(np.asarray(rows, dtype=float), np.asarray(labels, dtype=float), task)
    return CompositeProblem(data, loss, Regularizer(nu1=nu1, nu2=nu2))


def test_regularizer_value():
    l1 = Regularizer(nu1=0.5)
    en = Regularizer(nu1=0.5, nu2=1.0)
    x = np.array([1.0, -2.0])
    assert l1.value(x) == pytest.approx(1.5)
    assert en.value(x) == pytest.approx(1.5 + 2.5)
    with pytest.raises(ValueError):
        Regularizer(nu1=-0.1)


def test_regularizer_value_nonnegative():
    rng = np.random.default_rng(0)
    reg = Regularizer(nu1=0.3, nu2=0.7)
    for _ in range(100):
        assert reg.value(rng.normal(size=5)) >= 0.0


def test_loss_task_mismatch_rejected():
    data = SparseDataset(np.ones((2, 2)), np.array([1.0, -1.0]), "classification")
    with pytest.raises(ValueError):
        CompositeProblem(data, ABSOLUTE, Regularizer())


def test_mu_comes_from_regularizer():
    prob = _problem([[1.0]], [1.0], HINGE, nu2=0.25)
    assert prob.mu == 0.25
    assert _problem([[1.0]], [1.0], HINGE).mu == 0.0


def test_objective_original_hinge_satisfied_margin():
    prob = _problem([[1.0]], [1.0], HINGE)
    assert objective_original(prob, np.array([2.0])) == 0.0


def test_objective_original_hinge_at_zero_with_l1():
    prob = _problem([[1.0]], [1.0], HINGE, nu1=0.5)
    assert objective_original(prob, np.array([0.0])) == pytest.approx(1.0)


def test_objective_original_absolute():
    prob = _problem([[1.0]], [3.0], ABSOLUTE, nu1=1.0)
    assert objective_original(prob, np.array([1.0])) == pytest.approx(3.0)


def test_objective_dimension_mismatch():
    prob = _problem([[1.0, 2.0]], [1.0], HINGE)
    with pytest.raises(ValueError):
        objective_original(prob, np.zeros(3))
    with pytest.raises(ValueError):
        objective_smoothed(SmoothedProblem(prob, 0.1), np.zeros(3))


def test_objective_smoothed_equals_original_on_flat_branch():
    prob = _problem([[1.0]], [1.0], HINGE)
    sp = SmoothedProblem(prob, 0.1)
    x = np.array([2.0])
    assert objective_smoothed(sp, x) == objective_original(prob, x) == 0.0


def test_objective_smoothed_quadratic_branch():
    prob = _problem([[0.5]], [1.0], HINGE)  # margin 0.5 at x = 1
    sp = SmoothedProblem(prob, 0.5)
    assert objective_smoothed(sp, np.array([1.0])) == pytest.approx(0.25)


def test_objective_smoothed_ridge_term():
    prob = _problem([[0.5, 0.5]], [1.0], ABSOLUTE)  # residual 0 at (1, 1)
    sp = SmoothedProblem(prob, 0.7, lam=0.2)
    assert objective_smoothed(sp, np.array([1.0, 1.0])) == pytest.approx(0.2)


def _random_problem(rng, loss, nu1, nu2, n=30, d=6):
    rows = rng.normal(size=(n, d))
    labels = rng.choice([-1.0, 1.0], size=n) if loss == HINGE else rng.normal(size=n)
    return _problem(rows, labels, loss, nu1, nu2)


@pytest.mark.parametrize("loss", (HINGE, ABSOLUTE))
def test_sandwich_property(loss):
    rng = np.random.default_rng(5)
    prob = _random_problem(rng, loss, nu1=0.1, nu2=0.05)
    for _ in range(200):
        gamma = 10.0 ** rng.uniform(-3, 0)
        x = rng.normal(scale=2.0, size=prob.d)
        lo = objective_smoothed(SmoothedProblem(prob, gamma), x)
        hi = objective_original(prob, x)
        gap = smoothing_gap(dual_spec(loss), gamma)
        assert lo <= hi + 1e-12
        assert hi <= lo + gap + 1e-12


@pytest.mark.parametrize("loss", (HINGE, ABSOLUTE))
def test_monotone_in_gamma(loss):
    rng = np.random.default_rng(6)
    prob = _random_problem(rng, loss, nu1=0.0, nu2=0.0)
    for _ in range(50):
        x = rng.normal(scale=2.0, size=prob.d)
        g = 10.0 ** rng.uniform(-3, 0)
        smaller = objective_smoothed(SmoothedProblem(prob, g / 2), x)
        larger = objective_smoothed(SmoothedProblem(prob, g), x)
        assert smaller >= larger - 1e-12


def test_ridge_term_is_exactly_additive():
    rng = np.random.default_rng(7)
    prob = _random_problem(rng, HINGE, nu1=0.2, nu2=0.1)
    for _ in range(30):
        x = rng.normal(size=prob.d)
        lam = rng.uniform(0.01, 2.0)
        with_lam = objective_smoothed(SmoothedProblem(prob, 0.3, lam), x)
        without = objective_smoothed(SmoothedProblem(prob, 0.3), x)
        assert with_lam == pytest.approx(without + 0.5 * lam * float(x @ x), abs=1e-12)


def test_smoothed_problem_validation():
    prob = _problem([[1.0]], [1.0], HINGE)
    with pytest.raises(ValueError):
        SmoothedProblem(prob, 0.0)
    with pytest.raises(ValueError):
        SmoothedProblem(prob, 0.1, lam=-1.0)


def test_features_densifies_csr_with_dense_values():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(40, 6))
    mat = sparse.csr_matrix(rows)
    data = SparseDataset(mat, rng.normal(size=40), "regression")
    prob = CompositeProblem(data, ABSOLUTE, Regularizer(nu1=0.1))
    assert "features" not in vars(prob)  # built on first use
    assert isinstance(prob.features, np.ndarray)
    assert np.array_equal(prob.features, rows)
    assert prob.data.features is mat
    # same Lipschitz constant, bit for bit, as the in-memory dense problem
    dense = _problem(rows, data.labels, ABSOLUTE, nu1=0.1)
    assert prob.max_row_sq_norm == dense.max_row_sq_norm
    sp, sp_dense = SmoothedProblem(prob, 0.01), SmoothedProblem(dense, 0.01)
    assert lipschitz_constant(sp) == lipschitz_constant(sp_dense)


def test_classification_rows_are_label_signed():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(30, 5))
    labels = rng.choice([-1.0, 1.0], size=30)
    prob = _problem(rows, labels, HINGE)
    assert np.array_equal(prob.features, labels[:, None] * rows)
    assert np.array_equal(prob.offsets, np.ones(30))
    assert prob.data.features is not prob.features  # the caller's rows stay unsigned
    assert np.array_equal(prob.data.features, rows)
    x = rng.normal(size=5)
    margins = labels * (rows @ x)
    assert objective_original(prob, x) == np.mean(np.maximum(1.0 - margins, 0.0))
    # CSR with dense values: the same signed rows, and the input stays unsigned
    mat = sparse.csr_matrix(rows)
    dense_csr = CompositeProblem(SparseDataset(mat, labels, "classification"), HINGE, Regularizer())
    assert np.array_equal(dense_csr.features, prob.features)
    assert np.array_equal(mat.toarray(), rows)
    # CSR that stays CSR scales its data and shares its index arrays
    mat = sparse.random(200, 100, density=0.01, format="csr", random_state=5)
    signs = np.where(np.arange(200) % 3 == 0, -1.0, 1.0)
    csr = CompositeProblem(SparseDataset(mat, signs, "classification"), HINGE, Regularizer())
    assert sparse.issparse(csr.features)
    assert np.shares_memory(csr.features.indices, mat.indices)
    assert np.shares_memory(csr.features.indptr, mat.indptr)
    assert np.array_equal(csr.features.toarray(), signs[:, None] * mat.toarray())


def test_offsets_are_read_only():
    reg = _problem([[1.0], [2.0]], [0.5, -1.5], ABSOLUTE)
    assert np.array_equal(reg.offsets, [0.5, -1.5])
    for prob in (reg, _problem([[1.0]], [-1.0], HINGE)):
        with pytest.raises(ValueError):
            prob.offsets[0] = 3.0
    assert reg.data.labels.flags.writeable  # the dataset's labels are untouched


def test_features_keeps_sparse_csr():
    mat = sparse.random(200, 100, density=0.01, format="csr", random_state=3)
    labels = np.random.default_rng(9).normal(size=200)
    prob = CompositeProblem(SparseDataset(mat, labels, "regression"), ABSOLUTE, Regularizer())
    assert prob.features is mat
    assert prob.data.features is mat
    x = np.ones(100)
    assert objective_original(prob, x) == pytest.approx(np.mean(np.abs(labels - mat @ x)))
