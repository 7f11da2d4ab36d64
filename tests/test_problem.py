import math

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
)
from cnsopt.smoothing import GRAM_MARGIN, gram_norm, lipschitz_constant

from tests.conftest import problem_from_rows, random_problem


def test_regularizer_value():
    l1 = Regularizer(nu1=0.5)
    en = Regularizer(nu1=0.5, nu2=1.0)
    x = np.array([1.0, -2.0])
    assert l1.value(x) == pytest.approx(1.5)
    assert en.value(x) == pytest.approx(1.5 + 2.5)
    with pytest.raises(ValueError):
        Regularizer(nu1=-0.1)
    for field in ("nu1", "nu2"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                Regularizer(**{field: value})


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
    prob = problem_from_rows([[1.0]], [1.0], HINGE, nu2=0.25)
    assert prob.mu == 0.25
    assert problem_from_rows([[1.0]], [1.0], HINGE).mu == 0.0


def test_objective_original_hinge_satisfied_margin():
    prob = problem_from_rows([[1.0]], [1.0], HINGE)
    assert objective_original(prob, np.array([2.0])) == 0.0


def test_objective_original_hinge_at_zero_with_l1():
    prob = problem_from_rows([[1.0]], [1.0], HINGE, nu1=0.5)
    assert objective_original(prob, np.array([0.0])) == pytest.approx(1.0)


def test_objective_original_absolute():
    prob = problem_from_rows([[1.0]], [3.0], ABSOLUTE, nu1=1.0)
    assert objective_original(prob, np.array([1.0])) == pytest.approx(3.0)


def test_objective_dimension_mismatch():
    prob = problem_from_rows([[1.0, 2.0]], [1.0], HINGE)
    with pytest.raises(ValueError):
        objective_original(prob, np.zeros(3))
    with pytest.raises(ValueError):
        objective_smoothed(SmoothedProblem(prob, 0.1), np.zeros(3))


def test_objective_smoothed_equals_original_on_flat_branch():
    prob = problem_from_rows([[1.0]], [1.0], HINGE)
    sp = SmoothedProblem(prob, 0.1)
    x = np.array([2.0])
    assert objective_smoothed(sp, x) == objective_original(prob, x) == 0.0


def test_objective_smoothed_quadratic_branch():
    prob = problem_from_rows([[0.5]], [1.0], HINGE)  # margin 0.5 at x = 1
    sp = SmoothedProblem(prob, 0.5)
    assert objective_smoothed(sp, np.array([1.0])) == pytest.approx(0.25)


def test_objective_smoothed_ridge_term():
    prob = problem_from_rows([[0.5, 0.5]], [1.0], ABSOLUTE)  # residual 0 at (1, 1)
    sp = SmoothedProblem(prob, 0.7, lam=0.2)
    assert objective_smoothed(sp, np.array([1.0, 1.0])) == pytest.approx(0.2)


@pytest.mark.parametrize("loss", (HINGE, ABSOLUTE))
def test_sandwich_property(loss):
    rng = np.random.default_rng(5)
    prob = random_problem(rng, loss, 30, 6, nu1=0.1, nu2=0.05)
    for _ in range(200):
        gamma = 10.0 ** rng.uniform(-3, 0)
        x = rng.normal(scale=2.0, size=prob.d)
        lo = objective_smoothed(SmoothedProblem(prob, gamma), x)
        hi = objective_original(prob, x)
        gap = gamma * dual_spec(loss).d_u
        assert lo <= hi + 1e-12
        assert hi <= lo + gap + 1e-12


@pytest.mark.parametrize("loss", (HINGE, ABSOLUTE))
def test_monotone_in_gamma(loss):
    rng = np.random.default_rng(6)
    prob = random_problem(rng, loss, 30, 6)
    for _ in range(50):
        x = rng.normal(scale=2.0, size=prob.d)
        g = 10.0 ** rng.uniform(-3, 0)
        smaller = objective_smoothed(SmoothedProblem(prob, g / 2), x)
        larger = objective_smoothed(SmoothedProblem(prob, g), x)
        assert smaller >= larger - 1e-12


def test_ridge_term_is_exactly_additive():
    rng = np.random.default_rng(7)
    prob = random_problem(rng, HINGE, 30, 6, nu1=0.2, nu2=0.1)
    for _ in range(30):
        x = rng.normal(size=prob.d)
        lam = rng.uniform(0.01, 2.0)
        with_lam = objective_smoothed(SmoothedProblem(prob, 0.3, lam), x)
        without = objective_smoothed(SmoothedProblem(prob, 0.3), x)
        assert with_lam == pytest.approx(without + 0.5 * lam * float(x @ x), abs=1e-12)


def test_smoothed_problem_validation():
    prob = problem_from_rows([[1.0]], [1.0], HINGE)
    with pytest.raises(ValueError):
        SmoothedProblem(prob, 0.0)
    with pytest.raises(ValueError):
        SmoothedProblem(prob, 0.1, lam=-1.0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="gamma must be finite"):
            SmoothedProblem(prob, value)
        with pytest.raises(ValueError, match="lam must be finite"):
            SmoothedProblem(prob, 0.1, lam=value)
    # max ||z_i||^2 / gamma = 4 / 1e-308 overflows: the error names gamma, not
    # the zero step size it would give
    wide = problem_from_rows([[2.0]], [1.0], HINGE)
    with pytest.raises(ValueError, match=r"gamma = 1e-308 is too small"):
        SmoothedProblem(wide, 1e-308)
    assert SmoothedProblem(prob, 1e-308).gamma == 1e-308  # 1 / 1e-308 is finite


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
    dense = problem_from_rows(rows, data.labels, ABSOLUTE, nu1=0.1)
    assert prob.max_row_sq_norm == dense.max_row_sq_norm
    sp, sp_dense = SmoothedProblem(prob, 0.01), SmoothedProblem(dense, 0.01)
    assert lipschitz_constant(sp) == lipschitz_constant(sp_dense)
    assert prob.gram_norm == dense.gram_norm


def test_gram_norm_of_a_csr_that_stays_csr_is_within_the_margin_of_dense():
    rng = np.random.default_rng(9)
    for shape in ((300, 40), (40, 300)):
        rows = rng.normal(size=shape) * (rng.random(shape) < 0.05)
        data = SparseDataset(sparse.csr_matrix(rows), rng.normal(size=shape[0]), "regression")
        csr = CompositeProblem(data, ABSOLUTE, Regularizer())
        assert sparse.issparse(csr.features)
        dense = problem_from_rows(rows, data.labels, ABSOLUTE)
        assert "gram_norm" not in vars(csr)  # computed on first use
        assert csr.gram_norm == pytest.approx(dense.gram_norm, rel=GRAM_MARGIN)
        exact = np.linalg.norm(rows, 2) ** 2 / shape[0]
        assert exact <= csr.gram_norm <= exact * (1.0 + 2.0 * GRAM_MARGIN)
        # the Lanczos start vector is fixed: a new problem gives the same bits
        again = CompositeProblem(data, ABSOLUTE, Regularizer())
        assert again.gram_norm == csr.gram_norm
    # rank at most 1: a single column, and no nonzero at all
    column = sparse.csr_matrix(rng.normal(size=(50, 1)))
    assert gram_norm(column) == pytest.approx(
        np.sum(column.toarray() ** 2) / 50, rel=GRAM_MARGIN)
    assert gram_norm(sparse.csr_matrix((50, 20))) == 0.0


def test_classification_rows_are_label_signed():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(30, 5))
    labels = rng.choice([-1.0, 1.0], size=30)
    prob = problem_from_rows(rows, labels, HINGE)
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
    reg = problem_from_rows([[1.0], [2.0]], [0.5, -1.5], ABSOLUTE)
    assert np.array_equal(reg.offsets, [0.5, -1.5])
    for prob in (reg, problem_from_rows([[1.0]], [-1.0], HINGE)):
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
