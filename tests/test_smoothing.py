import math
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sparse

from cnsopt import (
    ABSOLUTE,
    HINGE,
    CompositeProblem,
    LossDualSpec,
    Regularizer,
    SmoothedProblem,
    SparseDataset,
    condition_number,
    dual_spec,
    lipschitz_constant,
    smoothed_loss_gradient,
)
from cnsopt import smoothing
from cnsopt.datasets import epoch_batches
from cnsopt.smoothing import (
    _score_weights,
    exact_loss_values,
    gradient_kernel,
    kernel_scalars,
    loss_gradient,
    smoothed_loss_values,
    vr_gradient_kernel,
)

from tests.conftest import problem_from_rows, random_problem

GAMMAS = (1.0, 0.1, 0.01, 0.001)

# one sample whose row r and offset c make its margin (hinge: r = 1, c = 1) or
# residual (absolute: r = -1, c = 0) equal its weight t, through the slack
# a = c - r t, so d/dt is the derivative in the margin or residual
_ONE_SAMPLE = {HINGE: (1.0, 1.0), ABSOLUTE: (-1.0, 0.0)}


def _scalar(loss, t, gamma):
    """(value, derivative) of the smoothed loss at margin or residual t, through
    the loss table's vectorised functions."""
    r, offset = _ONE_SAMPLE[loss]
    rows, c, x = np.array([[r]]), np.array([offset]), np.array([float(t)])
    a = c - rows @ x
    g = gradient_kernel(rows, c, kernel_scalars(loss, gamma, 1), x)[0]
    return smoothed_loss_values(a, loss, gamma)[0], g[0]


def test_smoothed_hinge_flat_branch():
    value, derivative = _scalar(HINGE, 1.2, 0.1)
    assert value == 0.0 and derivative == 0.0


def test_smoothed_hinge_quadratic_branch():
    value, derivative = _scalar(HINGE, 0.5, 0.5)
    assert value == pytest.approx(0.25) and derivative == pytest.approx(-1.0)


def test_smoothed_hinge_linear_branch():
    value, derivative = _scalar(HINGE, -1.0, 0.5)
    assert value == pytest.approx(1.75) and derivative == -1.0


def test_smoothed_absolute_linear_branch():
    value, derivative = _scalar(ABSOLUTE, 2.0, 1.0)
    assert value == pytest.approx(1.5) and derivative == 1.0


def test_smoothed_absolute_at_zero():
    value, derivative = _scalar(ABSOLUTE, 0.0, 0.3)
    assert value == 0.0 and derivative == 0.0


def test_smoothed_absolute_quadratic_branch():
    value, derivative = _scalar(ABSOLUTE, -0.5, 1.0)
    assert value == pytest.approx(0.125) and derivative == pytest.approx(-0.5)


def test_gamma_must_be_positive():
    with pytest.raises(ValueError):
        smoothed_loss_values([0.0], HINGE, 0.0)
    with pytest.raises(ValueError):
        smoothed_loss_values([0.0], ABSOLUTE, -1.0)


@pytest.mark.parametrize("gamma", (0.0, -1.0, math.nan, math.inf, -math.inf))
def test_kernel_scalars_take_a_finite_positive_gamma(gamma):
    # gamma = -1 once gave a zero gradient without a word
    for check in (lambda: kernel_scalars(HINGE, gamma, 10),
                  lambda: smoothed_loss_values([0.0], ABSOLUTE, gamma)):
        with pytest.raises(ValueError, match="gamma|smoothness"):
            check()


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("loss", (HINGE, ABSOLUTE))
def test_uniform_approximation_band(loss, gamma):
    # exact loss dominates the surrogate by at most gamma/2, everywhere
    grid = np.linspace(-4.0, 4.0, 4001)
    exact = exact_loss_values(grid, loss)
    smooth = smoothed_loss_values(grid, loss, gamma)
    diff = exact - smooth
    assert diff.min() >= -1e-15
    assert diff.max() <= gamma / 2.0 + 1e-15


def _piecewise_hinge(a, gamma):
    return np.where(a <= 0.0, 0.0, np.where(a > gamma, a - gamma / 2.0, a * a / (2.0 * gamma)))


def _piecewise_absolute(a, gamma):
    m = np.abs(a)
    return np.where(m >= gamma, m - gamma / 2.0, a * a / (2.0 * gamma))


def _ordinal(v):
    # the bits of |v| as an integer grow with |v|, by one per double
    bits = np.abs(v).view(np.int64)
    return np.where(np.signbit(v), -bits, bits)


@pytest.mark.parametrize("loss, piecewise, quadratic", [
    (HINGE, _piecewise_hinge, lambda a, gamma: (a > 0.0) & (a <= gamma)),
    (ABSOLUTE, _piecewise_absolute, lambda a, gamma: np.abs(a) < gamma),
])
def test_interval_form_matches_piecewise_oracle(loss, piecewise, quadratic):
    # u a - gamma u^2 / 2 at u = clip(a / gamma, u_lo, u_hi) against the
    # branch-by-branch closed forms: equal on the flat and linear branches,
    # within 4 ulps on the quadratic one (a * a / (2 gamma) rounds differently)
    rng = np.random.default_rng(3)
    for gamma in np.geomspace(1e-7, 2.0, 25):
        a = np.concatenate([gamma * rng.uniform(-3.0, 3.0, 4000),
                            gamma * np.array([-1.0, -0.5, 0.0, 0.5, 1.0])])
        got, want = smoothed_loss_values(a, loss, gamma), piecewise(a, gamma)
        quad = quadratic(a, gamma)
        assert np.array_equal(got[~quad], want[~quad])
        assert np.abs(_ordinal(got[quad]) - _ordinal(want[quad])).max() <= 4


def test_hinge_converges_pointwise_to_exact():
    grid = np.linspace(-3.0, 3.0, 601)
    smooth = smoothed_loss_values(1.0 - grid, HINGE, 1e-8)
    assert np.max(np.abs(smooth - np.maximum(0.0, 1.0 - grid))) < 1e-7


def test_derivatives_bounded_by_one():
    rng = np.random.default_rng(7)
    m = rng.normal(scale=3.0, size=1000)
    for gamma in GAMMAS:
        for loss in (HINGE, ABSOLUTE):
            assert all(abs(_scalar(loss, t, gamma)[1]) <= 1.0 for t in m)


def test_dual_specs():
    h = dual_spec(HINGE)
    a = dual_spec(ABSOLUTE)
    assert (h.u_lo, h.u_hi) == (0.0, 1.0)
    assert (a.u_lo, a.u_hi) == (-1.0, 1.0)
    assert h.d_u == a.d_u == 0.5
    assert [f.name for f in fields(LossDualSpec)] == ["task", "u_lo", "u_hi"]
    with pytest.raises(ValueError, match="unknown loss 'squared'"):
        dual_spec("squared")


def test_du_matches_enumeration_oracle():
    # D_u is the max of the quadratic prox-function over the dual interval
    for spec in (dual_spec(HINGE), dual_spec(ABSOLUTE)):
        grid = np.linspace(spec.u_lo, spec.u_hi, 100001)
        assert abs(spec.d_u - np.max(0.5 * grid**2)) < 1e-8


def test_gradient_flat_branch_is_zero():
    prob = problem_from_rows([[1.0, 0.0]], [1.0], HINGE)
    sp = SmoothedProblem(prob, 0.1)
    g = smoothed_loss_gradient(sp, np.array([2.0, 0.0]))
    assert np.array_equal(g, np.zeros(2))


def test_gradient_absolute_linear_branch():
    prob = problem_from_rows([[1.0]], [0.0], ABSOLUTE)
    sp = SmoothedProblem(prob, 1.0)
    g = smoothed_loss_gradient(sp, np.array([2.0]))
    assert g == pytest.approx(np.array([1.0]))


@pytest.mark.parametrize("loss", (HINGE, ABSOLUTE))
def test_per_sample_gradient_bounded_by_row_norm(loss):
    rng = np.random.default_rng(11)
    prob = random_problem(rng, loss, 20, 7)
    norms = np.linalg.norm(prob.data.features, axis=1)
    for gamma in (1.0, 0.01):
        sp = SmoothedProblem(prob, gamma)
        for _ in range(20):
            x = rng.normal(scale=2.0, size=prob.d)
            for i in range(prob.n):
                g, _ = gradient_kernel(prob.features[[i]], prob.offsets[[i]],
                                       kernel_scalars(loss, gamma, 1), x)
                assert np.linalg.norm(g) <= norms[i] + 1e-12


def test_lipschitz_constant_formula():
    prob = problem_from_rows([[3.0, 4.0]], [1.0], HINGE)
    assert lipschitz_constant(SmoothedProblem(prob, 1.0)) == pytest.approx(25.0)
    assert lipschitz_constant(SmoothedProblem(prob, 0.5)) == pytest.approx(50.0)
    assert lipschitz_constant(SmoothedProblem(prob, 0.5, lam=2.0)) == pytest.approx(52.0)


def _csr_problem(rng, loss, n=60, d=30):
    """A problem on 10%-dense rows, which ``CompositeProblem.features`` keeps
    as CSR."""
    rows = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.1)
    labels = rng.choice([-1.0, 1.0], size=n) if loss == HINGE else rng.normal(size=n)
    data = SparseDataset(sparse.csr_matrix(rows), labels, dual_spec(loss).task)
    return CompositeProblem(data, loss, Regularizer())


@pytest.mark.parametrize("loss", (HINGE, ABSOLUTE))
def test_lipschitz_bound_on_sampled_pairs(loss):
    # both bounds, the per-sample one and the spectral one of the full-gradient
    # steps, on dense rows and on a CSR that stays CSR
    rng = np.random.default_rng(21)
    for prob in (random_problem(rng, loss, 40, 7), _csr_problem(rng, loss)):
        assert prob.gram_norm <= prob.max_row_sq_norm
        for gamma in (0.5, 0.05):
            sp = SmoothedProblem(prob, gamma, lam=0.1)
            for L in (lipschitz_constant(sp), prob.gram_norm / gamma + sp.lam):
                for _ in range(50):
                    x = rng.normal(scale=2.0, size=prob.d)
                    y = rng.normal(scale=2.0, size=prob.d)
                    lhs = np.linalg.norm(
                        smoothed_loss_gradient(sp, x) - smoothed_loss_gradient(sp, y)
                    )
                    assert lhs <= L * np.linalg.norm(x - y) + 1e-10
        # the spectral bound is attained: at gamma = 100 every slack near x = 0
        # is inside the quadratic branch, where the gradient moves by
        # Z'Z (x - y) / (n gamma), so along Z's top right singular vector
        gamma = 100.0
        sp = SmoothedProblem(prob, gamma)
        top = np.linalg.svd(sparse.csr_matrix(prob.features).toarray())[2][0]
        step = 1e-3 * top
        lhs = np.linalg.norm(smoothed_loss_gradient(sp, step)
                             - smoothed_loss_gradient(sp, np.zeros(prob.d)))
        spectral = prob.gram_norm / gamma * 1e-3
        assert spectral * (1.0 - 1e-5) <= lhs <= spectral


def test_condition_number():
    prob = problem_from_rows([[3.0, 4.0]], [1.0], HINGE)
    sp = SmoothedProblem(prob, 0.5)
    assert condition_number(sp, 0.5) == pytest.approx(100.0)
    # halving gamma doubles the condition number when lam = 0
    sp2 = SmoothedProblem(prob, 0.25)
    assert condition_number(sp2, 0.5) == pytest.approx(200.0)
    with pytest.raises(ValueError):
        condition_number(sp, 0.0)


def test_condition_number_schedule_growth():
    # under the ridge-augmented schedule, L scales by tau and the modulus by
    # 1/tau, so the condition number grows by tau^2 per stage
    prob = problem_from_rows([[1.0, 0.0]], [1.0], HINGE)
    tau = 2.0
    gamma, lam = 0.01, 1e-3
    k1 = condition_number(SmoothedProblem(prob, gamma, 0.0), lam)
    k2 = condition_number(SmoothedProblem(prob, gamma / tau, 0.0), lam / tau)
    assert k2 / k1 == pytest.approx(tau**2)


@pytest.mark.parametrize("loss", [HINGE, ABSOLUTE])
def test_score_weights_keep_the_bits_of_clip(loss):
    # the in-place clip against ndarray.clip, with scores on both bounds, at
    # signed zeros (an offset of -0.0 and a score of +0.0 give a = -0.0) and NaN
    spec = dual_spec(loss)
    gamma = 0.25
    rng = np.random.default_rng(3)
    c = rng.choice([1.0, -0.0, 0.0, 0.5], size=40)
    s = rng.normal(size=(2, 40))
    s[:, :8] = (c[:8] - gamma * np.array([spec.u_lo, spec.u_hi] * 4))
    s[0, 8:12], s[1, 8:12] = 0.0, -0.0
    c[8:12] = [-0.0, 0.0, -0.0, 0.0]
    s[0, 12] = np.nan
    ref = ((c - s) / -gamma).clip(-spec.u_hi, -spec.u_lo)
    assert _score_weights(_float_scalars(loss, gamma, 40), c, s.copy()).tobytes() == ref.tobytes()
    # the same bytes from the operands cast once
    assert _score_weights(kernel_scalars(loss, gamma, 40), c, s.copy()).tobytes() == ref.tobytes()


def _two_matvec_estimate(rows, offsets, loss, gamma, x, snapshot, full_gradient):
    """The variance-reduced estimate with the snapshot's batch scores computed
    per batch, as a second ``rows @ snapshot`` beside ``rows @ x``."""
    scores = np.empty((2, len(offsets)))
    scores[0] = rows @ x
    scores[1] = rows @ snapshot
    weights = _score_weights(kernel_scalars(loss, gamma, len(offsets)), offsets, scores)
    return (rows.T @ (weights[0] - weights[1])) / len(offsets) + full_gradient


@pytest.mark.parametrize("loss", (HINGE, ABSOLUTE))
@pytest.mark.parametrize("csr", (False, True))
@pytest.mark.parametrize("b", (1, 13, 50, 100))
def test_snapshot_weight_reuse_matches_two_matvec_estimate(loss, csr, b):
    # the reused full-pass weights may differ from per-batch ones in the last
    # bits of the snapshot's scores; an entry can cancel to near zero, so its
    # error is measured in ulps of the terms it sums: the rows times the
    # scores' magnitude over gamma, plus the full gradient
    rng = np.random.default_rng(17 + b)
    n, d = 120, 30
    rows = rng.normal(size=(n, d)) / np.sqrt(d)
    if csr:
        rows[rng.random(size=rows.shape) < 0.7] = 0.0
        rows = sparse.csr_matrix(rows)
    task = "classification" if loss == HINGE else "regression"
    labels = rng.choice([-1.0, 1.0], size=n) if loss == HINGE else rng.normal(size=n)
    prob = CompositeProblem(SparseDataset(rows, labels, task), loss, Regularizer())
    assert sparse.issparse(prob.features) == csr
    eps = np.finfo(float).eps
    for gamma in (2.0, 0.05):  # interior weights, then mostly clipped ones
        sp = SmoothedProblem(prob, gamma)
        for _ in range(40):
            snap = rng.normal(size=d)
            x = snap + rng.normal(scale=0.1, size=d)
            full, weights = loss_gradient(sp, snap, with_weights=True)
            idx = rng.integers(0, n, size=b)
            z, c = prob.features[idx], prob.offsets[idx]
            got = vr_gradient_kernel(z, c, kernel_scalars(loss, gamma, b), x, weights[idx], full)
            ref = _two_matvec_estimate(z, c, loss, gamma, x, snap, full)
            abs_z = abs(z)
            scale = abs_z.T @ ((np.abs(c) + abs_z @ np.abs(snap)) / gamma) / b + np.abs(full)
            assert np.all(np.abs(got - ref) <= 4 * eps * scale)


def _float_scalars(loss, gamma, count):
    """``kernel_scalars(loss, gamma, count)`` as Python floats, uncast."""
    spec = dual_spec(loss)
    return -gamma, -spec.u_hi, -spec.u_lo, count


def _matmul_gradient(rows, offsets, loss, gamma, x):
    """``gradient_kernel`` written with the @ operator, on float operands."""
    weights = _score_weights(_float_scalars(loss, gamma, len(offsets)), offsets, rows @ x)
    return (rows.T @ weights) / len(offsets), weights


def _matmul_vr_estimate(rows, offsets, loss, gamma, x, snapshot_weights, full_gradient):
    """``vr_gradient_kernel`` written with the @ operator, on float operands."""
    weights = _score_weights(_float_scalars(loss, gamma, len(offsets)), offsets, rows @ x)
    weights -= snapshot_weights
    return (rows.T @ weights) / len(offsets) + full_gradient


def layout_problem(rng, loss, layout, n=240, d=50):
    """A problem whose ``features`` are C-ordered rows ("c"), F-ordered rows
    kept F-ordered through ``CompositeProblem`` ("f"), or a CSR that stays CSR
    ("csr")."""
    rows = rng.normal(size=(n, d)) / np.sqrt(d)
    if layout == "csr":
        rows[rng.random(size=rows.shape) < 0.7] = 0.0
        rows = sparse.csr_matrix(rows)
    elif layout == "f":
        rows = np.asfortranarray(rows)
    task = "classification" if loss == HINGE else "regression"
    labels = rng.choice([-1.0, 1.0], size=n) if loss == HINGE else rng.normal(size=n)
    prob = CompositeProblem(SparseDataset(rows, labels, task), loss, Regularizer())
    feats = prob.features
    assert sparse.issparse(feats) == (layout == "csr")
    assert layout == "csr" or feats.flags["F_CONTIGUOUS" if layout == "f" else "C_CONTIGUOUS"]
    return prob


def layout_batches(rng, prob, b, *per_sample):
    """An epoch of three batches of b rows as the solvers see them, gathered
    by ``epoch_batches``. (A strided row slice of F-ordered rows is not among
    them: ndarray.dot copies it to C order and sums in another order than
    @.)"""
    block = rng.integers(0, prob.n, size=(3, b))
    return epoch_batches(block, prob.features, prob.offsets, *per_sample)


def _read_only_scalars(values, cast):
    """``cast``, after checking that it holds each number of ``values`` as a
    read-only 0-d float64 array of its value, and each None as None."""
    assert len(cast) == len(values)
    for value, arr in zip(values, cast):
        if value is None:
            assert arr is None
            continue
        assert arr.shape == () and arr.dtype == np.float64 and not arr.flags.writeable
        assert np.array(value, dtype=float).tobytes() == arr.tobytes()
        with pytest.raises(ValueError):
            arr[...] = 1.0
    return cast


def _signed_zeros_and_nan(rng, c, nan=0.05):
    """Offsets ``c`` with some entries replaced by +0.0, -0.0 and, each with
    probability ``nan``, NaN; with ``nan`` > 0, at least one entry is NaN."""
    c = c.copy()
    c[rng.random(size=c.shape) < 0.3] = -0.0
    c[rng.random(size=c.shape) < 0.1] = 0.0
    c[rng.random(size=c.shape) < nan] = np.nan
    if nan > 0:
        c[rng.integers(len(c))] = np.nan
    return c


@pytest.mark.parametrize("loss", (HINGE, ABSOLUTE))
@pytest.mark.parametrize("layout", ("c", "f", "csr"))
@pytest.mark.parametrize("b", (1, 13, 50, 100))
def test_kernels_keep_the_bits_of_matmul(loss, layout, b):
    # the kernels use ndarray.dot for its lower dispatch cost, on operands
    # cast once to read-only 0-d arrays (``kernel_scalars``,
    # ``SmoothedProblem.kernel_scalars``); they must give the bytes of the @
    # forms on float operands, on the full pass and on every gathered batch.
    # Beside the clean inputs, where a cast operand could differ from a float
    # one: zero scores (x = 0), and signed-zero offsets alone and with NaN,
    # which can fill a whole product
    rng = np.random.default_rng(23 + b)
    offsets_rng = np.random.default_rng(37 + b)
    prob = layout_problem(rng, loss, layout)
    for gamma in (2.0, 0.05):  # interior weights, then mostly clipped ones
        sp = SmoothedProblem(prob, gamma)
        batch_scalars = _read_only_scalars(_float_scalars(loss, gamma, b),
                                           kernel_scalars(loss, gamma, b))
        snap = rng.normal(size=prob.d)
        points = (snap + rng.normal(scale=0.1, size=prob.d), np.zeros(prob.d))
        for x in (*points, snap):  # the snapshot's full pass, last, serves the batches
            full, weights = loss_gradient(sp, x, with_weights=True)
            ref = _matmul_gradient(prob.features, prob.offsets, loss, gamma, x)
            assert full.tobytes() == ref[0].tobytes()
            assert weights.tobytes() == ref[1].tobytes()
            assert loss_gradient(sp, x).tobytes() == ref[0].tobytes()
        for rows, offsets, snap_weights in layout_batches(rng, prob, b, weights):
            for c in (offsets, _signed_zeros_and_nan(offsets_rng, offsets, 0.0),
                      _signed_zeros_and_nan(offsets_rng, offsets)):
                for x in points:
                    got = gradient_kernel(rows, c, batch_scalars, x)
                    ref = _matmul_gradient(rows, c, loss, gamma, x)
                    assert got[0].tobytes() == ref[0].tobytes()
                    assert got[1].tobytes() == ref[1].tobytes()
                    got = vr_gradient_kernel(rows, c, batch_scalars, x, snap_weights, full)
                    ref = _matmul_vr_estimate(rows, c, loss, gamma, x, snap_weights, full)
                    assert got.tobytes() == ref.tobytes()


def test_smoothed_problem_casts_its_kernel_scalars_once(monkeypatch):
    # the full pass's operands are read-only 0-d arrays, built on first use
    # and once per instance
    builds = []
    build = smoothing.kernel_scalars
    monkeypatch.setattr(smoothing, "kernel_scalars",
                        lambda *args: builds.append(args) or build(*args))
    prob = layout_problem(np.random.default_rng(5), ABSOLUTE, "c")
    sp = SmoothedProblem(prob, 0.25)
    assert "kernel_scalars" not in vars(sp) and builds == []
    scalars = _read_only_scalars(_float_scalars(ABSOLUTE, 0.25, prob.n), sp.kernel_scalars)
    for _ in range(3):
        loss_gradient(sp, np.ones(prob.d))
        assert sp.kernel_scalars is scalars
    assert builds == [(ABSOLUTE, 0.25, prob.n)]
    other = SmoothedProblem(prob, 0.5)
    loss_gradient(other, np.ones(prob.d))
    assert other.kernel_scalars is not scalars and len(builds) == 2
