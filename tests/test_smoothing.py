import numpy as np
import pytest

from cnsopt import (
    ABSOLUTE,
    HINGE,
    CompositeProblem,
    Regularizer,
    SmoothedProblem,
    SparseDataset,
    condition_number,
    dual_spec,
    lipschitz_constant,
    loss_gradient,
    objective_smoothed,
    slacks,
    smoothed_loss_gradient,
    smoothing_gap,
)
from cnsopt.smoothing import exact_loss_values, gradient_kernel, smoothed_loss_values

GAMMAS = (1.0, 0.1, 0.01, 0.001)

# one sample whose margin (hinge: z = 1, y = 1) or residual (absolute: z = -1,
# y = 0) equals its weight t, so d/dt is the derivative in the margin or residual
_ONE_SAMPLE = {HINGE: (1.0, 1.0), ABSOLUTE: (-1.0, 0.0)}


def _scalar(loss, t, gamma):
    """(value, derivative) of the smoothed loss at margin or residual t, through
    the loss table's vectorised functions."""
    z, label = _ONE_SAMPLE[loss]
    rows, y, x = np.array([[z]]), np.array([label]), np.array([float(t)])
    a = dual_spec(loss).slack(y, rows @ x)
    return smoothed_loss_values(a, loss, gamma)[0], gradient_kernel(rows, y, loss, x, gamma)[0]


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


@pytest.mark.parametrize("gamma", GAMMAS)
def test_hinge_branch_continuity(gamma):
    # adjacent branch formulas must agree at both breakpoints
    for m in (1.0, 1.0 - gamma):
        quad_val = (1.0 - m) ** 2 / (2.0 * gamma)
        quad_der = -(1.0 - m) / gamma
        if m == 1.0:
            other_val, other_der = 0.0, 0.0
        else:
            other_val, other_der = 1.0 - m - gamma / 2.0, -1.0
        assert abs(quad_val - other_val) < 1e-12
        assert abs(quad_der - other_der) < 1e-12
        value, derivative = _scalar(HINGE, m, gamma)
        assert abs(value - quad_val) < 1e-12
        assert abs(derivative - quad_der) < 1e-12


@pytest.mark.parametrize("gamma", GAMMAS)
def test_absolute_branch_continuity(gamma):
    for rho, lin_der in ((gamma, 1.0), (-gamma, -1.0)):
        quad_val = rho * rho / (2.0 * gamma)
        quad_der = rho / gamma
        lin_val = abs(rho) - gamma / 2.0
        assert abs(quad_val - lin_val) < 1e-12
        assert abs(quad_der - lin_der) < 1e-12
        value, derivative = _scalar(ABSOLUTE, rho, gamma)
        assert abs(value - quad_val) < 1e-12
        assert abs(derivative - quad_der) < 1e-12


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
    assert h.zeta == a.zeta == 1.0


def test_du_matches_enumeration_oracle():
    # D_u is the max of the quadratic prox-function over the dual interval
    for spec in (dual_spec(HINGE), dual_spec(ABSOLUTE)):
        grid = np.linspace(spec.u_lo, spec.u_hi, 100001)
        assert abs(spec.d_u - np.max(0.5 * grid**2)) < 1e-8


def test_smoothing_gap_values():
    assert smoothing_gap(dual_spec(HINGE), 0.01) == pytest.approx(0.005)
    assert smoothing_gap(dual_spec(ABSOLUTE), 1.0) == pytest.approx(0.5)
    gaps = [smoothing_gap(dual_spec(HINGE), g) for g in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert all(a > b > 0 for a, b in zip(gaps, gaps[1:]))


def _tiny_problem(rows, labels, loss, nu1=0.0, nu2=0.0):
    task = "classification" if loss == HINGE else "regression"
    data = SparseDataset(np.asarray(rows, dtype=float), np.asarray(labels, dtype=float), task)
    return CompositeProblem(data, loss, Regularizer(nu1=nu1, nu2=nu2))


def test_gradient_flat_branch_is_zero():
    prob = _tiny_problem([[1.0, 0.0]], [1.0], HINGE)
    sp = SmoothedProblem(prob, 0.1)
    g = smoothed_loss_gradient(sp, np.array([2.0, 0.0]))
    assert np.array_equal(g, np.zeros(2))


def test_gradient_absolute_linear_branch():
    prob = _tiny_problem([[1.0]], [0.0], ABSOLUTE)
    sp = SmoothedProblem(prob, 1.0)
    g = smoothed_loss_gradient(sp, np.array([2.0]))
    assert g == pytest.approx(np.array([1.0]))


def _random_problem(rng, loss, n=40, d=7, nu1=0.0, nu2=0.0):
    rows = rng.normal(size=(n, d))
    if loss == HINGE:
        labels = rng.choice([-1.0, 1.0], size=n)
    else:
        labels = rng.normal(size=n)
    return _tiny_problem(rows, labels, loss, nu1, nu2)


def _smooth_part(sp, x):
    prob = sp.base
    return (
        objective_smoothed(sp, x)
        - prob.reg.value(x)
    )


@pytest.mark.parametrize("loss", (HINGE, ABSOLUTE))
def test_gradient_matches_finite_differences(loss):
    # central differences of the smooth part, at points away from breakpoints
    rng = np.random.default_rng(3)
    gamma = 0.05
    prob = _random_problem(rng, loss)
    sp = SmoothedProblem(prob, gamma, lam=0.3)
    h = 1e-6
    checked = 0
    while checked < 40:
        x = rng.normal(size=prob.d)
        a = slacks(prob, x)
        if loss == HINGE:
            dist = np.minimum(np.abs(a), np.abs(a - gamma))
        else:
            dist = np.abs(np.abs(a) - gamma)
        if dist.min() < 1e-3:
            continue
        checked += 1
        g = smoothed_loss_gradient(sp, x)
        fd = np.empty(prob.d)
        for j in range(prob.d):
            e = np.zeros(prob.d)
            e[j] = h
            fd[j] = (_smooth_part(sp, x + e) - _smooth_part(sp, x - e)) / (2 * h)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


@pytest.mark.parametrize("loss", (HINGE, ABSOLUTE))
def test_per_sample_gradient_bounded_by_row_norm(loss):
    rng = np.random.default_rng(11)
    prob = _random_problem(rng, loss, n=20)
    norms = np.linalg.norm(prob.data.features, axis=1)
    for gamma in (1.0, 0.01):
        sp = SmoothedProblem(prob, gamma)
        for _ in range(20):
            x = rng.normal(scale=2.0, size=prob.d)
            for i in range(prob.n):
                g = loss_gradient(sp, x, batch=[i])
                assert np.linalg.norm(g) <= norms[i] + 1e-12


def test_gradient_batch_index_validation():
    rng = np.random.default_rng(0)
    prob = _random_problem(rng, HINGE, n=5)
    sp = SmoothedProblem(prob, 0.1)
    with pytest.raises(ValueError):
        loss_gradient(sp, np.zeros(prob.d), batch=[5])
    with pytest.raises(ValueError):
        loss_gradient(sp, np.zeros(prob.d), batch=[-1])


def test_lipschitz_constant_formula():
    prob = _tiny_problem([[3.0, 4.0]], [1.0], HINGE)
    assert lipschitz_constant(SmoothedProblem(prob, 1.0)) == pytest.approx(25.0)
    assert lipschitz_constant(SmoothedProblem(prob, 0.5)) == pytest.approx(50.0)
    assert lipschitz_constant(SmoothedProblem(prob, 0.5, lam=2.0)) == pytest.approx(52.0)


@pytest.mark.parametrize("loss", (HINGE, ABSOLUTE))
def test_lipschitz_bound_on_sampled_pairs(loss):
    rng = np.random.default_rng(21)
    prob = _random_problem(rng, loss)
    for gamma in (0.5, 0.05):
        sp = SmoothedProblem(prob, gamma, lam=0.1)
        L = lipschitz_constant(sp)
        for _ in range(50):
            x = rng.normal(scale=2.0, size=prob.d)
            y = rng.normal(scale=2.0, size=prob.d)
            lhs = np.linalg.norm(
                smoothed_loss_gradient(sp, x) - smoothed_loss_gradient(sp, y)
            )
            assert lhs <= L * np.linalg.norm(x - y) + 1e-10


def test_condition_number():
    prob = _tiny_problem([[3.0, 4.0]], [1.0], HINGE)
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
    prob = _tiny_problem([[1.0, 0.0]], [1.0], HINGE)
    tau = 2.0
    gamma, lam = 0.01, 1e-3
    k1 = condition_number(SmoothedProblem(prob, gamma, 0.0), lam)
    k2 = condition_number(SmoothedProblem(prob, gamma / tau, 0.0), lam / tau)
    assert k2 / k1 == pytest.approx(tau**2)
