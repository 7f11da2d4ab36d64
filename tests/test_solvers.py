import math

import numpy as np
import pytest

from cnsopt import (
    ABSOLUTE,
    HINGE,
    CompositeProblem,
    DivergenceError,
    InfeasibleBudgetError,
    Regularizer,
    SmoothedProblem,
    SparseDataset,
    loss_gradient,
    objective_smoothed,
    required_t1,
    run_solver,
)
from cnsopt.prox import prox_regularizer
from cnsopt.solvers import SolverSpec

GD = SolverSpec(solver="prox-gd")
APG = SolverSpec(solver="apg")


def _problem(rows, labels, loss, nu1=0.0, nu2=0.0):
    task = "classification" if loss == HINGE else "regression"
    data = SparseDataset(np.asarray(rows, dtype=float), np.asarray(labels, dtype=float), task)
    return CompositeProblem(data, loss, Regularizer(nu1=nu1, nu2=nu2))


def _random_strongly_convex(seed, n=100, d=10, nu1=0.01, nu2=0.1):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d)) / math.sqrt(d)
    labels = rng.choice([-1.0, 1.0], size=n)
    return _problem(rows, labels, HINGE, nu1=nu1, nu2=nu2)


def _first_hit(spec, sp, x0, budget, every, reached, **kwargs):
    """First multiple of ``every`` whose iterate satisfies ``reached``, or inf."""
    hits = []

    def check(t, x, elapsed):
        if not hits and reached(x):
            hits.append(t)

    run_solver(spec, sp, x0, budget, callback=check, callback_every=every, **kwargs)
    return hits[0] if hits else math.inf


def quad_problem(nu2=0.1):
    """1-D absolute-loss instance whose iterates stay in the quadratic branch."""
    # two samples with different leverage; gamma wide enough to hold residuals
    return _problem([[1.0], [0.5]], [0.1, 0.05], ABSOLUTE, nu2=nu2)


def test_prox_gd_matches_scalar_recursion_oracle():
    prob = quad_problem()
    gamma = 2.0
    sp = SmoothedProblem(prob, gamma)
    x0 = np.array([0.3])
    budget = 40
    run = run_solver(GD, sp, x0, budget)

    # independent oracle: simulate the scalar recursion directly
    z = np.array([1.0, 0.5])
    y = np.array([0.1, 0.05])
    L = max(z**2) / gamma
    eta = 1.0 / L
    x = 0.3
    for _ in range(budget):
        g = np.mean(-(y - z * x) / gamma * z)
        x = (x - eta * g) / (1.0 + eta * prob.reg.nu2)
    assert run.x[0] == pytest.approx(x, abs=1e-14)


def test_prox_gd_contraction_rate():
    prob = quad_problem()
    sp = SmoothedProblem(prob, 2.0)
    L = 1.0 / 2.0
    mu = prob.mu
    # fixed point of the iteration
    x_star = run_solver(GD, sp, np.array([0.0]), 2000).x[0]
    x = 0.3
    bound = 1.0 - mu / L + 1e-9
    prev_err = abs(x - x_star)
    for t in range(20):
        x = run_solver(GD, sp, np.array([x]), 1).x[0]
        err = abs(x - x_star)
        if prev_err > 1e-13:
            assert err <= bound * prev_err
        prev_err = err


def test_zero_budget_rejected():
    prob = quad_problem()
    sp = SmoothedProblem(prob, 2.0)
    with pytest.raises(ValueError):
        run_solver(GD, sp, np.zeros(1), 0)


def test_prox_gd_reaches_exact_zero_under_strong_l1():
    rng = np.random.default_rng(8)
    prob = _random_strongly_convex(8, nu1=0.0)
    sp = SmoothedProblem(prob, 0.1)
    # analytic threshold: 0 is optimal once nu1 dominates the gradient at 0
    g0 = loss_gradient(sp, np.zeros(prob.d))
    nu1 = 1.5 * np.max(np.abs(g0))
    prob2 = CompositeProblem(prob.data, prob.loss, Regularizer(nu1=nu1, nu2=0.1))
    sp2 = SmoothedProblem(prob2, 0.1)
    x0 = 0.01 * rng.normal(size=prob.d)
    run = run_solver(GD, sp2, x0, 50)
    assert np.array_equal(run.x, np.zeros(prob.d))


def test_apg_beats_prox_gd_on_quadratic():
    # anisotropic quadratic-branch instance: the slow mode sits near the
    # strong-convexity modulus, which is where momentum pays off
    prob = _problem([[1.0, 0.0], [0.0, 0.1]], [0.05, 0.004], ABSOLUTE, nu2=0.001)
    sp = SmoothedProblem(prob, 2.0)
    x0 = np.array([0.3, 0.3])
    x_star = run_solver(APG, sp, x0, 30_000).x
    f_star = objective_smoothed(sp, x_star)

    def first_hit(spec, tol=1e-10):
        return _first_hit(spec, sp, x0, 20_000, 5,
                          lambda x: objective_smoothed(sp, x) - f_star <= tol)

    t_apg = first_hit(APG)
    t_gd = first_hit(GD)
    assert t_apg < t_gd


def test_apg_equals_prox_gd_when_kappa_one():
    # mu_eff = L makes the momentum coefficient vanish
    prob = quad_problem(nu2=0.5)
    sp = SmoothedProblem(prob, 2.0)
    L = 0.5
    a = run_solver(APG, sp, np.array([0.3]), 25, mu_eff=L)
    b = run_solver(GD, sp, np.array([0.3]), 25)
    assert np.array_equal(a.x, b.x)


def test_apg_no_worse_than_prox_gd_on_random_instances():
    for seed in range(5):
        prob = _random_strongly_convex(seed)
        sp = SmoothedProblem(prob, 0.05)
        x0 = np.zeros(prob.d)
        for budget in (20, 60):
            fa = objective_smoothed(sp, run_solver(APG, sp, x0, budget).x)
            fg = objective_smoothed(sp, run_solver(GD, sp, x0, budget).x)
            assert fa <= fg + 1e-12


def test_svrg_estimate_equals_full_gradient_at_snapshot():
    prob = _random_strongly_convex(3)
    sp = SmoothedProblem(prob, 0.1)
    rng = np.random.default_rng(0)
    x = rng.normal(size=prob.d)
    full, weights = loss_gradient(sp, x, with_weights=True)
    from cnsopt.smoothing import vr_gradient_kernel

    for i in range(5):
        batch = np.array([i, i + 1])
        rows, c = prob.features[batch], prob.offsets[batch]
        est = vr_gradient_kernel(rows, c, prob.loss, sp.gamma, x, weights[batch], full)
        assert np.allclose(est, full, atol=1e-15)


def test_svrg_estimator_is_unbiased_by_enumeration():
    prob = _random_strongly_convex(4, n=30)
    sp = SmoothedProblem(prob, 0.1)
    rng = np.random.default_rng(1)
    x = rng.normal(size=prob.d)
    snap = rng.normal(size=prob.d)
    full_at_snap, snap_weights = loss_gradient(sp, snap, with_weights=True)
    from cnsopt.smoothing import vr_gradient_kernel

    acc = np.zeros(prob.d)
    for i in range(prob.n):
        batch = np.array([i])
        rows, c = prob.features[batch], prob.offsets[batch]
        acc += vr_gradient_kernel(rows, c, prob.loss, sp.gamma, x, snap_weights[batch],
                                  full_at_snap)
    mean_est = acc / prob.n
    assert np.max(np.abs(mean_est - loss_gradient(sp, x))) < 1e-10


@pytest.mark.parametrize("solver", ("prox-svrg", "acc-prox-svrg"))
def test_stochastic_solvers_bit_deterministic(solver):
    prob = _random_strongly_convex(5)
    sp = SmoothedProblem(prob, 0.05)
    spec = SolverSpec(solver=solver, seed=123)
    a = run_solver(spec, sp, np.zeros(prob.d), 73)
    b = run_solver(spec, sp, np.zeros(prob.d), 73)
    assert np.array_equal(a.x, b.x)
    assert a.iterations == b.iterations == 73


def test_acc_svrg_reaches_tolerance_faster_than_svrg():
    # median-over-seeds comparison of inner iterations to 1e-6 relative error
    wins = []
    for seed in range(10):
        prob = _random_strongly_convex(seed, n=200, d=10, nu2=0.1)
        sp = SmoothedProblem(prob, 0.05)
        x0 = np.zeros(prob.d)
        star = objective_smoothed(sp, run_solver(APG, sp, x0, 8000).x)
        init_gap = objective_smoothed(sp, x0) - star
        target = star + 1e-6 * init_gap

        def first_hit(spec):
            # a seeded run's first t iterates do not depend on its budget, so
            # checking one long run every 25 steps finds the first budget in
            # 25, 50, ..., 1500 whose run reaches the target
            return _first_hit(spec, sp, x0, 1500, 25, lambda x: objective_smoothed(sp, x) <= target,
                              rng=np.random.default_rng(seed + 1000))

        t_plain = first_hit(SolverSpec(solver="prox-svrg", batch_size=20))
        t_acc = first_hit(SolverSpec(solver="acc-prox-svrg", batch_size=20))
        wins.append(t_acc < t_plain)
    assert np.median(wins) == 1.0


def test_solvers_monotone_in_expectation():
    # median final objective over 10 seeds no worse than the start
    for spec in (SolverSpec(solver="prox-svrg"), SolverSpec(solver="acc-prox-svrg")):
        prob = _random_strongly_convex(0, n=120)
        sp = SmoothedProblem(prob, 0.05)
        x0 = np.zeros(prob.d)
        start = objective_smoothed(sp, x0)
        finals = []
        for seed in range(10):
            run = run_solver(spec, sp, x0, 100, rng=np.random.default_rng(seed))
            finals.append(objective_smoothed(sp, run.x))
        assert np.median(finals) <= start


def test_solver_outputs_finite_and_right_dimension():
    prob = _random_strongly_convex(9)
    sp = SmoothedProblem(prob, 0.02, lam=1e-4)
    for spec in (
        SolverSpec(solver="prox-gd"),
        SolverSpec(solver="apg"),
        SolverSpec(solver="prox-svrg"),
        SolverSpec(solver="acc-prox-svrg"),
    ):
        run = run_solver(spec, sp, np.zeros(prob.d), 50, mu_eff=prob.mu + sp.lam)
        assert run.x.shape == (prob.d,)
        assert np.isfinite(run.x).all()
        assert run.iterations == 50


def test_divergence_detection():
    # a non-finite start propagates through the first step and is caught
    prob = quad_problem()
    sp = SmoothedProblem(prob, 2.0)
    with pytest.raises(DivergenceError):
        run_solver(GD, sp, np.array([np.inf]), 50)


def test_nan_gradient_raises_divergence_at_its_iteration(monkeypatch):
    # the l1 prox passes NaN on, so a NaN gradient cannot vanish into a zero
    from cnsopt import smoothing
    prob = _random_strongly_convex(0)
    sp = SmoothedProblem(prob, 0.1)
    real, calls = smoothing.loss_gradient, []

    def nan_on_third(sp_, x):
        calls.append(1)
        g = real(sp_, x)
        return np.full_like(g, np.nan) if len(calls) == 3 else g

    monkeypatch.setattr(smoothing, "loss_gradient", nan_on_third)
    with pytest.raises(DivergenceError, match="inner iteration 3$"):
        run_solver(GD, sp, np.zeros(prob.d), 10)


def test_epoch_draws_keep_a_shared_rng_in_step(monkeypatch):
    # m = ceil(60 / 8) = 8; budgets 7 then 13 end mid-epoch, so the draws are
    # capped at the budget left: 7, then 8 and 5
    from cnsopt import datasets
    prob = _random_strongly_convex(1, n=60)
    sp = SmoothedProblem(prob, 0.1)
    spec = SolverSpec(solver="acc-prox-svrg", batch_size=8)
    real, drawn = datasets.sample_minibatch, []

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        drawn.append(out)
        return out

    monkeypatch.setattr(datasets, "sample_minibatch", recording)
    rng = np.random.default_rng(4)
    first = run_solver(spec, sp, np.zeros(prob.d), 7, rng=rng)
    run_solver(spec, sp, first.x, 13, rng=rng)
    assert [len(batches) for batches in drawn] == [7, 8, 5]
    ref = np.random.default_rng(4)
    singles = [ref.integers(0, 60, size=8) for _ in range(20)]
    assert np.array_equal(np.concatenate(drawn), singles)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("every", (None, 0, -2))
def test_a_callback_needs_a_positive_callback_every(every):
    prob = quad_problem()
    sp = SmoothedProblem(prob, 2.0)
    with pytest.raises(ValueError, match=f"callback_every >= 1, got {every}"):
        run_solver(GD, sp, np.zeros(1), 5, callback=lambda t, x, e: None,
                   callback_every=every)


def test_saga_miso_not_runnable():
    # budget rows only: a SolverSpec naming either fails at construction
    for solver in ("saga", "miso"):
        with pytest.raises(ValueError, match=f"unknown solver '{solver}'"):
            SolverSpec(solver=solver)


# --- budget calculator ---------------------------------------------------


def test_required_t1_prox_gd_example():
    assert required_t1("prox-gd", 10, 0.25) == 56


def test_required_t1_saga_example():
    assert required_t1("saga", 100, 0.5, n=100) == 2400


def test_required_t1_miso_example():
    assert required_t1("miso", 10, 0.5, n=100) == 2000


def test_required_t1_matches_direct_formulas():
    # independent oracle: the budget column expressions evaluated literally
    rng = np.random.default_rng(13)
    for _ in range(20):
        kappa = rng.uniform(1.0, 1e4)
        n = int(rng.integers(10, 10_000))
        rho = rng.uniform(0.3, 0.95)
        theta = rng.uniform(0.01, rho / (4.0 * (1.0 + rho)) * 0.95)
        p_hi = min(0.5, rho / 3.0)
        p = rng.uniform(0.01, p_hi)
        while p * (2 + p) / (1 - p) >= rho:
            p *= 0.5
        expected = {
            "prox-gd": 4 * kappa * math.log(1 / rho),
            "prox-svrg": theta / ((1 - 4 * theta) * rho - 4 * theta) * (kappa + 4),
            "saga": (3 * n / rho) * (3 * kappa / n + 1),
            "miso": n * kappa / rho,
            "apg": math.sqrt(kappa) * math.log(2 / rho),
            "acc-prox-svrg": math.sqrt(kappa)
            * math.sqrt(2)
            / (1 - p)
            * math.log(1 / (rho / (2 + p) - p / (1 - p))),
        }
        for solver, value in expected.items():
            got = required_t1(solver, kappa, rho, n=n, theta=theta, p=p)
            assert got == math.ceil(value), solver


def test_required_t1_constraint_violations():
    with pytest.raises(InfeasibleBudgetError):
        required_t1("prox-svrg", 10, 0.25, theta=0.1)
    with pytest.raises(InfeasibleBudgetError):
        required_t1("acc-prox-svrg", 10, 0.25, p=0.5)
    with pytest.raises(ValueError):
        required_t1("prox-gd", 10, 1.5)
    with pytest.raises(ValueError):
        required_t1("saga", 10, 0.5)  # needs n


def test_required_t1_monotonicity():
    rng = np.random.default_rng(14)
    for solver, kwargs in (
        ("prox-gd", {}),
        ("apg", {}),
        ("prox-svrg", {"theta": 0.02}),
        ("acc-prox-svrg", {"p": 0.05}),
        ("saga", {"n": 500}),
        ("miso", {"n": 500}),
    ):
        kappas = np.sort(rng.uniform(1, 1e4, size=8))
        rhos = np.sort(rng.uniform(0.5, 0.95, size=8))
        t_by_kappa = [required_t1(solver, k, 0.7, **kwargs) for k in kappas]
        assert all(a <= b for a, b in zip(t_by_kappa, t_by_kappa[1:]))
        t_by_rho = [required_t1(solver, 100.0, r, **kwargs) for r in rhos]
        assert all(a >= b for a, b in zip(t_by_rho, t_by_rho[1:]))


def test_solver_spec_validation():
    with pytest.raises(ValueError):
        SolverSpec(solver="nope")
    with pytest.raises(ValueError):
        SolverSpec(theta=0.3)
    with pytest.raises(ValueError):
        SolverSpec(batch_size=0)
    spec = SolverSpec(solver="acc-prox-svrg")
    assert spec.accelerated and spec.family == "accelerated"
    assert not SolverSpec(solver="prox-gd").accelerated


def test_trace_recording():
    prob = _random_strongly_convex(2)
    sp = SmoothedProblem(prob, 0.1)
    trace = []
    run_solver(GD, sp, np.zeros(prob.d), 25,
               callback=lambda t, x, e: trace.append((t, e, objective_smoothed(sp, x))),
               callback_every=10)
    assert [t for t, _, _ in trace] == [10, 20]
    elapsed = [e for _, e, _ in trace]
    assert all(a <= b for a, b in zip(elapsed, elapsed[1:]))
    objectives = [o for _, _, o in trace]
    assert objectives[-1] <= objectives[0]
