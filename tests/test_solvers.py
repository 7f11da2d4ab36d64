import math
import sys

import numpy as np
import pytest

from cnsopt import (
    ABSOLUTE,
    HINGE,
    BaselineSpec,
    CompositeProblem,
    DivergenceError,
    InfeasibleBudgetError,
    Regularizer,
    SmoothedProblem,
    loss_gradient,
    objective_smoothed,
    required_t1,
    run_baseline,
    run_solver,
)
from cnsopt.smoothing import GRAM_MARGIN, kernel_scalars
from cnsopt.solvers import SolverSpec

from tests.conftest import problem_from_rows, random_problem

GD = SolverSpec(solver="prox-gd")
APG = SolverSpec(solver="apg")


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
    return problem_from_rows([[1.0], [0.5]], [0.1, 0.05], ABSOLUTE, nu2=nu2)


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
    L = np.mean(z**2) / gamma  # lambda_max(Z'Z / n) / gamma of one column
    eta = 1.0 / L
    x = 0.3
    for _ in range(budget):
        g = np.mean(-(y - z * x) / gamma * z)
        x = (x - eta * g) / (1.0 + eta * prob.reg.nu2)
    assert run.x[0] == pytest.approx(x, abs=1e-14)


def test_prox_gd_steps_by_the_spectral_bound_on_two_columns():
    # three steps on two columns, checked against the recursion unrolled by
    # hand at step 1/L with the spectral L = lambda_max(Z'Z / n) / gamma;
    # the columns' curvatures differ, so no step lands on the fixed point and
    # the iterate after three steps moves with the step length
    rows = np.array([[1.0, 0.2], [0.5, -1.0], [0.0, 0.4]])
    y = np.array([0.3, -0.2, 0.1])
    gamma, nu2, n = 2.0, 0.1, 3
    prob = problem_from_rows(rows, y, ABSOLUTE, nu2=nu2)
    x0 = np.array([0.4, 0.5])
    run = run_solver(GD, SmoothedProblem(prob, gamma), x0, 3)

    # Z'Z / n = [[a, b], [b, c]], whose top eigenvalue is closed form
    a = (1.0 + 0.25 + 0.0) / n
    b = (0.2 - 0.5 + 0.0) / n
    c = (0.04 + 1.0 + 0.16) / n
    top = (a + c) / 2.0 + math.sqrt(((a - c) / 2.0) ** 2 + b * b)
    eta = gamma / (top * (1.0 + GRAM_MARGIN))
    x = x0
    for _ in range(3):
        residual = y - rows @ x
        assert np.all(np.abs(residual) < gamma)  # the quadratic branch
        g = -(rows.T @ residual) / (n * gamma)
        x = (x - eta * g) / (1.0 + eta * nu2)
    assert run.x == pytest.approx(x, abs=1e-13)
    assert np.abs(run.x - run_solver(GD, SmoothedProblem(prob, gamma), x0, 4).x).min() > 1e-3


def test_prox_gd_contraction_rate():
    prob = quad_problem()
    sp = SmoothedProblem(prob, 2.0)
    L = 0.625 / 2.0  # lambda_max(Z'Z / n) / gamma, Z'Z / n = (1 + 0.25) / 2
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
    prob = random_problem(8, HINGE, 100, 10, nu1=0.0, nu2=0.1, unit_rows=True)
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
    prob = problem_from_rows([[1.0, 0.0], [0.0, 0.1]], [0.05, 0.004], ABSOLUTE, nu2=0.001)
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
    # the stage modulus nu2 = 0.5 is above L = 0.3125, so the momentum
    # coefficient vanishes
    prob = quad_problem(nu2=0.5)
    sp = SmoothedProblem(prob, 2.0)
    a = run_solver(APG, sp, np.array([0.3]), 25)
    b = run_solver(GD, sp, np.array([0.3]), 25)
    assert np.array_equal(a.x, b.x)


def test_apg_no_worse_than_prox_gd_on_random_instances():
    for seed in range(5):
        prob = random_problem(seed, HINGE, 100, 10, nu1=0.01, nu2=0.1, unit_rows=True)
        sp = SmoothedProblem(prob, 0.05)
        x0 = np.zeros(prob.d)
        for budget in (20, 60):
            fa = objective_smoothed(sp, run_solver(APG, sp, x0, budget).x)
            fg = objective_smoothed(sp, run_solver(GD, sp, x0, budget).x)
            assert fa <= fg + 1e-12


def test_svrg_estimate_equals_full_gradient_at_snapshot():
    prob = random_problem(3, HINGE, 100, 10, nu1=0.01, nu2=0.1, unit_rows=True)
    sp = SmoothedProblem(prob, 0.1)
    rng = np.random.default_rng(0)
    x = rng.normal(size=prob.d)
    full, weights = loss_gradient(sp, x, with_weights=True)
    from cnsopt.smoothing import vr_gradient_kernel

    for i in range(5):
        batch = np.array([i, i + 1])
        rows, c = prob.features[batch], prob.offsets[batch]
        scalars = kernel_scalars(prob.loss, sp.gamma, len(c))
        est = vr_gradient_kernel(rows, c, scalars, x, weights[batch], full)
        assert np.allclose(est, full, atol=1e-15)


def test_svrg_estimator_is_unbiased_by_enumeration():
    prob = random_problem(4, HINGE, 30, 10, nu1=0.01, nu2=0.1, unit_rows=True)
    sp = SmoothedProblem(prob, 0.1)
    rng = np.random.default_rng(1)
    x = rng.normal(size=prob.d)
    snap = rng.normal(size=prob.d)
    full_at_snap, snap_weights = loss_gradient(sp, snap, with_weights=True)
    from cnsopt.smoothing import vr_gradient_kernel

    acc = np.zeros(prob.d)
    scalars = kernel_scalars(prob.loss, sp.gamma, 1)
    for i in range(prob.n):
        batch = np.array([i])
        rows, c = prob.features[batch], prob.offsets[batch]
        acc += vr_gradient_kernel(rows, c, scalars, x, snap_weights[batch], full_at_snap)
    mean_est = acc / prob.n
    assert np.max(np.abs(mean_est - loss_gradient(sp, x))) < 1e-10


@pytest.mark.parametrize("solver", ("prox-svrg", "acc-prox-svrg"))
def test_stochastic_solvers_bit_deterministic(solver):
    prob = random_problem(5, HINGE, 100, 10, nu1=0.01, nu2=0.1, unit_rows=True)
    sp = SmoothedProblem(prob, 0.05)
    spec = SolverSpec(solver=solver, seed=123)
    a = run_solver(spec, sp, np.zeros(prob.d), 73)
    b = run_solver(spec, sp, np.zeros(prob.d), 73)
    assert np.array_equal(a.x, b.x)


def test_acc_svrg_reaches_tolerance_faster_than_svrg():
    # median-over-seeds comparison of inner iterations to 1e-6 relative error
    wins = []
    for seed in range(10):
        prob = random_problem(seed, HINGE, 200, 10, nu1=0.01, nu2=0.1, unit_rows=True)
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
        prob = random_problem(0, HINGE, 120, 10, nu1=0.01, nu2=0.1, unit_rows=True)
        sp = SmoothedProblem(prob, 0.05)
        x0 = np.zeros(prob.d)
        start = objective_smoothed(sp, x0)
        finals = []
        for seed in range(10):
            run = run_solver(spec, sp, x0, 100, rng=np.random.default_rng(seed))
            finals.append(objective_smoothed(sp, run.x))
        assert np.median(finals) <= start


def test_solver_outputs_finite_and_right_dimension():
    prob = random_problem(9, HINGE, 100, 10, nu1=0.01, nu2=0.1, unit_rows=True)
    sp = SmoothedProblem(prob, 0.02, lam=1e-4)
    for spec in (
        SolverSpec(solver="prox-gd"),
        SolverSpec(solver="apg"),
        SolverSpec(solver="prox-svrg"),
        SolverSpec(solver="acc-prox-svrg"),
    ):
        run = run_solver(spec, sp, np.zeros(prob.d), 50)
        assert run.x.shape == (prob.d,)
        assert np.isfinite(run.x).all()


def test_only_full_gradient_steps_compute_the_spectral_bound():
    prob = random_problem(10, HINGE, 100, 10, nu1=0.01, nu2=0.1, unit_rows=True)
    sp = SmoothedProblem(prob, 0.02)
    for spec in (SolverSpec(solver="prox-svrg"), SolverSpec(solver="acc-prox-svrg")):
        run_solver(spec, sp, np.zeros(prob.d), 20)
    run_baseline(prob, BaselineSpec(method="fobos"), 20)
    assert "gram_norm" not in vars(prob)
    run_solver(APG, sp, np.zeros(prob.d), 1)
    assert vars(prob)["gram_norm"] < prob.max_row_sq_norm


def test_divergence_detection():
    # a non-finite start propagates through the first step and is caught
    prob = quad_problem()
    sp = SmoothedProblem(prob, 2.0)
    with pytest.raises(DivergenceError):
        run_solver(GD, sp, np.array([np.inf]), 50)


def test_nan_gradient_raises_divergence_at_its_iteration(monkeypatch):
    # the l1 prox passes NaN on, so a NaN gradient cannot vanish into a zero
    from cnsopt import smoothing
    prob = random_problem(0, HINGE, 100, 10, nu1=0.01, nu2=0.1, unit_rows=True)
    sp = SmoothedProblem(prob, 0.1)
    real, calls = smoothing.loss_gradient, []

    def nan_on_third(sp_, x, *args):
        calls.append(1)
        g = real(sp_, x, *args)
        return np.full_like(g, np.nan) if len(calls) == 3 else g

    monkeypatch.setattr(smoothing, "loss_gradient", nan_on_third)
    with pytest.raises(DivergenceError, match="inner iteration 3$"):
        run_solver(GD, sp, np.zeros(prob.d), 10)


def test_epoch_draws_keep_a_shared_rng_in_step(monkeypatch):
    # m = ceil(60 / 8) = 8; budgets 7 then 13 end mid-epoch, and a draw block
    # holds 128 epochs, so each run draws once, capped at the budget left
    from cnsopt import datasets
    prob = random_problem(1, HINGE, 60, 10, nu1=0.01, nu2=0.1, unit_rows=True)
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
    assert [len(batches) for batches in drawn] == [7, 13]
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


def test_required_t1_constraint_violations():
    with pytest.raises(InfeasibleBudgetError):
        required_t1("prox-svrg", 10, 0.25, theta=0.1)
    with pytest.raises(InfeasibleBudgetError):
        required_t1("acc-prox-svrg", 10, 0.25, p=0.5)
    with pytest.raises(ValueError):
        required_t1("prox-gd", 10, 1.5)
    with pytest.raises(ValueError):
        required_t1("saga", 10, 0.5)  # needs n
    with pytest.raises(ValueError, match="miso budget needs the sample count n"):
        required_t1("miso", 10, 0.5)
    for kappa in (0.0, -1.0):
        with pytest.raises(ValueError, match="kappa must be positive"):
            required_t1("prox-gd", kappa, 0.5)
    for theta in (0.0, 0.25):
        with pytest.raises(ValueError, match=r"theta must be in \(0, 0.25\)"):
            required_t1("prox-svrg", 10, 0.5, theta=theta)
    for p in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"p must be in \(0, 1\)"):
            required_t1("acc-prox-svrg", 10, 0.5, p=p)
    with pytest.raises(ValueError, match="unknown solver 'nope'"):
        required_t1("nope", 10, 0.5)


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
    for value in (0.0, -1.0):
        with pytest.raises(ValueError, match="step_scale must be positive"):
            SolverSpec(step_scale=value)
    spec = SolverSpec(solver="acc-prox-svrg")
    assert spec.accelerated
    assert not SolverSpec(solver="prox-gd").accelerated
    # a NaN step scale once ran, and was reported as a divergence
    for field in ("theta", "step_scale"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                SolverSpec(**{field: value})


def test_trace_recording():
    prob = random_problem(2, HINGE, 100, 10, nu1=0.01, nu2=0.1, unit_rows=True)
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


# the step kernels the benchmark's span tracer wraps, by defining module
_TRACED_KERNELS = (("cnsopt.smoothing", "loss_gradient"),
                   ("cnsopt.smoothing", "vr_gradient_kernel"),
                   ("cnsopt.prox", "prox_regularizer"),
                   ("cnsopt.baselines", "loss_subgradient"),
                   ("cnsopt.datasets", "sample_minibatch"))


def _count_kernel_calls(monkeypatch):
    """Wrap each traced kernel in every cnsopt namespace that holds it, the
    defining module and any that imported it by name, as the span tracer
    does; return the calls made through the wrappers, by function name."""
    counts = dict.fromkeys((name for _, name in _TRACED_KERNELS), 0)
    modules = [m for key, m in list(sys.modules.items())
               if key == "cnsopt" or key.startswith("cnsopt.")]
    for module_name, name in _TRACED_KERNELS:
        original = getattr(sys.modules[module_name], name)

        def counted(*args, _fn=original, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return counts


@pytest.mark.parametrize("method", ("prox-gd", "apg", "prox-svrg", "acc-prox-svrg",
                                    "fobos", "rda", "poly-sgd"))
def test_step_kernels_are_called_through_their_module_globals(monkeypatch, method):
    # the tracer counts a kernel only when a step calls it by its module
    # global: once per step, the full pass once per snapshot (variance
    # reduced) or per step (full gradient), one draw per block of epochs;
    # n = 60 rows in batches of 8 make epochs of 8 steps, so 23 steps take 3
    # epochs and one draw (a block holds 128 epochs)
    prob = random_problem(2, HINGE, 60, 10, nu1=0.01, nu2=0.1, unit_rows=True)
    budget, epochs, draws = 23, 3, 1
    counts = _count_kernel_calls(monkeypatch)
    expected = dict.fromkeys(counts, 0)
    if method in ("fobos", "rda", "poly-sgd"):
        spec = BaselineSpec(method=method, eta0=0.1, batch_size=8)
        run_baseline(prob, spec, budget)
        expected.update(loss_subgradient=budget, sample_minibatch=draws,
                        prox_regularizer=budget if method == "fobos" else 0)
    else:
        run_solver(SolverSpec(solver=method, batch_size=8), SmoothedProblem(prob, 0.1),
                   None, budget)
        expected["prox_regularizer"] = budget
        if method in ("prox-svrg", "acc-prox-svrg"):
            expected.update(vr_gradient_kernel=budget, loss_gradient=epochs,
                            sample_minibatch=draws)
        else:
            expected["loss_gradient"] = budget
    assert counts == expected
