import math

import numpy as np
import pytest

from cnsopt import (
    ABSOLUTE,
    HINGE,
    BudgetEstimationError,
    CompositeProblem,
    ContinuationConfig,
    Regularizer,
    SmoothedProblem,
    SparseDataset,
    StageConvergedError,
    SyntheticSpec,
    WrongDriverError,
    auto_t1,
    cns_general_convex,
    cns_strongly_convex,
    dual_spec,
    make_synthetic,
    measure_stage_reduction,
    objective_original,
    objective_smoothed,
    run_solver,
    smoothing_gap,
    stage_budget,
)
from cnsopt.continuation import OPTION_I, OPTION_II
from cnsopt.solvers import SolverSpec


def _suite(seed=0, nu1=0.01, nu2=0.05, n=200, d=12):
    spec = SyntheticSpec(n=n, d=d, task="classification", noise=0.2, separation=1.2,
                         seed=seed)
    data, _ = make_synthetic(spec)
    return CompositeProblem(data, HINGE, Regularizer(nu1=nu1, nu2=nu2))


def _reg_suite(seed=0, nu1=0.01):
    spec = SyntheticSpec(n=200, d=12, task="regression", noise=0.1, seed=seed)
    data, _ = make_synthetic(spec)
    return CompositeProblem(data, ABSOLUTE, Regularizer(nu1=nu1))


def test_strongly_convex_schedule_option_one():
    prob = _suite()
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, t1=100, stages=3,
                             solver=SolverSpec(solver="prox-gd"), budget_option=OPTION_I)
    _, reports = cns_strongly_convex(prob, cfg)
    assert [(r.gamma, r.budget) for r in reports] == [
        (0.01, 100), (0.005, 200), (0.0025, 400)]
    assert all(r.lam == 0.0 for r in reports)


def test_strongly_convex_schedule_option_two_rounding():
    prob = _suite()
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, t1=100, stages=3,
                             solver=SolverSpec(solver="apg"), budget_option=OPTION_II)
    _, reports = cns_strongly_convex(prob, cfg)
    assert [r.budget for r in reports] == [100, 142, 200]


def test_general_convex_schedule_option_two():
    prob = _reg_suite()
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, t1=50, lam1=1e-5, stages=3,
                             solver=SolverSpec(solver="acc-prox-svrg"),
                             budget_option=OPTION_II)
    _, reports = cns_general_convex(prob, cfg)
    assert [(r.lam, r.budget) for r in reports] == [
        (1e-5, 50), (5e-6, 100), (2.5e-6, 200)]


def test_general_convex_schedule_option_one():
    prob = _reg_suite()
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, t1=50, lam1=1e-5, stages=3,
                             solver=SolverSpec(solver="prox-svrg", theta=0.04),
                             budget_option=OPTION_I)
    _, reports = cns_general_convex(prob, cfg)
    assert [r.budget for r in reports] == [50, 200, 800]


def test_schedule_exactness_floating_point():
    prob = _suite()
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, t1=5, stages=7,
                             solver=SolverSpec(solver="prox-gd"), budget_option=OPTION_I)
    _, reports = cns_strongly_convex(prob, cfg)
    for r in reports:
        assert r.gamma == 0.01 / 2.0 ** (r.s - 1)


def test_total_budget_geometric_identity():
    # ceil(t1 * g^(s-1)) summed matches the closed form when powers are exact
    t1, tau = 7, 2.0
    budgets = [stage_budget(t1, tau, 1.0, s) for s in range(1, 9)]
    assert sum(budgets) == t1 * (2**8 - 1)
    budgets_sq = [stage_budget(t1, tau, 2.0, s) for s in range(1, 6)]
    assert sum(budgets_sq) == t1 * (4**5 - 1) // 3


def test_stage_budget_guard_against_pow_overshoot():
    # tau**0.5 squared overshoots 2.0 by an ulp; the guard keeps ceilings exact
    assert stage_budget(100, 2.0, 0.5, 3) == 200
    assert stage_budget(100, 2.0, 0.5, 2) == 142


def test_single_stage_equals_direct_solver_call():
    prob = _suite()
    spec = SolverSpec(solver="prox-svrg", seed=5)
    cfg = ContinuationConfig(gamma1=0.02, tau=2.0, t1=40, stages=1,
                             solver=spec, budget_option=OPTION_I)
    x, reports = cns_strongly_convex(prob, cfg)
    sp = SmoothedProblem(prob, 0.02)
    direct = run_solver(spec, sp, np.zeros(prob.d), 40, mu_eff=prob.mu,
                        rng=np.random.default_rng(5))
    assert np.array_equal(x, direct.x)
    assert len(reports) == 1


def test_warm_start_chains_stages():
    prob = _suite()
    spec = SolverSpec(solver="prox-gd")
    cfg = ContinuationConfig(gamma1=0.02, tau=2.0, t1=30, stages=3,
                             solver=spec, budget_option=OPTION_I)
    x, reports = cns_strongly_convex(prob, cfg)

    # replay stage by stage: each stage must start from the previous output
    x_manual = np.zeros(prob.d)
    for s, budget in ((1, 30), (2, 60), (3, 120)):
        sp = SmoothedProblem(prob, 0.02 / 2 ** (s - 1))
        before = objective_smoothed(sp, x_manual)
        assert before == pytest.approx(reports[s - 1].smoothed_before, abs=1e-14)
        x_manual = run_solver(spec, sp, x_manual, budget, mu_eff=prob.mu).x
    assert np.array_equal(x, x_manual)


def test_wrong_driver_errors():
    sc = _suite()
    gc = _reg_suite()
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, t1=10, stages=2,
                             solver=SolverSpec(solver="prox-gd"), budget_option=OPTION_I)
    with pytest.raises(WrongDriverError):
        cns_strongly_convex(gc, cfg)  # mu = 0
    with pytest.raises(WrongDriverError):
        cns_general_convex(sc, cfg)  # lam1 = 0
    bad = ContinuationConfig(gamma1=0.01, tau=2.0, t1=10, lam1=1e-4, stages=2,
                             solver=SolverSpec(solver="prox-gd"), budget_option=OPTION_I)
    with pytest.raises(WrongDriverError):
        cns_strongly_convex(sc, bad)


def test_config_validation():
    with pytest.raises(ValueError):
        ContinuationConfig(tau=1.0)
    with pytest.raises(ValueError):
        ContinuationConfig(gamma1=0.0)
    with pytest.raises(ValueError):
        ContinuationConfig(stages=0)
    with pytest.raises(ValueError, match="auto_t1_max"):
        ContinuationConfig(auto_t1_max=0)
    with pytest.raises(ValueError):  # option/family mismatch
        ContinuationConfig(solver=SolverSpec(solver="apg"), budget_option=OPTION_I)
    with pytest.raises(ValueError):
        ContinuationConfig(solver=SolverSpec(solver="prox-gd"), budget_option=OPTION_II)


def test_fixed_smoothing_holds_schedule_constant():
    prob = _suite()
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, t1=25, stages=4, fixed_smoothing=True,
                             solver=SolverSpec(solver="prox-gd"), budget_option=OPTION_I)
    _, reports = cns_strongly_convex(prob, cfg)
    assert [(r.gamma, r.lam, r.budget) for r in reports] == [(0.01, 0.0, 25)] * 4


def test_stage_gap_bound_realized():
    # at every stage end the sandwich 0 <= P - P_smoothed <= gamma * D_u holds
    prob = _suite()
    cfg = ContinuationConfig(gamma1=0.02, tau=2.0, t1=60, stages=4,
                             solver=SolverSpec(solver="prox-gd"), budget_option=OPTION_I)
    _, reports = cns_strongly_convex(prob, cfg)
    for r in reports:
        gap = r.original_after - r.smoothed_after
        assert -1e-12 <= gap <= smoothing_gap(dual_spec(prob.loss), r.gamma) + 1e-12


def test_stage_objective_strong_convexity_secant():
    # the ridge-augmented stage objective satisfies the lam-strong secant bound
    prob = _reg_suite(nu1=0.0)
    lam = 0.37
    sp = SmoothedProblem(prob, 0.05, lam=lam)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.normal(scale=2.0, size=prob.d)
        y = rng.normal(scale=2.0, size=prob.d)
        t = rng.uniform(0.0, 1.0)
        mid = objective_smoothed(sp, t * x + (1 - t) * y)
        chord = t * objective_smoothed(sp, x) + (1 - t) * objective_smoothed(sp, y)
        slack = 0.5 * lam * t * (1 - t) * float((x - y) @ (x - y))
        assert mid <= chord - slack + 1e-10


def test_auto_t1_probe_size():
    # ceil(n / batch): 1000 samples at batch 50 probes 20 first
    prob = _suite(n=1000, d=10, nu1=0.002, nu2=0.05)
    cfg = ContinuationConfig(gamma1=2.0, tau=2.0, stages=1,
                             solver=SolverSpec(solver="prox-gd", batch_size=50),
                             budget_option=OPTION_I)
    assert math.ceil(prob.n / cfg.solver.batch_size) == 20
    t1 = auto_t1(prob, cfg)
    assert t1 % 20 == 0 and t1 >= 20


def test_auto_t1_trivial_when_start_is_optimal():
    # zero-loss start on a separable instance with no regularizer
    spec = SyntheticSpec(n=100, d=8, task="classification", noise=0.0, seed=4)
    data, ref = make_synthetic(spec)
    prob = CompositeProblem(data, HINGE, Regularizer())
    margins = data.labels * (data.features @ ref.w_true)
    x0 = (1.01 / margins.min()) * ref.w_true
    cfg = ContinuationConfig(gamma1=1e-4, tau=2.0, stages=1, x0=x0,
                             solver=SolverSpec(solver="prox-gd", batch_size=50),
                             budget_option=OPTION_I)
    assert auto_t1(prob, cfg) == math.ceil(prob.n / 50)


def test_auto_t1_cap_error():
    # an optimum above the stage-1 target can never satisfy the test
    prob = _suite(nu1=0.5, nu2=0.5)  # heavy regularization keeps the objective high
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, stages=1, auto_t1_max=64,
                             solver=SolverSpec(solver="prox-gd"), budget_option=OPTION_I)
    with pytest.raises(BudgetEstimationError):
        auto_t1(prob, cfg)


def test_auto_t1_cap_below_the_first_probe():
    # the first probe, ceil(200 / 10) = 20 steps, is already above the cap
    prob = _suite()
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, stages=1, auto_t1_max=5,
                             solver=SolverSpec(solver="prox-gd", batch_size=10),
                             budget_option=OPTION_I)
    with pytest.raises(BudgetEstimationError, match=r"cap 5 .* = 20$"):
        auto_t1(prob, cfg)


def test_auto_t1_satisfies_reduction_against_oracle():
    prob = _suite(n=400, d=10, nu1=0.005, nu2=0.1)
    cfg = ContinuationConfig(gamma1=0.5, tau=2.0, stages=1,
                             solver=SolverSpec(solver="prox-gd", batch_size=50),
                             budget_option=OPTION_I)
    t1 = auto_t1(prob, cfg)
    sp1 = SmoothedProblem(prob, 0.5)
    x0 = np.zeros(prob.d)
    run = run_solver(cfg.solver, sp1, x0, t1, mu_eff=prob.mu)
    rho1 = measure_stage_reduction(sp1, x0, run.x, oracle_budget=8000)
    assert rho1 <= 1.0 / cfg.tau**2 + 1e-6


def test_measure_stage_reduction_extremes():
    prob = _suite()
    sp = SmoothedProblem(prob, 0.05)
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=prob.d)
    assert measure_stage_reduction(sp, x0, x0, 4000) == pytest.approx(1.0, abs=1e-9)
    star = run_solver(SolverSpec(solver="apg"), sp, x0, 8000, mu_eff=prob.mu).x
    assert measure_stage_reduction(sp, x0, star, 8000) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(StageConvergedError):
        measure_stage_reduction(sp, star, star, 4000)


def test_measured_rho_with_table_budget():
    # deterministic stage run with the tabulated budget meets its target rate
    from cnsopt import condition_number, required_t1

    prob = _suite(n=300, d=10, nu1=0.0, nu2=0.2)
    tau = 2.0
    sp = SmoothedProblem(prob, 0.05)
    kappa = condition_number(sp, prob.mu)
    budget = required_t1("prox-gd", kappa, 1.0 / tau**2)
    x0 = np.zeros(prob.d)
    run = run_solver(SolverSpec(solver="prox-gd"), sp, x0, budget, mu_eff=prob.mu)
    rho = measure_stage_reduction(sp, x0, run.x, oracle_budget=10_000)
    assert rho <= 1.0 / tau**2 + 0.05


def test_divergence_carries_stage_index():
    from cnsopt import DivergenceError

    prob = _suite()
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, t1=5, stages=2,
                             x0=np.full(prob.d, np.inf),
                             solver=SolverSpec(solver="prox-gd"), budget_option=OPTION_I)
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError, match="stage 1"):
            cns_strongly_convex(prob, cfg)


def test_driver_callback_counts_cumulative_iterations():
    prob = _suite()
    seen = []
    cfg = ContinuationConfig(gamma1=0.02, tau=2.0, t1=10, stages=3,
                             solver=SolverSpec(solver="prox-gd"), budget_option=OPTION_I)
    cns_strongly_convex(prob, cfg, callback=lambda t, x, e, s: seen.append((t, s)),
                        callback_every=10)
    assert seen == [(10, 1), (20, 2), (30, 2), (40, 3), (50, 3), (60, 3), (70, 3)]
