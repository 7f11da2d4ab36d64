import math
import re
import time

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
    stage_budget,
)
from cnsopt import continuation
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
                             solver=SolverSpec(solver="prox-gd"))
    _, reports = cns_strongly_convex(prob, cfg)
    assert [(r.gamma, r.budget) for r in reports] == [
        (0.01, 100), (0.005, 200), (0.0025, 400)]
    assert all(r.lam == 0.0 for r in reports)


def test_strongly_convex_schedule_option_two_rounding():
    prob = _suite()
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, t1=100, stages=3,
                             solver=SolverSpec(solver="apg"))
    _, reports = cns_strongly_convex(prob, cfg)
    assert [r.budget for r in reports] == [100, 142, 200]


def test_general_convex_schedule_option_two():
    prob = _reg_suite()
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, t1=50, lam1=1e-5, stages=3,
                             solver=SolverSpec(solver="acc-prox-svrg"))
    _, reports = cns_general_convex(prob, cfg)
    assert [(r.lam, r.budget) for r in reports] == [
        (1e-5, 50), (5e-6, 100), (2.5e-6, 200)]


def test_general_convex_schedule_option_one():
    prob = _reg_suite()
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, t1=50, lam1=1e-5, stages=3,
                             solver=SolverSpec(solver="prox-svrg", theta=0.04))
    _, reports = cns_general_convex(prob, cfg)
    assert [r.budget for r in reports] == [50, 200, 800]


def test_schedule_exactness_floating_point():
    prob = _suite()
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, t1=5, stages=7,
                             solver=SolverSpec(solver="prox-gd"))
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
                             solver=spec)
    x, reports = cns_strongly_convex(prob, cfg)
    sp = SmoothedProblem(prob, 0.02)
    direct = run_solver(spec, sp, np.zeros(prob.d), 40, rng=np.random.default_rng(5))
    assert np.array_equal(x, direct.x)
    assert len(reports) == 1


def test_warm_start_chains_stages():
    prob = _suite()
    spec = SolverSpec(solver="prox-gd")
    cfg = ContinuationConfig(gamma1=0.02, tau=2.0, t1=30, stages=3,
                             solver=spec)
    x, reports = cns_strongly_convex(prob, cfg)

    # replay stage by stage: each stage must start from the previous output
    x_manual = np.zeros(prob.d)
    for s, budget in ((1, 30), (2, 60), (3, 120)):
        sp = SmoothedProblem(prob, 0.02 / 2 ** (s - 1))
        before = objective_smoothed(sp, x_manual)
        assert before == pytest.approx(reports[s - 1].smoothed_before, abs=1e-14)
        x_manual = run_solver(spec, sp, x_manual, budget).x
    assert np.array_equal(x, x_manual)


def test_wrong_driver_errors():
    sc = _suite()
    gc = _reg_suite()
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, t1=10, stages=2,
                             solver=SolverSpec(solver="prox-gd"))
    with pytest.raises(WrongDriverError):
        cns_strongly_convex(gc, cfg)  # mu = 0
    with pytest.raises(WrongDriverError):
        cns_general_convex(sc, cfg)  # lam1 = 0
    bad = ContinuationConfig(gamma1=0.01, tau=2.0, t1=10, lam1=1e-4, stages=2,
                             solver=SolverSpec(solver="prox-gd"))
    with pytest.raises(WrongDriverError):
        cns_strongly_convex(sc, bad)


def test_config_validation():
    # tau = 1 is fixed smoothing, which needs a t1: the automatic search's
    # 1/tau^2 cut is no cut there
    assert ContinuationConfig(tau=1.0, t1=5).tau == 1.0
    with pytest.raises(ValueError, match="tau must be >= 1"):
        ContinuationConfig(tau=0.5, t1=5)
    with pytest.raises(ValueError, match="needs a t1"):
        ContinuationConfig(tau=1.0)
    with pytest.raises(ValueError):
        ContinuationConfig(gamma1=0.0)
    with pytest.raises(ValueError):
        ContinuationConfig(stages=0)
    with pytest.raises(ValueError, match="t1 must be >= 1"):
        ContinuationConfig(t1=0)
    with pytest.raises(ValueError, match="lam1 must be nonnegative"):
        ContinuationConfig(lam1=-1e-3)
    with pytest.raises(ValueError):  # option/family mismatch
        ContinuationConfig(solver=SolverSpec(solver="apg"), budget_option=OPTION_I)
    with pytest.raises(ValueError):
        ContinuationConfig(solver=SolverSpec(solver="prox-gd"), budget_option=OPTION_II)
    with pytest.raises(ValueError, match="'III'"):
        ContinuationConfig(budget_option="III")
    # tau = inf once overflowed in stage_budget, gamma1 = inf divided by zero
    for field in ("gamma1", "tau", "lam1"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                ContinuationConfig(**{field: value})


def test_config_is_a_value():
    # the schedule alone: equal settings compare equal and hash alike
    a = ContinuationConfig(gamma1=0.05, t1=9, stages=3, solver=SolverSpec(solver="apg"))
    b = ContinuationConfig(gamma1=0.05, t1=9, stages=3, solver=SolverSpec(solver="apg"))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != ContinuationConfig(gamma1=0.05, t1=9, stages=4, solver=SolverSpec(solver="apg"))


# the paper's budget options: I pairs with the non-accelerated solvers, II with
# the accelerated ones; per-stage growth exponents (strongly convex, general)
_OPTIONS = {"prox-gd": OPTION_I, "prox-svrg": OPTION_I, "apg": OPTION_II,
            "acc-prox-svrg": OPTION_II}
_EXPONENTS = {OPTION_I: (1.0, 2.0), OPTION_II: (0.5, 1.0)}


@pytest.mark.parametrize("solver", sorted(_OPTIONS))
def test_budget_option_follows_solver(solver):
    option = _OPTIONS[solver]
    for driver, prob, lam1, exponent in zip(
            (cns_strongly_convex, cns_general_convex), (_suite(), _reg_suite()), (0.0, 1e-4),
            _EXPONENTS[option]):
        settings = dict(gamma1=0.05, tau=2.0, t1=9, lam1=lam1, stages=3,
                        solver=SolverSpec(solver=solver, theta=0.04, batch_size=50))
        derived = ContinuationConfig(**settings)
        assert derived.budget_option == option
        explicit = ContinuationConfig(budget_option=option, **settings)
        budgets = [r.budget for r in driver(prob, derived)[1]]
        assert budgets == [r.budget for r in driver(prob, explicit)[1]]
        assert budgets == [stage_budget(9, 2.0, exponent, s) for s in (1, 2, 3)]


def test_fixed_smoothing_holds_schedule_constant():
    prob = _suite()
    cfg = ContinuationConfig(gamma1=0.01, tau=1.0, t1=25, stages=4,
                             solver=SolverSpec(solver="prox-gd"))
    _, reports = cns_strongly_convex(prob, cfg)
    assert [(r.gamma, r.lam, r.budget) for r in reports] == [(0.01, 0.0, 25)] * 4
    cfg = ContinuationConfig(gamma1=0.01, tau=1.0, t1=25, lam1=1e-4, stages=3,
                             solver=SolverSpec(solver="acc-prox-svrg"))
    _, reports = cns_general_convex(_reg_suite(), cfg)
    assert [(r.gamma, r.lam, r.budget) for r in reports] == [(0.01, 1e-4, 25)] * 3


def test_stage_gap_bound_realized():
    # at every stage end the sandwich 0 <= P - P_smoothed <= gamma * D_u holds
    prob = _suite()
    cfg = ContinuationConfig(gamma1=0.02, tau=2.0, t1=60, stages=4,
                             solver=SolverSpec(solver="prox-gd"))
    _, reports = cns_strongly_convex(prob, cfg)
    for r in reports:
        gap = r.original_after - r.smoothed_after
        assert -1e-12 <= gap <= r.gamma * dual_spec(prob.loss).d_u + 1e-12


@pytest.mark.parametrize("driver, problem, lam1", [(cns_strongly_convex, _suite, 0.0),
                                                    (cns_general_convex, _reg_suite, 1e-3)])
def test_stage_reports_evaluate_the_stage_end_iterate(driver, problem, lam1):
    # each report's objectives are those of the iterate its stage ended on,
    # the original one unsmoothed: a gap of 0 would pass the sandwich above
    prob = problem()
    cfg = ContinuationConfig(gamma1=0.05, tau=2.0, t1=20, lam1=lam1, stages=3,
                             solver=SolverSpec(solver="acc-prox-svrg", batch_size=20))
    ends = {}
    _, reports = driver(prob, cfg, callback=lambda t, x, e, s: ends.update({s: x.copy()}),
                        callback_every=1)
    assert sorted(ends) == [r.s for r in reports] == [1, 2, 3]
    for r in reports:
        sp = SmoothedProblem(prob, r.gamma, r.lam)
        assert r.original_after == objective_original(prob, ends[r.s])
        assert r.smoothed_after == objective_smoothed(sp, ends[r.s])
        assert r.original_after != r.smoothed_after


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
                             solver=SolverSpec(solver="prox-gd", batch_size=50))
    assert math.ceil(prob.n / cfg.solver.batch_size) == 20
    t1 = auto_t1(prob, cfg)
    assert t1 % 20 == 0 and t1 >= 20


def test_auto_t1_cap_error(monkeypatch):
    # an optimum above the stage-1 target can never satisfy the test
    prob = _suite(nu1=0.5, nu2=0.5)  # heavy regularization keeps the objective high
    monkeypatch.setattr(continuation, "AUTO_T1_MAX", 64)
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, stages=1,
                             solver=SolverSpec(solver="prox-gd"))
    with pytest.raises(BudgetEstimationError):
        auto_t1(prob, cfg)


def test_auto_t1_stops_when_a_doubled_probe_does_not_lower_the_objective():
    # hinge + elastic net with gamma1 = 0.05: the stage-1 optimum (about 0.71)
    # lies above the target P(0) / tau^2 = 0.24, so prox-gd's probes level off
    # long before the cap of 2^20 iterations
    rng = np.random.default_rng(42)
    z = rng.normal(size=(150, 12)) / np.sqrt(12)
    y = np.where(z @ rng.normal(size=12) + 0.3 * rng.normal(size=150) >= 0, 1.0, -1.0)
    prob = CompositeProblem(SparseDataset(z, y, "classification"), HINGE,
                            Regularizer(nu1=0.01, nu2=0.05))
    cfg = ContinuationConfig(gamma1=0.05, tau=2.0, stages=1,
                             solver=SolverSpec(solver="prox-gd", batch_size=16, seed=7))
    start = time.perf_counter()
    with pytest.raises(BudgetEstimationError) as err:
        auto_t1(prob, cfg)
    assert time.perf_counter() - start < 15.0
    found = re.fullmatch(r"auto t1 stalled: stage-1 objective 0\.7107\d* after (\d+) iterations "
                         r"is not below 0\.7107\d* after \d+, above target 0\.2437\d*",
                         str(err.value))
    assert found and int(found[1]) < continuation.AUTO_T1_MAX // 16


def test_auto_t1_cap_below_the_first_probe(monkeypatch):
    # the first probe, ceil(200 / 10) = 20 steps, is already above the cap
    prob = _suite()
    monkeypatch.setattr(continuation, "AUTO_T1_MAX", 5)
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, stages=1,
                             solver=SolverSpec(solver="prox-gd", batch_size=10))
    with pytest.raises(BudgetEstimationError, match=r"cap 5 .* = 20$"):
        auto_t1(prob, cfg)


def test_auto_t1_satisfies_reduction_against_oracle():
    prob = _suite(n=400, d=10, nu1=0.005, nu2=0.1)
    cfg = ContinuationConfig(gamma1=0.5, tau=2.0, stages=1,
                             solver=SolverSpec(solver="prox-gd", batch_size=50))
    t1 = auto_t1(prob, cfg)
    sp1 = SmoothedProblem(prob, 0.5)
    x0 = np.zeros(prob.d)
    run = run_solver(cfg.solver, sp1, x0, t1)
    rho1 = measure_stage_reduction(sp1, x0, run.x, oracle_budget=8000)
    assert rho1 <= 1.0 / cfg.tau**2 + 1e-6


def test_measure_stage_reduction_extremes():
    prob = _suite()
    sp = SmoothedProblem(prob, 0.05)
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=prob.d)
    assert measure_stage_reduction(sp, x0, x0, 4000) == pytest.approx(1.0, abs=1e-9)
    star = run_solver(SolverSpec(solver="apg"), sp, x0, 8000).x
    assert measure_stage_reduction(sp, x0, star, 8000) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(StageConvergedError):
        measure_stage_reduction(sp, star, star, 4000)
    with pytest.raises(ValueError, match="oracle_budget must be >= 1"):
        measure_stage_reduction(sp, x0, star, 0)


def test_measured_rho_with_table_budget():
    # deterministic stage run with the tabulated budget meets its target rate
    from cnsopt import condition_number, required_t1

    prob = _suite(n=300, d=10, nu1=0.0, nu2=0.2)
    tau = 2.0
    sp = SmoothedProblem(prob, 0.05)
    kappa = condition_number(sp, prob.mu)
    budget = required_t1("prox-gd", kappa, 1.0 / tau**2)
    x0 = np.zeros(prob.d)
    run = run_solver(SolverSpec(solver="prox-gd"), sp, x0, budget)
    rho = measure_stage_reduction(sp, x0, run.x, oracle_budget=10_000)
    assert rho <= 1.0 / tau**2 + 0.05


def test_divergence_carries_stage_index(monkeypatch):
    from cnsopt import DivergenceError, smoothing

    prob = _suite()
    cfg = ContinuationConfig(gamma1=0.01, tau=2.0, t1=5, stages=2,
                             solver=SolverSpec(solver="prox-gd"))
    real = smoothing.loss_gradient
    monkeypatch.setattr(smoothing, "loss_gradient",
                        lambda sp, x, *args: np.full_like(real(sp, x, *args), np.nan))
    with pytest.raises(DivergenceError, match="stage 1"):
        cns_strongly_convex(prob, cfg)


def test_driver_callback_counts_cumulative_iterations():
    prob = _suite()
    seen = []
    cfg = ContinuationConfig(gamma1=0.02, tau=2.0, t1=10, stages=3,
                             solver=SolverSpec(solver="prox-gd"))
    cns_strongly_convex(prob, cfg, callback=lambda t, x, e, s: seen.append((t, s)),
                        callback_every=10)
    assert seen == [(10, 1), (20, 2), (30, 2), (40, 3), (50, 3), (60, 3), (70, 3)]
