"""Acceptance suite: one test per criterion, one pass/fail line each.

The empirical criteria run on the two seeded synthetic suites defined in
conftest.py. Each test prints its measured numbers before asserting, so a
red criterion still reports what was observed. Two assertions are known to be
unattainable as stated and are expected to stay red, with their analysis in
tests/KNOWN_RED.md: criterion 9's quantitative stall floor (the stated bound
equals the mathematical supremum of a converged fixed-smoothing run's gap,
which the stage-1 feasibility cap keeps out of reach) and criterion 10's
"CNS-NA beats every tuned baseline" clause, which fails on both suites (on
the strongly convex one, dual averaging and averaged SGD with
strong-convexity step schedules are near-exact at desk scale on any suite the
other criteria admit; on the general convex one, averaged SGD edges CNS-NA
in the sixth digit). The qualitative content of both claims is covered by
passing tests (criterion 9's race leg here, and test_qualitative.py).
"""

import math
import time

import numpy as np
import pytest

from cnsopt import (
    ABSOLUTE,
    HINGE,
    BaselineSpec,
    ContinuationConfig,
    InfeasibleBudgetError,
    Regularizer,
    RunConfig,
    SmoothedProblem,
    StageConvergedError,
    cns_general_convex,
    cns_strongly_convex,
    compare_report,
    dual_spec,
    measure_stage_reduction,
    objective_original,
    objective_smoothed,
    prox_l1,
    prox_regularizer,
    required_t1,
    run_baseline,
    run_experiment,
    run_solver,
    slacks,
    smoothed_loss_gradient,
    tune_stepsize,
)
from cnsopt.prox import prox_scalars
from cnsopt.smoothing import condition_number, exact_loss_values, smoothed_loss_values
from cnsopt.solvers import SolverSpec

from tests.conftest import (
    REG_NU1,
    SC_NU1,
    SC_NU2,
    general_convex_problem,
    general_convex_spec,
    loglog_stage_slope as slope_of,
    problem_from_rows,
    random_problem,
    strongly_convex_problem,
    strongly_convex_spec,
)
from tests.test_prox import golden_section

SEEDS = range(5)


def _report(criterion, detail):
    print(f"\nacceptance criterion {criterion}: {detail}")


def test_criterion_01_smoothing_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for loss in (HINGE, ABSOLUTE):
        prob = random_problem(rng, loss, 200, 20, nu1=0.05, nu2=0.02, unit_rows=True)
        d_u = dual_spec(loss).d_u
        for _ in range(10_000):
            gamma = 10.0 ** rng.uniform(-3.0, 0.5)
            x = rng.normal(scale=2.0, size=prob.d)
            a = slacks(prob, x)
            exact = exact_loss_values(a, loss).mean()
            smooth = smoothed_loss_values(a, loss, gamma).mean()
            gap = exact - smooth
            worst = max(worst, -gap, gap - gamma * d_u)
    elapsed = time.perf_counter() - start
    _report(1, f"worst sandwich violation {worst:.3e} in {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_02_branch_continuity():
    # one sample whose margin (hinge: row 1, label 1) or residual (absolute:
    # row -1, target 0) is its weight t, so the library's gradient in x is
    # the smoothed loss's derivative in t
    one_sample = {HINGE: problem_from_rows([[1.0]], [1.0], HINGE),
                  ABSOLUTE: problem_from_rows([[-1.0]], [0.0], ABSOLUTE)}

    def library(loss, t, gamma):
        prob, x = one_sample[loss], np.array([t])
        value = smoothed_loss_values(slacks(prob, x), loss, gamma)[0]
        return value, smoothed_loss_gradient(SmoothedProblem(prob, gamma), x)[0]

    worst = 0.0
    for gamma in (1.0, 0.1, 0.01, 0.001):
        # hinge breakpoints: margins 1 and 1 - gamma
        for m, val, der in ((1.0, 0.0, 0.0), (1.0 - gamma, gamma / 2.0, -1.0)):
            quad_v = (1.0 - m) ** 2 / (2 * gamma)
            quad_d = -(1.0 - m) / gamma
            lib_v, lib_d = library(HINGE, m, gamma)
            worst = max(worst, abs(quad_v - val), abs(quad_d - der),
                        abs(lib_v - quad_v), abs(lib_d - quad_d))
        # absolute breakpoints: residuals +/- gamma
        for r, der in ((gamma, 1.0), (-gamma, -1.0)):
            quad_v = r * r / (2 * gamma)
            lin_v = abs(r) - gamma / 2.0
            lib_v, lib_d = library(ABSOLUTE, r, gamma)
            worst = max(worst, abs(quad_v - lin_v), abs(r / gamma - der),
                        abs(lib_v - quad_v), abs(lib_d - r / gamma))
    _report(2, f"worst breakpoint mismatch {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_03_gradient_finite_differences():
    rng = np.random.default_rng(1)
    gamma = 0.05
    h = 1e-6
    worst = 0.0
    for loss in (HINGE, ABSOLUTE):
        prob = random_problem(rng, loss, 60, 8, nu1=0.05, nu2=0.02, unit_rows=True)
        sp = SmoothedProblem(prob, gamma, lam=0.2)

        def smooth_part(x):
            return objective_smoothed(sp, x) - prob.reg.value(x)

        checked = 0
        while checked < 500:
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
                fd[j] = (smooth_part(x + e) - smooth_part(x - e)) / (2 * h)
            rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd))
            worst = max(worst, rel)
    _report(3, f"worst relative gradient error {worst:.3e} over 1000 points")
    assert worst <= 1e-6


def test_criterion_04_prox_oracles():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        v = float(rng.normal(scale=3.0))
        t = float(rng.uniform(0.0, 2.0))
        got = prox_l1(np.array([v]), t)[0]
        oracle = golden_section(lambda x: 0.5 * (x - v) ** 2 + t * abs(x),
                                v - abs(v) - 1, v + abs(v) + 1)
        worst = max(worst, abs(got - oracle))
    for _ in range(1000):
        v = float(rng.normal(scale=3.0))
        eta = float(rng.uniform(0.05, 2.0))
        reg = Regularizer(nu1=float(rng.uniform(0, 1.5)), nu2=float(rng.uniform(0, 1.5)))
        lam = float(rng.uniform(0, 0.5))
        got = prox_regularizer(np.array([v]), prox_scalars(eta, reg, lam))[0]
        quad = reg.nu2 + lam
        oracle = golden_section(
            lambda x: 0.5 * (x - v) ** 2 + eta * (reg.nu1 * abs(x) + 0.5 * quad * x * x),
            v - abs(v) - 1, v + abs(v) + 1)
        worst = max(worst, abs(got - oracle))
    _report(4, f"worst prox deviation from golden-section oracle {worst:.3e}")
    assert worst <= 1e-6


def test_criterion_05_budget_calculator():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(20):
        kappa = float(rng.uniform(1.0, 1e4))
        n = int(rng.integers(10, 10_000))
        rho = float(rng.uniform(0.3, 0.95))
        theta = float(rng.uniform(0.01, 0.95 * rho / (4.0 * (1.0 + rho))))
        p = float(rng.uniform(0.01, min(0.5, rho / 3.0)))
        while p * (2 + p) / (1 - p) >= rho:
            p *= 0.5
        oracle = {
            "prox-gd": 4 * kappa * math.log(1 / rho),
            "prox-svrg": theta / ((1 - 4 * theta) * rho - 4 * theta) * (kappa + 4),
            "saga": (3 * n / rho) * (3 * kappa / n + 1),
            "miso": n * kappa / rho,
            "apg": math.sqrt(kappa) * math.log(2 / rho),
            "acc-prox-svrg": math.sqrt(kappa) * math.sqrt(2) / (1 - p)
            * math.log(1.0 / (rho / (2 + p) - p / (1 - p))),
        }
        for solver, value in oracle.items():
            assert required_t1(solver, kappa, rho, n=n, theta=theta, p=p) == math.ceil(value)
            checked += 1
    with pytest.raises(InfeasibleBudgetError):
        required_t1("prox-svrg", 100, 0.25, theta=0.1)
    with pytest.raises(InfeasibleBudgetError):
        required_t1("acc-prox-svrg", 100, 0.25, p=0.5)
    _report(5, f"{checked} row evaluations exact after ceiling; constraints raise")


def test_criterion_06_reduction_propagation():
    start = time.perf_counter()
    prob = strongly_convex_problem(0)
    cfg = ContinuationConfig(gamma1=1.0, tau=2.0, t1=None, stages=6,
                             solver=SolverSpec(solver="prox-gd"))
    # each stage's last iterate, keyed by stage; stage 1 starts at x = 0
    ends = {0: np.zeros(prob.d)}

    def keep_last(t, x, elapsed, s):
        ends[s] = x.copy()

    _, reports = cns_strongly_convex(prob, cfg, callback=keep_last, callback_every=1)
    rhos = []
    for r in reports:
        sp = SmoothedProblem(prob, r.gamma, r.lam)
        try:
            rhos.append(measure_stage_reduction(sp, ends[r.s - 1], ends[r.s], 25_000))
        except StageConvergedError:
            rhos.append(None)
    elapsed = time.perf_counter() - start
    bound = 1.0 / cfg.tau**2 + 0.05
    _report(6, f"auto T1={reports[0].budget}, measured rho per stage "
               f"{['%.4f' % r for r in rhos]}, bound {bound}, {elapsed:.0f}s")
    assert elapsed < 120.0
    assert all(r is not None for r in rhos)
    assert all(r <= bound for r in rhos[1:])


def test_criterion_07_strongly_convex_rate_shapes(sc_reference):
    slopes_a, slopes_na = [], []
    for seed in SEEDS:
        prob = strongly_convex_problem(seed)
        p_star = sc_reference(seed)
        cfg_a = ContinuationConfig(
            gamma1=0.01, tau=2.0, t1=500, stages=8,
            solver=SolverSpec(solver="acc-prox-svrg", batch_size=50, seed=seed))
        _, rep = cns_strongly_convex(prob, cfg_a)
        slopes_a.append(slope_of(rep, p_star))
        cfg_na = ContinuationConfig(
            gamma1=0.01, tau=2.0, t1=600, stages=8,
            solver=SolverSpec(solver="prox-svrg", theta=0.04, batch_size=50, seed=seed))
        _, rep = cns_strongly_convex(prob, cfg_na)
        slopes_na.append(slope_of(rep, p_star))
    med_a, med_na = np.median(slopes_a), np.median(slopes_na)
    _report(7, f"CNS-A slope median {med_a:.2f} (need <= -1.8), "
               f"CNS-NA {med_na:.2f} (need <= -0.9)")
    assert med_a <= -1.8
    assert med_na <= -0.9


def test_criterion_08_general_convex_rate_shapes(gc_reference):
    slopes_a, slopes_na = [], []
    for seed in SEEDS:
        prob = general_convex_problem(seed)
        p_star = gc_reference(seed)
        cfg_a = ContinuationConfig(
            gamma1=0.1, tau=2.0, t1=100, lam1=1e-5, stages=8,
            solver=SolverSpec(solver="acc-prox-svrg", batch_size=100, seed=seed))
        _, rep = cns_general_convex(prob, cfg_a)
        slopes_a.append(slope_of(rep, p_star))
        cfg_na = ContinuationConfig(
            gamma1=0.1, tau=math.sqrt(2.0), t1=300, lam1=1e-5, stages=8,
            solver=SolverSpec(solver="prox-svrg", theta=0.1, batch_size=100, seed=seed))
        _, rep = cns_general_convex(prob, cfg_na)
        slopes_na.append(slope_of(rep, p_star))
    med_a, med_na = np.median(slopes_a), np.median(slopes_na)
    _report(8, f"CNS-A slope median {med_a:.2f} (need <= -0.9), "
               f"CNS-NA {med_na:.2f} (need <= -0.45)")
    assert med_a <= -0.9
    assert med_na <= -0.45


def test_criterion_09_continuation_vs_fixed(sc_reference):
    prob = strongly_convex_problem(0)
    p_star = sc_reference(0)
    p0 = objective_original(prob, np.zeros(prob.d))
    target_gap = 1e-3 * (p0 - p_star)

    # deterministic race: accelerated batch solver on both sides
    kappa1 = condition_number(SmoothedProblem(prob, 0.01), prob.mu)
    t1 = required_t1("apg", kappa1, 0.25)
    spec = strongly_convex_spec(0)
    cns_rows = run_experiment(RunConfig(
        method="cns-a", loss=HINGE, nu1=SC_NU1, nu2=SC_NU2, synthetic=spec,
        solver="apg", gamma1=0.01, tau=2.0, t1=t1, stages=6, cadence=25, seed=0))
    gamma_s = 0.01 / 2**5
    fixed_rows = run_experiment(RunConfig(
        method="cns-a", loss=HINGE, nu1=SC_NU1, nu2=SC_NU2, synthetic=spec,
        solver="apg", gamma1=gamma_s, tau=1.0, t1=250, stages=40, cadence=25, seed=0))
    summary = {s.name: s for s in compare_report(
        {"cns": cns_rows, "fixed": fixed_rows}, target_gap, p_star)}
    cns_iters = summary["cns"].iterations_to_target
    fixed_iters = summary["fixed"].iterations_to_target

    # converged fixed-smoothing run at gamma = 1e-2: the smoothing-bias floor
    stall_run = run_solver(SolverSpec(solver="apg"), SmoothedProblem(prob, 1e-2),
                           np.zeros(prob.d), 40_000)
    stall = objective_original(prob, stall_run.x) - p_star
    floor = 0.5 * 1e-2 * dual_spec(HINGE).d_u

    _report(9, f"iterations to {target_gap:.2e} gap: cns {cns_iters}, fixed {fixed_iters}; "
               f"stall {stall:.2e} vs floor {floor:.2e}")
    assert cns_iters is not None and fixed_iters is not None
    assert cns_iters < fixed_iters
    # Known-red clause: a converged run's gap is gamma * sum w alpha (1-alpha)
    # <= gamma * D(1-D) < gamma/4 under the stage-1 feasibility cap on the
    # regularizer pull D; the stated floor equals the unattainable supremum.
    # Analysis and measurements: tests/KNOWN_RED.md.
    assert stall >= floor, (
        f"converged fixed-gamma stall {stall:.3e} is below the specified floor "
        f"{floor:.3e}; this clause is unattainable as stated (see tests/KNOWN_RED.md)"
    )


def _tuned_steps(spec, loss, nu1, nu2, batch, gamma1, lam1=0.0):
    tuned = {}
    for method, grid in (("fobos", [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]),
                         ("rda", [0.05, 0.1, 0.25, 0.5, 1.0, 2.0]),
                         ("poly-sgd", [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])):
        cfg = RunConfig(method=method, loss=loss, nu1=nu1, nu2=nu2, synthetic=spec,
                        batch_size=batch, seed=0)
        tuned[method] = tune_stepsize(cfg, grid)
    for method in ("cns-a", "cns-na"):
        cfg = RunConfig(method=method, loss=loss, nu1=nu1, nu2=nu2, synthetic=spec,
                        batch_size=batch, gamma1=gamma1, lam1=lam1, stages=8, seed=0,
                        theta=0.1)
        tuned[method] = tune_stepsize(cfg, [0.5, 1.0, 2.0, 4.0, 8.0])
    return tuned


def test_criterion_10_method_ordering():
    results = {}
    # strongly convex leg
    spec = strongly_convex_spec(0)
    tuned = _tuned_steps(spec, HINGE, SC_NU1, SC_NU2, 50, gamma1=0.1)
    finals = {m: [] for m in ("cns-a", "cns-na", "fobos", "rda", "poly-sgd")}
    for seed in SEEDS:
        prob = strongly_convex_problem(seed)
        cfg_a = ContinuationConfig(
            gamma1=0.1, tau=2.0, t1=110, stages=8,
            solver=SolverSpec(solver="acc-prox-svrg", batch_size=50, seed=seed,
                              step_scale=tuned["cns-a"]))
        x_a, rep_a = cns_strongly_convex(prob, cfg_a)
        finals["cns-a"].append(objective_original(prob, x_a))
        cfg_na = ContinuationConfig(
            gamma1=0.1, tau=2.0, t1=16, stages=8,
            solver=SolverSpec(solver="prox-svrg", theta=0.1, batch_size=50, seed=seed,
                              step_scale=tuned["cns-na"]))
        x_na, rep_na = cns_strongly_convex(prob, cfg_na)
        finals["cns-na"].append(objective_original(prob, x_na))
        budget = max(sum(r.budget for r in rep_a), sum(r.budget for r in rep_na))
        for method in ("fobos", "rda", "poly-sgd"):
            bspec = BaselineSpec(method=method, eta0=tuned[method], batch_size=50, seed=seed)
            finals[method].append(objective_original(prob, run_baseline(prob, bspec, budget).x))
    med = {m: float(np.median(v)) for m, v in finals.items()}
    results["strongly-convex"] = med

    # general convex leg
    gspec = general_convex_spec(0)
    gtuned = _tuned_steps(gspec, ABSOLUTE, REG_NU1, 0.0, 100, gamma1=0.1, lam1=1e-5)
    gfinals = {m: [] for m in finals}
    for seed in SEEDS:
        prob = general_convex_problem(seed)
        cfg_a = ContinuationConfig(
            gamma1=0.1, tau=2.0, t1=300, lam1=1e-5, stages=8,
            solver=SolverSpec(solver="acc-prox-svrg", batch_size=100, seed=seed,
                              step_scale=gtuned["cns-a"]))
        x_a, rep_a = cns_general_convex(prob, cfg_a)
        gfinals["cns-a"].append(objective_original(prob, x_a))
        cfg_na = ContinuationConfig(
            gamma1=0.1, tau=math.sqrt(2.0), t1=300, lam1=1e-5, stages=8,
            solver=SolverSpec(solver="prox-svrg", theta=0.1, batch_size=100, seed=seed,
                              step_scale=gtuned["cns-na"]))
        x_na, rep_na = cns_general_convex(prob, cfg_na)
        gfinals["cns-na"].append(objective_original(prob, x_na))
        budget = max(sum(r.budget for r in rep_a), sum(r.budget for r in rep_na))
        for method in ("fobos", "rda", "poly-sgd"):
            bspec = BaselineSpec(method=method, eta0=gtuned[method], batch_size=100, seed=seed)
            gfinals[method].append(objective_original(prob, run_baseline(prob, bspec, budget).x))
    results["general-convex"] = {m: float(np.median(v)) for m, v in gfinals.items()}

    lines = []
    ok = True
    for leg, med in results.items():
        best = min(med["fobos"], med["rda"], med["poly-sgd"])
        lines.append(f"{leg}: " + ", ".join(f"{m}={v:.6f}" for m, v in med.items()))
        ok = ok and med["cns-a"] <= med["cns-na"] <= best
    _report(10, "; ".join(lines))
    for leg, med in results.items():
        best = min(med["fobos"], med["rda"], med["poly-sgd"])
        assert med["cns-a"] <= med["cns-na"], leg
        # Known-red on both legs: tuned dual averaging / averaged SGD with
        # 1/(mu t) schedules are near-exact at this scale on every strongly
        # convex suite the other criteria admit, and on the general convex
        # suite averaged SGD ends 2e-5 below CNS-NA (see tests/KNOWN_RED.md).
        assert med["cns-na"] <= best, (
            f"{leg}: CNS-NA median {med['cns-na']:.6f} above best baseline "
            f"{best:.6f} (see tests/KNOWN_RED.md)"
        )


def test_criterion_11_sparsity(sc_reference):
    prob = strongly_convex_problem(0)
    cfg_a = ContinuationConfig(
        gamma1=0.01, tau=2.0, t1=500, stages=8,
        solver=SolverSpec(solver="acc-prox-svrg", batch_size=50, seed=0))
    x_cns, _ = cns_strongly_convex(prob, cfg_a)
    zeros = {"cns-a": int(np.sum(x_cns == 0.0))}
    for method, eta in (("fobos", 0.5), ("rda", 0.5), ("poly-sgd", 0.5)):
        bspec = BaselineSpec(method=method, eta0=eta, batch_size=50, seed=0)
        x = run_baseline(prob, bspec, 5000).x
        zeros[method] = int(np.sum(x == 0.0))
    _report(11, f"exact zero counts (of d={prob.d}): {zeros}")
    assert zeros["cns-a"] > 0
    assert zeros["fobos"] > 0
    assert zeros["rda"] > 0
    assert zeros["poly-sgd"] == 0


def test_criterion_12_determinism(tmp_path):
    spec = strongly_convex_spec(0)

    # bit-identical iterates from the stochastic driver
    def one_driver_run():
        prob = strongly_convex_problem(0)
        cfg = ContinuationConfig(
            gamma1=0.01, tau=2.0, t1=40, stages=4,
            solver=SolverSpec(solver="acc-prox-svrg", batch_size=50, seed=7))
        x, _ = cns_strongly_convex(prob, cfg)
        return x

    xs = [one_driver_run() for _ in range(3)]
    iterates_ok = all(np.array_equal(xs[0], x) for x in xs[1:])

    # bit-identical CSV modulo the wall-time column
    def one_csv(path):
        rows = run_experiment(RunConfig(
            method="cns-na", loss=HINGE, nu1=SC_NU1, nu2=SC_NU2, synthetic=spec,
            gamma1=0.02, tau=2.0, t1=30, stages=3, batch_size=50, cadence=20,
            seed=3, output=path))
        with open(path) as fh:
            table = [line.split(",") for line in fh.read().splitlines()]
        drop = table[0].index("wall_time_s")
        return [[c for i, c in enumerate(row) if i != drop] for row in table]

    tables = [one_csv(str(tmp_path / f"t{i}.csv")) for i in range(3)]
    csv_ok = tables[0] == tables[1] == tables[2]

    # seeded baselines too
    bspec = BaselineSpec(method="rda", eta0=0.5, batch_size=50, seed=11)
    prob = strongly_convex_problem(0)
    ys = [run_baseline(prob, bspec, 200).x for _ in range(3)]
    baseline_ok = all(np.array_equal(ys[0], y) for y in ys[1:])

    _report(12, f"iterates identical: {iterates_ok}, CSV identical: {csv_ok}, "
                f"baseline identical: {baseline_ok}")
    assert iterates_ok and csv_ok and baseline_ok
