"""Continuation drivers: shrink the smoothing level stage by stage, warm-starting
each solve from the previous stage's output.

Two drivers are provided. The strongly convex one relies on the problem's own
modulus and keeps the stage objective equal to the smoothed objective. The
general convex one augments each stage with a ridge term whose weight shrinks
at the same rate as the smoothing level. Per-stage iteration budgets grow
geometrically, with the growth exponent set by whether the inner solver is
accelerated.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetEstimationError, StageConvergedError, WrongDriverError
from .problem import SmoothedProblem, objective_original, objective_smoothed
from .solvers import ACCELERATED, APG, SolverSpec, run_solver, start_point

OPTION_I = "I"
OPTION_II = "II"


@dataclass(frozen=True)
class ContinuationConfig:
    """Driver schedule and inner-solver choice.

    ``t1`` = None triggers the automatic stage-1 budget search. ``lam1`` must
    be zero for the strongly convex driver and positive for the general convex
    one. ``budget_option`` I is for non-accelerated solvers, II for accelerated
    ones; the config enforces that pairing. ``fixed_smoothing`` freezes gamma,
    lam and the per-stage budget (the no-continuation comparison mode).
    """

    gamma1: float = 0.01
    tau: float = 2.0
    t1: "int | None" = None
    lam1: float = 0.0
    stages: int = 1
    solver: SolverSpec = field(default_factory=SolverSpec)
    budget_option: str = OPTION_I
    x0: "np.ndarray | None" = None
    fixed_smoothing: bool = False
    auto_t1_max: int = 1 << 20

    def __post_init__(self):
        if self.gamma1 <= 0:
            raise ValueError("gamma1 must be positive")
        if self.tau <= 1:
            raise ValueError("tau must be > 1")
        if self.t1 is not None and self.t1 < 1:
            raise ValueError("t1 must be >= 1")
        if self.lam1 < 0:
            raise ValueError("lam1 must be nonnegative")
        if self.stages < 1:
            raise ValueError("stages must be >= 1")
        if self.auto_t1_max < 1:
            raise ValueError("auto_t1_max must be >= 1")
        if self.budget_option not in (OPTION_I, OPTION_II):
            raise ValueError(f"unknown budget option {self.budget_option!r}")
        accelerated = self.budget_option == OPTION_II
        if (self.solver.family == ACCELERATED) != accelerated:
            raise ValueError(
                f"budget option {self.budget_option} does not match "
                f"{self.solver.family} solver {self.solver.solver!r}"
            )


@dataclass
class StageReport:
    """Per-stage diagnostics emitted by the drivers."""

    s: int
    gamma: float
    lam: float
    budget: int
    smoothed_before: float
    smoothed_after: float
    original_after: float
    wall_time: float


def stage_budget(t1, tau, exponent, s, fixed=False):
    """Budget of stage s: ceil(t1 * (tau**exponent)**(s-1)).

    Computed from stage 1 each time (not by iterating the ceiling), so exact
    powers round exactly. The 1e-12 relative guard absorbs the ulp overshoot
    that floating-point pow can produce on exact products.
    """
    if fixed:
        return t1
    raw = t1 * (tau ** exponent) ** (s - 1)
    return math.ceil(raw * (1.0 - 1e-12))


def _growth_exponent(budget_option, general_convex):
    if general_convex:
        return 2.0 if budget_option == OPTION_I else 1.0
    return 1.0 if budget_option == OPTION_I else 0.5


def auto_t1(problem, cfg):
    """Smallest power-of-two multiple of ceil(n / batch) whose stage-1 run cuts
    the stage-1 objective by at least 1/tau^2 from the start point.

    Doubles the probe budget until the objective test passes; raises
    BudgetEstimationError at ``cfg.auto_t1_max``. Because the stage objective
    is nonnegative, passing the absolute test also certifies the suboptimality
    reduction the schedule analysis needs.
    """
    sp = SmoothedProblem(problem, cfg.gamma1, cfg.lam1)
    x0 = start_point(cfg.x0, problem.d)
    base = objective_smoothed(sp, x0)
    target = base / cfg.tau**2
    budget = math.ceil(problem.n / cfg.solver.batch_size)
    if budget > cfg.auto_t1_max:
        raise BudgetEstimationError(
            f"auto t1 cap {cfg.auto_t1_max} is below the first probe budget "
            f"ceil(n / batch_size) = {budget}"
        )
    while budget <= cfg.auto_t1_max:
        rng = np.random.default_rng(cfg.solver.seed)
        run = run_solver(cfg.solver, sp, x0, budget, rng=rng)
        achieved = objective_smoothed(sp, run.x)
        if achieved <= target:
            return budget
        budget *= 2
    raise BudgetEstimationError(
        f"auto t1 exceeded cap {cfg.auto_t1_max}: stage-1 objective "
        f"{achieved:.6g} above target {target:.6g}"
    )


def measure_stage_reduction(sp, x_before, x_after, oracle_budget):
    """Reduction factor achieved over one stage, against a long reference solve.

    The stage optimum is approximated by an accelerated run of
    ``oracle_budget`` iterations warm-started from ``x_after``. Raises
    StageConvergedError when the stage started within 1e-14 of the optimum.
    """
    if oracle_budget < 1:
        raise ValueError("oracle_budget must be >= 1")
    before = objective_smoothed(sp, x_before)
    after = objective_smoothed(sp, x_after)
    oracle = run_solver(SolverSpec(solver=APG), sp, x_after, oracle_budget)
    star = min(objective_smoothed(sp, oracle.x), after)
    denom = before - star
    if denom <= 1e-14:
        raise StageConvergedError(
            f"stage started already converged (initial error {denom:.3e})"
        )
    return (after - star) / denom


def _run_stages(problem, cfg, general_convex, callback=None, callback_every=None):
    exponent = _growth_exponent(cfg.budget_option, general_convex)
    t1 = cfg.t1 if cfg.t1 is not None else auto_t1(problem, cfg)
    rng = np.random.default_rng(cfg.solver.seed)
    x = start_point(cfg.x0, problem.d)
    reports = []
    done = 0
    total_elapsed = 0.0
    for s in range(1, cfg.stages + 1):
        if cfg.fixed_smoothing:
            gamma_s, lam_s = cfg.gamma1, cfg.lam1
        else:
            shrink = cfg.tau ** (s - 1)
            gamma_s = cfg.gamma1 / shrink
            lam_s = cfg.lam1 / shrink
        budget = stage_budget(t1, cfg.tau, exponent, s, fixed=cfg.fixed_smoothing)
        sp = SmoothedProblem(problem, gamma_s, lam_s)
        before = objective_smoothed(sp, x)

        stage_cb = None
        if callback is not None:
            offset, base_elapsed = done, total_elapsed

            def stage_cb(t, xt, elapsed, _s=s, _offset=offset, _base=base_elapsed):
                callback(_offset + t, xt, _base + elapsed, _s)

        run = run_solver(
            cfg.solver, sp, x, budget, rng=rng,
            callback=stage_cb, callback_every=callback_every,
            context=f"stage {s}: ",
        )
        x = run.x
        reports.append(
            StageReport(
                s=s,
                gamma=gamma_s,
                lam=lam_s,
                budget=budget,
                smoothed_before=before,
                smoothed_after=objective_smoothed(sp, x),
                original_after=objective_original(problem, x),
                wall_time=run.elapsed,
            )
        )
        done += budget
        total_elapsed += run.elapsed
    return x, reports


def cns_strongly_convex(problem, cfg, callback=None, callback_every=None):
    """Continuation for strongly convex problems (no stage ridge term).

    Budgets grow by tau (option I) or sqrt(tau) (option II) per stage.
    """
    if problem.mu <= 0:
        raise WrongDriverError("problem is not strongly convex; use the general driver")
    if cfg.lam1 != 0:
        raise WrongDriverError("lam1 must be 0 for the strongly convex driver")
    return _run_stages(problem, cfg, general_convex=False,
                       callback=callback, callback_every=callback_every)


def cns_general_convex(problem, cfg, callback=None, callback_every=None):
    """Continuation for general convex problems.

    Each stage minimizes the smoothed objective plus (lam_s/2)||x||^2, with
    lam shrinking alongside gamma; the solver sees modulus lam_s (+ nu2 when
    the regularizer carries one). Budgets grow by tau^2 (option I) or tau
    (option II).
    """
    if cfg.lam1 <= 0:
        raise WrongDriverError("the general convex driver needs lam1 > 0")
    return _run_stages(problem, cfg, general_convex=True,
                       callback=callback, callback_every=callback_every)


def reference_objective(problem, gamma=1e-7, iterations=100_000, gamma1=0.01,
                        lam1=None, warm_iterations=2_000, x0=None, check_every=200):
    """High-accuracy estimate of the optimal original objective.

    Walks the smoothing level down from ``gamma1`` to ``gamma`` with warm
    starts (a cold accelerated solve at tiny gamma would need prohibitively
    many iterations), then polishes at the final level for ``iterations``
    and returns the best original objective seen at periodic checkpoints.
    For problems with no strong convexity a ridge weight starting at ``lam1``
    is decayed alongside gamma and dropped for the polish. Used as the gap
    baseline in comparisons.
    """
    x = start_point(x0, problem.d)
    best = objective_original(problem, x)
    if lam1 is None:
        lam1 = 0.0 if problem.mu > 0 else 1e-5

    apg = SolverSpec(solver=APG)
    gamma_s, lam_s = gamma1, lam1
    while gamma_s > gamma:
        sp = SmoothedProblem(problem, gamma_s, lam_s)
        x = run_solver(apg, sp, x, warm_iterations).x
        best = min(best, objective_original(problem, x))
        gamma_s /= 2.0
        lam_s /= 2.0

    def track(t, xt, elapsed):
        nonlocal best
        best = min(best, objective_original(problem, xt))

    sp = SmoothedProblem(problem, gamma, 0.0)
    run = run_solver(apg, sp, x, iterations, callback=track, callback_every=check_every)
    return min(best, objective_original(problem, run.x))
