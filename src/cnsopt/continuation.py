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

from .errors import BudgetEstimationError, StageConvergedError, WrongDriverError, check_finite
from .problem import SmoothedProblem, objective_original, objective_smoothed
from .solvers import APG, SolverSpec, run_solver, solver_family

OPTION_I = "I"
OPTION_II = "II"

# the automatic stage-1 budget search gives up past this many iterations
AUTO_T1_MAX = 1 << 20


@dataclass(frozen=True)
class ContinuationConfig:
    """Driver schedule and inner-solver choice.

    ``tau`` = 1 is fixed smoothing (the no-continuation comparison mode):
    gamma, lam and the per-stage budget stay at gamma1, lam1 and t1. ``t1`` =
    None triggers the automatic stage-1 budget search, which needs tau > 1.
    ``lam1`` must be zero for the strongly convex driver and positive for the
    general convex one. ``budget_option`` follows the solver, I for a
    non-accelerated one and II for an accelerated one; None sets it.
    """

    gamma1: float = 0.01
    tau: float = 2.0
    t1: "int | None" = None
    lam1: float = 0.0
    stages: int = 1
    solver: SolverSpec = field(default_factory=SolverSpec)
    budget_option: "str | None" = None

    def __post_init__(self):
        check_finite(gamma1=self.gamma1, tau=self.tau, lam1=self.lam1)
        if self.gamma1 <= 0:
            raise ValueError("gamma1 must be positive")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if self.t1 is None and self.tau == 1:
            raise ValueError("tau = 1 (fixed smoothing) needs a t1: auto t1 seeks a 1/tau^2 cut")
        if self.t1 is not None and self.t1 < 1:
            raise ValueError("t1 must be >= 1")
        if self.lam1 < 0:
            raise ValueError("lam1 must be nonnegative")
        if self.stages < 1:
            raise ValueError("stages must be >= 1")
        option = OPTION_II if self.solver.accelerated else OPTION_I
        if self.budget_option not in (None, option):
            raise ValueError(f"budget option {self.budget_option!r} does not match "
                             f"{solver_family(self.solver.solver)} solver {self.solver.solver!r}")
        object.__setattr__(self, "budget_option", option)


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


def stage_budget(t1, tau, exponent, s):
    """Budget of stage s: ceil(t1 * (tau**exponent)**(s-1)).

    Computed from stage 1 each time (not by iterating the ceiling), so exact
    powers round exactly. The 1e-12 relative guard absorbs the ulp overshoot
    that floating-point pow can produce on exact products.
    """
    raw = t1 * (tau ** exponent) ** (s - 1)
    return math.ceil(raw * (1.0 - 1e-12))


def auto_t1(problem, cfg):
    """Smallest power-of-two multiple of ceil(n / batch) whose stage-1 run cuts
    the stage-1 objective by at least 1/tau^2 from x = 0.

    Doubles the probe budget until the objective test passes; raises
    BudgetEstimationError past ``AUTO_T1_MAX``, and as soon as a doubled
    probe ends no lower than the previous one: the target then lies below
    what the solver reaches on the stage, which no budget mends. Because the
    stage objective is nonnegative, passing the absolute test also certifies
    the suboptimality reduction the schedule analysis needs.
    """
    sp = SmoothedProblem(problem, cfg.gamma1, cfg.lam1)
    x0 = np.zeros(problem.d)
    base = objective_smoothed(sp, x0)
    target = base / cfg.tau**2
    budget = math.ceil(problem.n / cfg.solver.batch_size)
    if budget > AUTO_T1_MAX:
        raise BudgetEstimationError(
            f"auto t1 cap {AUTO_T1_MAX} is below the first probe budget "
            f"ceil(n / batch_size) = {budget}"
        )
    previous = None
    while budget <= AUTO_T1_MAX:
        run = run_solver(cfg.solver, sp, x0, budget)
        achieved = objective_smoothed(sp, run.x)
        if achieved <= target:
            return budget
        if previous is not None and not achieved < previous:
            raise BudgetEstimationError(
                f"auto t1 stalled: stage-1 objective {achieved:.17g} after {budget} "
                f"iterations is not below {previous:.17g} after {budget // 2}, "
                f"above target {target:.17g}"
            )
        previous = achieved
        budget *= 2
    raise BudgetEstimationError(
        f"auto t1 exceeded cap {AUTO_T1_MAX}: stage-1 objective "
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


def _run_stages(problem, cfg, callback, callback_every):
    # option I grows budgets by tau^2 (general convex: lam1 > 0) or tau, option
    # II by the root; at tau = 1 every stage runs at gamma1, lam1, t1
    exponent = (2.0 if cfg.lam1 > 0 else 1.0) / (2.0 if cfg.solver.accelerated else 1.0)
    t1 = cfg.t1 if cfg.t1 is not None else auto_t1(problem, cfg)
    # every stage's budget and gamma are checked before stage 1 runs; past
    # 2**53 the float ceiling is no longer an exact count
    try:
        budgets = [stage_budget(t1, cfg.tau, exponent, s) for s in range(1, cfg.stages + 1)]
    except OverflowError:
        budgets = [math.inf]
    if max(budgets) > 2**53:
        raise ValueError(f"tau = {cfg.tau:g} grows the stage budgets from t1 = {t1} past 2**53")
    stage_problems = [SmoothedProblem(problem, cfg.gamma1 / cfg.tau**k, cfg.lam1 / cfg.tau**k)
                      for k in range(cfg.stages)]
    rng = np.random.default_rng(cfg.solver.seed)
    x = np.zeros(problem.d)
    reports, done, total_elapsed = [], 0, 0.0

    def stage_cb(t, xt, elapsed):
        callback(done + t, xt, total_elapsed + elapsed, s)

    for s, (sp, budget) in enumerate(zip(stage_problems, budgets), 1):
        before = objective_smoothed(sp, x)
        run = run_solver(
            cfg.solver, sp, x, budget, rng=rng,
            callback=None if callback is None else stage_cb, callback_every=callback_every,
            context=f"stage {s}: ",
        )
        x = run.x
        reports.append(
            StageReport(
                s=s,
                gamma=sp.gamma,
                lam=sp.lam,
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
    """Continuation for strongly convex problems (no stage ridge term), from
    x = 0.

    Budgets grow by tau (option I) or sqrt(tau) (option II) per stage.
    """
    if problem.mu <= 0:
        raise WrongDriverError("problem is not strongly convex; use the general driver")
    if cfg.lam1 != 0:
        raise WrongDriverError("lam1 must be 0 for the strongly convex driver")
    return _run_stages(problem, cfg, callback, callback_every)


def cns_general_convex(problem, cfg, callback=None, callback_every=None):
    """Continuation for general convex problems, from x = 0.

    Each stage minimizes the smoothed objective plus (lam_s/2)||x||^2, with
    lam shrinking alongside gamma; the solver sees modulus lam_s (+ nu2 when
    the regularizer carries one). Budgets grow by tau^2 (option I) or tau
    (option II).
    """
    if cfg.lam1 <= 0:
        raise WrongDriverError("the general convex driver needs lam1 > 0")
    return _run_stages(problem, cfg, callback, callback_every)


def reference_objective(problem, gamma=1e-7, iterations=100_000, gamma1=0.01,
                        warm_iterations=2_000, check_every=200):
    """High-accuracy estimate of the optimal original objective.

    Walks the smoothing level down from ``gamma1`` to ``gamma`` with warm
    starts (a cold accelerated solve at tiny gamma would need prohibitively
    many iterations), then polishes at the final level for ``iterations``
    and returns the best original objective seen at periodic checkpoints.
    For problems with no strong convexity a ridge weight starting at 1e-5
    is decayed alongside gamma and dropped for the polish. Used as the gap
    baseline in comparisons.
    """
    x = np.zeros(problem.d)
    best = objective_original(problem, x)

    apg = SolverSpec(solver=APG)
    gamma_s, lam_s = gamma1, 0.0 if problem.mu > 0 else 1e-5
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
