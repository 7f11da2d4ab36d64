"""Experiment harness: run a method on a dataset, snapshot metrics on a cadence,
emit CSV traces, and compare traces against a reference optimum."""

import csv
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines as bl
from .continuation import (
    ContinuationConfig,
    cns_general_convex,
    cns_strongly_convex,
)
from .datasets import (
    CLASSIFICATION,
    SparseDataset,
    SyntheticSpec,
    make_synthetic,
    parse_libsvm,
)
from .errors import CnsError, TuningError
from .problem import CompositeProblem, Regularizer, objective_original
from .smoothing import HINGE, dual_spec
from .solvers import ACC_PROX_SVRG, PROX_SVRG, SolverSpec

CNS_A = "cns-a"
CNS_NA = "cns-na"
FIXED_GAMMA = "fixed-gamma"
METHODS = (CNS_A, CNS_NA, FIXED_GAMMA, bl.FOBOS, bl.RDA, bl.POLY_SGD)

_WALL_COLUMNS = ("wall_time_s",)


@dataclass
class TraceRow:
    """One metric snapshot along a run. ``stage`` is -1 for baselines and 0 for
    the pre-optimization row of a continuation run."""

    wall_time_s: float
    cumulative_iterations: int
    stage: int
    objective_original: float
    test_metric: float
    nnz: int


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment needs.

    Exactly one of ``dataset`` (a path) or ``synthetic`` must be given. The
    continuation-specific fields are ignored by the baselines and vice versa.
    ``cadence`` is the number of inner iterations between metric snapshots;
    snapshot evaluation is excluded from the reported wall times.
    """

    method: str
    loss: str = HINGE
    nu1: float = 0.0
    nu2: float = 0.0
    dataset: "str | None" = None
    test_dataset: "str | None" = None
    synthetic: "SyntheticSpec | None" = None
    gamma1: float = 0.01
    tau: float = 2.0
    t1: "int | None" = None
    lam1: float = 0.0
    stages: int = 6
    solver: "str | None" = None
    theta: float = 0.1
    p: float = 0.5
    batch_size: int = 50
    step_scale: float = 1.0
    eta0: float = 1.0
    rda_scale: float = 1.0
    averaging_exponent: float = 3.0
    iterations: int = 1000
    cadence: int = 100
    time_budget: "float | None" = None
    output: "str | None" = None
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if (self.dataset is None) == (self.synthetic is None):
            raise ValueError("exactly one of dataset / synthetic must be set")
        if self.cadence < 1:
            raise ValueError("cadence must be >= 1")
        dual_spec(self.loss)  # raises ValueError for a loss not in the loss table


class _TimeBudgetExceeded(Exception):
    pass


def load_problem(cfg):
    """Materialize (train problem, test dataset or None) from a RunConfig."""
    task = dual_spec(cfg.loss).task
    if cfg.synthetic is not None:
        train, _ = make_synthetic(cfg.synthetic)
        test_spec = replace(cfg.synthetic, seed=cfg.synthetic.seed + 1)
        test, _ = make_synthetic(test_spec)
    else:
        train = parse_libsvm(cfg.dataset, task=task)
        test = None
        if cfg.test_dataset is not None:
            test = parse_libsvm(cfg.test_dataset, task=task, n_features=train.d)
    reg = Regularizer(nu1=cfg.nu1, nu2=cfg.nu2)
    return CompositeProblem(train, cfg.loss, reg), test


def test_metric(dataset, x):
    """Misclassification rate of sign(z'x) on a classification dataset, mean
    absolute residual on a regression one."""
    scores = dataset.features @ x
    if dataset.task == CLASSIFICATION:
        predicted = np.where(scores >= 0, 1.0, -1.0)
        return float(np.mean(predicted != dataset.labels))
    return float(np.mean(np.abs(dataset.labels - scores)))


def solver_spec_for(cfg):
    if cfg.method == CNS_NA:
        default = PROX_SVRG
    else:
        default = ACC_PROX_SVRG
    return SolverSpec(
        solver=cfg.solver or default,
        theta=cfg.theta,
        p=cfg.p,
        batch_size=cfg.batch_size,
        step_scale=cfg.step_scale,
        seed=cfg.seed,
    )


def continuation_config(cfg, spec=None):
    spec = spec or solver_spec_for(cfg)
    option = "II" if spec.accelerated else "I"
    return ContinuationConfig(
        gamma1=cfg.gamma1,
        tau=cfg.tau,
        t1=cfg.t1,
        lam1=cfg.lam1,
        stages=cfg.stages,
        solver=spec,
        budget_option=option,
        fixed_smoothing=cfg.method == FIXED_GAMMA,
    )


def baseline_spec_for(cfg):
    """The baselines' step, averaging and sampling settings from a RunConfig;
    the 1/(mu t) schedules are used when the regularizer has a ridge part."""
    return bl.BaselineSpec(
        method=cfg.method,
        eta0=cfg.eta0,
        rda_scale=cfg.rda_scale,
        averaging_exponent=cfg.averaging_exponent,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
        strongly_convex=cfg.nu2 > 0,
    )


def pick_driver(problem, lam1):
    """The strongly convex driver when the problem has its own modulus and no
    stage ridge weight is asked for, else the general convex one.

    The drivers are looked up when called, so a wrapped module global (as the
    span tracer installs) is the one returned.
    """
    return cns_strongly_convex if problem.mu > 0 and lam1 == 0 else cns_general_convex


def run_experiment(cfg):
    """Execute the configured method, returning TraceRows (and writing CSV).

    Rows are emitted before the first iteration, every ``cadence`` inner
    iterations, and at the end of the run. With a ``time_budget``, the run
    stops at the first snapshot past the budget (wall time counts optimization
    only, never metric evaluation).
    """
    problem, test = load_problem(cfg)
    eval_data = test if test is not None else problem.data
    rows = []

    def snapshot(iterations, x, elapsed, stage):
        rows.append(
            TraceRow(
                wall_time_s=elapsed,
                cumulative_iterations=iterations,
                stage=stage,
                objective_original=objective_original(problem, x),
                test_metric=test_metric(eval_data, x),
                nnz=int(np.count_nonzero(x)),
            )
        )
        if cfg.time_budget is not None and elapsed > cfg.time_budget:
            raise _TimeBudgetExceeded

    x0 = np.zeros(problem.d)
    if cfg.method in (CNS_A, CNS_NA, FIXED_GAMMA):
        snapshot(0, x0, 0.0, 0)
        driver = pick_driver(problem, cfg.lam1)
        try:
            x, reports = driver(problem, continuation_config(cfg), callback=snapshot,
                                callback_every=cfg.cadence)
            total = sum(r.budget for r in reports)
            elapsed = sum(r.wall_time for r in reports)
            if not rows or rows[-1].cumulative_iterations != total:
                snapshot(total, x, elapsed, reports[-1].s if reports else 0)
        except _TimeBudgetExceeded:
            pass
    else:
        rows.append(
            TraceRow(0.0, 0, -1, objective_original(problem, x0),
                     test_metric(eval_data, x0), 0)
        )
        try:
            run = bl.run_baseline(
                problem, baseline_spec_for(cfg), cfg.iterations,
                callback=lambda t, x, e: snapshot(t, x, e, -1),
                callback_every=cfg.cadence,
            )
            if rows[-1].cumulative_iterations != cfg.iterations:
                snapshot(cfg.iterations, run.x, run.elapsed, -1)
        except _TimeBudgetExceeded:
            pass

    if cfg.output:
        write_trace(rows, cfg.output)
    return rows


_FIELDS = (
    "wall_time_s",
    "cumulative_iterations",
    "stage",
    "objective_original",
    "test_metric",
    "nnz",
)


def write_trace(rows, path):
    """CSV with a header row; floats carry 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_FIELDS)
        for row in rows:
            writer.writerow(
                [
                    f"{row.wall_time_s:.17g}",
                    row.cumulative_iterations,
                    row.stage,
                    f"{row.objective_original:.17g}",
                    f"{row.test_metric:.17g}",
                    row.nnz,
                ]
            )


def read_trace(path):
    """Read back a trace CSV written by write_trace."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(
                TraceRow(
                    wall_time_s=float(rec["wall_time_s"]),
                    cumulative_iterations=int(rec["cumulative_iterations"]),
                    stage=int(rec["stage"]),
                    objective_original=float(rec["objective_original"]),
                    test_metric=float(rec["test_metric"]),
                    nnz=int(rec["nnz"]),
                )
            )
    return rows


@dataclass
class MethodSummary:
    name: str
    reached: bool
    iterations_to_target: "int | None"
    time_to_target: "float | None"
    slope: "float | None"
    final_gap: float


def gap_slope(rows, reference, trailing=0.5):
    """Least-squares slope of log10(gap) vs log10(iterations) over the trailing
    fraction of a trace. None when fewer than two usable points exist."""
    pts = [
        (math.log10(r.cumulative_iterations), math.log10(max(r.objective_original - reference, 1e-16)))
        for r in rows
        if r.cumulative_iterations > 0
    ]
    if len(pts) < 2:
        return None
    start = int(len(pts) * (1.0 - trailing))
    tail = pts[start:] if len(pts) - start >= 2 else pts[-2:]
    xs, ys = zip(*tail)
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)


def compare_report(traces, target_gap, reference):
    """Per-method iterations/time to reach ``gap <= target_gap`` plus the
    trailing log-log slope of gap vs iterations.

    ``traces`` maps method names to TraceRow lists; ``reference`` is the
    optimum the gaps are measured against.
    """
    if len(traces) < 2:
        raise ValueError("compare_report needs at least two traces")
    summaries = []
    for name, rows in traces.items():
        reached = None
        for row in rows:
            if row.objective_original - reference <= target_gap:
                reached = row
                break
        summaries.append(
            MethodSummary(
                name=name,
                reached=reached is not None,
                iterations_to_target=reached.cumulative_iterations if reached else None,
                time_to_target=reached.wall_time_s if reached else None,
                slope=gap_slope(rows, reference),
                final_gap=rows[-1].objective_original - reference,
            )
        )
    return summaries


def render_report(summaries, target_gap):
    """Plain-text lines for a comparison summary."""
    lines = [f"target gap: {target_gap:g}"]
    for s in summaries:
        if s.reached:
            head = (
                f"{s.name}: reached in {s.iterations_to_target} iterations "
                f"({s.time_to_target:.3g}s)"
            )
        else:
            head = f"{s.name}: unreached (final gap {s.final_gap:.3g})"
        slope = "n/a" if s.slope is None else f"{s.slope:.3f}"
        lines.append(f"{head}, trailing slope {slope}")
    return "\n".join(lines)


def tune_stepsize(cfg, grid, epochs=3, subset_fraction=0.2):
    """Pick the step scale with the lowest final training objective on a seeded
    subset of the training data.

    Runs each candidate for a few epochs on ``subset_fraction`` of the samples;
    candidates that raise a CnsError (divergence included) or a
    FloatingPointError are skipped, any other exception propagates; raises
    TuningError if every candidate is skipped. The tuned knob is ``eta0`` for
    the baselines and ``step_scale`` for the continuation methods.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    problem, _ = load_problem(cfg)
    rng = np.random.default_rng(cfg.seed)
    n_sub = max(1, math.ceil(subset_fraction * problem.n))
    subset = problem.data.subset(rng.permutation(problem.n)[:n_sub])
    sub_problem = CompositeProblem(subset, problem.loss, problem.reg)
    budget = max(1, epochs * math.ceil(n_sub / cfg.batch_size))

    best = None
    for candidate in grid:
        if cfg.method in (CNS_A, CNS_NA, FIXED_GAMMA):
            trial = replace(cfg, step_scale=candidate, t1=max(1, budget // max(cfg.stages, 1)))
            driver = pick_driver(sub_problem, trial.lam1)
            try:
                x, _ = driver(sub_problem, continuation_config(trial))
            except (CnsError, FloatingPointError):
                continue
        else:
            spec = baseline_spec_for(replace(cfg, eta0=candidate, rda_scale=candidate))
            try:
                x = bl.run_baseline(sub_problem, spec, budget).x
            except (CnsError, FloatingPointError):
                continue
        value = objective_original(sub_problem, x)
        if not math.isfinite(value):
            continue
        if best is None or value < best[1]:
            best = (candidate, value)
    if best is None:
        raise TuningError("every step-size candidate diverged")
    return best[0]


def default_worker_count():
    env = os.environ.get("CNSOPT_WORKERS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1
