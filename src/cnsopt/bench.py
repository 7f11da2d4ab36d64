"""Experiment harness: run a method on a dataset, snapshot metrics on a cadence,
emit CSV traces, and compare traces against a reference optimum."""

import csv
import logging
import math
import os
from dataclasses import dataclass, fields, replace

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
from .solvers import ACC_PROX_SVRG, PROX_SVRG, SolverSpec, solver_family

log = logging.getLogger(__name__)

CNS_A = "cns-a"
CNS_NA = "cns-na"
FIXED_GAMMA = "fixed-gamma"
CONTINUATION_METHODS = (CNS_A, CNS_NA, FIXED_GAMMA)
METHODS = CONTINUATION_METHODS + (bl.FOBOS, bl.RDA, bl.POLY_SGD)


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
        if self.time_budget is not None and self.time_budget < 0:
            raise ValueError(f"time_budget must be >= 0, got {self.time_budget}")
        dual_spec(self.loss)  # raises ValueError for a loss not in the loss table
        if self.solver is not None:
            solver_family(self.solver)  # and for a solver id with no runner


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
    scores = dataset.features.dot(x)
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
        batch_size=cfg.batch_size,
        step_scale=cfg.step_scale,
        seed=cfg.seed,
    )


def continuation_config(cfg):
    spec = solver_spec_for(cfg)
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


def _run_method(cfg, problem, callback=None):
    """Run ``cfg.method`` on ``problem`` from x = 0; return (final x, inner
    iterations, optimization seconds, last stage).

    ``callback(iterations, x, elapsed, stage)`` is called every ``cfg.cadence``
    inner iterations; baselines report stage -1.
    """
    if cfg.method in CONTINUATION_METHODS:
        driver = pick_driver(problem, cfg.lam1)
        x, reports = driver(problem, continuation_config(cfg), callback=callback,
                            callback_every=cfg.cadence)
        return (x, sum(r.budget for r in reports), sum(r.wall_time for r in reports),
                reports[-1].s if reports else 0)
    on_step = None if callback is None else (lambda t, x, e: callback(t, x, e, -1))
    run = bl.run_baseline(problem, baseline_spec_for(cfg), cfg.iterations,
                          callback=on_step, callback_every=cfg.cadence)
    return run.x, cfg.iterations, run.elapsed, -1


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

    try:
        snapshot(0, np.zeros(problem.d), 0.0, 0 if cfg.method in CONTINUATION_METHODS else -1)
        x, total, elapsed, stage = _run_method(cfg, problem, snapshot)
        if rows[-1].cumulative_iterations != total:
            snapshot(total, x, elapsed, stage)
    except _TimeBudgetExceeded:
        pass

    if cfg.output:
        write_trace(rows, cfg.output)
    return rows


def write_trace(rows, path):
    """CSV with a header row; floats carry 17 significant digits."""
    columns = [(f.name, "{:.17g}" if f.type is float else "{}") for f in fields(TraceRow)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in columns])
        for row in rows:
            writer.writerow([form.format(getattr(row, name)) for name, form in columns])


def read_trace(path):
    """Read back a trace CSV written by write_trace. A missing column or a cell
    that does not parse as its column's type raises ValueError naming the
    path, line and column; a trace without rows, one naming the path."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            values = {}
            for f in fields(TraceRow):
                try:
                    values[f.name] = f.type(rec.get(f.name))
                except (TypeError, ValueError):
                    raise ValueError(f"{path}: line {reader.line_num}: {f.name}: expected "
                                     f"{f.type.__name__}, got {rec.get(f.name)!r}") from None
            rows.append(TraceRow(**values))
    if not rows:
        raise ValueError(f"{path}: no trace rows")
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
    the baselines and ``step_scale`` for the continuation methods. A pick at
    the smallest or largest value of a grid of two or more values is logged
    as a warning, since the best step may then lie outside the grid.
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
        # each method reads only its own knobs: step_scale and t1, or eta0,
        # rda_scale and iterations
        trial = replace(cfg, step_scale=candidate, t1=max(1, budget // max(cfg.stages, 1)),
                        eta0=candidate, rda_scale=candidate, iterations=budget)
        try:
            x = _run_method(trial, sub_problem)[0]
        except (CnsError, FloatingPointError):
            continue
        value = objective_original(sub_problem, x)
        if not math.isfinite(value):
            continue
        if best is None or value < best[1]:
            best = (candidate, value)
    if best is None:
        raise TuningError("every step-size candidate diverged")
    lo, hi = min(grid), max(grid)
    if lo < hi and best[0] in (lo, hi):
        log.warning("%s: tuned step %g is the %s edge of the grid %s", cfg.method, best[0],
                    "lower" if best[0] == lo else "upper", list(grid))
    return best[0]


def default_worker_count():
    env = os.environ.get("CNSOPT_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"CNSOPT_WORKERS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1
