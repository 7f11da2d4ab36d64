"""Experiment harness: run a method on a dataset, snapshot metrics on a cadence,
emit CSV traces, and compare traces against a reference optimum.

``load_problem`` builds each input once per process: it keeps the datasets of
the last two inputs it built (a training set and its test set), by the
digest of a LIBSVM file's bytes or by the synthetic spec, with every array
read-only, so that the runs of a race or a sweep share them. A snapshot on the
training set takes the objective and the metric from one product of its rows.
"""

import csv
import hashlib
import logging
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy.sparse as sparse

from . import baselines as bl
from .continuation import (
    ContinuationConfig,
    cns_general_convex,
    cns_strongly_convex,
)
from .datasets import (
    CLASSIFICATION,
    SyntheticSpec,
    make_synthetic,
    parse_libsvm,
)
from .errors import (COUNT, NONNEGATIVE, POSITIVE, SEED, CnsError, TuningError, check_fields,
                     check_finite)
from .problem import CompositeProblem, Regularizer, objective_original
from .smoothing import HINGE, dual_spec
from .solvers import ACC_PROX_SVRG, PROX_SVRG, SolverSpec

log = logging.getLogger(__name__)

CNS_A = "cns-a"
CNS_NA = "cns-na"
CONTINUATION_METHODS = (CNS_A, CNS_NA)
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

    Exactly one of ``dataset`` (a path) or ``synthetic`` must be given, and
    ``test_dataset`` only with ``dataset``. The continuation-specific fields
    are ignored by the baselines and vice versa; every field is checked
    against its annotation (``errors.check_fields``), and the method's own
    settings by building its ContinuationConfig (nu2 > 0 or lam1 > 0 to fit
    a driver) or BaselineSpec, before any data is read.
    ``cadence`` is the number of inner iterations between metric snapshots;
    snapshot evaluation is excluded from the reported wall times.
    """

    method: str
    loss: str = HINGE
    nu1: NONNEGATIVE = 0.0
    nu2: NONNEGATIVE = 0.0
    dataset: "str | None" = None
    test_dataset: "str | None" = None
    synthetic: "SyntheticSpec | None" = None
    gamma1: POSITIVE = 0.01
    tau: float = 2.0
    t1: "COUNT | None" = None
    lam1: NONNEGATIVE = 0.0
    stages: COUNT = 6
    solver: "str | None" = None
    theta: float = 0.1
    batch_size: COUNT = 50
    step_scale: POSITIVE = 1.0
    eta0: POSITIVE = 1.0
    iterations: COUNT = 1000
    cadence: COUNT = 100
    output: "str | None" = None
    seed: SEED = 0

    def __post_init__(self):
        check_fields(self)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if (self.dataset is None) == (self.synthetic is None):
            raise ValueError("exactly one of dataset / synthetic must be set")
        if self.test_dataset is not None and self.dataset is None:
            raise ValueError("test_dataset needs a dataset: a synthetic run tests on "
                             "its spec at seed + 1")
        task = dual_spec(self.loss).task  # raises ValueError for a loss not in the table
        if self.synthetic is not None and self.synthetic.task != task:
            raise ValueError(f"{self.loss} loss requires a {task} dataset")
        if self.method in CONTINUATION_METHODS:
            continuation_config(self)
            if self.nu2 == 0 and self.lam1 == 0:
                raise ValueError("a continuation run needs nu2 > 0 (the strongly convex "
                                 "driver) or lam1 > 0 (the general convex one)")
        else:
            baseline_spec_for(self)


# the datasets of the last two inputs built (a training set and its test
# set), by key, least recently used first out
_RECENT_INPUTS, _RECENT_INPUTS_LOCK = OrderedDict(), threading.Lock()


def _remembered(key, build):
    """The dataset stored under ``key``, else ``build()``'s, frozen (every
    array read-only, so all callers share it) and stored; a failed build stores nothing."""
    with _RECENT_INPUTS_LOCK:
        if key in _RECENT_INPUTS:
            _RECENT_INPUTS.move_to_end(key)
            return _RECENT_INPUTS[key]
    dataset = build()
    feats = dataset.features
    arrays = (feats.data, feats.indices, feats.indptr) if sparse.issparse(feats) else (feats,)
    for a in (*arrays, dataset.labels):
        a.flags.writeable = False
    with _RECENT_INPUTS_LOCK:
        _RECENT_INPUTS[key] = dataset
        if len(_RECENT_INPUTS) > 2:
            _RECENT_INPUTS.popitem(last=False)
    return dataset


def _libsvm_dataset(path, task, n_features=None):
    """The parsed LIBSVM file at ``path``, keyed on the sha256 of its bytes
    (hashing costs a few percent of a parse), so a file rewritten with other
    bytes is parsed again, even at the same size and mtime, and one rewritten
    with the same bytes is not."""
    with open(path, "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").digest()
    return _remembered(
        (digest, task, n_features),
        lambda: parse_libsvm(path, task=task, n_features=n_features))


def _synthetic_dataset(spec):
    return _remembered(spec, lambda: make_synthetic(spec)[0])


def load_problem(cfg):
    """Materialize (train problem, test dataset or None) from a RunConfig.

    The datasets are built once per process for as long as they are among
    the last two inputs built (``_RECENT_INPUTS``), and are read-only."""
    task = dual_spec(cfg.loss).task
    if cfg.synthetic is not None:
        train = _synthetic_dataset(cfg.synthetic)
        test = _synthetic_dataset(replace(cfg.synthetic, seed=cfg.synthetic.seed + 1))
    else:
        train = _libsvm_dataset(cfg.dataset, task)
        test = None
        if cfg.test_dataset is not None:
            test = _libsvm_dataset(cfg.test_dataset, task, n_features=train.d)
    reg = Regularizer(nu1=cfg.nu1, nu2=cfg.nu2)
    return CompositeProblem(train, cfg.loss, reg), test


def test_metric(dataset, x, scores=None):
    """Misclassification rate of sign(z'x) on a classification dataset, mean
    absolute residual on a regression one.

    ``scores``, when given, is ``CompositeProblem.features.dot(x)`` of a
    problem on ``dataset``, which a snapshot on the training set shares with
    the objective. For classification those rows are signed by the +/-1
    labels, and the labels sign the scores back exactly, up to the sign of a
    zero, which ``>= 0`` does not see.
    """
    if scores is None:
        scores = dataset.features.dot(x)
    elif dataset.task == CLASSIFICATION:
        scores = dataset.labels * scores
    if dataset.task == CLASSIFICATION:
        predicted = np.where(scores >= 0, 1.0, -1.0)
        return float(np.mean(predicted != dataset.labels))
    return float(np.mean(np.abs(dataset.labels - scores)))


def continuation_config(cfg):
    return ContinuationConfig(
        gamma1=cfg.gamma1,
        tau=cfg.tau,
        t1=cfg.t1,
        lam1=cfg.lam1,
        stages=cfg.stages,
        solver=SolverSpec(
            solver=cfg.solver or (PROX_SVRG if cfg.method == CNS_NA else ACC_PROX_SVRG),
            theta=cfg.theta,
            batch_size=cfg.batch_size,
            step_scale=cfg.step_scale,
            seed=cfg.seed,
        ),
    )


def baseline_spec_for(cfg):
    """The baselines' step and sampling settings from a RunConfig."""
    return bl.BaselineSpec(
        method=cfg.method,
        eta0=cfg.eta0,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
    )


def _run_method(cfg, problem, callback=None):
    """Run ``cfg.method`` on ``problem`` from x = 0; return (final x, inner
    iterations, optimization seconds, last stage).

    ``callback(iterations, x, elapsed, stage)`` is called every ``cfg.cadence``
    inner iterations; baselines pass no stage, so it must default to -1.
    """
    if cfg.method in CONTINUATION_METHODS:
        # no stage ridge picks the strongly convex driver: RunConfig has then
        # checked nu2 > 0, so the problem has its own modulus; the drivers are
        # looked up here, so a wrapped module global runs
        driver = cns_strongly_convex if cfg.lam1 == 0 else cns_general_convex
        x, reports = driver(problem, continuation_config(cfg), callback=callback,
                            callback_every=cfg.cadence)
        return (x, sum(r.budget for r in reports), sum(r.wall_time for r in reports),
                len(reports))
    run = bl.run_baseline(problem, baseline_spec_for(cfg), cfg.iterations,
                          callback=callback, callback_every=cfg.cadence)
    return run.x, cfg.iterations, run.elapsed, -1


def run_experiment(cfg):
    """Execute the configured method, returning TraceRows (and writing CSV).

    Rows are emitted before the first iteration, every ``cadence`` inner
    iterations, and at the end of the run; wall time counts optimization only,
    never metric evaluation.
    """
    problem, test = load_problem(cfg)
    eval_data = test if test is not None else problem.data
    rows = []

    def snapshot(iterations, x, elapsed, stage=-1):
        # without a test set, the objective and the metric share one product
        scores = problem.features.dot(x) if test is None else None
        rows.append(
            TraceRow(
                wall_time_s=elapsed,
                cumulative_iterations=iterations,
                stage=stage,
                objective_original=objective_original(problem, x, scores),
                test_metric=test_metric(eval_data, x, scores),
                nnz=int(np.count_nonzero(x)),
            )
        )

    snapshot(0, np.zeros(problem.d), 0.0, 0 if cfg.method in CONTINUATION_METHODS else -1)
    x, total, elapsed, stage = _run_method(cfg, problem, snapshot)
    if rows[-1].cumulative_iterations != total:
        snapshot(total, x, elapsed, stage)

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


def gap_slope(rows, reference):
    """Least-squares slope of log10(gap) vs log10(iterations) over the second
    half of a trace. None when fewer than two usable points exist."""
    pts = [
        (math.log10(r.cumulative_iterations), math.log10(max(r.objective_original - reference, 1e-16)))
        for r in rows
        if r.cumulative_iterations > 0
    ]
    if len(pts) < 2:
        return None
    start = len(pts) // 2
    tail = pts[start:] if len(pts) - start >= 2 else pts[-2:]
    xs, ys = zip(*tail)
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)


def compare_report(traces, target_gap, reference):
    """Per-method iterations/time to reach ``gap <= target_gap`` plus the
    trailing log-log slope of gap vs iterations.

    ``traces`` maps method names to TraceRow lists; ``reference`` is the
    optimum the gaps are measured against. Both numbers must be finite, and
    the target gap positive.
    """
    if len(traces) < 2:
        raise ValueError("compare_report needs at least two traces")
    check_finite(target_gap=target_gap, reference=reference)
    if target_gap <= 0:
        raise ValueError(f"target_gap must be > 0, got {target_gap}")
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


def tune_stepsize(cfg, grid):
    """Pick the step scale with the lowest final training objective on a seeded
    subset of the training data.

    Runs each candidate for three epochs on a seeded 20% of the samples;
    candidates that raise a CnsError (divergence included) or a
    FloatingPointError are skipped, any other exception propagates; raises
    TuningError if every candidate is skipped. The tuned knob is ``eta0`` for
    the baselines and ``step_scale`` for the continuation methods. A pick at
    the smallest or largest value of a grid of two or more values is logged
    as a warning, since the best step may then lie outside the grid. A grid
    value that is not finite and positive raises ValueError naming it, before
    any data is read.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    knob = "step_scale" if cfg.method in CONTINUATION_METHODS else "eta0"
    for candidate in grid:
        if not 0 < candidate < math.inf:
            raise ValueError(f"grid value {candidate:g}: {knob} must be finite and positive")
    problem, _ = load_problem(cfg)
    rng = np.random.default_rng(cfg.seed)
    n_sub = max(1, math.ceil(0.2 * problem.n))
    subset = problem.data.subset(rng.permutation(problem.n)[:n_sub])
    sub_problem = CompositeProblem(subset, problem.loss, problem.reg)
    budget = max(1, 3 * math.ceil(n_sub / cfg.batch_size))

    best = None
    for candidate in grid:
        # each method reads only its own knobs: step_scale and t1, or eta0 and
        # iterations
        trial = replace(cfg, step_scale=candidate, t1=max(1, budget // cfg.stages),
                        eta0=candidate, iterations=budget)
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
