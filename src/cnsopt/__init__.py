"""Continuation of smoothed surrogates for nonsmooth regularized risk minimization.

The pieces compose bottom-up: datasets feed composite problems; the smoothing
module supplies surrogate losses, gradients, and smoothness constants; inner
solvers minimize one smoothed stage; the continuation drivers chain stages
with shrinking smoothing levels; baselines and the benchmark harness reproduce
the solver races.
"""

from .baselines import BaselineSpec, run_baseline, run_fobos, run_poly_sgd, run_rda
from .bench import RunConfig, TraceRow, compare_report, run_experiment, tune_stepsize
from .continuation import (
    ContinuationConfig,
    StageReport,
    auto_t1,
    cns_general_convex,
    cns_strongly_convex,
    measure_stage_reduction,
    reference_objective,
    stage_budget,
)
from .datasets import (
    CLASSIFICATION,
    REGRESSION,
    SparseDataset,
    SyntheticReference,
    SyntheticSpec,
    libsvm_dumps,
    make_synthetic,
    parse_libsvm,
    sample_minibatch,
    serialize_libsvm,
)
from .errors import (
    BudgetEstimationError,
    CnsError,
    DivergenceError,
    InfeasibleBudgetError,
    LibsvmFormatError,
    StageConvergedError,
    TuningError,
    WrongDriverError,
)
from .problem import (
    CompositeProblem,
    Regularizer,
    SmoothedProblem,
    objective_original,
    objective_smoothed,
)
from .prox import prox_l1, prox_regularizer
from .smoothing import (
    ABSOLUTE,
    HINGE,
    LOSSES,
    LossDualSpec,
    condition_number,
    dual_spec,
    lipschitz_constant,
    loss_gradient,
    slacks,
    smoothed_loss_gradient,
    smoothing_gap,
)
from .solvers import (
    SolverRun,
    SolverSpec,
    required_t1,
    run_solver,
)

__version__ = "0.1.0"
