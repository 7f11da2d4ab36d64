"""Inner solvers for one smoothed stage, and the per-stage budget calculator.

All solvers run for exactly the requested number of inner iterations, apply
the regularizer (plus any stage ridge term) through its exact prox, and use
the smoothed loss gradient for the smooth part. Batch solvers are
deterministic; stochastic ones are deterministic given their seed.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import smoothing
from .datasets import sample_minibatch
from .errors import DivergenceError, InfeasibleBudgetError
from .problem import objective_smoothed
from .prox import prox_regularizer
from .smoothing import lipschitz_constant

PROX_GD = "prox-gd"
APG = "apg"
PROX_SVRG = "prox-svrg"
ACC_PROX_SVRG = "acc-prox-svrg"
SAGA = "saga"
MISO = "miso"

NON_ACCELERATED = "non-accelerated"
ACCELERATED = "accelerated"

_FAMILY = {
    PROX_GD: NON_ACCELERATED,
    PROX_SVRG: NON_ACCELERATED,
    SAGA: NON_ACCELERATED,
    MISO: NON_ACCELERATED,
    APG: ACCELERATED,
    ACC_PROX_SVRG: ACCELERATED,
}


def solver_family(solver):
    try:
        return _FAMILY[solver]
    except KeyError:
        raise ValueError(f"unknown solver {solver!r}") from None


@dataclass(frozen=True)
class SolverSpec:
    """Inner-solver choice and hyperparameters.

    theta scales the Prox-SVRG step (eta = theta/L); p enters the accelerated
    variance-reduced budget row only. step_scale multiplies the base step and
    is the knob the benchmark's tuner sweeps. epoch_length defaults to
    ceil(n / batch_size) inner iterations per snapshot.
    """

    solver: str = PROX_GD
    theta: float = 0.1
    p: float = 0.5
    batch_size: int = 50
    epoch_length: "int | None" = None
    step_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        solver_family(self.solver)
        if not 0.0 < self.theta < 0.25:
            raise ValueError(f"theta must be in (0, 0.25), got {self.theta}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {self.p}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epoch_length is not None and self.epoch_length < 1:
            raise ValueError("epoch_length must be >= 1")
        if self.step_scale <= 0:
            raise ValueError("step_scale must be positive")

    @property
    def family(self):
        return solver_family(self.solver)

    @property
    def accelerated(self):
        return self.family == ACCELERATED


@dataclass
class SolverRun:
    """Result of one inner solve.

    ``trace`` holds (iteration, elapsed_seconds, stage_objective) checkpoints;
    ``elapsed`` is optimization wall time with checkpoint evaluation and
    callbacks fenced out.
    """

    x: np.ndarray
    iterations: int
    trace: list = field(default_factory=list)
    elapsed: float = 0.0


def _drive(step, sp, x0, budget, *, callback=None, callback_every=None,
           record_every=None, context=""):
    """Shared iteration loop: timing, divergence checks, traces, callbacks."""
    d = sp.base.d
    x = np.array(x0, dtype=float)
    if x.shape != (d,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({d},)")
    if budget < 1:
        raise ValueError(f"iteration budget must be >= 1, got {budget}")
    if not np.isfinite(x).all():
        raise DivergenceError(f"{context}non-finite start point")
    trace = []
    elapsed = 0.0
    tick = time.perf_counter()
    # divergence is detected and raised; silence the overflow noise on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, budget + 1):
            x = step(t, x)
            if not np.isfinite(x).all():
                raise DivergenceError(
                    f"{context}non-finite iterate at inner iteration {t}"
                )
            want_record = record_every is not None and (
                t % record_every == 0 or t == budget
            )
            want_callback = (
                callback is not None
                and callback_every is not None
                and t % callback_every == 0
            )
            if want_record or want_callback:
                elapsed += time.perf_counter() - tick
                if want_record:
                    trace.append((t, elapsed, objective_smoothed(sp, x)))
                if want_callback:
                    callback(t, x, elapsed)
                tick = time.perf_counter()
    elapsed += time.perf_counter() - tick
    return SolverRun(x=x, iterations=budget, trace=trace, elapsed=elapsed)


def run_prox_gd(sp, x0, budget, spec=None, mu_eff=None, rng=None, **kwargs):
    """Full-batch proximal gradient with step 1/L (scaled by spec.step_scale)."""
    spec = spec or SolverSpec(solver=PROX_GD)
    eta = spec.step_scale / lipschitz_constant(sp)
    reg, lam = sp.base.reg, sp.lam

    def step(t, x):
        g = smoothing.loss_gradient(sp, x)
        return prox_regularizer(x - eta * g, eta, reg, lam)

    return _drive(step, sp, x0, budget, **kwargs)


def run_apg(sp, x0, budget, spec=None, mu_eff=None, rng=None, **kwargs):
    """Accelerated proximal gradient.

    With mu_eff > 0 the momentum is the constant (sqrt(kappa)-1)/(sqrt(kappa)+1);
    with mu_eff = 0 it falls back to the usual t_k extrapolation sequence
    (used by the long-run reference oracles on general convex problems).
    """
    spec = spec or SolverSpec(solver=APG)
    L = lipschitz_constant(sp)
    eta = spec.step_scale / L
    if mu_eff is None:
        mu_eff = sp.base.mu + sp.lam
    reg, lam = sp.base.reg, sp.lam
    state = {"y": np.array(x0, dtype=float), "tk": 1.0}
    if mu_eff > 0:
        q = min(1.0, mu_eff / L)
        beta_const = (1.0 - math.sqrt(q)) / (1.0 + math.sqrt(q))
    else:
        beta_const = None

    def step(t, x):
        g = smoothing.loss_gradient(sp, state["y"])
        x_new = prox_regularizer(state["y"] - eta * g, eta, reg, lam)
        if beta_const is None:
            tk = state["tk"]
            tk_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
            beta = (tk - 1.0) / tk_new
            state["tk"] = tk_new
        else:
            beta = beta_const
        state["y"] = x_new + beta * (x_new - x)
        return x_new

    return _drive(step, sp, x0, budget, **kwargs)


def _epoch_length(spec, n):
    if spec.epoch_length is not None:
        return spec.epoch_length
    return math.ceil(n / min(spec.batch_size, n))


def run_prox_svrg(sp, x0, budget, spec=None, mu_eff=None, rng=None, **kwargs):
    """Mini-batch proximal SVRG: full-gradient snapshot per epoch, step theta/L."""
    spec = spec or SolverSpec(solver=PROX_SVRG)
    rng = rng if rng is not None else np.random.default_rng(spec.seed)
    eta = spec.theta * spec.step_scale / lipschitz_constant(sp)
    n = sp.base.n
    b = min(spec.batch_size, n)
    m = _epoch_length(spec, n)
    reg, lam, loss, gamma = sp.base.reg, sp.lam, sp.base.loss, sp.gamma
    feats, labels = sp.base.features, sp.base.data.labels
    state = {}

    def step(t, x):
        if (t - 1) % m == 0:
            state["snap"] = x.copy()
            state["full"] = smoothing.loss_gradient(sp, x)
        batch = sample_minibatch(n, b, rng)
        rows, yb = feats[batch], labels[batch]
        v = smoothing.vr_gradient_kernel(
            rows, yb, loss, gamma, x, state["snap"], state["full"]
        )
        return prox_regularizer(x - eta * v, eta, reg, lam)

    return _drive(step, sp, x0, budget, **kwargs)


def run_acc_prox_svrg(sp, x0, budget, spec=None, mu_eff=None, rng=None, **kwargs):
    """Momentum-augmented mini-batch proximal SVRG.

    The extrapolation sequence restarts at every snapshot; the momentum
    coefficient is fixed from the stage condition number (the t_k sequence is
    used if no strong convexity is available).
    """
    spec = spec or SolverSpec(solver=ACC_PROX_SVRG)
    rng = rng if rng is not None else np.random.default_rng(spec.seed)
    L = lipschitz_constant(sp)
    eta = spec.step_scale / L
    if mu_eff is None:
        mu_eff = sp.base.mu + sp.lam
    n = sp.base.n
    b = min(spec.batch_size, n)
    m = _epoch_length(spec, n)
    reg, lam, loss, gamma = sp.base.reg, sp.lam, sp.base.loss, sp.gamma
    feats, labels = sp.base.features, sp.base.data.labels
    if mu_eff > 0:
        q = min(1.0, mu_eff / L)
        beta_const = (1.0 - math.sqrt(q)) / (1.0 + math.sqrt(q))
    else:
        beta_const = None
    state = {"tk": 1.0}

    def step(t, x):
        if (t - 1) % m == 0:
            state["snap"] = x.copy()
            state["full"] = smoothing.loss_gradient(sp, x)
            state["y"] = x.copy()
            state["tk"] = 1.0
        y = state["y"]
        batch = sample_minibatch(n, b, rng)
        rows, yb = feats[batch], labels[batch]
        v = smoothing.vr_gradient_kernel(
            rows, yb, loss, gamma, y, state["snap"], state["full"]
        )
        x_new = prox_regularizer(y - eta * v, eta, reg, lam)
        if beta_const is None:
            tk = state["tk"]
            tk_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
            beta = (tk - 1.0) / tk_new
            state["tk"] = tk_new
        else:
            beta = beta_const
        state["y"] = x_new + beta * (x_new - x)
        return x_new

    return _drive(step, sp, x0, budget, **kwargs)


_RUNNERS = {
    PROX_GD: run_prox_gd,
    APG: run_apg,
    PROX_SVRG: run_prox_svrg,
    ACC_PROX_SVRG: run_acc_prox_svrg,
}


def run_solver(spec, sp, x0, budget, mu_eff=None, rng=None, **kwargs):
    """Dispatch to the runner named by ``spec.solver``.

    SAGA and MISO appear only in the budget calculator, not as runners.
    """
    try:
        runner = _RUNNERS[spec.solver]
    except KeyError:
        raise ValueError(f"{spec.solver!r} is not a runnable solver") from None
    return runner(sp, x0, budget, spec=spec, mu_eff=mu_eff, rng=rng, **kwargs)


def required_t1(solver, kappa, rho, n=None, theta=None, p=None):
    """Iteration budget for one stage at condition number ``kappa`` and target
    reduction factor ``rho``, per the standard solver budget rows.

    ``solver`` is a solver id or a SolverSpec (whose theta/p are used unless
    overridden). SAGA and MISO need the sample count ``n``. Returns a ceiling.
    Parameter combinations violating a row's feasibility constraint raise
    InfeasibleBudgetError.
    """
    if isinstance(solver, SolverSpec):
        theta = solver.theta if theta is None else theta
        p = solver.p if p is None else p
        solver = solver.solver
    theta = 0.1 if theta is None else theta
    p = 0.5 if p is None else p
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")

    if solver == PROX_GD:
        value = 4.0 * kappa * math.log(1.0 / rho)
    elif solver == APG:
        value = math.sqrt(kappa) * math.log(2.0 / rho)
    elif solver == PROX_SVRG:
        if not 0.0 < theta < 0.25:
            raise ValueError(f"theta must be in (0, 0.25), got {theta}")
        denom = (1.0 - 4.0 * theta) * rho - 4.0 * theta
        if denom <= 0.0:
            raise InfeasibleBudgetError(
                f"prox-svrg row needs (1 - 4 theta) rho - 4 theta > 0 "
                f"(theta={theta}, rho={rho})"
            )
        value = theta / denom * (kappa + 4.0)
    elif solver == ACC_PROX_SVRG:
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
        arg = rho / (2.0 + p) - p / (1.0 - p)
        if arg <= 0.0:
            raise InfeasibleBudgetError(
                f"acc-prox-svrg row needs rho > p(2+p)/(1-p) (p={p}, rho={rho})"
            )
        value = math.sqrt(kappa) * math.sqrt(2.0) / (1.0 - p) * math.log(1.0 / arg)
    elif solver == SAGA:
        if n is None:
            raise ValueError("saga budget needs the sample count n")
        value = (3.0 * n / rho) * (3.0 * kappa / n + 1.0)
    elif solver == MISO:
        if n is None:
            raise ValueError("miso budget needs the sample count n")
        value = n * kappa / rho
    else:
        raise ValueError(f"unknown solver {solver!r}")
    return math.ceil(value)
