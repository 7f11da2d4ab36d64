"""Inner solvers for one smoothed stage, and the per-stage budget calculator.

All solvers run for exactly the requested number of inner iterations, apply
the regularizer (plus any stage ridge term) through its exact prox, and use
the smoothed loss gradient for the smooth part. Batch solvers are
deterministic; stochastic ones are deterministic given their seed.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import smoothing
from .datasets import epoch_batches, minibatches
from .errors import DivergenceError, InfeasibleBudgetError
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

# the runnable solvers; SAGA and MISO have budget rows only
_FAMILY = {
    PROX_GD: NON_ACCELERATED,
    PROX_SVRG: NON_ACCELERATED,
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

    theta scales the Prox-SVRG step (eta = theta/L). step_scale multiplies the
    base step and is the knob the benchmark's tuner sweeps. The
    variance-reduced solvers refresh their snapshot every ceil(n / batch_size)
    inner iterations.
    """

    solver: str = PROX_GD
    theta: float = 0.1
    batch_size: int = 50
    step_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        solver_family(self.solver)
        if not 0.0 < self.theta < 0.25:
            raise ValueError(f"theta must be in (0, 0.25), got {self.theta}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
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

    ``elapsed`` is optimization wall time with callbacks fenced out.
    """

    x: np.ndarray
    iterations: int
    elapsed: float = 0.0


def start_point(x0, d):
    """A float copy of the start point ``x0``, or zeros when it is None."""
    if x0 is None:
        return np.zeros(d)
    x0 = np.array(x0, dtype=float)
    if x0.shape != (d,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({d},)")
    return x0


def drive(step, x0, budget, *, callback=None, callback_every=None, context=""):
    """Shared iteration loop: timing, divergence checks, callbacks.

    ``step(t, x)`` returns the iterate to report after inner iteration t; the
    loop checks it for finiteness and passes it to the next step.
    ``callback(t, x, elapsed)`` runs every ``callback_every`` iterations.
    """
    x = np.array(x0, dtype=float)
    if budget < 1:
        raise ValueError(f"iteration budget must be >= 1, got {budget}")
    if callback is not None and (callback_every is None or callback_every < 1):
        raise ValueError(f"a callback needs callback_every >= 1, got {callback_every}")
    if not np.isfinite(x).all():
        raise DivergenceError(f"{context}non-finite start point")
    elapsed = 0.0
    tick = time.perf_counter()
    # divergence is detected and raised; silence the overflow noise on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, budget + 1):
            x = step(t, x)
            # a finite x'x (.dot: the BLAS without the gufunc's dispatch)
            # proves every entry finite; the full check decides the
            # overflowing case
            if not (math.isfinite(x.dot(x)) or np.isfinite(x).all()):
                raise DivergenceError(
                    f"{context}non-finite iterate at inner iteration {t}"
                )
            if callback is not None and t % callback_every == 0:
                elapsed += time.perf_counter() - tick
                callback(t, x, elapsed)
                tick = time.perf_counter()
    elapsed += time.perf_counter() - tick
    return SolverRun(x=x, iterations=budget, elapsed=elapsed)


def run_solver(spec, sp, x0, budget, mu_eff=None, rng=None, **kwargs):
    """Run the inner solver named by ``spec.solver`` on one smoothed stage.

    All four are one proximal-gradient step with two switches:

    - gradient: the full smoothed gradient (prox-gd, apg), or the mini-batch
      variance-reduced estimate around a full-gradient snapshot refreshed
      every epoch (prox-svrg, acc-prox-svrg);
    - momentum (apg, acc-prox-svrg): the constant
      (sqrt(kappa)-1)/(sqrt(kappa)+1) from ``mu_eff`` (default: the stage
      modulus) when mu_eff > 0, else the t_k extrapolation sequence;
      acc-prox-svrg restarts it at every snapshot.

    The step is step_scale/L, times theta for prox-svrg. Stochastic solvers
    step through one ``minibatches`` stream on ``rng`` (default: seeded from
    ``spec.seed``), whose epochs line up with the snapshot refreshes: each
    refresh keeps the full pass's per-sample weights and gathers the epoch's
    rows, offsets and snapshot weights once (``epoch_batches``).
    """
    variance_reduced = spec.solver in (PROX_SVRG, ACC_PROX_SVRG)
    momentum = spec.accelerated
    L = lipschitz_constant(sp)
    if spec.solver == PROX_SVRG:
        eta = spec.theta * spec.step_scale / L
    else:
        eta = spec.step_scale / L
    reg, lam = sp.base.reg, sp.lam
    x0 = start_point(x0, sp.base.d)
    state = {"y": x0.copy(), "tk": 1.0}

    beta_const = None
    if momentum:
        if mu_eff is None:
            mu_eff = sp.base.mu + sp.lam
        if mu_eff > 0:
            q = min(1.0, mu_eff / L)
            beta_const = (1.0 - math.sqrt(q)) / (1.0 + math.sqrt(q))

    if variance_reduced:
        rng = rng if rng is not None else np.random.default_rng(spec.seed)
        n = sp.base.n
        b = min(spec.batch_size, n)
        m = math.ceil(n / b)
        blocks = minibatches(n, b, rng, budget)
        loss, gamma = sp.base.loss, sp.gamma
        feats, offsets = sp.base.features, sp.base.offsets

    def step(t, x):
        if variance_reduced and (t - 1) % m == 0:
            state["full"], weights = smoothing.loss_gradient(sp, x, with_weights=True)
            state["epoch"] = epoch_batches(next(blocks), feats, offsets, weights)
            if momentum:
                state["y"] = x.copy()
                state["tk"] = 1.0
        y = state["y"] if momentum else x
        if variance_reduced:
            rows, c, snap_weights = next(state["epoch"])
            g = smoothing.vr_gradient_kernel(rows, c, loss, gamma, y, snap_weights,
                                             state["full"])
        else:
            g = smoothing.loss_gradient(sp, y)
        x_new = prox_regularizer(y - eta * g, eta, reg, lam)
        if momentum:
            if beta_const is None:
                tk = state["tk"]
                tk_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
                beta = (tk - 1.0) / tk_new
                state["tk"] = tk_new
            else:
                beta = beta_const
            state["y"] = x_new + beta * (x_new - x)
        return x_new

    return drive(step, x0, budget, **kwargs)


def required_t1(solver, kappa, rho, n=None, theta=0.1, p=0.5):
    """Iteration budget for one stage at condition number ``kappa`` and target
    reduction factor ``rho``, per the standard solver budget rows.

    ``solver`` is a runnable solver id, "saga" or "miso"; ``theta`` enters the
    prox-svrg row and ``p`` the acc-prox-svrg row. SAGA and MISO need the
    sample count ``n``. Returns a ceiling. Parameter combinations violating a
    row's feasibility constraint raise InfeasibleBudgetError.
    """
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
