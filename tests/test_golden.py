"""Golden final iterates of seeded runs, pinned bit for bit.

The hinge literals were computed before the four solver runners and the
baseline loop were folded into ``solvers.drive``, the absolute-loss ones
before the per-loss branches were merged into the loss table (``apg-tk``
before ``run_solver`` lost its caller-set momentum modulus). The baselines
run the schedule their problem's modulus picks: 1/(mu t) on the hinge
problem (mu = 0.05), 1/sqrt(t) on the absolute one (mu = 0); hinge ``rda``
was pinned when the baselines took that schedule from the problem, until
then it had run 1/sqrt(t) there. A change that
alters any rounding in an inner solver, a baseline or a loss kernel
(operation order, fused updates, batch draws) fails here. They hold for
numpy 2.x with OpenBLAS; a BLAS that sums the 5-column products in another
order may differ in the last bits.
"""

import math

import numpy as np
import pytest

from cnsopt import (
    BaselineSpec,
    CompositeProblem,
    Regularizer,
    SmoothedProblem,
    SparseDataset,
    run_baseline,
    run_solver,
)
from cnsopt.solvers import SolverSpec

GOLDEN = {
    "prox-gd": ["0x1.73cea28b42a6cp-4", "-0x1.987c3647c9161p-3", "0x1.48e1387db9e9bp-5",
                "0x1.b47f2eaea4008p-5", "0x1.fb410cb459118p-4"],
    "apg": ["0x1.a501a7f61c48cp-1", "-0x1.d43bd4899de86p+0", "0x1.a2d46d10143eep-2",
            "0x1.8ebca96af0336p-2", "0x1.1ce5417c54ad5p+0"],
    "prox-svrg": ["0x1.2edff53c1f71dp-7", "-0x1.4cc0b9bdfe1f8p-6", "0x1.0be7f5bbb81e8p-8",
                  "0x1.63923638d02f8p-8", "0x1.9d35cd9241c52p-7"],
    "acc-prox-svrg": ["0x1.55a031535e885p-2", "-0x1.79ba9573ae134p-1", "0x1.2fafc830c30fep-3",
                      "0x1.8f7997d730d0fp-3", "0x1.d2a3853ad12b8p-2"],
    "fobos": ["0x1.6b1af11ba910cp-1", "-0x1.af614ee86a82fp+0", "0x1.f280818483597p-2",
              "0x1.0252f448f6058p-3", "0x1.05411dfd6e3cdp+0"],
    "rda": ["0x1.5e426c8f5936ap-1", "-0x1.add2f6fe6922dp+0", "0x1.011e1599fc08ep-1",
            "0x1.a6e73da38920ep-5", "0x1.08f3c8fd3dd2fp+0"],
    "poly-sgd": ["0x1.87c3854ce8499p-1", "-0x1.b3ed990ed0b24p+0", "0x1.04db9cadc27dfp-1",
                 "0x1.9e9911b391bf4p-3", "0x1.0658e182d33d8p+0"],
}

GOLDEN_ABSOLUTE = {
    "prox-gd": ["0x1.21dca5dbf5355p-3", "-0x1.f43ac747ca5a2p-4", "0x1.c6b28c6481ea8p-5",
                "-0x1.0afbf4da307e7p-6", "0x1.913d0bc083e8dp-3"],
    "apg": ["0x1.531132f672231p+0", "-0x1.8ee3b2a446150p+1", "0x1.18c91a35f77f5p-1",
            "0x1.ae6e3cb6c5699p-4", "0x1.0bc99f9bf99f2p+1"],
    "acc-prox-svrg": ["0x1.17a9104ec48fcp-1", "-0x1.30414ab5e7a00p-1", "0x1.c843e24d0c3dep-3",
                      "-0x1.25d6de0f60654p-5", "0x1.7a0f470271747p-1"],
    "apg-tk": ["0x1.e21471e9db9d6p-1", "-0x1.409e72bd27acfp+0", "0x1.91ef5528b747ap-2",
               "-0x1.03952c5999819p-4", "0x1.4da1ed4fe80c2p+0"],
    "fobos": ["0x1.c2d3588bf8333p-1", "-0x1.5b8ad714bd348p+0", "0x1.721b48d70abbcp-2",
              "-0x1.324e91bc446a9p-4", "0x1.4b2c52b6c7134p+0"],
    "rda": ["0x1.ef10c033750f1p-1", "-0x1.e0c69c1b46564p+0", "0x1.03dce4b5dcee8p-1",
            "-0x0.0p+0", "0x1.515fa9760a50ep+0"],
}

BUDGET = 60


def _hinge_problem():
    # n=120 with batch 16 gives 8-step epochs, so the 60-step stochastic runs
    # take seven snapshots (and acc-prox-svrg seven momentum restarts)
    rng = np.random.default_rng(2024)
    rows = rng.normal(size=(120, 5)) / math.sqrt(5)
    scores = rows @ np.array([1.0, -2.0, 0.5, 0.0, 1.5]) + 0.3 * rng.normal(size=120)
    labels = np.where(scores >= 0, 1.0, -1.0)
    return CompositeProblem(SparseDataset(rows, labels, "classification"), "hinge",
                            Regularizer(nu1=0.01, nu2=0.05))


def _absolute_problem():
    # Laplace noise leaves residuals on both linear branches and inside the
    # quadratic one at the final iterates
    rng = np.random.default_rng(2025)
    rows = rng.normal(size=(120, 5)) / math.sqrt(5)
    labels = rows @ np.array([1.0, -2.0, 0.5, 0.0, 1.5]) + 0.2 * rng.laplace(size=120)
    return CompositeProblem(SparseDataset(rows, labels, "regression"), "absolute",
                            Regularizer(nu1=0.01))


def _final_iterate(name, prob, lam=0.0):
    if name in ("fobos", "rda", "poly-sgd"):
        spec = BaselineSpec(method=name, eta0=0.5, rda_scale=0.5, batch_size=16, seed=7)
        return run_baseline(prob, spec, BUDGET).x
    sp = SmoothedProblem(prob, 0.05, lam)
    spec = SolverSpec(solver=name.removesuffix("-tk"), batch_size=16, seed=7)
    return run_solver(spec, sp, np.zeros(prob.d), BUDGET).x


@pytest.mark.parametrize("name", GOLDEN)
def test_final_iterate_matches_golden(name):
    got = [float(v).hex() for v in _final_iterate(name, _hinge_problem())]
    assert got == GOLDEN[name]


@pytest.mark.parametrize("name", GOLDEN_ABSOLUTE)
def test_absolute_final_iterate_matches_golden(name):
    # absolute loss + l1 on a general convex stage (ridge weight lam); apg-tk
    # is apg at lam = 0, whose zero stage modulus runs the t_k sequence
    lam = 0.0 if name == "apg-tk" else 1e-3
    got = [float(v).hex() for v in _final_iterate(name, _absolute_problem(), lam=lam)]
    assert got == GOLDEN_ABSOLUTE[name]
