"""Golden final iterates of seeded runs, pinned bit for bit.

The hinge literals were computed before the four solver runners and the
baseline loop were folded into ``solvers.drive``, the absolute-loss ones
before the per-loss branches were merged into the loss table (``apg-tk``
before ``run_solver`` lost its caller-set momentum modulus). The baselines
run the schedule their problem's modulus picks: 1/(mu t) on the hinge
problem (mu = 0.05), 1/sqrt(t) on the absolute one (mu = 0); hinge ``rda``
was pinned when the baselines took that schedule from the problem, until
then it had run 1/sqrt(t) there. The full-gradient literals (prox-gd and apg
on both problems, and apg-tk) were pinned when those steps took the spectral
Lipschitz bound lambda_max(Z'Z / n) / gamma + lam. A change that
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
    "prox-gd": ["0x1.4e5a5fa31a1d3p-1", "-0x1.7d8fe815084c5p+0", "0x1.53a8b996cd9cap-2",
                "0x1.146e113bb3d2ap-2", "0x1.c69e36f573e98p-1"],
    "apg": ["0x1.70f01cca56130p-1", "-0x1.a316d62dee996p+0", "0x1.c599c0d76ba61p-2",
            "0x1.0bdc1b4cb584bp-2", "0x1.0bc84ccee20dcp+0"],
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
    "prox-gd": ["0x1.f5c5e26e03396p-1", "-0x1.b00400fedf8a5p+0", "0x1.b6e4c3378bda5p-2",
                "-0x1.4db8ff039b777p-9", "0x1.742545566491fp+0"],
    "apg": ["0x1.12109ecb2d653p+0", "-0x1.f77e2a1dd6a0bp+0", "0x1.d8cd368f07712p-2",
            "-0x1.126cde6f81e87p-12", "0x1.7aef2666515bep+0"],
    "acc-prox-svrg": ["0x1.17a9104ec48fcp-1", "-0x1.30414ab5e7a00p-1", "0x1.c843e24d0c3dep-3",
                      "-0x1.25d6de0f60654p-5", "0x1.7a0f470271747p-1"],
    "apg-tk": ["0x1.0f2a02171443cp+0", "-0x1.f7e65eaca6073p+0", "0x1.e0e5ddbb33523p-2",
               "-0x1.d4e34f312c49fp-10", "0x1.7d225ba761b5cp+0"],
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
        spec = BaselineSpec(method=name, eta0=0.5, batch_size=16, seed=7)
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
