"""Golden final iterates of seeded runs, pinned bit for bit.

The literals were computed before the four solver runners and the baseline
loop were folded into ``solvers.drive``; a change that alters any rounding in
an inner solver or a baseline (operation order, fused updates, batch draws)
fails here. They hold for numpy 2.x with OpenBLAS; a BLAS that sums the
5-column products in another order may differ in the last bits.
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
    "apg-tk": ["0x1.392ee833cd7d2p-1", "-0x1.61bb7d8cbca18p+0", "0x1.1efed337f2940p-2",
               "0x1.5605c354430e6p-2", "0x1.a82068f8054a2p-1"],
    "fobos": ["0x1.6b1af11ba910cp-1", "-0x1.af614ee86a82fp+0", "0x1.f280818483597p-2",
              "0x1.0252f448f6058p-3", "0x1.05411dfd6e3cdp+0"],
    "rda": ["0x1.317f975dd345ap-1", "-0x1.6a3c59281bc71p+0", "0x1.94fc9bd765d72p-2",
            "0x1.1a4924855da64p-3", "0x1.7ebac5dd28d0ep-1"],
    "poly-sgd": ["0x1.87c3854ce8499p-1", "-0x1.b3ed990ed0b24p+0", "0x1.04db9cadc27dfp-1",
                 "0x1.9e9911b391bf4p-3", "0x1.0658e182d33d8p+0"],
}

BUDGET = 60


def _problem():
    # n=120 with batch 16 gives 8-step epochs, so the 60-step stochastic runs
    # take seven snapshots (and acc-prox-svrg seven momentum restarts)
    rng = np.random.default_rng(2024)
    rows = rng.normal(size=(120, 5)) / math.sqrt(5)
    scores = rows @ np.array([1.0, -2.0, 0.5, 0.0, 1.5]) + 0.3 * rng.normal(size=120)
    labels = np.where(scores >= 0, 1.0, -1.0)
    return CompositeProblem(SparseDataset(rows, labels, "classification"), "hinge",
                            Regularizer(nu1=0.01, nu2=0.05))


def _final_iterate(name):
    prob = _problem()
    if name in ("fobos", "rda", "poly-sgd"):
        spec = BaselineSpec(method=name, eta0=0.5, rda_scale=0.5, batch_size=16, seed=7,
                            strongly_convex=name != "rda")
        return run_baseline(prob, spec, BUDGET).x
    sp = SmoothedProblem(prob, 0.05)
    if name == "apg-tk":
        return run_solver(SolverSpec(solver="apg"), sp, np.zeros(prob.d), BUDGET, mu_eff=0.0).x
    spec = SolverSpec(solver=name, batch_size=16, seed=7)
    return run_solver(spec, sp, np.zeros(prob.d), BUDGET).x


@pytest.mark.parametrize("name", GOLDEN)
def test_final_iterate_matches_golden(name):
    got = [float(v).hex() for v in _final_iterate(name)]
    assert got == GOLDEN[name]
