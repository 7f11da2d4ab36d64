"""Qualitative reproduction of the fixed-smoothing bias floor.

A converged fixed-gamma run can only reach the smoothed problem's own optimum,
which sits a gamma-proportional distance above the true optimum; continuation
passes through that floor by shrinking gamma. The floor constant scales with
the kink dual mass, so this demo uses a quantized-feature suite where whole
clusters of samples sit at the hinge kink at the optimum (with fully general
rows the kink mass, and with it the floor, is capped near d/n).
"""

import numpy as np

from cnsopt import (
    CLASSIFICATION,
    HINGE,
    CompositeProblem,
    ContinuationConfig,
    Regularizer,
    SmoothedProblem,
    SyntheticSpec,
    cns_strongly_convex,
    make_synthetic,
    objective_original,
    reference_objective,
    run_solver,
)
from cnsopt.solvers import SolverSpec


def _atoms_suite():
    spec = SyntheticSpec(n=1000, d=50, task=CLASSIFICATION, sparsity=0.2, noise=0.1,
                         separation=0.8, atoms=80, seed=0)
    data, _ = make_synthetic(spec)
    return CompositeProblem(data, HINGE, Regularizer(nu1=0.002, nu2=0.04))


def test_fixed_gamma_floor_ordering():
    prob = _atoms_suite()
    p_star = reference_objective(prob, iterations=60_000)
    x0 = np.zeros(prob.d)

    def converged_floor(gamma):
        run = run_solver(SolverSpec(solver="apg"), SmoothedProblem(prob, gamma), x0, 40_000)
        return objective_original(prob, run.x) - p_star

    floor_coarse = converged_floor(1e-2)
    floor_fine = converged_floor(1e-3)

    cfg = ContinuationConfig(gamma1=1e-2, tau=2.0, t1=300, stages=8,
                             solver=SolverSpec(solver="apg"))
    x_cns, _ = cns_strongly_convex(prob, cfg)
    gap_cns = objective_original(prob, x_cns) - p_star

    # a real, gamma-proportional floor: visible at 1e-2, smaller at 1e-3,
    # and continuation ends well below both
    assert floor_coarse > 10.0 * abs(gap_cns)
    assert floor_coarse > 2.0 * floor_fine > 0.0
    assert floor_coarse > 1e-4
