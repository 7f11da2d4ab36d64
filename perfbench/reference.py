"""Reference optimum for the gap metrics. Nothing here is ever timed.

For hinge loss plus elastic net,

    P(x) = mean_i max(0, 1 - m_i) + nu1 ||x||_1 + (nu2/2) ||x||^2,  m = y * (Z x),

every alpha in [0, 1]^n gives the dual lower bound

    D(alpha) = mean(alpha) - ||soft(Z^T (alpha * y) / n, nu1)||^2 / (2 nu2) <= P*.

The certificate takes alpha_i = clip((1 - m_i) / gamma, 0, 1) at a reference
iterate, over a grid of gamma, and keeps the best bound. It is written here
from the formula, independent of ``cnsopt.smoothing``. Gaps measured against
it are upper bounds on the true gaps. For absolute loss plus l1 the same
construction is about 100x loose, so those workloads use
``continuation.reference_objective`` instead.

Results are cached in memory and on disk, keyed on a hash of the generated
arrays, the loss, the regularizer, the reference settings and this file.
"""

import hashlib
import json
import os

import numpy as np
import scipy.sparse as sparse

from cnsopt.continuation import (
    ContinuationConfig,
    cns_strongly_convex,
    reference_objective,
)
from cnsopt.solvers import ACCELERATED, SolverSpec, solver_family

CERT_GAMMAS = tuple(np.geomspace(1e-1, 1e-9, 33))

with open(__file__, "rb") as _fh:
    _CODE_HASH = hashlib.sha256(_fh.read()).hexdigest()


def soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def hinge_enet_primal(features, labels, x, nu1, nu2):
    margins = labels * (features @ x)
    return (float(np.maximum(0.0, 1.0 - margins).mean())
            + nu1 * float(np.abs(x).sum()) + 0.5 * nu2 * float(x @ x))


def hinge_enet_dual(features, labels, alpha, nu1, nu2):
    """D(alpha) for alpha in [0, 1]^n: a lower bound on P*."""
    v = features.T @ (alpha * labels) / len(labels)
    s = soft_threshold(np.asarray(v).ravel(), nu1)
    return float(alpha.mean()) - float(s @ s) / (2.0 * nu2)


def certified_lower_bound(features, labels, x, nu1, nu2, gammas=CERT_GAMMAS):
    """Best dual bound over the clipped smoothed-hinge derivatives at x."""
    margins = labels * (features @ x)
    return max(
        hinge_enet_dual(features, labels, np.clip((1.0 - margins) / g, 0.0, 1.0), nu1, nu2)
        for g in gammas
    )


def certified_gap(features, labels, x, nu1, nu2, gamma):
    """P(x) - D(alpha(x)): an upper bound on P(x) - P*. ``gamma`` is the
    smoothing level x was computed at; the bound is tightest there."""
    return (hinge_enet_primal(features, labels, x, nu1, nu2)
            - certified_lower_bound(features, labels, x, nu1, nu2, CERT_GAMMAS + (gamma,)))


def _reference_iterate(problem, settings):
    """A near-optimal point from a long continuation run (any solver will do:
    the certificate does not trust it), and the smoothing level it ended at."""
    settings = dict(settings)
    spec = SolverSpec(solver=settings.pop("solver"))
    option = "II" if solver_family(spec.solver) == ACCELERATED else "I"
    cfg = ContinuationConfig(solver=spec, budget_option=option, **settings)
    x, reports = cns_strongly_convex(problem, cfg)
    return x, reports[-1].gamma


def compute_reference(workload, problem):
    """``{"p_star": ..., "p_upper": ...}``: P* (or its certified lower bound)
    and the objective of the best point found, which bracket the optimum."""
    if workload.gap_measure == "certificate":
        x, gamma = _reference_iterate(problem, workload.reference)
        data = problem.data
        lower = certified_lower_bound(data.features, data.labels, x, workload.nu1, workload.nu2,
                                      CERT_GAMMAS + (gamma,))
        upper = hinge_enet_primal(data.features, data.labels, x, workload.nu1, workload.nu2)
        return {"p_star": lower, "p_upper": upper}
    dense = workload.problem(problem.data.densify())
    value = reference_objective(dense, **workload.reference)
    return {"p_star": value, "p_upper": value}


def data_hash(data):
    digest = hashlib.sha256()
    feats = data.features
    digest.update(repr(feats.shape).encode())
    if sparse.issparse(feats):
        for part in (feats.data, feats.indices, feats.indptr):
            digest.update(np.ascontiguousarray(part).tobytes())
    else:
        digest.update(np.ascontiguousarray(feats).tobytes())
    digest.update(np.ascontiguousarray(data.labels).tobytes())
    return digest.hexdigest()


class ReferenceCache:
    """P* per problem instance, in memory and as one JSON file per key."""

    def __init__(self, directory):
        self.directory = directory
        self.memory = {}

    def key(self, workload, problem):
        parts = {
            "data": data_hash(problem.data),
            "loss": workload.loss,
            "nu1": workload.nu1,
            "nu2": workload.nu2,
            "measure": workload.gap_measure,
            "settings": workload.reference,
            "code": _CODE_HASH,
        }
        return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()[:32]

    def get(self, workload, problem):
        key = self.key(workload, problem)
        if key in self.memory:
            return self.memory[key]
        path = os.path.join(self.directory, f"{key}.json")
        try:
            with open(path) as fh:
                value = json.load(fh)
        except (OSError, ValueError):
            value = compute_reference(workload, problem)
            os.makedirs(self.directory, exist_ok=True)
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "w") as fh:
                json.dump(value, fh)
            os.replace(tmp, path)
        self.memory[key] = value
        return value
