"""Bit-identity gate: dump, or compare, the iterates of a fixed set of seeded runs.

The runs cover every inner solver (with and without a given modulus, and with
a caller-supplied rng, once shared by two runs of an odd batch size and once
with a batch size above n), every baseline (with and without a start point,
with a batch size above n, and with a budget below one epoch), both losses on
dense and CSR input, acc-prox-svrg and fobos at the ``sc-dense`` benchmark
shape (n = 1000, d = 50 dense rows, batch size 50), ``reference_objective``,
both continuation drivers with prox-gd and acc-prox-svrg, and every method of
``run_experiment``. For each it keeps the final iterate, every callback
iterate, the trace columns except wall time, and each stage report's fields
except wall time. Dump under the
reference checkout, then check under the changed one; the check exits 1 if any
array differs in any bit, and each DIFF line gives that array's largest
distance in ulps (units in the last place) and largest relative difference,
so an array that moved only in its last bits shows as such.

usage: PYTHONPATH=<reference checkout>/src python tools/compare_iterates.py dump ref.npz
       PYTHONPATH=<changed checkout>/src python tools/compare_iterates.py check ref.npz
"""
import math
import sys
from dataclasses import asdict

import numpy as np
import scipy.sparse as sps

import cnsopt
from cnsopt import (BaselineSpec, CompositeProblem, ContinuationConfig, Regularizer, RunConfig,
                    SmoothedProblem, SparseDataset, SyntheticSpec, cns_general_convex,
                    cns_strongly_convex, reference_objective, run_baseline, run_experiment,
                    run_solver)
from cnsopt.solvers import SolverSpec


def problem(loss, csr=False, n=150, d=12):
    rng = np.random.default_rng(42 if loss == "hinge" else 43)
    z = rng.normal(size=(n, d)) / np.sqrt(d)
    if csr:
        z[rng.random(size=z.shape) < 0.8] = 0.0
    w = rng.normal(size=d)
    if loss == "hinge":
        y = np.where(z @ w + 0.3 * rng.normal(size=n) >= 0, 1.0, -1.0)
        task, reg = "classification", Regularizer(nu1=0.01, nu2=0.05)
    else:
        y = z @ w + 0.1 * rng.normal(size=n)
        task, reg = "regression", Regularizer(nu1=0.01, nu2=0.0)
    feats = sps.csr_matrix(z) if csr else z
    return CompositeProblem(SparseDataset(feats, y, task), loss, reg)


def cases():
    out = {}
    for loss in ("hinge", "absolute"):
        for csr in (False, True):
            prob = problem(loss, csr)
            lam = 0.0 if loss == "hinge" else 1e-4
            for gamma in (0.05, 1e-3):
                sp = SmoothedProblem(prob, gamma, lam)
                for solver in ("prox-gd", "apg", "prox-svrg", "acc-prox-svrg"):
                    if csr and gamma == 1e-3:
                        continue
                    for mu in (None, 0.0):
                        spec = SolverSpec(solver=solver, batch_size=16, seed=5,
                                          step_scale=0.9)
                        seen = []
                        run = run_solver(spec, sp, np.full(prob.d, 0.01), 130, mu_eff=mu,
                                         callback=lambda t, x, e: seen.append(x.copy()),
                                         callback_every=7)
                        key = f"{solver}/{loss}/csr{int(csr)}/g{gamma}/mu{mu}"
                        out[key + "/x"] = run.x
                        out[key + "/cb"] = np.array(seen)
                        out[key + "/it"] = np.array([run.iterations])
                # a caller-supplied rng
                spec = SolverSpec(solver="acc-prox-svrg", batch_size=16)
                run = run_solver(spec, sp, np.zeros(prob.d), 40, rng=np.random.default_rng(9))
                out[f"accrng/{loss}/csr{int(csr)}/g{gamma}/x"] = run.x
                # an odd batch size (epoch of 12 steps), two runs sharing one
                # rng whose budgets end mid-epoch, and the rng's next draw
                spec = SolverSpec(solver="acc-prox-svrg", batch_size=13, step_scale=0.9)
                rng = np.random.default_rng(11)
                first = run_solver(spec, sp, np.zeros(prob.d), 30, rng=rng)
                run = run_solver(spec, sp, first.x, 47, rng=rng)
                out[f"accodd/{loss}/csr{int(csr)}/g{gamma}/x"] = np.concatenate(
                    [first.x, run.x, rng.random(1)])
                # a batch size above n, clamped to n (an epoch of one step)
                spec = SolverSpec(solver="acc-prox-svrg", batch_size=400, step_scale=0.9)
                rng = np.random.default_rng(12)
                run = run_solver(spec, sp, np.zeros(prob.d), 9, rng=rng)
                out[f"accbig/{loss}/csr{int(csr)}/g{gamma}/x"] = np.concatenate(
                    [run.x, rng.random(1)])
            for method in ("fobos", "rda", "poly-sgd"):
                for sc in ((False, True) if loss == "hinge" else (False,)):
                    spec = BaselineSpec(method=method, eta0=0.3, rda_scale=0.7, batch_size=16,
                                        seed=3, strongly_convex=sc)
                    seen = []
                    run = run_baseline(prob, spec, 111,
                                       callback=lambda t, x, e: seen.append(x.copy()),
                                       callback_every=10)
                    key = f"{method}/{loss}/csr{int(csr)}/sc{int(sc)}"
                    out[key + "/x"] = run.x
                    out[key + "/cb"] = np.array(seen)
                    run = run_baseline(prob, spec, 37, x0=np.full(prob.d, 0.05))
                    out[key + "/x0"] = run.x
                # a batch size above n (clamped to n), and a budget of 7 steps,
                # below the epoch of ceil(150 / 16) = 10
                for b, budget in ((400, 23), (16, 7)):
                    spec = BaselineSpec(method=method, eta0=0.3, rda_scale=0.7, batch_size=b,
                                        seed=6)
                    out[f"{method}/{loss}/csr{int(csr)}/b{b}/x"] = run_baseline(
                        prob, spec, budget).x
            out[f"refobj/{loss}/csr{int(csr)}"] = np.array([reference_objective(
                prob, gamma=1e-4, iterations=3000, warm_iterations=300, check_every=100)])
    # the sc-dense shape: at b = 50 the BLAS sums the last b mod 4 rows of a
    # batch product in another order than inside the full n-row product; at
    # gamma = 1 most dual weights are interior, so such a last bit reaches x
    prob = problem("hinge", n=1000, d=50)
    sp = SmoothedProblem(prob, 1.0, 0.0)
    spec = SolverSpec(solver="acc-prox-svrg", batch_size=50, seed=5, step_scale=0.9)
    seen = []
    run = run_solver(spec, sp, np.full(prob.d, 0.01), 130,
                     callback=lambda t, x, e: seen.append(x.copy()), callback_every=7)
    out["acc-prox-svrg/hinge/n1000/b50/x"] = run.x
    out["acc-prox-svrg/hinge/n1000/b50/cb"] = np.array(seen)
    spec = BaselineSpec(method="fobos", eta0=0.3, batch_size=50, seed=3)
    seen = []
    run = run_baseline(prob, spec, 111, callback=lambda t, x, e: seen.append(x.copy()),
                       callback_every=10)
    out["fobos/hinge/n1000/b50/x"] = run.x
    out["fobos/hinge/n1000/b50/cb"] = np.array(seen)
    # both drivers' stage reports, field by field: the strongly convex driver
    # on the hinge + elastic net problem, the general convex one on the
    # absolute + l1 problem
    for loss, driver, lam1 in (("hinge", cns_strongly_convex, 0.0),
                               ("absolute", cns_general_convex, 1e-3)):
        prob = problem(loss)
        for solver, option in (("prox-gd", "I"), ("acc-prox-svrg", "II")):
            cfg = ContinuationConfig(gamma1=0.05, tau=2.0, t1=20, lam1=lam1, stages=4,
                                     solver=SolverSpec(solver=solver, batch_size=16, seed=7),
                                     budget_option=option)
            x, reports = driver(prob, cfg)
            key = f"stages/{driver.__name__}/{solver}"
            out[key + "/x"] = x
            for name in ("s", "gamma", "lam", "budget", "smoothed_before", "smoothed_after",
                         "original_after"):
                out[f"{key}/{name}"] = np.array([getattr(r, name) for r in reports])
    for loss, nu2 in (("hinge", 0.05), ("absolute", 0.0)):
        synth = SyntheticSpec(n=200, d=15, task="classification" if loss == "hinge"
                              else "regression", seed=4)
        for method in cnsopt.bench.METHODS:
            lam1 = 0.0 if nu2 > 0 else 1e-4
            cfg = RunConfig(method=method, loss=loss, nu1=0.01, nu2=nu2, synthetic=synth,
                            t1=30, stages=4, lam1=lam1, batch_size=20, cadence=15,
                            iterations=200, eta0=0.3, seed=2)
            rows = run_experiment(cfg)
            table = [[v for k, v in asdict(r).items() if k != "wall_time_s"] for r in rows]
            out[f"exp/{loss}/{method}"] = np.array(table, dtype=float)
    return out


def distance(ref, got):
    """(max ulp distance, max relative difference) between two arrays of
    doubles: the ulp distance counts the doubles from one value to the other.
    Both are inf when the shapes differ or a differing entry is not finite."""
    ref, got = np.asarray(ref, dtype=float), np.asarray(got, dtype=float)
    if ref.shape != got.shape:
        return math.inf, math.inf
    differ = ~((ref == got) | (np.isnan(ref) & np.isnan(got)))
    a, b = ref[differ], got[differ]
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return math.inf, math.inf
    if not a.size:
        return 0, 0.0

    def ordinal(v):
        # the bits of |v| as an integer grow with |v|, by one per double
        bits = np.abs(v).view(np.int64)
        return np.where(np.signbit(v), -bits, bits).tolist()

    ulps = max(abs(i - j) for i, j in zip(ordinal(a), ordinal(b)))
    rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return ulps, float(rel.max())


if __name__ == "__main__":
    mode, path = sys.argv[1], sys.argv[2]
    got = cases()
    if mode == "dump":
        np.savez(path, **got)
        print(f"dumped {len(got)} arrays")
    else:
        ref = dict(np.load(path))
        assert set(ref) == set(got), set(ref) ^ set(got)
        bad = [k for k in ref if not np.array_equal(ref[k], got[k])]
        cb = sum(len(ref[k]) for k in ref if k.endswith("/cb"))
        print(f"{len(ref)} arrays compared ({cb} callback iterates), "
              f"{len(ref) - len(bad)} bit-identical, {len(bad)} differ")
        for k in bad:
            ulps, rel = distance(ref[k], got[k])
            print(f"  DIFF {k}: max {ulps} ulps, max relative difference {rel:.3g}")
        sys.exit(1 if bad else 0)
