"""Bit-identity gate: dump, or compare, the iterates of a fixed set of seeded runs.

The runs cover every inner solver (also at a zero stage modulus, where apg and
acc-prox-svrg run the t_k sequence, and with a caller-supplied rng, once
shared by two runs of an odd batch size and once with a batch size above n),
every baseline (on the 1/(mu t) schedule that the hinge problem's mu = 0.05
picks and on the 1/sqrt(t) one of the absolute problem's mu = 0, with and
without a start point, with a batch size above n, and with a budget below
one epoch), both losses on dense and CSR input,
acc-prox-svrg and fobos at the ``sc-dense`` benchmark shape (n = 1000,
d = 50 dense rows, batch size 50; also two acc-prox-svrg runs on one rng,
each longer than one mini-batch draw), acc-prox-svrg, prox-svrg,
apg (through the general convex driver) and fobos at the ``gc-libsvm`` shape
(absolute loss + l1 on n = 600, d = 50 rows read back from LIBSVM text,
batch size 100), ``reference_objective``,
both continuation drivers with prox-gd and acc-prox-svrg (with a given t1, with
the automatic t1 search, and with fixed smoothing), and each method of
``RUN_METHODS`` through ``run_experiment`` on a synthetic spec and on LIBSVM
files without a test set (hinge and absolute rows that the problem densifies,
absolute rows it keeps as CSR, with labels fitted to the kept entries). For
each it keeps the final iterate, every callback iterate, the trace columns
except wall time (a LIBSVM run's ``test_metric`` column as an array of its
own), and each stage report's fields except wall time. Dump under the reference checkout, then check under
the changed one; the check exits 1 if a key is on one side only (each such
key is named on a MISSING or EXTRA line) or if any array differs in its
dtype, its shape or any bit of its bytes (so -0.0 and +0.0 differ), and each
DIFF line gives that array's largest distance in ulps
(units in the last place) and largest relative difference, so an array that
moved only in its last bits shows as such. The dump records the OpenBLAS
kernel that numpy runs (``SkylakeX`` on an AVX-512 host), whose summation
order fixes the last bits; the check prints both kernels' names, first of all
when they differ.

``against <rev>`` does both in one command: it dumps with this tool under the
``src`` of a temporary detached git worktree at ``<rev>``, checks under this
tree's ``src``, removes the worktree (also when a step fails) and exits with
the check's status, or with the status of a step that failed before it. When
this tree's cases pass ``<rev>``'s ``src`` a setting it rejects (such as tau =
1 at a revision where tau must exceed 1), run the dump and check steps of the
usage lines instead, each checkout's own tool on its own ``src``.

``acceptance <rev>`` diffs the acceptance printout in the same worktree: it
runs ``pytest tests/test_acceptance.py -s`` under ``<rev>`` and under this
tree (each checkout's own tests on its own ``src``), masks every duration,
prints the differing lines and exits 1 if there are any. Pass, fail and the
known-red clauses' messages are part of the printout, so they are compared
too.

usage: PYTHONPATH=<reference checkout>/src python tools/compare_iterates.py dump ref.npz
       PYTHONPATH=<changed checkout>/src python tools/compare_iterates.py check ref.npz
       python tools/compare_iterates.py against <rev>
       python tools/compare_iterates.py acceptance <rev>
"""
import contextlib
import ctypes
import difflib
import glob
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import asdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@contextlib.contextmanager
def worktree(rev):
    """Yield the path of a temporary detached git worktree at ``rev``, in a
    temporary directory the caller may also write to; remove both on exit,
    also when a step fails. A failed ``git worktree add`` exits with its status."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        git = ["git", "-C", ROOT, "worktree"]
        status = subprocess.run(git + ["add", "--detach", "--quiet", tree, rev]).returncode
        if status:
            sys.exit(status)
        try:
            yield tree
        finally:
            subprocess.run(git + ["remove", "--force", tree])


def run_under(checkout, argv, **kwargs):
    """``subprocess.run(argv)`` with ``checkout``'s ``src`` first on PYTHONPATH."""
    path = [os.path.join(checkout, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(argv, env=env, **kwargs)


def against(rev):
    """Dump at ``rev``, check this tree; return the first failing step's
    status, else 0."""
    with worktree(rev) as tree:
        ref = os.path.join(os.path.dirname(tree), "ref.npz")
        for checkout, mode in ((tree, "dump"), (ROOT, "check")):
            status = run_under(checkout, [sys.executable, os.path.abspath(__file__), mode,
                                          ref]).returncode
            if status:
                return status
    return 0


# a duration: "in 0.86s" and "6s" in the printout, "in 156.20s (0:02:36)" in
# pytest's summary line
DURATION = re.compile(r"\b\d+(?:\.\d+)?s\b|\(\d+:\d\d:\d\d\)")


def acceptance(rev):
    """Print the differences between the acceptance printouts of ``rev`` and
    of this tree, durations masked; return 1 if there are any, else 0. The
    ini file's ``--durations`` table is turned off, since its order follows
    the timings, and -vv keeps the failure messages whole."""
    argv = [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-s", "-vv",
            "--tb=no", "--no-header", "-p", "no:cacheprovider", "-o", "addopts="]

    def printout(checkout):
        run = run_under(checkout, argv, cwd=checkout, capture_output=True, text=True)
        return DURATION.sub("<time>", run.stdout).splitlines()

    with worktree(rev) as tree:
        ref = printout(tree)
    got = printout(ROOT)
    diff = list(difflib.unified_diff(ref, got, rev, "this tree", lineterm=""))
    print("\n".join(diff or got))
    print(f"acceptance printout {'differs from' if diff else 'matches'} {rev}'s, "
          "durations masked")
    return 1 if diff else 0


# ``against`` and ``acceptance`` import no cnsopt themselves: each of their
# steps picks its own
if __name__ == "__main__" and sys.argv[1] in ("against", "acceptance"):
    sys.exit({"against": against, "acceptance": acceptance}[sys.argv[1]](sys.argv[2]))

import numpy as np
import scipy.sparse as sps

from cnsopt import (BaselineSpec, CompositeProblem, ContinuationConfig, Regularizer, RunConfig,
                    SmoothedProblem, SparseDataset, SyntheticSpec, cns_general_convex,
                    cns_strongly_convex, libsvm_dumps, make_synthetic, parse_libsvm,
                    reference_objective, run_baseline, run_experiment, run_solver,
                    serialize_libsvm)
from cnsopt.solvers import SolverSpec

# the methods run through run_experiment: a list of the tool's own, not
# cnsopt.bench.METHODS, so that a revision with another method list dumps the
# same keys
RUN_METHODS = ("cns-a", "cns-na", "fobos", "rda", "poly-sgd")


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
                stages_by_suffix = {"": sp}
                if loss == "absolute":
                    # absolute loss + l1 at lam = 0 has a zero stage modulus
                    stages_by_suffix["/lam0"] = SmoothedProblem(prob, gamma, 0.0)
                for solver in ("prox-gd", "apg", "prox-svrg", "acc-prox-svrg"):
                    if csr and gamma == 1e-3:
                        continue
                    for suffix, stage in stages_by_suffix.items():
                        spec = SolverSpec(solver=solver, batch_size=16, seed=5,
                                          step_scale=0.9)
                        seen = []
                        run = run_solver(spec, stage, np.full(prob.d, 0.01), 130,
                                         callback=lambda t, x, e: seen.append(x.copy()),
                                         callback_every=7)
                        key = f"{solver}/{loss}/csr{int(csr)}/g{gamma}{suffix}"
                        out[key + "/x"] = run.x
                        out[key + "/cb"] = np.array(seen)
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
                # the hinge problem's mu = 0.05 runs the 1/(mu t) schedules,
                # the absolute one's mu = 0 the 1/sqrt(t) ones
                eta0 = 0.7 if method == "rda" else 0.3
                spec = BaselineSpec(method=method, eta0=eta0, batch_size=16, seed=3)
                seen = []
                run = run_baseline(prob, spec, 111,
                                   callback=lambda t, x, e: seen.append(x.copy()),
                                   callback_every=10)
                key = f"{method}/{loss}/csr{int(csr)}"
                out[key + "/x"] = run.x
                out[key + "/cb"] = np.array(seen)
                run = run_baseline(prob, spec, 37, x0=np.full(prob.d, 0.05))
                out[key + "/x0"] = run.x
                # a batch size above n (clamped to n), and a budget of 7 steps,
                # below the epoch of ceil(150 / 16) = 10
                for b, budget in ((400, 23), (16, 7)):
                    spec = BaselineSpec(method=method, eta0=eta0, batch_size=b, seed=6)
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
    # two runs sharing one rng whose budgets each cross a mini-batch draw of
    # 160 steps (8 epochs of 20) and end mid-epoch, and the rng's next draw
    rng = np.random.default_rng(13)
    first = run_solver(spec, sp, np.zeros(prob.d), 173, rng=rng)
    run = run_solver(spec, sp, first.x, 229, rng=rng)
    out["accblock/hinge/n1000/b50/x"] = np.concatenate([first.x, run.x, rng.random(1)])
    spec = BaselineSpec(method="fobos", eta0=0.3, batch_size=50, seed=3)
    seen = []
    run = run_baseline(prob, spec, 111, callback=lambda t, x, e: seen.append(x.copy()),
                       callback_every=10)
    out["fobos/hinge/n1000/b50/x"] = run.x
    out["fobos/hinge/n1000/b50/cb"] = np.array(seen)
    # the gc-libsvm shape: LIBSVM text read back as CSR, which CompositeProblem
    # densifies; the general convex driver's stage ridge lam1 = 1e-5 gives a
    # constant momentum near 1 and a prox that shrinks
    data, _ = make_synthetic(SyntheticSpec(n=600, d=50, task="regression", seed=8))
    data = parse_libsvm(io.StringIO(libsvm_dumps(data)), task="regression")
    prob = CompositeProblem(data, "absolute", Regularizer(nu1=0.005))
    assert sps.issparse(data.features) and not sps.issparse(prob.features)
    for solver, t1 in (("acc-prox-svrg", 100), ("prox-svrg", 300), ("apg", 100)):
        stages(out, f"stages/gc-libsvm/{solver}", cns_general_convex, prob, solver,
               batch_size=100, gamma1=0.1, t1=t1, lam1=1e-5, stages=3)
    spec = BaselineSpec(method="fobos", eta0=1.0, batch_size=100, seed=3)
    seen = []
    run = run_baseline(prob, spec, 600, callback=lambda t, x, e: seen.append(x.copy()),
                       callback_every=50)
    out["fobos/absolute/gc-libsvm/x"] = run.x
    out["fobos/absolute/gc-libsvm/cb"] = np.array(seen)
    # both drivers' stage reports, field by field: the strongly convex driver
    # on the hinge + elastic net problem, the general convex one on the
    # absolute + l1 problem, each with a growing and with a fixed (tau = 1)
    # schedule
    for loss, driver, lam1 in (("hinge", cns_strongly_convex, 0.0),
                               ("absolute", cns_general_convex, 1e-3)):
        prob = problem(loss)
        for solver in ("prox-gd", "acc-prox-svrg"):
            for fixed in (False, True):
                stages(out, f"stages/{driver.__name__}/{solver}" + "/fixed" * fixed, driver,
                       prob, solver, tau=1.0 if fixed else 2.0, gamma1=0.05, t1=20,
                       lam1=lam1, stages=4)
    # the automatic t1 search compares the smoothed objective against
    # P_gamma1(0) / tau^2; on this instance it picks t1 = 80 for prox-gd and
    # 20 for acc-prox-svrg (the hinge instance never reaches that target)
    for solver in ("prox-gd", "acc-prox-svrg"):
        stages(out, f"stages/auto_t1/{solver}", cns_general_convex, problem("absolute"),
               solver, gamma1=0.5, t1=None, lam1=1e-3, stages=3)
    for loss, nu2 in (("hinge", 0.05), ("absolute", 0.0)):
        synth = SyntheticSpec(n=200, d=15, task="classification" if loss == "hinge"
                              else "regression", seed=4)
        for method in RUN_METHODS:
            lam1 = 0.0 if nu2 > 0 else 1e-4
            cfg = RunConfig(method=method, loss=loss, nu1=0.01, nu2=nu2, synthetic=synth,
                            t1=30, stages=4, lam1=lam1, batch_size=20, cadence=15,
                            iterations=200, eta0=1.0 if method == "rda" else 0.3, seed=2)
            rows = run_experiment(cfg)
            table = [[v for k, v in asdict(r).items() if k != "wall_time_s"] for r in rows]
            out[f"exp/{loss}/{method}"] = np.array(table, dtype=float)
    # run_experiment on a LIBSVM file without a test set, whose metric is on the
    # training rows: hinge and absolute rows that the problem densifies, and
    # absolute rows at 10% density that it keeps as CSR; the test_metric
    # column is an array of its own
    with tempfile.TemporaryDirectory() as tmp:
        for case, loss, density in (("hinge", "hinge", 1.0), ("absolute", "absolute", 1.0),
                                    ("absolute-csr", "absolute", 0.1)):
            task = "classification" if loss == "hinge" else "regression"
            data, w = make_synthetic(SyntheticSpec(n=200, d=15, task=task, seed=4))
            if density < 1.0:
                keep = np.random.default_rng(5).random(data.features.shape) < density
                rows = data.features * keep
                # the planted model's standardized scores on the kept entries,
                # with the same noise: labels that the full rows fit leave
                # x = 0 nearly optimal, so the iterate barely moves
                scores = rows.dot(w)
                labels = data.labels - data.features.dot(w) + scores / scores.std()
                data = SparseDataset(sps.csr_matrix(rows), labels, task)
            path = f"{tmp}/{case}.libsvm"
            serialize_libsvm(data, path)
            nu2 = 0.05 if loss == "hinge" else 0.0
            prob = CompositeProblem(parse_libsvm(path, task=task), loss, Regularizer())
            assert sps.issparse(prob.features) == (density < 1.0)
            for method in RUN_METHODS:
                cfg = RunConfig(method=method, loss=loss, nu1=0.01, nu2=nu2, dataset=path,
                                t1=30, stages=4, lam1=0.0 if nu2 > 0 else 1e-4, batch_size=20,
                                cadence=15, iterations=200,
                                eta0=1.0 if method == "rda" else 0.3, seed=2)
                rows = run_experiment(cfg)
                table = [[v for k, v in asdict(r).items()
                          if k not in ("wall_time_s", "test_metric")] for r in rows]
                out[f"exp-libsvm/{case}/{method}/trace"] = np.array(table, dtype=float)
                out[f"exp-libsvm/{case}/{method}/test_metric"] = np.array(
                    [r.test_metric for r in rows])
    return out


def stages(out, key, driver, prob, solver, batch_size=16, tau=2.0, **settings):
    """Record a driver's final iterate and its stage reports, field by field."""
    cfg = ContinuationConfig(tau=tau, solver=SolverSpec(solver=solver, batch_size=batch_size,
                                                        seed=7), **settings)
    x, reports = driver(prob, cfg)
    out[key + "/x"] = x
    for name in ("s", "gamma", "lam", "budget", "smoothed_before", "smoothed_after",
                 "original_after"):
        out[f"{key}/{name}"] = np.array([getattr(r, name) for r in reports])


def blas_kernel():
    """The name of the OpenBLAS kernel numpy runs, from
    ``scipy_openblas_get_corename64_`` in the library under ``numpy.libs``;
    ``unknown`` when no library there has that symbol."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


# the key of the dump's BLAS kernel name, beside the arrays
KERNEL_KEY = "meta/blas_kernel"


def same_bits(ref, got):
    """Whether two arrays have one dtype, one shape and the same bytes."""
    return ref.dtype == got.dtype and ref.shape == got.shape and ref.tobytes() == got.tobytes()


def distance(ref, got):
    """(max ulp distance, max relative difference) between two arrays of
    doubles: the ulp distance counts the doubles from one value to the other,
    -0.0 and +0.0 being one apart. Both are inf when the shapes differ or a
    differing entry is not finite."""
    ref, got = np.asarray(ref, dtype=float), np.asarray(got, dtype=float)
    if ref.shape != got.shape:
        return math.inf, math.inf
    differ = ref.view(np.int64) != got.view(np.int64)
    a, b = ref[differ], got[differ]
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return math.inf, math.inf
    if not a.size:
        return 0, 0.0

    def ordinal(v):
        # the bits of |v| as an integer grow with |v|, by one per double
        bits = np.abs(v).view(np.int64)
        return np.where(np.signbit(v), -1 - bits, bits).tolist()

    ulps = max(abs(i - j) for i, j in zip(ordinal(a), ordinal(b)))
    diff, top = np.abs(a - b), np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(diff, top, out=np.zeros_like(diff), where=top > 0)
    return ulps, float(rel.max())


def check(ref, got, kernel):
    """Compare a dump ``ref`` (arrays by key, the dump's BLAS kernel name under
    ``KERNEL_KEY``, if any) with the arrays ``got`` computed under the BLAS
    ``kernel``; return (exit status, the lines to print)."""
    ref = dict(ref)
    ref_kernel = str(ref.pop(KERNEL_KEY, "unknown"))
    kernels = f"dumped under the {ref_kernel} BLAS kernel, checked under {kernel}"
    lines = []
    if ref_kernel != kernel:
        lines.append(f"BLAS kernels differ ({kernels}): that alone can move the last bits")
    missing, extra = sorted(set(ref) - set(got)), sorted(set(got) - set(ref))
    lines += [f"  MISSING {k}: in the dump, not produced by this check" for k in missing]
    lines += [f"  EXTRA {k}: produced by this check, not in the dump" for k in extra]
    if missing or extra:
        lines.append(f"key sets differ: {len(missing)} missing, {len(extra)} extra; {kernels}")
        return 1, lines
    bad = [k for k in ref if not same_bits(ref[k], got[k])]
    cb = sum(len(ref[k]) for k in ref if k.endswith("/cb"))
    lines.append(f"{len(ref)} arrays compared ({cb} callback iterates), "
                 f"{len(ref) - len(bad)} bit-identical, {len(bad)} differ; {kernels}")
    for k in bad:
        ulps, rel = distance(ref[k], got[k])
        dtypes = "" if ref[k].dtype == got[k].dtype else f", {ref[k].dtype} -> {got[k].dtype}"
        lines.append(f"  DIFF {k}: max {ulps} ulps, max relative difference {rel:.3g}{dtypes}")
    return (1 if bad else 0), lines


if __name__ == "__main__":
    mode, path = sys.argv[1], sys.argv[2]
    got, kernel = cases(), blas_kernel()
    if mode == "dump":
        np.savez(path, **got, **{KERNEL_KEY: np.array(kernel)})
        print(f"dumped {len(got)} arrays under the {kernel} BLAS kernel")
    else:
        status, lines = check(np.load(path), got, kernel)
        print("\n".join(lines))
        sys.exit(status)
