"""Shared problem builders for the tests.

Two seeded synthetic suites anchor the empirical criteria. Both are built
fresh per call (cheap) while the expensive long-run reference optima are
cached per seed for the whole session. ``problem_from_rows`` and
``random_problem`` build the small problems of the unit tests.
"""

import importlib.util
import math
import os
from pathlib import Path

import numpy as np
import pytest

import cnsopt
from cnsopt import (
    ABSOLUTE,
    CLASSIFICATION,
    HINGE,
    REGRESSION,
    CompositeProblem,
    Regularizer,
    SparseDataset,
    SyntheticSpec,
    dual_spec,
    make_synthetic,
    reference_objective,
)

SC_NU1, SC_NU2 = 0.002, 0.08
REG_NU1 = 0.005

# the bit gate's tool, loaded as a module (its seeded cases run only when called)
_TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_iterates.py"
_SPEC = importlib.util.spec_from_file_location("compare_iterates", _TOOL)
compare_iterates = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_iterates)


def pytest_report_header(config):
    # pyproject.toml puts this checkout's src ahead of PYTHONPATH; the golden
    # literals pin the summation order of the OpenBLAS kernel they were
    # recorded under, so the header names the kernel that ran
    return (f"cnsopt: {os.path.dirname(cnsopt.__file__)}; "
            f"BLAS kernel: {compare_iterates.blas_kernel()}")


def problem_from_rows(rows, labels, loss, nu1=0.0, nu2=0.0):
    """A problem on dense ``rows`` and ``labels`` of the task the loss table
    gives ``loss``."""
    data = SparseDataset(np.asarray(rows, dtype=float), np.asarray(labels, dtype=float),
                         dual_spec(loss).task)
    return CompositeProblem(data, loss, Regularizer(nu1=nu1, nu2=nu2))


def random_problem(rng, loss, n, d, nu1=0.0, nu2=0.0, unit_rows=False):
    """A problem on ``n`` x ``d`` Gaussian rows, divided by sqrt(d) when
    ``unit_rows`` (squared norms near 1), then labels of the loss's task:
    +/-1 for the hinge, Gaussian for the absolute loss. ``rng`` is a
    Generator, which the draws advance, or a seed."""
    rng = np.random.default_rng(rng)
    rows = rng.normal(size=(n, d))
    if unit_rows:
        rows /= math.sqrt(d)
    labels = rng.choice([-1.0, 1.0], size=n) if loss == HINGE else rng.normal(size=n)
    return problem_from_rows(rows, labels, loss, nu1, nu2)


def strongly_convex_spec(seed):
    """Hinge + elastic net classification: two well-separated clusters, mild
    margin noise, unit-norm rows."""
    return SyntheticSpec(n=1000, d=50, task=CLASSIFICATION, sparsity=0.2, noise=0.1,
                         separation=1.5, seed=seed)


def strongly_convex_problem(seed):
    data, _ = make_synthetic(strongly_convex_spec(seed))
    return CompositeProblem(data, HINGE, Regularizer(nu1=SC_NU1, nu2=SC_NU2))


def general_convex_spec(seed):
    """Absolute loss + pure l1 regression with Laplace noise."""
    return SyntheticSpec(n=600, d=50, task=REGRESSION, sparsity=0.2, noise=0.1,
                         seed=seed)


def general_convex_problem(seed):
    data, _ = make_synthetic(general_convex_spec(seed))
    return CompositeProblem(data, ABSOLUTE, Regularizer(nu1=REG_NU1))


@pytest.fixture(scope="session")
def sc_reference():
    cache = {}

    def get(seed):
        if seed not in cache:
            cache[seed] = reference_objective(
                strongly_convex_problem(seed), gamma=1e-7, iterations=60_000
            )
        return cache[seed]

    return get


@pytest.fixture(scope="session")
def gc_reference():
    cache = {}

    def get(seed):
        if seed not in cache:
            cache[seed] = reference_objective(
                general_convex_problem(seed), gamma=1e-7, iterations=80_000, gamma1=0.1
            )
        return cache[seed]

    return get


def loglog_stage_slope(reports, p_star, s_lo=3, s_hi=8):
    """Least-squares slope of log10 gap vs log10 cumulative iterations over
    the given stage window."""
    cum = np.cumsum([r.budget for r in reports])
    pts = [
        (np.log10(cum[r.s - 1]), np.log10(max(r.original_after - p_star, 1e-16)))
        for r in reports
        if s_lo <= r.s <= s_hi
    ]
    xs, ys = zip(*pts)
    return float(np.polyfit(xs, ys, 1)[0])
