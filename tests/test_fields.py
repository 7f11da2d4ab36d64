"""Each spec's settings are checked by their declared annotations.

``errors.field_rules`` reads a spec's fields, and ``errors.check_fields``,
which every spec calls first, enforces them. The bad values here are generated
from those rules, so a field that gains an annotation is tested by it.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cnsopt import (  # noqa: E402
    BaselineSpec,
    ContinuationConfig,
    Regularizer,
    RunConfig,
    SmoothedProblem,
    SyntheticSpec,
    run_experiment,
)
from cnsopt.bench import CONTINUATION_METHODS, METHODS, continuation_config  # noqa: E402
from cnsopt.continuation import stage_budget  # noqa: E402
from cnsopt.errors import field_rules  # noqa: E402
from cnsopt.solvers import SolverSpec  # noqa: E402
from tests.conftest import problem_from_rows  # noqa: E402

TINY = SyntheticSpec(n=12, d=3, seed=1)
TINY_REGRESSION = SyntheticSpec(n=12, d=3, task="regression", seed=1)

# a valid instance of each spec that calls check_fields
VALID = {
    RunConfig: RunConfig(method="cns-a", nu2=0.05, synthetic=TINY, t1=5),
    ContinuationConfig: ContinuationConfig(),
    SolverSpec: SolverSpec(),
    BaselineSpec: BaselineSpec(),
    SyntheticSpec: TINY,
    Regularizer: Regularizer(),
    SmoothedProblem: SmoothedProblem(problem_from_rows([[1.0, 0.0]], [1.0], "hinge"), 0.1),
}


def bad_values(kind, optional, domain):
    """Values the rule ``(kind, optional, domain)`` rejects: the wrong class
    (and a bool for a number), None when not optional, a non-integer for an
    int, NaN and the infinities for a float, and the first value below the
    domain."""
    values = [object()] + ([] if optional else [None])
    if kind is int:
        values += [True, 2.5]
    elif kind is float:
        values += [False, math.nan, math.inf, -math.inf]
    if domain is not None:
        # the first value outside: the bound itself when it is excluded, else
        # the next number down
        below = domain.low - 1 if kind is int else math.nextafter(domain.low, -math.inf)
        values.append(domain.low if domain.strict else below)
    return values


RULES = [(cls, rule) for cls in VALID for rule in field_rules(cls)]


@pytest.mark.parametrize("cls, rule", RULES, ids=[f"{c.__name__}.{r[0]}" for c, r in RULES])
def test_every_field_rejects_what_its_annotation_excludes(cls, rule):
    name, kind, optional, domain = rule
    for value in bad_values(kind, optional, domain):
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            dataclasses.replace(VALID[cls], **{name: value})


def test_declared_domains():
    # the rules the CLI parses flags by, and the ranges the specs declare
    rules = {name: (kind, optional, domain and (domain.low, domain.strict))
             for name, kind, optional, domain in field_rules(RunConfig)}
    assert rules["t1"] == (int, True, (1, False))
    assert rules["seed"] == (int, False, (0, False))
    assert rules["eta0"] == (float, False, (0.0, True))
    assert rules["nu1"] == (float, False, (0.0, False))
    assert rules["tau"] == (float, False, None)
    assert rules["synthetic"] == (SyntheticSpec, True, None)
    assert rules["method"] == (str, False, None)


def _missing_file_config(tmp_path, **kw):
    return RunConfig(**{"method": "fobos", "dataset": str(tmp_path / "absent.libsvm"), **kw})


REPRODUCTIONS = [
    # once ran, with fractional stage budgets rounded up
    (lambda p: _missing_file_config(p, method="cns-a", nu2=0.1, t1=2.5), "t1"),
    (lambda p: _missing_file_config(p, cadence=2.5), "cadence"),
    # once constructed, then failed late in numpy without naming the setting
    (lambda p: _missing_file_config(p, iterations=10.5), "iterations"),
    (lambda p: _missing_file_config(p, method="cns-a", nu2=0.1, t1=5, stages=2.5), "stages"),
    (lambda p: _missing_file_config(p, batch_size=2.5), "batch_size"),
    (lambda p: SyntheticSpec(n=20.5), "n"),
    (lambda p: SyntheticSpec(n=20, d=5, atoms=2.5), "atoms"),
    (lambda p: SolverSpec(batch_size=2.5), "batch_size"),
    (lambda p: BaselineSpec(batch_size=2.5), "batch_size"),
    # a bool is not a number
    (lambda p: _missing_file_config(p, seed=True), "seed"),
    (lambda p: _missing_file_config(p, nu2=True), "nu2"),
    (lambda p: Regularizer(nu2=True), "nu2"),
    # once an AttributeError
    (lambda p: ContinuationConfig(solver="apg"), "solver"),
    (lambda p: RunConfig(method="fobos", synthetic="x"), "synthetic"),
]


@pytest.mark.parametrize("build, field", REPRODUCTIONS,
                         ids=[f"{i}-{field}" for i, (_, field) in enumerate(REPRODUCTIONS)])
def test_a_reproduced_bad_setting_fails_at_construction_by_name(tmp_path, build, field):
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        build(tmp_path)


# settings in bounded, stable ranges: a given t1, few stages and iterations,
# and steps no longer than the default
VALID_KWARGS = st.fixed_dictionaries({
    "method": st.sampled_from(METHODS),
    "loss": st.sampled_from(("hinge", "absolute")),
    "nu1": st.sampled_from((0.0, 0.01, 0.1)),
    "nu2": st.sampled_from((0.0, 0.05, 0.1)),
    "gamma1": st.floats(0.01, 1.0),
    "tau": st.floats(1.0, 2.0),
    "t1": st.integers(1, 8),
    "lam1": st.sampled_from((0.0, 1e-3)),
    "stages": st.integers(1, 3),
    "solver": st.sampled_from((None, "apg", "prox-gd", "prox-svrg", "acc-prox-svrg")),
    "theta": st.floats(0.05, 0.2),
    "batch_size": st.integers(1, 20),
    "step_scale": st.floats(0.1, 1.0),
    "eta0": st.floats(0.1, 1.0),
    "iterations": st.integers(1, 30),
    "cadence": st.integers(1, 20),
    "seed": st.integers(0, 10),
})

# wrong types, bools, non-integers, negatives, zero, NaN and the infinities
WRONG = (True, False, None, "1", math.nan, math.inf, -math.inf, -1, -0.5, 0, 2.5)

FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


@st.composite
def run_kwargs(draw):
    """Valid settings, of which up to two are replaced by a value from WRONG
    (a t1 by one other than None, which would start the automatic search)."""
    kwargs = draw(VALID_KWARGS)
    for name in draw(st.lists(st.sampled_from(sorted(kwargs)), max_size=2, unique=True)):
        kwargs[name] = draw(st.sampled_from([w for w in WRONG if name != "t1" or w is not None]))
    return kwargs


@settings(max_examples=150, deadline=None)
@given(run_kwargs())
@example({"method": "cns-a", "nu2": 0.1, "t1": 2.5, "stages": 2})
@example({"method": "fobos", "cadence": 2.5, "iterations": 10})
@example({"method": "rda", "seed": True})
@example({"method": "cns-na", "nu2": 0.05, "t1": 3, "stages": 2, "batch_size": 2.5})
def test_a_drawn_run_config_fails_by_name_or_runs_its_budget(kwargs):
    synthetic = TINY_REGRESSION if kwargs.get("loss") == "absolute" else TINY
    try:
        cfg = RunConfig(synthetic=synthetic, **kwargs)
    except ValueError as exc:
        assert any(re.search(rf"\b{name}\b", str(exc)) for name in FIELDS), exc
        return
    rows = run_experiment(cfg)
    if cfg.method in CONTINUATION_METHODS:
        # option I grows the budgets by tau (tau^2 with a stage ridge), option
        # II by the root
        spec = continuation_config(cfg)
        exponent = (2.0 if cfg.lam1 > 0 else 1.0) / (2.0 if spec.solver.accelerated else 1.0)
        budget = sum(stage_budget(cfg.t1, cfg.tau, exponent, s) for s in range(1, cfg.stages + 1))
        assert rows[-1].stage == cfg.stages
    else:
        budget = cfg.iterations
    assert rows[-1].cumulative_iterations == budget
    assert np.isfinite(rows[-1].objective_original)
