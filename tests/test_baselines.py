import math

import numpy as np
import pytest

from cnsopt import (
    ABSOLUTE,
    HINGE,
    BaselineSpec,
    CompositeProblem,
    Regularizer,
    SyntheticSpec,
    make_synthetic,
    objective_original,
    run_baseline,
)
from cnsopt import baselines, datasets
from cnsopt.baselines import loss_subgradient, subgradient_scalars
from cnsopt.smoothing import dual_spec
from tests.conftest import problem_from_rows
from tests.test_prox import golden_section
from tests.test_smoothing import (_read_only_scalars, _signed_zeros_and_nan, layout_batches,
                                  layout_problem)


def _float_bounds(loss, count):
    """``subgradient_scalars(loss, count)`` as Python floats, uncast."""
    spec = dual_spec(loss)
    return (-spec.u_hi if spec.u_hi < 1.0 else None,
            -spec.u_lo if spec.u_lo > -1.0 else None, count)


def _suite(seed=0, nu1=0.01, nu2=0.05):
    spec = SyntheticSpec(n=300, d=15, task="classification", noise=0.3, separation=1.0,
                         seed=seed)
    data, _ = make_synthetic(spec)
    return CompositeProblem(data, HINGE, Regularizer(nu1=nu1, nu2=nu2))


def test_hinge_subgradient_zero_at_kink():
    # margin exactly 1 uses the flat side (minimal-norm element)
    prob = problem_from_rows([[1.0, 0.0]], [1.0], HINGE)
    scalars = subgradient_scalars(prob.loss, 1)
    g = loss_subgradient(prob.features, prob.offsets, scalars, np.array([1.0, 0.0]))
    assert np.array_equal(g, np.zeros(2))
    g_active = loss_subgradient(prob.features, prob.offsets, scalars, np.array([0.9, 0.0]))
    assert np.array_equal(g_active, np.array([-1.0, 0.0]))


def test_absolute_subgradient_zero_at_zero_residual():
    prob = problem_from_rows([[2.0]], [2.0], ABSOLUTE)
    rows, c, scalars = prob.features, prob.offsets, subgradient_scalars(prob.loss, 1)
    assert loss_subgradient(rows, c, scalars, np.array([1.0]))[0] == 0.0
    assert loss_subgradient(rows, c, scalars, np.array([0.5]))[0] == pytest.approx(-2.0)


def test_fobos_produces_exact_zeros():
    prob = _suite(nu1=0.05)
    spec = BaselineSpec(method="fobos", eta0=0.5, seed=1)
    run = run_baseline(prob, spec, 300)
    assert np.any(run.x == 0.0)
    assert np.isfinite(run.x).all()


def test_fobos_seeded_determinism():
    prob = _suite()
    spec = BaselineSpec(method="fobos", eta0=0.5, seed=9)
    a = run_baseline(prob, spec, 120)
    b = run_baseline(prob, spec, 120)
    assert np.array_equal(a.x, b.x)


def test_rda_stays_at_zero_without_gradient_signal():
    # zero targets make the subgradient vanish at 0, so the averaged gradient
    # stays zero and every closed-form iterate is exactly 0
    prob = problem_from_rows([[1.0], [2.0]], [0.0, 0.0], ABSOLUTE, nu1=0.1)
    spec = BaselineSpec(method="rda", eta0=1.0, seed=0)
    run = run_baseline(prob, spec, 50)
    assert np.array_equal(run.x, np.zeros(1))


def test_rda_thresholding_rule():
    # coordinates with |averaged gradient| <= nu1 are exactly zero
    prob = _suite(nu1=0.04)
    spec = BaselineSpec(method="rda", eta0=1.0, seed=3)
    traces = []
    run = run_baseline(prob, spec, 200, callback=lambda t, x, e: traces.append(x.copy()),
                       callback_every=50)
    for x in traces:
        assert np.isfinite(x).all()
    assert np.any(run.x == 0.0)


def test_rda_closed_form_matches_golden_section():
    rng = np.random.default_rng(4)
    for _ in range(25):
        gbar = rng.normal(scale=1.5)
        nu1, nu2 = rng.uniform(0.0, 1.0, size=2)
        beta_over_t = rng.uniform(0.05, 2.0)
        quad = nu2 + beta_over_t
        closed = -np.sign(gbar) * max(abs(gbar) - nu1, 0.0) / quad
        oracle = golden_section(
            lambda x: gbar * x + nu1 * abs(x) + 0.5 * quad * x * x, -10.0, 10.0
        )
        assert abs(closed - oracle) < 1e-6


def test_poly_sgd_average_fixed_point():
    # if the iterates never move, the running average equals them exactly
    prob = problem_from_rows([[1.0]], [1.0], HINGE)  # margin 1 at x=1: zero subgradient
    spec = BaselineSpec(method="poly-sgd", eta0=1.0, seed=0)
    run = run_baseline(prob, spec, 40, x0=np.array([1.0]))
    assert run.x == pytest.approx(np.array([1.0]), abs=1e-15)


def test_poly_sgd_large_exponent_tracks_last_iterate(monkeypatch):
    prob = _suite(nu2=0.0)  # mu = 0: the 1/sqrt(t) steps replayed below
    monkeypatch.setattr(baselines, "AVERAGING_EXPONENT", 1e6)
    fast = BaselineSpec(method="poly-sgd", eta0=0.2, seed=2)
    run_avg = run_baseline(prob, fast, 60)

    # replay the recursion without averaging, one batch drawn per step
    rng = np.random.default_rng(2)
    x = np.zeros(prob.d)
    scalars = subgradient_scalars(prob.loss, 50)
    for t in range(1, 61):
        batch = rng.integers(0, prob.n, size=50)
        g = loss_subgradient(prob.features[batch], prob.offsets[batch], scalars, x)
        g = g + prob.reg.nu1 * np.sign(x) + prob.reg.nu2 * x
        x = x - 0.2 / np.sqrt(t) * g
    # the averaging weight is 1 - O(t / exponent), so the average tracks the
    # last iterate up to that slack
    assert np.allclose(run_avg.x, x, atol=1e-4)


def test_poly_sgd_output_is_dense():
    prob = _suite(nu1=0.05)
    spec = BaselineSpec(method="poly-sgd", eta0=0.5, seed=5)
    run = run_baseline(prob, spec, 400)
    assert np.all(run.x != 0.0)


def test_baselines_share_solver_run_contract():
    prob = _suite()
    for method in ("fobos", "rda", "poly-sgd"):
        spec = BaselineSpec(method=method, eta0=1.0 if method == "rda" else 0.3, seed=7)
        run = run_baseline(prob, spec, 90)
        assert run.x.shape == (prob.d,)
        assert np.isfinite(run.x).all()
        again = run_baseline(prob, spec, 90)
        assert np.array_equal(run.x, again.x)


@pytest.mark.parametrize("method", ("fobos", "rda", "poly-sgd"))
def test_baselines_reject_a_wrong_shape_start_point(method):
    prob = _suite()
    spec = BaselineSpec(method=method, eta0=0.3)
    with pytest.raises(ValueError, match=r"x0 has shape \(3,\), expected \(15,\)"):
        run_baseline(prob, spec, 10, x0=np.zeros(3))


def _recorded_stream(monkeypatch, method, batch_size, budget):
    """Run a baseline on ``_suite()``, recording each ``sample_minibatch`` draw
    and each index block handed to ``epoch_batches``; return both lists, the
    epoch length, the batch size and the per-step draws from the same seed."""
    prob = _suite()
    n = prob.n
    real_draw, drawn = datasets.sample_minibatch, []
    real_gather, gathered = baselines.epoch_batches, []

    def drawing(*args, **kwargs):
        out = real_draw(*args, **kwargs)
        drawn.append(out)
        return out

    def gathering(block, *arrays):
        gathered.append(block)
        return real_gather(block, *arrays)

    monkeypatch.setattr(datasets, "sample_minibatch", drawing)
    monkeypatch.setattr(baselines, "epoch_batches", gathering)
    spec = BaselineSpec(method=method, eta0=0.3, batch_size=batch_size, seed=8)
    run_baseline(prob, spec, budget)
    b = min(batch_size, n)
    ref = np.random.default_rng(8)
    singles = [ref.integers(0, n, size=b) for _ in range(budget)]
    return drawn, gathered, math.ceil(n / b), b, singles


@pytest.mark.parametrize("method", ("fobos", "rda", "poly-sgd"))
@pytest.mark.parametrize("batch_size, budget", (
    (50, 23),  # n = 300, epochs of 6 steps: gathers of 6, 6, 6 and 5
    (50, 4),  # a budget below one epoch: one gather of 4
    (400, 5),  # batch size clamped to n = 300: epochs of one step
))
def test_baseline_draws_one_epoch_per_call(monkeypatch, method, batch_size, budget):
    # each epoch's drawn rows reach one epoch_batches call
    _, gathered, epoch, b, singles = _recorded_stream(monkeypatch, method, batch_size,
                                                      budget)
    assert len(gathered) == math.ceil(budget / epoch)
    assert [rows.shape for rows in gathered[:-1]] == [(epoch, b)] * (len(gathered) - 1)
    assert gathered[-1].shape == (budget - epoch * (len(gathered) - 1), b)
    assert np.array_equal(np.concatenate(gathered), singles)


@pytest.mark.parametrize("method", ("fobos", "rda", "poly-sgd"))
@pytest.mark.parametrize("batch_size, budget, draws", (
    # n = 300, epochs of 6 steps: blocks of 6 * (8192 // 300) = 162 steps
    (50, 23, [23]),
    (50, 4, [4]),  # a budget below one epoch
    (400, 5, [5]),  # batch size clamped to n = 300: blocks of 27 one-step epochs
    # 400 * 50 indices cross DRAW_INDICES: two whole blocks and 76 steps,
    # 12 epochs and 4 steps into the third
    (50, 400, [162, 162, 76]),
))
def test_baseline_draws_blocks_of_whole_epochs(monkeypatch, method, batch_size, budget,
                                               draws):
    drawn, _, epoch, b, singles = _recorded_stream(monkeypatch, method, batch_size, budget)
    assert [len(rows) for rows in drawn] == draws
    assert all(len(rows) % epoch == 0 and len(rows) * b <= datasets.DRAW_INDICES
               for rows in drawn[:-1])
    assert np.array_equal(np.concatenate(drawn), singles)


def test_baseline_spec_validation():
    with pytest.raises(ValueError):
        BaselineSpec(method="sgd")
    with pytest.raises(ValueError):
        BaselineSpec(eta0=0.0)
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        BaselineSpec(batch_size=0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="eta0 must be finite"):
            BaselineSpec(eta0=value)


def test_baseline_objective_decreases_on_suite():
    prob = _suite()
    start = objective_original(prob, np.zeros(prob.d))
    for method in ("fobos", "rda", "poly-sgd"):
        finals = []
        for seed in range(5):
            spec = BaselineSpec(method=method, eta0=0.5, seed=seed)
            finals.append(objective_original(prob, run_baseline(prob, spec, 400).x))
        assert np.median(finals) < start


def _matmul_subgradient(rows, offsets, loss, x):
    """``loss_subgradient`` written with the @ operator, on float operands."""
    neg_u_hi, neg_u_lo, count = _float_bounds(loss, len(offsets))
    weights = np.sign(rows @ x - offsets)
    if neg_u_hi is not None:
        np.maximum(weights, neg_u_hi, out=weights)
    if neg_u_lo is not None:
        np.minimum(weights, neg_u_lo, out=weights)
    return (rows.T @ weights) / count


@pytest.mark.parametrize("loss", (HINGE, ABSOLUTE))
@pytest.mark.parametrize("layout", ("c", "f", "csr"))
@pytest.mark.parametrize("b", (1, 13, 50, 100))
def test_loss_subgradient_keeps_the_bits_of_matmul(loss, layout, b):
    rng = np.random.default_rng(29 + b)
    prob = layout_problem(rng, loss, layout)
    scalars = subgradient_scalars(loss, b)
    for _ in range(3):
        x = rng.normal(size=prob.d)
        for rows, c in layout_batches(rng, prob, b):
            got = loss_subgradient(rows, c, scalars, x)
            assert got.tobytes() == _matmul_subgradient(rows, c, loss, x).tobytes()


@pytest.mark.parametrize("loss", (HINGE, ABSOLUTE))
@pytest.mark.parametrize("layout", ("c", "f", "csr"))
@pytest.mark.parametrize("b", (1, 13, 50, 100))
def test_loss_subgradient_keeps_its_bits_with_precast_scalars(loss, layout, b):
    # run_baseline casts the bounds and the batch size once per run to
    # read-only 0-d arrays; zero scores (x = 0) against signed-zero offsets hit
    # sign(+-0), and NaN passes, with the bytes of the @ form on float operands
    rng = np.random.default_rng(41 + b)
    prob = layout_problem(rng, loss, layout)
    scalars = _read_only_scalars(_float_bounds(loss, b), subgradient_scalars(loss, b))
    for x in (np.zeros(prob.d), rng.normal(size=prob.d)):
        for rows, offsets in layout_batches(rng, prob, b):
            for nan in (0.0, 0.05):  # signed zeros alone, then with NaN
                c = _signed_zeros_and_nan(rng, offsets, nan)
                got = loss_subgradient(rows, c, scalars, x)
                assert got.tobytes() == _matmul_subgradient(rows, c, loss, x).tobytes()
