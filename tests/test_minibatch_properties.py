"""Property tests for the mini-batch stream: one ``sample_minibatch(..., k)``
call, the whole ``minibatches`` stream (one-epoch views of draws of up to
``DRAW_INDICES`` indices), and the rows ``epoch_batches`` gathers from it,
give the same batches as one ``rng.integers(0, n, size=b)`` draw and one fancy
index per step, and leave the rng in the same state, so a method may draw many
epochs and gather a whole epoch at once without changing its run. The
generated cases stay inside one draw; the examples whose budget times batch
size exceeds ``DRAW_INDICES`` cross into a second one."""

import math

import numpy as np
import pytest
import scipy.sparse as sparse

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cnsopt.datasets import (DRAW_INDICES, epoch_batches, minibatches,  # noqa: E402
                             sample_minibatch)

# a range just above 2^31 makes Lemire's method reject almost half its 32-bit
# draws, so the draws consumed per batch vary
SIZES = st.one_of(st.integers(1, 300), st.integers(2**31, 2**32 - 1))


def _per_step(n, b, seed, steps):
    ref = np.random.default_rng(seed)
    return [ref.integers(0, n, size=b) for _ in range(steps)], ref


@settings(deadline=None, max_examples=150)
@given(n=SIZES, data=st.data(), steps=st.integers(1, 12), seed=st.integers(0, 2**32))
@example(n=150, data=None, steps=12, seed=5)  # odd batch size 13
@example(n=16, data=None, steps=3, seed=0)  # batch size n
@example(n=2**31 + 1, data=None, steps=9, seed=1)  # large rejection threshold
def test_epoch_draw_equals_successive_draws(n, data, steps, seed):
    if data is None:
        b = {150: 13, 16: 16}.get(n, 7)
    else:
        b = data.draw(st.integers(1, min(n, 64)), label="batch_size")
    rng = np.random.default_rng(seed)
    epoch = sample_minibatch(n, b, rng, steps)
    singles, ref = _per_step(n, b, seed, steps)
    assert epoch.shape == (steps, b)
    assert np.array_equal(epoch, singles)
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(deadline=None, max_examples=150)
@given(n=SIZES, data=st.data(), budget=st.integers(1, 40), seed=st.integers(0, 2**32))
@example(n=150, data=None, budget=29, seed=5)  # epochs of 12 steps, ends mid-epoch
@example(n=150, data=None, budget=7, seed=2)  # a budget below one epoch
@example(n=16, data=None, budget=5, seed=0)  # batch size n: epochs of one step
@example(n=2**31 + 1, data=None, budget=9, seed=1)  # large rejection threshold
# draws of 52 epochs (624 steps): ends 2 epochs and 5 steps into the second
@example(n=150, data=None, budget=653, seed=5)
# 8400 indices at the rejection threshold, all in the first (only) epoch
@example(n=2**31 + 1, data=None, budget=1200, seed=1)
def test_stream_equals_per_step_draws(n, data, budget, seed):
    if data is None:
        b = {150: 13, 16: 16}.get(n, 7)
    else:
        b = data.draw(st.integers(1, min(n, 64)), label="batch_size")
    rng = np.random.default_rng(seed)
    blocks = list(minibatches(n, b, rng, budget))
    singles, ref = _per_step(n, b, seed, budget)
    epoch = math.ceil(n / b)
    assert [len(block) for block in blocks[:-1]] == [epoch] * (len(blocks) - 1)
    # the blocks are views of draws of whole epochs, as many as fit in
    # DRAW_INDICES indices (at least one); only the last draw is capped
    draws = list({id(block.base): block.base for block in blocks}.values())
    for draw in draws[:-1]:
        assert len(draw) % epoch == 0
        assert len(draw) * b <= max(DRAW_INDICES, epoch * b) < (len(draw) + epoch) * b
    stream = np.concatenate(blocks)
    assert len(stream) == budget
    assert np.array_equal(stream, singles)
    assert rng.bit_generator.state == ref.bit_generator.state


def _same_rows(got, want):
    if sparse.issparse(want):
        return (got.shape == want.shape
                and all(np.array_equal(getattr(got, a), getattr(want, a))
                        for a in ("indptr", "indices", "data")))
    return got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 120), data=st.data(), budgets=st.lists(st.integers(1, 30), min_size=1,
       max_size=2), seed=st.integers(0, 2**32), csr=st.booleans())
@example(n=150, data=None, budgets=[29], seed=5, csr=False)  # epochs of 12, ends mid-epoch
@example(n=150, data=None, budgets=[29], seed=5, csr=True)
@example(n=150, data=None, budgets=[7, 17], seed=2, csr=False)  # two runs share one rng
@example(n=150, data=None, budgets=[7, 17], seed=2, csr=True)
@example(n=16, data=None, budgets=[5], seed=0, csr=True)  # batch size n: epochs of one step
# draws of 52 epochs (624 steps): ends 2 epochs and 5 steps into the second
@example(n=150, data=None, budgets=[653], seed=5, csr=False)
# two runs share one rng, the first ending 6 epochs and 4 steps into its second draw
@example(n=150, data=None, budgets=[700, 41], seed=2, csr=False)
@example(n=150, data=None, budgets=[700, 41], seed=2, csr=True)
def test_epoch_gather_equals_per_step_indexing(n, data, budgets, seed, csr):
    if data is None:
        b = {150: 13, 16: 16}[n]
    else:
        b = data.draw(st.integers(1, n), label="batch_size")
    source = np.random.default_rng(seed + 1)
    feats = source.normal(size=(n, 4))
    if csr:
        feats[source.random(size=feats.shape) < 0.6] = 0.0
        feats = sparse.csr_matrix(feats)
    offsets = source.normal(size=n)
    rng = np.random.default_rng(seed)
    got = [batch for budget in budgets for block in minibatches(n, b, rng, budget)
           for batch in epoch_batches(block, feats, offsets)]
    singles, ref = _per_step(n, b, seed, sum(budgets))
    assert len(got) == len(singles)
    for (rows, c), idx in zip(got, singles):
        assert _same_rows(rows, feats[idx])
        assert c.tobytes() == offsets[idx].tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state

