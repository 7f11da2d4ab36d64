"""Property tests for the mini-batch stream: one ``sample_minibatch(..., k)``
call, and the whole ``minibatches`` stream, give the same batches as one
``rng.integers(0, n, size=b)`` draw per step, and leave the rng in the same
state, so a method may draw a whole epoch at once without changing its run."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cnsopt.datasets import minibatches, sample_minibatch  # noqa: E402

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
def test_stream_equals_per_step_draws(n, data, budget, seed):
    if data is None:
        b = {150: 13, 16: 16}.get(n, 7)
    else:
        b = data.draw(st.integers(1, min(n, 64)), label="batch_size")
    rng = np.random.default_rng(seed)
    stream = list(minibatches(n, b, rng, budget))
    singles, ref = _per_step(n, b, seed, budget)
    assert len(stream) == budget
    assert np.array_equal(stream, singles)
    assert rng.bit_generator.state == ref.bit_generator.state

