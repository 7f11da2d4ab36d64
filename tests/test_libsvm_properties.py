"""Property tests for the LIBSVM parser and serializer.

Round trip: serializing a dataset and parsing the text back gives the same
CSR arrays and labels, bit for bit. Fuzz: any soup of plausible and broken
tokens either parses or raises LibsvmFormatError at a line of the input.
"""

import numpy as np
import pytest
import scipy.sparse as sparse

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cnsopt import (  # noqa: E402
    CLASSIFICATION,
    REGRESSION,
    LibsvmFormatError,
    SparseDataset,
    libsvm_dumps,
    parse_libsvm,
)

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 6))
    task = draw(st.sampled_from((CLASSIFICATION, REGRESSION)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d)))
    values = draw(st.lists(FINITE.filter(bool), min_size=n * d, max_size=n * d))
    dense = np.where(mask, np.array(values), 0.0).reshape(n, d)
    if task == CLASSIFICATION:
        labels = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n))
    else:
        labels = draw(st.lists(FINITE, min_size=n, max_size=n))
    return SparseDataset(sparse.csr_matrix(dense), np.array(labels), task)


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_serialize_then_parse_is_bit_identical(ds):
    back = parse_libsvm(libsvm_dumps(ds).splitlines(), task=ds.task, n_features=ds.d)
    assert back.features.shape == ds.features.shape
    assert back.features.data.tobytes() == ds.features.data.tobytes()
    assert np.array_equal(back.features.indices, ds.features.indices)
    assert np.array_equal(back.features.indptr, ds.features.indptr)
    assert back.labels.tobytes() == ds.labels.tobytes()


SOUP = st.text(alphabet="0123456789:.-+eEnaif ", max_size=8)
LABELS = st.sampled_from(("1", "-1", "+1", "0", "2", "0.5", "nan", "inf", "1e400", "x"))
FEATURES = st.sampled_from((
    "1:1", "2:0.5", "3:-1e-3", "1:nan", "2:inf", "1:1e400", "0:1", "-1:2",
    "3000000000:1", "2147483648:1", "1:", ":1", ":", "a:b", "1:2:3", "1_0:1",
))
LINES = st.one_of(
    st.tuples(LABELS | SOUP, st.lists(FEATURES | SOUP, max_size=3)).map(
        lambda t: " ".join((t[0], *t[1]))),
    st.tuples(LABELS, st.lists(FEATURES, max_size=3)).map(lambda t: " ".join((t[0], *t[1]))),
    st.just(""),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(LINES, max_size=4), st.sampled_from((CLASSIFICATION, REGRESSION)))
@example(["1 3000000000:1"], CLASSIFICATION)
@example(["0.5 1:1", "", "-2 1:nan"], REGRESSION)
@example(["", " "], REGRESSION)
def test_token_soup_parses_or_fails_at_a_line(lines, task):
    try:
        parse_libsvm(lines, task=task)
    except LibsvmFormatError as err:
        if any(line.strip() for line in lines):
            assert 1 <= err.lineno <= len(lines)
        else:
            assert err.lineno == 0  # no samples at all
