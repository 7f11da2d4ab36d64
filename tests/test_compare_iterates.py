"""The bit gate of ``tools/compare_iterates.py``, on small dicts of arrays.

``check`` is what the gate's ``check`` and ``against`` modes print and exit
with; its seeded cases are not run here.
"""

import numpy as np

from tests.conftest import compare_iterates

KERNEL = "SkylakeX"


def _check(ref, got):
    return compare_iterates.check({**ref, compare_iterates.KERNEL_KEY: np.array(KERNEL)},
                                  got, KERNEL)


def _summary(compared, differ):
    return (f"{compared} arrays compared (0 callback iterates), {compared - differ} "
            f"bit-identical, {differ} differ; dumped under the {KERNEL} BLAS kernel, "
            f"checked under {KERNEL}")


def test_identical_arrays_pass():
    arrays = {"a/x": np.array([1.0, -0.0, np.nan]), "b/x": np.arange(3)}
    assert _check(arrays, {k: v.copy() for k, v in arrays.items()}) == (0, [_summary(2, 0)])


def test_a_flipped_zero_sign_differs():
    status, lines = _check({"a/x": np.array([1.0, -0.0])}, {"a/x": np.array([1.0, 0.0])})
    assert status == 1
    assert lines == [_summary(1, 1), "  DIFF a/x: max 1 ulps, max relative difference 0"]


def test_a_one_ulp_nudge_differs_by_one_ulp():
    ref = np.array([0.5, 3.0])
    got = ref.copy()
    got[1] = np.nextafter(3.0, 4.0)
    status, lines = _check({"a/x": ref}, {"a/x": got})
    assert status == 1
    assert lines[1].startswith("  DIFF a/x: max 1 ulps, max relative difference 1.48e-16")


def test_a_dtype_or_shape_change_differs():
    ref = np.array([1.0, 2.0])
    status, lines = _check({"a/x": ref, "b/x": ref},
                           {"a/x": ref.astype(np.float32), "b/x": ref[None, :]})
    assert status == 1
    assert lines == [_summary(2, 2),
                     "  DIFF a/x: max 0 ulps, max relative difference 0, float64 -> float32",
                     "  DIFF b/x: max inf ulps, max relative difference inf"]


def test_a_missing_or_extra_key_fails_naming_it():
    status, lines = _check({"a/x": np.zeros(2), "b/x": np.zeros(2)},
                           {"a/x": np.zeros(2), "c/x": np.zeros(2)})
    assert status == 1
    assert lines == [
        "  MISSING b/x: in the dump, not produced by this check",
        "  EXTRA c/x: produced by this check, not in the dump",
        f"key sets differ: 1 missing, 1 extra; dumped under the {KERNEL} BLAS kernel, "
        f"checked under {KERNEL}",
    ]


def test_another_kernel_is_named_first():
    status, lines = compare_iterates.check({"a/x": np.zeros(1)}, {"a/x": np.zeros(1)}, KERNEL)
    assert status == 0
    assert lines[0] == (f"BLAS kernels differ (dumped under the unknown BLAS kernel, checked "
                        f"under {KERNEL}): that alone can move the last bits")
