import math

import numpy as np
import pytest

from cnsopt import Regularizer, prox_l1, prox_regularizer
from cnsopt.prox import prox_scalars
from cnsopt.smoothing import precast
from tests.test_smoothing import _read_only_scalars

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo, hi, tol=1e-9):
    """Plain golden-section search for the minimizer of a unimodal f on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def golden_prox_reg(v, eta, reg, lam_extra):
    quad = reg.nu2 + lam_extra
    out = np.empty_like(v)
    for j, vj in enumerate(v):
        out[j] = golden_section(
            lambda x: 0.5 * (x - vj) ** 2
            + eta * (reg.nu1 * abs(x) + 0.5 * quad * x * x),
            vj - abs(vj) - 1,
            vj + abs(vj) + 1,
        )
    return out


def test_soft_threshold_example():
    assert np.allclose(prox_l1(np.array([3.0, -0.5, 0.0]), 1.0), [2.0, 0.0, 0.0])


def test_zero_threshold_is_identity():
    v = np.array([1.0, -2.0, 0.5])
    out = prox_l1(v, 0.0)
    assert np.array_equal(out, v)
    assert out is not v


def test_negative_threshold_rejected():
    with pytest.raises(ValueError):
        prox_l1(np.zeros(2), -1e-9)


def test_prox_regularizer_elastic_net_example():
    reg = Regularizer(nu1=1.0, nu2=1.0)
    got = prox_regularizer(np.array([2.0]), prox_scalars(1.0, reg))
    assert got == pytest.approx(np.array([0.5]))
    oracle = golden_prox_reg(np.array([2.0]), 1.0, reg, 0.0)
    assert got == pytest.approx(oracle, abs=1e-6)


def test_prox_regularizer_pure_ridge():
    got = prox_regularizer(np.array([4.0]), prox_scalars(1.0, Regularizer(nu1=0.0, nu2=1.0)))
    assert got == pytest.approx(np.array([2.0]))


def test_prox_regularizer_reduces_to_soft_threshold():
    rng = np.random.default_rng(1)
    v = rng.normal(size=10)
    assert np.array_equal(
        prox_regularizer(v, prox_scalars(0.7, Regularizer(nu1=0.4))), prox_l1(v, 0.7 * 0.4)
    )


def test_lam_extra_folds_into_nu2():
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.normal(scale=2.0, size=8)
        eta = rng.uniform(0.1, 2.0)
        a = prox_regularizer(v, prox_scalars(eta, Regularizer(nu1=0.3, nu2=0.3), lam_extra=0.2))
        b = prox_regularizer(v, prox_scalars(eta, Regularizer(nu1=0.3, nu2=0.5), lam_extra=0.0))
        assert np.allclose(a, b, atol=1e-15)


def test_nonexpansiveness():
    rng = np.random.default_rng(4)
    reg = Regularizer(nu1=0.8, nu2=0.2)
    for _ in range(100):
        v1 = rng.normal(scale=3.0, size=12)
        v2 = rng.normal(scale=3.0, size=12)
        eta = rng.uniform(0.1, 3.0)
        scalars = prox_scalars(eta, reg, 0.1)
        d_out = np.linalg.norm(
            prox_regularizer(v1, scalars) - prox_regularizer(v2, scalars)
        )
        assert d_out <= np.linalg.norm(v1 - v2) + 1e-12


def test_subdifferential_optimality():
    # 0 must lie in x - v + eta nu1 sign(x) + eta (nu2 + lam) x, coordinatewise
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.normal(scale=2.0, size=15)
        eta = rng.uniform(0.1, 2.0)
        nu1, nu2, lam = rng.uniform(0, 1.0, size=3)
        x = prox_regularizer(v, prox_scalars(eta, Regularizer(nu1=nu1, nu2=nu2), lam))
        resid = x - v + eta * (nu2 + lam) * x
        for j in range(len(v)):
            if x[j] != 0.0:
                assert abs(resid[j] + eta * nu1 * np.sign(x[j])) < 1e-8
            else:
                assert abs(resid[j]) <= eta * nu1 + 1e-8


def test_sparsity_pattern_exact():
    rng = np.random.default_rng(6)
    v = rng.normal(scale=2.0, size=200)
    t = 0.8
    out = prox_l1(v, t)
    assert np.array_equal(out == 0.0, np.abs(v) <= t)


def test_prox_l1_keeps_nan():
    out = prox_l1([np.nan, 1.0], 0.1)
    assert np.isnan(out[0]) and out[1] == 0.9


def test_prox_l1_keeps_the_bits_of_the_sign_form():
    rng = np.random.default_rng(7)
    for t in (0.1, 3.0, 1e-300):
        v = np.concatenate([rng.normal(scale=2.0 * t, size=5000),
                            [0.0, -0.0, t, -t, np.nextafter(t, 0.0), np.nextafter(t, 1e308),
                             np.inf, -np.inf]])
        ref = np.where(np.abs(v) > t, v - t * np.sign(v), 0.0)
        assert prox_l1(v, t).tobytes() == ref.tobytes()


@pytest.mark.parametrize("nu1", (0.0, 0.3))
@pytest.mark.parametrize("nu2, lam_extra", ((0.0, 0.0), (0.2, 0.0), (0.0, 1e-3), (0.2, 1e-3)))
def test_prox_regularizer_is_prox_l1_then_shrink(nu1, nu2, lam_extra):
    # byte for byte, NaN and infinities included; nu1 = 0 is the zero-threshold
    # branch, which must copy v, not shrink the caller's array
    rng = np.random.default_rng(8)
    eta = 0.7
    t = eta * nu1
    v = np.concatenate([rng.normal(size=200),
                        [0.0, -0.0, t, -t, np.nextafter(t, 1.0), np.nan, np.inf, -np.inf]])
    before = v.copy()
    reg = Regularizer(nu1=nu1, nu2=nu2)
    ref = prox_l1(v, t)
    quad = nu2 + lam_extra
    if quad:
        ref /= 1.0 + eta * quad
    got = prox_regularizer(v, prox_scalars(eta, reg, lam_extra))
    assert got.tobytes() == ref.tobytes()
    assert got is not v and v.tobytes() == before.tobytes()


@pytest.mark.parametrize("nu1", (0.0, 0.3))
@pytest.mark.parametrize("nu2, lam_extra", ((0.0, 0.0), (0.2, 0.0), (0.0, 1e-3), (0.2, 1e-3)))
def test_prox_regularizer_keeps_its_bits_with_precast_scalars(nu1, nu2, lam_extra):
    # a solver with a constant step casts the prox's operands once per stage,
    # FOBOS passes them as floats at every step; nu1 = 0 is the zero-threshold
    # branch and nu2 + lam_extra = 0 the zero-quad one, whose operands stay None
    rng = np.random.default_rng(9)
    reg = Regularizer(nu1=nu1, nu2=nu2)
    for eta in (0.7, 1e-3):
        t = eta * nu1
        v = np.concatenate([rng.normal(size=200),
                            [0.0, -0.0, t, -t, np.nextafter(t, 1.0), np.nan, np.inf, -np.inf]])
        before = v.copy()
        scalars = prox_scalars(eta, reg, lam_extra)
        assert (scalars[0] is None) == (scalars[1] is None) == (nu1 == 0.0)
        assert (scalars[2] is None) == (nu2 + lam_extra == 0.0)
        got = prox_regularizer(v, _read_only_scalars(scalars, precast(*scalars)))
        assert got.tobytes() == prox_regularizer(v, scalars).tobytes()
        assert got is not v and v.tobytes() == before.tobytes()


def test_prox_scalars_check_their_arguments():
    with pytest.raises(ValueError, match="step size"):
        prox_scalars(0.0, Regularizer(nu1=0.1))
    with pytest.raises(ValueError, match="lam_extra"):
        prox_scalars(0.5, Regularizer(nu1=0.1), -1e-3)
