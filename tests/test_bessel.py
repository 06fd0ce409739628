"""Accuracy and identity tests for the modified Bessel substrate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from excyl.bessel import (
    ScaledValue,
    bessel_i,
    bessel_i_prime,
    bessel_k,
    bessel_k_prime,
    kernel_I,
    kernel_I_derivs,
    kernel_K,
    kernel_K_derivs,
    wronskian_check,
)
from excyl.errors import DomainError, NumericError

from oracles import assert_same_bits, mp_bessel_i, mp_bessel_k


# Frozen oracle values (direct mpmath summation of the defining series,
# see oracles.py; computed before the implementation and pinned here).
FROZEN_I = {
    (0.0, 1.0): 1.2660658777520083,
    (0.5, 2.0): 2.046236863089055,    # = sqrt(2/(pi*2)) sinh 2
    (1.5, 0.3): 0.044096521002522977,
    (2.5, 10.0): 2028.5127573919357,
}
FROZEN_K = {
    (0.0, 1.0): 0.42102443824070833,
    (0.5, 3.0): 0.036025985131764593,  # = sqrt(pi/(2*3)) e^-3
    (1.0, 2.0): 0.13986588181652243,
    (2.5, 0.7): 8.486341592801385,
}


def test_frozen_values_first_kind():
    for (alpha, x), want in FROZEN_I.items():
        got = bessel_i(alpha, x).value()
        assert got == pytest.approx(want, rel=1e-13)


def test_frozen_values_second_kind():
    for (alpha, x), want in FROZEN_K.items():
        got = bessel_k(alpha, x).value()
        assert got == pytest.approx(want, rel=1e-13)


def test_half_integer_closed_forms():
    x = 2.0
    assert bessel_i(0.5, x).value() == pytest.approx(
        math.sqrt(2.0 / (math.pi * x)) * math.sinh(x), rel=1e-12)
    x = 3.0
    assert bessel_k(0.5, x).value() == pytest.approx(
        math.sqrt(math.pi / (2.0 * x)) * math.exp(-x), rel=1e-12)


def test_small_argument_limit_first_kind():
    # leading term (x/2)^a / Gamma(a+1)
    val = bessel_i(1.0, 1e-8).value()
    assert val == pytest.approx(0.5e-8, rel=1e-8)
    assert val > 0.0


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.5, 3.2])
def test_against_series_oracle(alpha):
    xs = np.geomspace(0.1, 30.0, 25)
    ivals = bessel_i(alpha, xs).value()
    kvals = bessel_k(alpha, xs).value()
    for x, iv, kv in zip(xs, ivals, kvals):
        assert iv == pytest.approx(float(mp_bessel_i(alpha, x)), rel=1e-11)
        assert kv == pytest.approx(float(mp_bessel_k(alpha, x)), rel=1e-11)


def test_wronskian_identity():
    xs = np.array([0.5, 1.0, 5.0, 20.0])
    got = wronskian_check(xs)
    np.testing.assert_allclose(got, -1.0 / xs, rtol=1e-8)


def test_derivative_recurrence_half_integer():
    # d/dx sqrt(2/(pi x)) sinh x  at x=1
    x = 1.0
    exact = math.sqrt(2.0 / math.pi) * (math.cosh(x) / math.sqrt(x)
                                        - 0.5 * math.sinh(x) * x ** -1.5)
    assert bessel_i_prime(0.5, x).value() == pytest.approx(exact, rel=1e-10)


def test_derivative_alpha_zero():
    # I_0' = I_1
    x = 1.0
    assert bessel_i_prime(0.0, x).value() == pytest.approx(
        bessel_i(1.0, x).value(), rel=1e-13)


@pytest.mark.parametrize("alpha", [0.0, 0.7, 1.0, 2.5])
def test_derivatives_match_finite_differences(alpha):
    h = 1e-5
    for x in [0.8, 3.0, 15.0]:
        fd_i = (bessel_i(alpha, x + h).value() - bessel_i(alpha, x - h).value()) / (2 * h)
        fd_k = (bessel_k(alpha, x + h).value() - bessel_k(alpha, x - h).value()) / (2 * h)
        assert bessel_i_prime(alpha, x).value() == pytest.approx(fd_i, rel=5e-9)
        assert bessel_k_prime(alpha, x).value() == pytest.approx(fd_k, rel=5e-9)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.0, 6.0), x=st.floats(0.01, 60.0))
def test_positivity(alpha, x):
    assert bessel_i(alpha, x).mantissa > 0.0
    assert bessel_k(alpha, x).mantissa > 0.0


@pytest.mark.parametrize("alpha", [5e-324, 1e-310, 1e-120])
def test_tiny_orders_match_order_zero(alpha):
    # the Amos kve returns NaN at subnormal orders; K_a = K_0 (1 + O(a^2))
    xs = np.array([0.01, 1.0, 60.0])
    np.testing.assert_allclose(bessel_k(alpha, xs).value(),
                               bessel_k(0.0, xs).value(), rtol=1e-15)
    np.testing.assert_allclose(bessel_i(alpha, xs).value(),
                               bessel_i(0.0, xs).value(), rtol=1e-15)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.0, 4.0), x=st.floats(0.05, 100.0))
def test_scaled_reconstruction(alpha, x):
    # mantissa * e^shift must agree with the mathematical value whenever the
    # latter is representable; compare the two branches through log space.
    sv_i = bessel_i(alpha, x)
    sv_k = bessel_k(alpha, x)
    li = float(sv_i.log_abs())
    lk = float(sv_k.log_abs())
    if abs(li) < 700 and abs(lk) < 700:
        assert sv_i.value() == pytest.approx(math.exp(li), rel=1e-12)
        assert sv_k.value() == pytest.approx(math.exp(lk), rel=1e-12)


def test_former_switch_windows_against_oracle():
    # the hand-rolled substrate switched branches at x = 2 (K) and at
    # x = max(12, 2 a^2) (I); both windows stay pinned to the series oracle
    import mpmath as mp
    for alpha in [0.0, 0.4, 1.0, 2.5]:
        xs = np.concatenate([np.linspace(1.6, 2.4, 9),
                             np.linspace(0.8, 1.2, 9) * max(12.0, 2.0 * alpha ** 2)])
        got_i = bessel_i(alpha, xs).log_abs()
        got_k = bessel_k(alpha, xs).log_abs()
        want_i = [float(mp.log(mp_bessel_i(alpha, x))) for x in xs]
        want_k = [float(mp.log(mp_bessel_k(alpha, x))) for x in xs]
        np.testing.assert_allclose(got_i, want_i, rtol=0, atol=1e-11)
        np.testing.assert_allclose(got_k, want_k, rtol=0, atol=1e-11)


def test_continuity_in_order_through_integers():
    # the sin(a pi) singularity of the defining K formula is removable; the
    # implementation must vary smoothly through integer orders
    for n in [0, 1, 2, 3]:
        for x in [0.3, 1.7, 6.0]:
            mid = bessel_k(float(n), x).value()
            lo = bessel_k(n - 1e-7 if n else 0.0, x).value()
            hi = bessel_k(n + 1e-7, x).value()
            assert lo == pytest.approx(mid, rel=1e-5)
            assert hi == pytest.approx(mid, rel=1e-5)


def test_domain_errors():
    with pytest.raises(DomainError):
        bessel_i(1.0, 0.0)
    with pytest.raises(DomainError):
        bessel_k(0.5, -2.0)
    with pytest.raises(DomainError):
        bessel_i(1.0, math.nan)
    with pytest.raises(DomainError):
        bessel_i(-0.5, 1.0)
    with pytest.raises(DomainError):
        kernel_K(0, -1.0, 2.0)
    with pytest.raises(DomainError, match="Bessel order must be finite"):
        kernel_K(1, math.nan, 2.0)
    # scipy's ive/kve return NaN beyond x = 2^30: an error, never a value
    for f in (bessel_i, bessel_k):
        with pytest.raises(NumericError):
            f(1.0, 1e10)


def test_kernel_reduces_to_plain_bessel_at_nu_zero():
    r = np.array([1.0, 2.0, 7.5])
    kk = kernel_K(1, 0.0, r)
    ii = kernel_I(1, 0.0, r)
    np.testing.assert_allclose(kk.value(), bessel_k(1.0, r).value(), rtol=1e-13)
    np.testing.assert_allclose(ii.value(), bessel_i(1.0, r).value(), rtol=1e-13)


@pytest.mark.parametrize("kind,csq", [("swirl", +1), ("vorticity", -1)])
@pytest.mark.parametrize("k,nu", [(1, -1.0), (2, -3.0), (8, -0.5), (5, -2.0)])
def test_kernel_homogeneous_ode_residual(kind, csq, k, nu):
    # -(G'' + (1-nu)/r G' - c/r^2 G - k^2 G) = 0 with c = 1+nu (swirl), 1-nu (vorticity)
    r = np.geomspace(1.0, 60.0, 120)
    c = 1.0 + nu if kind == "swirl" else 1.0 - nu
    for derivs in (kernel_K_derivs, kernel_I_derivs):
        g0, g1, g2 = derivs(k, nu, r, kind)
        res = g2 + ((1.0 - nu) / r) * g1 - (c / r ** 2 + k * k) * g0
        rel = np.exp(res.log_abs() - g2.log_abs())
        assert np.max(rel) < 1e-7


@pytest.mark.parametrize("kind", ["swirl", "vorticity", "stream"])
@pytest.mark.parametrize("nu", [-3.0, -2.0, -1.0, -0.5])
@pytest.mark.parametrize("k", [1, 3, 17])
def test_kernel_values_have_the_bits_of_the_plain_bessel_product(kind, nu, k):
    # r^{nu/2} B_a(|k| r) (no weight for the stream kernel), mantissa and
    # shift, is the value row of the kernel triples the solvers read
    r = np.concatenate((np.geomspace(1.0, 90.0, 257), [2.5, 1e4]))
    alpha = {"swirl": abs(1.0 + 0.5 * nu), "vorticity": abs(1.0 - 0.5 * nu),
             "stream": 1.0}[kind]
    weight = np.power(r, 0.0 if kind == "stream" else 0.5 * nu)
    for kernel, derivs, bessel in ((kernel_K, kernel_K_derivs, bessel_k),
                                   (kernel_I, kernel_I_derivs, bessel_i)):
        want = weight * bessel(alpha, k * r)
        for got in (kernel(k, nu, r, kind), derivs(k, nu, r, kind)[0],
                    derivs(k, nu, r, kind, upto=1)[0]):
            assert_same_bits(got.mantissa, want.mantissa)
            assert_same_bits(got.exp_shift, want.exp_shift)


def test_kernel_monotonicity():
    # decaying kernel decreases, growing kernel increases on r >= 1
    r = np.geomspace(1.0, 50.0, 200)
    for (k, nu) in [(1, -1.0), (3, -3.5), (2, 0.0)]:
        lk = kernel_K(k, nu, r).log_abs()
        li = kernel_I(k, nu, r).log_abs()
        assert np.all(np.diff(lk) < 0)
        assert np.all(np.diff(li) > 0)


def test_scaled_kernel_products_stay_finite():
    # e^{+|k|s} and e^{-|k|r} factors must combine without overflow
    r = np.array([100.0, 150.0])
    prod = kernel_K(40, -1.0, r) * kernel_I(40, -1.0, r)
    vals = prod.value()
    assert np.all(np.isfinite(vals))
    # K_a I_a ~ 1/(2x) for large x, times r^nu weight
    np.testing.assert_allclose(vals, r ** -1.0 / (2 * 40 * r), rtol=1e-2)


def test_scaled_value_arithmetic():
    a = ScaledValue(2.0, 10.0)
    b = ScaledValue(3.0, -10.0)
    assert (a * b).value() == pytest.approx(6.0)
    s = a + a
    assert s.value() == pytest.approx(2 * 2.0 * math.exp(10.0))
    d = a - a
    assert d.value() == 0.0


# --- shared Bessel evaluations across the kernel kinds -------------------------


def _reference_kernel_derivs(bessel, sign, k, nu, r, kind):
    """The kernel triple in ScaledValue arithmetic with one Bessel evaluation
    per order, re-expressed at shift sign*|k|r as the mode solvers read it
    (the assembly before evaluations were shared across kinds)."""
    alpha = {"swirl": abs(1.0 + 0.5 * nu), "vorticity": abs(1.0 - 0.5 * nu),
             "stream": 1.0}[kind]
    kk = abs(int(k))
    c = 0.0 if kind == "stream" else 0.5 * nu
    x = kk * r
    b0, b1, b2 = bessel(alpha, x), bessel(alpha + 1.0, x), bessel(alpha + 2.0, x)
    g0 = np.power(r, c) * b0
    g1 = (c + alpha) * np.power(r, c - 1.0) * b0 + sign * kk * np.power(r, c) * b1
    g2 = ((c + alpha) * (c + alpha - 1.0) * np.power(r, c - 2.0) * b0
          + sign * (2.0 * c + 2.0 * alpha + 1.0) * kk * np.power(r, c - 1.0) * b1
          + kk * kk * np.power(r, c) * b2)
    return tuple(g.mantissa * np.exp(g.exp_shift - sign * kk * r)
                 for g in (g0, g1, g2))


@pytest.mark.parametrize("nu", [-0.5, -1.0, -2.0, -2.2, -3.0, -4.0])
def test_shared_kernel_evaluations_keep_every_bit(nu):
    # nu = -2 puts the swirl at order 0 (kve's order-0 path); at nu = -1 and
    # -3 swirl and vorticity share orders, at nu = -2 and -4 every kind shares
    # orders with another, at nu = -2.2 the swirl's a+2 is the vorticity's a,
    # and at nu = -0.5 no order is shared
    r = np.geomspace(1.0, 90.0, 300)
    for derivs, bessel, sign, name in ((kernel_K_derivs, bessel_k, -1.0, "K"),
                                       (kernel_I_derivs, bessel_i, +1.0, "I")):
        shared = {}
        for k in (1, 3):
            for kind in ("swirl", "vorticity", "stream"):
                ref = _reference_kernel_derivs(bessel, sign, k, nu, r, kind)
                upto = 1 if kind == "vorticity" else 2
                full = derivs(k, nu, r, kind)
                part = derivs(k, nu, r, kind, upto=upto, shared=shared)
                assert len(full) == 3 and len(part) == upto + 1
                for got in (full, part):
                    for g, m in zip(got, ref):
                        assert_same_bits(g.exp_shift, sign * k * r)
                        assert_same_bits(g.mantissa, m)
        # the dict holds this side's Bessel evaluations and powers of r only
        assert {key[0] for key in shared} == {name, "r^"}


def test_kernel_derivs_upto_is_checked():
    with pytest.raises(DomainError):
        kernel_K_derivs(1, -1.0, np.array([1.0, 2.0]), upto=3)
