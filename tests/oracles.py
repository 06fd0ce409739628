"""Independent high-precision oracles used across the test suite.

The Bessel oracles sum the defining power series of I_a directly in mpmath;
K_a comes from the (pi/2)(I_{-a} - I_a)/sin(a pi) combination, with the
order nudged off integers (removable singularity) -- the arbitrary working
precision absorbs the cancellation that rules this formula out in doubles.
assert_same_bits is the bitwise check against test-local reference copies.
"""

import mpmath as mp
import numpy as np

mp.mp.dps = 50

# Integer orders are nudged off the removable sin(a pi) singularity.  The
# I-difference then shrinks by another factor sin(pi*nudge), so the working
# precision must cover log10(e^{2x}) + |log10(nudge)| digits of cancellation.
_NUDGE = mp.mpf("1e-14")


def mp_bessel_i(alpha, x, dps=50):
    """I_alpha(x) by direct summation of the power series.

    Terms follow from the ratio t_{m+1} = t_m (x/2)^2 / ((m+1)(m+alpha+1)),
    so only the leading term needs a gamma function.
    """
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        z = mp.mpf(x)
        q = (z / 2) ** 2
        term = (z / 2) ** a / mp.gamma(a + 1)
        total = mp.mpf(0)
        m = 0
        while True:
            total += term
            if m > 4 and abs(term) < abs(total) * mp.mpf(10) ** (-dps - 5):
                break
            m += 1
            if m > 20000:
                raise RuntimeError("oracle series failed to converge")
            term = term * q / (m * (m + a))
        return total


def mp_bessel_k(alpha, x, dps=50):
    """K_alpha(x) via the I-difference formula, nudged off integer orders."""
    dps_eff = dps + int(0.87 * float(x)) + 16  # cancellation headroom
    with mp.workdps(dps_eff):
        a = mp.mpf(alpha)
        if abs(a - mp.nint(a)) < _NUDGE:
            a = mp.nint(a) + _NUDGE
        z = mp.mpf(x)
        num = mp_bessel_i(-a, z, dps=dps_eff) - mp_bessel_i(a, z, dps=dps_eff)
        return mp.pi / 2 * num / mp.sin(a * mp.pi)


def mp_bessel_i_prime(alpha, x, dps=50):
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        z = mp.mpf(x)
        return (a / z) * mp_bessel_i(alpha, x, dps) + mp_bessel_i(alpha + 1, x, dps)


def mp_bessel_k_prime(alpha, x, dps=50):
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        z = mp.mpf(x)
        return (a / z) * mp_bessel_k(alpha, x, dps) - mp_bessel_k(alpha + 1, x, dps)


def assert_same_bits(got, ref):
    """Same shape, dtype and values, and the same sign on every zero (real
    and imaginary parts)."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got, ref)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))
