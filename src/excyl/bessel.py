"""Real-order modified Bessel functions and the radial Green's-function kernels.

I_a and K_a come from scipy's exponentially scaled Amos routines
(scipy.special.ive and kve; D. E. Amos, ACM TOMS 644, 1986), which return
exactly the mantissas of I_a(x) = ive(a, x) e^{+x} and K_a(x) = kve(a, x)
e^{-x}.  They are accurate to ~1e-14 relative against the arbitrary-precision
series oracle in the test suite.  The Amos routines give up at arguments
x > 2^30 ~ 1.07e9 (ive and kve return NaN there), so bessel_i and bessel_k
are defined for 0 < x <= 2^30 and raise NumericError beyond; the solver's
arguments |k| r stay many orders of magnitude below that.

All results are returned as ScaledValue pairs (mantissa, exp_shift) with
value = mantissa * e^exp_shift, so no result overflows.  The mode solvers
keep only the kernel mantissas at shifts -|k|r and +|k|r: in the Green's
formulas those exponentials cancel against the exponentially weighted
integrals, so the solvers multiply plain mantissa arrays and no
intermediate ever overflows.  The kernels depend only on the grid, |k|, nu
and the kind, so the mode solvers compute them once per grid and keep the
mantissas in the grid's operator cache (see modes._scaled_kernels).

Derivatives come from the recurrences

    K_a'(x) = (a/x) K_a(x) - K_{a+1}(x)
    I_a'(x) = (a/x) I_a(x) + I_{a+1}(x)

so a kernel triple (G, G', G'') reads the orders a, a+1 and a+2; they are
never finite-differenced.  The kernels of one grid share their scipy
evaluations: kernel_K_derivs and kernel_I_derivs take a caller-kept dict of
the mantissas already computed, keyed by (K or I, order, |k|), so orders
that coincide across the swirl, vorticity and stream kernels (at nu = -1
the swirl's 1.5 and 2.5 are the vorticity's a and a+1) are evaluated once,
and the powers r^c, r^{c-1}, r^{c-2} are computed once per kind.  Only
orders that are the same float share an evaluation, so the kernels do not
change in any bit.  A caller that reads only (G, G') asks for upto=1, and
the order a+2 is then not evaluated at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ive, kve

from .errors import DomainError, NumericError

__all__ = [
    "ScaledValue",
    "BesselOrder",
    "bessel_i",
    "bessel_k",
    "bessel_i_prime",
    "bessel_k_prime",
    "kernel_K",
    "kernel_I",
    "kernel_K_derivs",
    "kernel_I_derivs",
    "wronskian_check",
]

class ScaledValue:
    """A quantity m * e^s held as (mantissa m, exponent shift s).

    Mantissa may be complex and either field may be an ndarray; shapes
    broadcast like numpy.  Arithmetic keeps shifts symbolic so products such
    as kernel pairs e^{+|k|s} * e^{-|k|r} stay finite for any |k| r.
    """

    __slots__ = ("mantissa", "exp_shift")

    # Defer mixed ndarray (op) ScaledValue expressions to the reflected
    # operators below instead of numpy's elementwise object broadcasting.
    __array_ufunc__ = None

    def __init__(self, mantissa, exp_shift=0.0):
        m = np.asarray(mantissa)
        s = np.asarray(exp_shift, dtype=float)
        if m.shape != s.shape:
            m, s = np.broadcast_arrays(m, s)
        self.mantissa = np.array(m)
        self.exp_shift = np.array(s)

    @classmethod
    def of(cls, value):
        return cls(value, np.zeros(np.shape(value)))

    def value(self):
        """Collapse to an ordinary float/complex array (may overflow)."""
        return self.mantissa * np.exp(self.exp_shift)

    def with_shift(self, shift):
        """Re-express with the given exp_shift."""
        shift = np.broadcast_to(np.asarray(shift, float), self.exp_shift.shape)
        return ScaledValue(self.mantissa * np.exp(self.exp_shift - shift), shift.copy())

    def log_abs(self):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.mantissa)) + self.exp_shift

    def __mul__(self, other):
        if isinstance(other, ScaledValue):
            return ScaledValue(self.mantissa * other.mantissa,
                               self.exp_shift + other.exp_shift)
        return ScaledValue(self.mantissa * other, self.exp_shift)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ScaledValue):
            return ScaledValue(self.mantissa / other.mantissa,
                               self.exp_shift - other.exp_shift)
        return ScaledValue(self.mantissa / other, self.exp_shift)

    def __neg__(self):
        return ScaledValue(-self.mantissa, self.exp_shift)

    def __add__(self, other):
        if not isinstance(other, ScaledValue):
            other = ScaledValue.of(other)
        shift = np.maximum(self.exp_shift, other.exp_shift)
        m = (self.mantissa * np.exp(self.exp_shift - shift)
             + other.mantissa * np.exp(other.exp_shift - shift))
        return ScaledValue(m, shift)

    def __sub__(self, other):
        return self + (-other if isinstance(other, ScaledValue)
                       else ScaledValue.of(-np.asarray(other)))

    def __repr__(self):
        return f"ScaledValue({self.mantissa!r}, exp_shift={self.exp_shift!r})"


@dataclass(frozen=True)
class BesselOrder:
    """Nonnegative real order of a modified Bessel kernel.

    The solver only ever needs |1 + nu/2| (swirl equation), |1 - nu/2|
    (vorticity equation) and exactly 1 (stream function).
    """

    alpha: float

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise DomainError(f"Bessel order must be finite and >= 0, got {self.alpha}")

    @classmethod
    def swirl(cls, nu):
        return cls(abs(1.0 + 0.5 * nu))

    @classmethod
    def vorticity(cls, nu):
        return cls(abs(1.0 - 0.5 * nu))

    @classmethod
    def stream(cls):
        return cls(1.0)

    def __float__(self):
        return float(self.alpha)


def _as_order(order) -> float:
    alpha = float(order)
    if not np.isfinite(alpha) or alpha < 0:
        raise DomainError(f"Bessel order must be finite and >= 0, got {alpha}")
    return alpha


def _as_positive(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        return arr
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError("modified Bessel argument must be finite and > 0")
    return arr


def bessel_i(order, x) -> ScaledValue:
    """Modified Bessel function of the first kind, I_a(x) = ive(a, x) e^x.

    Defined for 0 < x <= 2^30 ~ 1.07e9; larger x raises NumericError.
    """
    arr = _as_positive(x)
    return ScaledValue(_i_mantissa(_as_order(order), arr), arr)


def bessel_k(order, x) -> ScaledValue:
    """Modified Bessel function of the second kind, K_a(x) = kve(a, x) e^-x.

    Defined for 0 < x <= 2^30 ~ 1.07e9; larger x raises NumericError.
    """
    arr = _as_positive(x)
    return ScaledValue(_k_mantissa(_as_order(order), arr), -arr)


_K_ORDER_FLOOR = 1e-100


def _i_mantissa(alpha, x):
    """ive(alpha, x) = I_alpha(x) e^{-x} for a checked order and argument."""
    return _finite(ive(alpha, x), "I", alpha)


def _k_mantissa(alpha, x):
    """kve(alpha, x) = K_alpha(x) e^{+x} for a checked order and argument."""
    # kve returns NaN for subnormal orders; K_a is even in a, so
    # K_a = K_0 (1 + O(a^2)) and orders this small are exactly K_0.
    if alpha < _K_ORDER_FLOOR:
        alpha = 0.0
    return _finite(kve(alpha, x), "K", alpha)


def _finite(mantissa, name, alpha):
    if not np.all(np.isfinite(mantissa)):
        raise NumericError(f"scaled {name}_{alpha:g} is not representable "
                           "in double precision at this argument")
    return mantissa


# ----------------------------------------------------------------------------
# derivatives via recurrences


def bessel_i_prime(order, x) -> ScaledValue:
    """dI_a/dx = (a/x) I_a + I_{a+1}."""
    alpha = _as_order(order)
    arr = _as_positive(x)
    return (alpha / arr) * bessel_i(alpha, arr) + bessel_i(alpha + 1.0, arr)


def bessel_k_prime(order, x) -> ScaledValue:
    """dK_a/dx = (a/x) K_a - K_{a+1}."""
    alpha = _as_order(order)
    arr = _as_positive(x)
    return (alpha / arr) * bessel_k(alpha, arr) - bessel_k(alpha + 1.0, arr)


def wronskian_check(x):
    """K_1'(x) I_1(x) - K_1(x) I_1'(x), analytically -1/x."""
    return (bessel_k_prime(1.0, x) * bessel_i(1.0, x)
            - bessel_k(1.0, x) * bessel_i_prime(1.0, x)).value()


# ----------------------------------------------------------------------------
# radial kernels r^{nu/2} K_a(|k| r), r^{nu/2} I_a(|k| r)

_KERNEL_ORDERS = {
    "swirl": BesselOrder.swirl,
    "vorticity": BesselOrder.vorticity,
    "stream": lambda nu: BesselOrder.stream(),
}


def _kernel_setup(k, nu, r, kind):
    if k == 0:
        raise DomainError("zero mode uses Euler kernels, not Bessel kernels")
    if kind not in _KERNEL_ORDERS:
        raise DomainError(f"unknown kernel kind {kind!r}")
    alpha = float(_KERNEL_ORDERS[kind](nu))
    r = np.asarray(r, dtype=float)
    if np.any(r < 1.0):
        raise DomainError("radial kernels are defined for r >= 1")
    # The stream-function kernel carries no r^{nu/2} weight.
    half_nu = 0.0 if kind == "stream" else 0.5 * nu
    return alpha, abs(int(k)), r, half_nu


def kernel_K(k, nu, r, kind="swirl") -> ScaledValue:
    """Decaying kernel r^{nu/2} K_a(|k| r) (a = |1+nu/2|, |1-nu/2| or 1)."""
    alpha, kk, r, half_nu = _kernel_setup(k, nu, r, kind)
    return np.power(r, half_nu) * bessel_k(alpha, kk * r)


def kernel_I(k, nu, r, kind="swirl") -> ScaledValue:
    """Growing kernel r^{nu/2} I_a(|k| r)."""
    alpha, kk, r, half_nu = _kernel_setup(k, nu, r, kind)
    return np.power(r, half_nu) * bessel_i(alpha, kk * r)


def kernel_K_derivs(k, nu, r, kind="swirl", upto=2, shared=None):
    """(G, G', G'') for G(r) = r^{nu/2} K_a(|k| r), all via order recurrences.

    upto=1 returns (G, G') only and skips the order a+2.  shared is an
    optional dict that the caller keeps while it builds the kernels of one
    grid r: it maps ("K", order, |k|) to the scaled mantissa kve(order, |k| r)
    (and ("r^", c) to the powers r^c, r^{c-1}, r^{c-2}), and what is already
    in it is not evaluated again.
    """
    return _kernel_derivs("K", k, nu, r, kind, upto, shared)


def kernel_I_derivs(k, nu, r, kind="swirl", upto=2, shared=None):
    """(G, G', G'') for G(r) = r^{nu/2} I_a(|k| r); upto and shared as in
    kernel_K_derivs, with keys ("I", order, |k|) for ive(order, |k| r)."""
    return _kernel_derivs("I", k, nu, r, kind, upto, shared)


# the scaled mantissa of B_a and the sign in B_a' = (a/x) B_a +- B_{a+1}
_KERNEL_BESSEL = {"K": (_k_mantissa, -1.0), "I": (_i_mantissa, +1.0)}


def _kernel_derivs(name, k, nu, r, kind, upto, shared):
    # With c = half_nu, sign = +1 for I and -1 for K:
    #   G   = r^c B_a(kr)
    #   G'  = (c+a) r^{c-1} B_a + sign k r^c B_{a+1}
    #   G'' = (c+a)(c+a-1) r^{c-2} B_a + sign (2c+2a+1) k r^{c-1} B_{a+1} + k^2 r^c B_{a+2}
    # Every term carries the same factor e^{sign |k| r}, so the sums run on
    # the scaled mantissas b of B_a, B_{a+1}, B_{a+2} alone, term by term in
    # the order of the formulas above.
    if upto not in (1, 2):
        raise DomainError(f"kernel derivatives go up to order 1 or 2, got {upto}")
    mantissa, sign = _KERNEL_BESSEL[name]
    alpha, kk, r, c = _kernel_setup(k, nu, r, kind)
    x = _as_positive(kk * r)
    shared = {} if shared is None else shared
    b = []
    for order in (alpha, alpha + 1.0, alpha + 2.0)[:upto + 1]:
        key = (name, order, kk)
        if key not in shared:
            shared[key] = mantissa(order, x)
        b.append(shared[key])
    if ("r^", c) not in shared:
        shared["r^", c] = (np.power(r, c), np.power(r, c - 1.0),
                           np.power(r, c - 2.0))
    rc, rc1, rc2 = shared["r^", c]
    g = [rc * b[0], (c + alpha) * rc1 * b[0] + sign * kk * rc * b[1]]
    if upto == 2:
        g.append((c + alpha) * (c + alpha - 1.0) * rc2 * b[0]
                 + sign * (2.0 * c + 2.0 * alpha + 1.0) * kk * rc1 * b[1]
                 + kk * kk * rc * b[2])
    shift = sign * x
    return tuple(ScaledValue(m, shift) for m in g)
