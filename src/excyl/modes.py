"""Per-mode linear solvers: zero-mode swirl/meridional, nonzero swirl,
nonzero meridional via stream-function/vorticity, and pressure recovery.

All solvers evaluate explicit Green's-function representations; derivatives
are produced by differentiating the representations (never by re-differencing
grid values).  Sign conventions were fixed by substituting each formula back
into its ODE: the zero-mode vertical solve carries the forcing terms with
the opposite sign to the raw variation-of-parameters layout (the combination
below satisfies -(v'' + (1-nu)/r v') = f exactly; see the substitution tests).

Zero modes (Euler-type kernels):

  swirl, nu < -2:
      v = -1/(nu+2) [ r^{nu+1} C(r) + r^{-1} S(r) ] + (g + S(1)/(nu+2)) r^{nu+1}
      with C(r) = int_1^r s^{-nu} f ds,  S(r) = int_r^inf s^2 f ds
  swirl, -2 <= nu < 0:
      v = -(1/r) int_r^inf s^{nu+1} Q(s) ds,  Q(s) = int_s^inf t^{-nu} f dt,
      sigma = int_1^inf s^{nu+1} Q ds + g        (the 1/r tail coefficient)
  vertical:
      v = (g + S(1)/nu) r^nu - (1/nu) r^nu int_1^r s^{1-nu} f ds - S(r)/nu,
      S(r) = int_r^inf s f ds

Nonzero modes combine the decaying/growing kernel pair G_dec, G_grow with
Wronskian W = r^{nu-1}:

      v = vbar G_dec(r) + G_dec(r) int_1^r f s^{1-nu} G_grow ds
                        + G_grow(r) int_r^inf f s^{1-nu} G_dec ds

on kernel mantissas: the e^{-|k|r} of G_dec and the e^{+|k|r} of G_grow
cancel against the exponentials of the integrals they multiply, and only
the boundary term keeps a factor e^{|k|(1-r)} <= 1, so nothing overflows
for any |k| r.  The meridional solve assembles the vorticity with the
integrated-by-parts layout (only f_z values enter, no f_z derivative), closes
(w_bar, phi_bar) against the boundary velocities through the stream-function
representation, and recovers v_r = -ik phi, v_z = phi' + phi/r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bessel import kernel_I_derivs, kernel_K_derivs
from .errors import DomainError, NumericError
from .radial import (
    RadialGrid,
    RadialProfile,
    exp_weighted_prefix,
    exp_weighted_suffix,
    integrate_inner,
    integrate_outer,
)

__all__ = [
    "ZeroModeSwirlSolution",
    "MeridionalModeSolution",
    "ClosureCoefficients",
    "solve_zero_swirl",
    "solve_zero_meridional",
    "solve_swirl_mode",
    "solve_meridional_mode",
    "recover_pressure",
]


@dataclass
class ZeroModeSwirlSolution:
    """Regular part of v_theta0 plus the 1/r tail coefficient.

    sigma is None for nu < -2 (structurally absent) and a real number for
    -2 <= nu < 0; the full mode is v_regular + sigma/r.
    """

    v_regular: RadialProfile
    sigma: Optional[float]


@dataclass
class ClosureCoefficients:
    A_k: complex
    B_k: complex
    D_k: complex
    G_kF: complex


@dataclass
class MeridionalModeSolution:
    v_r: RadialProfile
    v_z: RadialProfile
    w: RadialProfile
    phi: RadialProfile
    phi_bar: complex
    w_bar: complex
    closure: ClosureCoefficients


def _sample_forcing(f, grid: RadialGrid) -> np.ndarray:
    if callable(f):
        return np.asarray(f(grid.nodes), dtype=complex)
    arr = np.asarray(f, dtype=complex)
    if arr.shape != grid.nodes.shape:
        raise DomainError("forcing samples do not match the grid")
    return arr


def solve_zero_swirl(grid: RadialGrid, nu: float, f, g_theta0: complex,
                     f_decay: float) -> ZeroModeSwirlSolution:
    """Zero-mode swirl solve of -(v'' + (1-nu)/r v' - (1+nu)/r^2 v) = f."""
    if nu >= 0:
        raise DomainError("background sink strength nu must be negative")
    if f_decay <= 3.0:
        raise NumericError("zero-mode swirl forcing must decay faster than r^-3")
    r = grid.nodes
    fv = _sample_forcing(f, grid)

    if nu < -2.0:
        c_in = integrate_inner(fv * r ** (-nu), grid)
        s_out = integrate_outer(fv * r ** 2, grid, decay_exponent=f_decay - 2.0)
        a = -1.0 / (nu + 2.0)
        const = g_theta0 + s_out[0] / (nu + 2.0)
        vals = a * (r ** (nu + 1.0) * c_in + s_out / r) + const * r ** (nu + 1.0)
        d1 = (a * ((nu + 1.0) * r ** nu * c_in - s_out / r ** 2)
              + const * (nu + 1.0) * r ** nu)
        d2 = -(1.0 - nu) / r * d1 + (1.0 + nu) / r ** 2 * vals - fv
        prof = RadialProfile(grid, vals, d1, d2)
        return ZeroModeSwirlSolution(prof, None)

    # -2 <= nu < 0: unique o(1/r) remainder plus an explicit sigma/r tail
    q = integrate_outer(fv * r ** (-nu), grid, decay_exponent=f_decay + nu)
    outer = integrate_outer(r ** (nu + 1.0) * q, grid,
                            decay_exponent=f_decay - 2.0, check_tail=False)
    sigma_c = outer[0] + g_theta0
    if abs(np.imag(sigma_c)) > 1e-10 * max(1.0, abs(sigma_c)):
        raise NumericError("zero-mode data produced a complex tail coefficient")
    vals = -outer / r
    d1 = outer / r ** 2 + r ** nu * q
    d2 = -(1.0 - nu) / r * d1 + (1.0 + nu) / r ** 2 * vals - fv
    prof = RadialProfile(grid, vals, d1, d2)
    return ZeroModeSwirlSolution(prof, float(np.real(sigma_c)))


def solve_zero_meridional(grid: RadialGrid, nu: float, f, g_z0: complex,
                          f_decay: float):
    """Zero-mode (v_r, v_z): v_r = 0 forced by the boundary normalization;
    v_z solves -(v'' + (1-nu)/r v') = f with v(1) = g_z0, decaying."""
    if nu >= 0:
        raise DomainError("background sink strength nu must be negative")
    if f_decay <= 2.0:
        raise NumericError("zero-mode vertical forcing must decay faster than r^-2")
    r = grid.nodes
    fv = _sample_forcing(f, grid)
    c_in = integrate_inner(fv * r ** (1.0 - nu), grid)
    s_out = integrate_outer(fv * r, grid, decay_exponent=f_decay - 1.0)
    const = g_z0 + s_out[0] / nu
    vals = const * r ** nu - (r ** nu * c_in + s_out) / nu
    d1 = const * nu * r ** (nu - 1.0) - r ** (nu - 1.0) * c_in
    d2 = -(1.0 - nu) / r * d1 - fv
    v_z = RadialProfile(grid, vals, d1, d2)
    return RadialProfile.zero(grid), v_z


def _scaled_kernels(grid: RadialGrid, k: int, nu: float, kind: str):
    """Kernel derivative triples as mantissas at shifts -|k|r and +|k|r.

    Returns ((G_dec, G_dec', G_dec''), (G_grow, G_grow', G_grow'')) with
    kernel = mantissa * e^{-|k|r} for the decaying triple and
    mantissa * e^{+|k|r} for the growing one.  The kernels depend only on
    the grid, |k|, nu and the kind -- not on the iterate or on mu -- so the
    mantissas are computed once per grid and kept read-only in the grid's
    operator cache.
    """
    r = grid.nodes
    kk = abs(k)
    key = ("kernels", kk, nu, kind)
    mantissas = grid._cache.get(key)
    if mantissas is None:
        dec = tuple(g.with_shift(-kk * r).mantissa
                    for g in kernel_K_derivs(k, nu, r, kind))
        gro = tuple(g.with_shift(kk * r).mantissa
                    for g in kernel_I_derivs(k, nu, r, kind))
        for m in dec + gro:
            m.setflags(write=False)
        mantissas = grid._cache[key] = (dec, gro)
    return mantissas


def _greens_solution(grid: RadialGrid, k: int, nu: float, fv: np.ndarray,
                     g_bc: complex, kind: str):
    """Shared core of the k != 0 representations, on kernel mantissas.

    Only the boundary-anchored vbar term keeps an exponential factor,
    decay = e^{|k|(1-r)}.  Returns (values, d1, d2).
    """
    kk = abs(k)
    r = grid.nodes
    (K0, K1, K2), (I0, I1, I2) = _scaled_kernels(grid, k, nu, kind)
    weight = r ** (1.0 - nu)
    c_in = exp_weighted_prefix(grid, fv * weight * I0, float(kk))
    c_out = exp_weighted_suffix(grid, fv * weight * K0, -float(kk))
    # vbar = (g - G_grow(1) * int_1^inf f s^{1-nu} G_dec ds) / G_dec(1),
    # held as its mantissa at shift +|k|
    vbar = (g_bc - I0[0] * c_out[0]) / K0[0]
    decay = np.exp(kk + (-kk) * r)
    vals = (vbar * K0) * decay + K0 * c_in + I0 * c_out
    d1 = (vbar * K1) * decay + K1 * c_in + I1 * c_out
    d2 = ((vbar * K2) * decay + K2 * c_in + I2 * c_out) - fv
    return vals, d1, d2


def solve_swirl_mode(grid: RadialGrid, k: int, nu: float, f, g_theta_k: complex,
                     f_decay: float) -> RadialProfile:
    """Nonzero-mode swirl solve of
    -(v'' + (1-nu)/r v' - ((1+nu)/r^2 + k^2) v) = f,  v(1) = g, decaying."""
    if k == 0:
        raise DomainError("use solve_zero_swirl for the zero mode")
    if nu >= 0:
        raise DomainError("background sink strength nu must be negative")
    # decay > 1 suffices for the mode integrals (the kernels damp the tails
    # exponentially); the nonlinear construction separately requires > 3/2
    # through the forcing-space validation
    if f_decay <= 1.0:
        raise NumericError("nonzero-mode forcing must decay faster than r^-1")
    fv = _sample_forcing(f, grid)
    vals, d1, d2 = _greens_solution(grid, k, nu, fv, g_theta_k, "swirl")
    return RadialProfile(grid, vals, d1, d2)


def solve_meridional_mode(grid: RadialGrid, k: int, nu: float, f_r, f_z,
                          g_r_k: complex, g_z_k: complex,
                          f_decay: float) -> MeridionalModeSolution:
    """Nonzero-mode (v_r, v_z) through the stream-function/vorticity system.

    Pipeline: vorticity forcing F = ik f_r - f_z' handled by parts (only f_z
    values are needed); w_bar from the boundary closure; stream function from
    its own kernel pair; velocities and their derivatives from phi and w.
    The closure and the stream transforms use the same discrete integrals, so
    the boundary conditions are reproduced to kernel accuracy.

    Kernels and integrals are mantissas as in _greens_solution; the
    boundary-anchored terms (those through bdry, w_bar and phi_bar) carry
    decay = e^{|k|(1-r)}.
    """
    if k == 0:
        raise DomainError("use solve_zero_meridional for the zero mode")
    if nu >= 0:
        raise DomainError("background sink strength nu must be negative")
    if f_decay <= 1.0:
        raise NumericError("nonzero-mode forcing must decay faster than r^-1")
    kk = float(abs(k))
    r = grid.nodes
    frv = _sample_forcing(f_r, grid)
    fzv = _sample_forcing(f_z, grid)

    # vorticity kernels (order |1 - nu/2|) and stream kernels (order 1);
    # the vorticity kernels' second derivatives are not needed
    (V0, V1, _), (J0, J1, _) = _scaled_kernels(grid, k, nu, "vorticity")
    (S0, S1, S2), (T0, T1, T2) = _scaled_kernels(grid, k, nu, "stream")
    decay = np.exp(kk + (-kk) * r)

    weight = r ** (1.0 - nu)
    # f_r part of F = ik f_r - f_z', plus the integrated-by-parts f_z part
    # carrying (s^{1-nu} J)' and (s^{1-nu} V)' against plain f_z values
    dJ = (1.0 - nu) * r ** (-nu) * J0 + weight * J1
    dV = (1.0 - nu) * r ** (-nu) * V0 + weight * V1
    b_in = 1j * k * frv * weight * J0 + fzv * dJ
    b_out = 1j * k * frv * weight * V0 + fzv * dV
    c_in = exp_weighted_prefix(grid, b_in, kk)
    c_out = exp_weighted_suffix(grid, b_out, -kk)
    bdry = J0[0] * complex(fzv[0])  # boundary term of the integration by parts

    # h(r): the w_bar-independent part of the vorticity, and its derivative
    h_vals = V0 * c_in + J0 * c_out + (bdry * V0) * decay
    dh_vals = V1 * c_in + J1 * c_out + (bdry * V1) * decay + fzv

    # stream transforms; S1[0] = |k| K_1'(|k|), T1[0] = |k| I_1'(|k|)
    p_v_in = exp_weighted_prefix(grid, r * T0 * V0, 0.0)
    p_h_in = exp_weighted_prefix(grid, r * h_vals * T0, kk)
    s_v_out = exp_weighted_suffix(grid, r * S0 * V0, -2.0 * kk)
    s_h_out = exp_weighted_suffix(grid, r * h_vals * S0, -kk)

    # closure: w_bar = D^{-1} (A g_r + B g_z - G); A, B and G are mantissas
    # at shift -|k|, D at -2|k|, so w_bar is one at +|k|
    a_k = (S0[0] + S1[0]) * (1.0 / (1j * k))
    b_k = S0[0]
    d_k = s_v_out[0]
    g_kf = s_h_out[0]
    if not np.isfinite(d_k) or abs(d_k) * kk ** 2 < 1e-12:
        raise NumericError(f"meridional closure: D_k underflow at k={k}")
    w_bar = (a_k * g_r_k + b_k * g_z_k - g_kf) / d_k

    w_vals = (w_bar * V0) * decay + h_vals
    dw_vals = (w_bar * V1) * decay + dh_vals

    # phi_bar as its mantissa at shift +|k|
    phi_bar = -(T0[0] * g_z_k) - (T0[0] + T1[0]) * (g_r_k / (1j * k))

    def stream_combo(sk, tk):
        return ((phi_bar * sk) * decay
                + (w_bar * (sk * p_v_in)) * decay + sk * p_h_in
                + (w_bar * (tk * s_v_out)) * decay + tk * s_h_out)

    phi = stream_combo(S0, T0)
    d_phi = stream_combo(S1, T1)
    d2_phi = stream_combo(S2, T2) - w_vals

    v_r = RadialProfile(grid, -1j * k * phi, -1j * k * d_phi, -1j * k * d2_phi)
    v_z_vals = d_phi + phi / r
    v_z_d1 = d2_phi + d_phi / r - phi / r ** 2
    v_z_d2 = -dw_vals + k * k * d_phi
    v_z = RadialProfile(grid, v_z_vals, v_z_d1, v_z_d2)
    w_prof = RadialProfile(grid, w_vals, dw_vals)
    phi_prof = RadialProfile(grid, phi, d_phi, d2_phi)
    with np.errstate(over="ignore", under="ignore"):
        closure = ClosureCoefficients(
            A_k=complex(a_k * np.exp(-kk)), B_k=complex(b_k * np.exp(-kk)),
            D_k=complex(d_k * np.exp(-2.0 * kk)),
            G_kF=complex(g_kf * np.exp(-kk)))
        return MeridionalModeSolution(
            v_r=v_r, v_z=v_z, w=w_prof, phi=phi_prof,
            phi_bar=complex(phi_bar * np.exp(kk)),
            w_bar=complex(w_bar * np.exp(kk)), closure=closure)


def solve_linear_system(grid: RadialGrid, nu: float, mu: float, k_max: int,
                        rhs: dict, decays: dict, boundary):
    """Solve all modes |k| <= k_max of the linearized system.

    rhs maps (component, k) for k >= 0 to forcing sample arrays (missing
    entries are zero); decays provides tail exponents under the keys
    ("theta", 0), ("z", 0) and "nonzero".  The rotation coupling feeds
    2 mu v_theta,k / r^2 (with the freshly solved swirl mode) into each
    meridional solve.  Modes k >= 1 are solved in turn; k < 0 follows from
    conjugate symmetry.
    """
    from .fourier import FourierField

    r = grid.nodes
    zero = np.zeros(len(grid), dtype=complex)

    def get(comp, k):
        v = rhs.get((comp, k))
        return zero if v is None else np.asarray(v, dtype=complex)

    field_out = FourierField.zero(grid, k_max, with_sigma=-2.0 <= nu < 0.0)

    swirl0 = solve_zero_swirl(grid, nu, get("theta", 0),
                              boundary.coefficient("theta", 0),
                              decays[("theta", 0)])
    v_r0, v_z0 = solve_zero_meridional(grid, nu, get("z", 0),
                                       boundary.coefficient("z", 0),
                                       decays[("z", 0)])
    field_out.set_mode(0, "theta", swirl0.v_regular)
    field_out.set_mode(0, "r", v_r0)
    field_out.set_mode(0, "z", v_z0)
    field_out.sigma = swirl0.sigma

    lam = decays["nonzero"]
    merid_by_k = {}
    for k in range(1, k_max + 1):
        v_theta = solve_swirl_mode(grid, k, nu, get("theta", k),
                                   boundary.coefficient("theta", k), lam)
        f_r_eff = get("r", k) + (2.0 * mu / r ** 2) * v_theta.values
        merid = solve_meridional_mode(grid, k, nu, f_r_eff, get("z", k),
                                      boundary.coefficient("r", k),
                                      boundary.coefficient("z", k), lam)
        field_out.set_mode(k, "theta", v_theta)
        field_out.set_mode(k, "r", merid.v_r)
        field_out.set_mode(k, "z", merid.v_z)
        merid_by_k[k] = merid
    return field_out, merid_by_k


def recover_pressure(grid: RadialGrid, k: int, nu: float, v_z: RadialProfile,
                     f_z, f_decay: Optional[float] = None) -> RadialProfile:
    """Pressure mode from the vertical momentum balance (k != 0):

        ik pi_k = f_z + v_z'' + (1-nu)/r v_z' - k^2 v_z

    For k = 0 pass the (audited) zero radial forcing as f_z: the radial
    momentum balance reduces to pi_0' = f_{r,0}, integrated in from infinity.
    """
    r = grid.nodes
    fv = _sample_forcing(f_z, grid)
    if k == 0:
        if f_decay is None:
            raise NumericError("zero-mode pressure recovery needs a decay exponent")
        vals = -integrate_outer(fv, grid, decay_exponent=f_decay, check_tail=False)
        return RadialProfile(grid, vals, d1=fv)
    resid = fv + v_z.derivative(2) + (1.0 - nu) / r * v_z.derivative(1) \
        - k * k * v_z.values
    return RadialProfile(grid, resid / (1j * k))
