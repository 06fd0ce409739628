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

Stacked layout: the nonzero modes differ only in the rate |k| of their
kernels, so every nonzero-mode solve runs on (R, n) stacks, one row per
mode, and each exp-weighted integral is one stacked prefix/suffix call.
solve_linear_system solves k = 1..K as one stack per stage (swirl first,
then the meridional pair, which needs the fresh swirl through
2 mu v_theta,k / r^2); solve_swirl_mode and solve_meridional_mode are the
one-row case of the same core.  Everything in a stage that depends only on
(grid, nu, modes) -- the kernel mantissas, the integrand factors, the
boundary factor e^{|k|(1-r)} and, for the meridional stage, the integrals
p_v_in and s_v_out with the closure coefficients A_k, B_k, D_k -- is built
once per grid and kept read-only in its operator cache, so an iteration
runs four of the six meridional integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
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
    "MeridionalStacks",
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
class MeridionalStacks:
    """Vorticity w and stream function phi of modes k = 1..K, (K, n) each."""

    w: np.ndarray
    phi: np.ndarray


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


def _scaled_kernels(grid: RadialGrid, k: int, nu: float, kind: str,
                    shared=None):
    """Kernel derivative mantissas of one mode at shifts -|k|r and +|k|r.

    Returns ((G_dec, G_dec', G_dec''), (G_grow, G_grow', G_grow'')) with
    kernel = mantissa * e^{-|k|r} for the decaying triple and
    mantissa * e^{+|k|r} for the growing one; the vorticity kernels keep
    only (G, G'), since their second derivatives are never read.  The
    kernels depend only on the grid, |k|, nu and the kind -- not on the
    iterate or on mu -- so the mantissas are computed once per grid and kept
    read-only in the grid's operator cache.  shared is the transient dict of
    Bessel evaluations that kernel_K_derivs/kernel_I_derivs reuse across
    kinds (see _build_stacks); it is never cached.
    """
    r = grid.nodes
    kk = abs(k)
    key = ("kernels", kk, nu, kind)
    mantissas = grid._cache.get(key)
    if mantissas is None:
        upto = 1 if kind == "vorticity" else 2
        # the kernels come back at exactly the shifts -|k|r and +|k|r, so
        # their mantissas are read as they are
        dec = tuple(g.mantissa for g in kernel_K_derivs(
            k, nu, r, kind, upto=upto, shared=shared))
        gro = tuple(g.mantissa for g in kernel_I_derivs(
            k, nu, r, kind, upto=upto, shared=shared))
        for m in dec + gro:
            m.setflags(write=False)
        mantissas = grid._cache[key] = (dec, gro)
    return mantissas


def _cached_stack(grid: RadialGrid, key, build) -> SimpleNamespace:
    """grid._cache[key]; on a miss build() gives a dict of arrays, which is
    frozen (read-only) and stored as a namespace."""
    stack = grid._cache.get(key)
    if stack is None:
        stack = SimpleNamespace(**build())
        for arr in vars(stack).values():
            arr.setflags(write=False)
        grid._cache[key] = stack
    return stack


def _kernel_rows(grid: RadialGrid, ks, nu: float, kind: str, shared=None):
    """The _scaled_kernels mantissas of modes ks as read-only (len(ks), n)
    stacks.  The per-mode cache entries are re-pointed at rows of the
    stacks, so each mantissa is held in memory once."""
    per_k = [_scaled_kernels(grid, k, nu, kind, shared) for k in ks]
    dec, gro = (tuple(np.stack(rows) for rows in zip(*side))
                for side in zip(*per_k))
    for m in dec + gro:
        m.setflags(write=False)
    for i, k in enumerate(ks):
        grid._cache[("kernels", abs(k), nu, kind)] = (
            tuple(m[i] for m in dec), tuple(m[i] for m in gro))
    return dec, gro


def _rates_and_decay(grid: RadialGrid, ks):
    """|k| per row and the boundary factor e^{|k|(1-r)} <= 1, (R, n)."""
    kk = np.abs(np.asarray(ks, dtype=float))
    col = kk[:, None]
    return kk, np.exp(col + (-col) * grid.nodes)


def _swirl_stack(grid: RadialGrid, ks, nu: float,
                 shared=None) -> SimpleNamespace:
    """Iterate-independent arrays of the swirl solves of modes ks.

    kk (R,), decay and the kernel mantissas K0..K2, I0..I2 (R, n), and the
    integrand factors w_K0 = r^{1-nu} K0, w_I0 = r^{1-nu} I0.
    """
    def build():
        (K0, K1, K2), (I0, I1, I2) = _kernel_rows(grid, ks, nu, "swirl",
                                                  shared)
        kk, decay = _rates_and_decay(grid, ks)
        weight = grid.nodes ** (1.0 - nu)
        return dict(kk=kk, decay=decay, K0=K0, K1=K1, K2=K2, I0=I0, I1=I1,
                    I2=I2, w_K0=weight * K0, w_I0=weight * I0)
    return _cached_stack(grid, ("swirlstack", ks, nu), build)


def _meridional_stack(grid: RadialGrid, ks, nu: float,
                      shared=None) -> SimpleNamespace:
    """Iterate-independent arrays of the meridional solves of modes ks.

    Besides the vorticity (V, J) and stream (S, T) kernel mantissas this
    holds everything the closure needs that does not depend on the forcing:
    the integrand factors r^{1-nu} J0, r^{1-nu} V0, (s^{1-nu} J)',
    (s^{1-nu} V)', r S0 and r T0; the closure mantissas a_k, b_k (shift
    -|k|) and d_k = s_v_out(1) (shift -2|k|); and the decay-weighted terms
    V0d, V1d, Sd_j = S_j decay and Q_j = (S_j p_v_in + T_j s_v_out) decay
    that w_bar and phi_bar multiply.  The integrals p_v_in (rate-0 prefix
    of r T0 V0) and s_v_out (-2|k| suffix of r S0 V0) enter only through
    d_k and Q_j, so an iteration never recomputes them.
    """
    def build():
        r = grid.nodes
        # vorticity kernels (order |1 - nu/2|) and stream kernels (order 1)
        (V0, V1), (J0, J1) = _kernel_rows(grid, ks, nu, "vorticity", shared)
        S, T = _kernel_rows(grid, ks, nu, "stream", shared)
        kk, decay = _rates_and_decay(grid, ks)
        weight = r ** (1.0 - nu)
        p_v_in = exp_weighted_prefix(grid, r * T[0] * V0, 0.0)
        # read once per grid, so its -2|k| scan factors are not kept
        s_v_out = exp_weighted_suffix(grid, r * S[0] * V0, -2.0 * kk,
                                      keep_factors=False)
        d_k = s_v_out[:, 0]
        bad = ~np.isfinite(d_k) | (np.abs(d_k) * kk ** 2 < 1e-12)
        if np.any(bad):
            raise NumericError("meridional closure: D_k underflow at "
                               f"k={ks[int(np.argmax(bad))]}")
        out = dict(
            kk=kk, V0=V0, V1=V1, J0=J0, J1=J1,
            w_J0=weight * J0, w_V0=weight * V0,
            dJ=(1.0 - nu) * r ** (-nu) * J0 + weight * J1,
            dV=(1.0 - nu) * r ** (-nu) * V0 + weight * V1,
            rS0=r * S[0], rT0=r * T[0],
            a_k=(S[0][:, 0] + S[1][:, 0]) / (1j * np.asarray(ks, float)),
            b_k=S[0][:, 0], d_k=d_k.copy(), V0d=V0 * decay, V1d=V1 * decay)
        for j in range(3):
            out[f"S{j}"], out[f"T{j}"] = S[j], T[j]
            out[f"Sd{j}"] = S[j] * decay
            out[f"Q{j}"] = (S[j] * p_v_in + T[j] * s_v_out) * decay
        return out
    return _cached_stack(grid, ("meridionalstack", ks, nu), build)


def _build_stacks(grid: RadialGrid, ks, nu: float) -> None:
    """Build (or find cached) the swirl and meridional stacks of modes ks.

    The swirl, vorticity and stream kernels share every Bessel evaluation
    whose (K or I, order, |k|) coincides, through one dict that lives only
    while the two stacks are built; it adds nothing to the grid's cache.
    """
    shared = {}
    _swirl_stack(grid, ks, nu, shared)
    _meridional_stack(grid, ks, nu, shared)


def _check_nonzero_mode(nu: float, f_decay: float) -> None:
    if nu >= 0:
        raise DomainError("background sink strength nu must be negative")
    # decay > 1 suffices for the mode integrals (the kernels damp the tails
    # exponentially); the nonlinear construction separately requires > 3/2
    # through the forcing-space validation
    if f_decay <= 1.0:
        raise NumericError("nonzero-mode forcing must decay faster than r^-1")


def _swirl_rows(grid: RadialGrid, ks, nu: float, fv: np.ndarray, g):
    """Swirl solves of modes ks at once: forcing rows fv (R, n), boundary
    values g (R,).  Returns (values, d1, d2), each (R, n).

    Only the boundary-anchored vbar term keeps an exponential factor,
    decay = e^{|k|(1-r)}.
    """
    st = _swirl_stack(grid, ks, nu)
    c_in = exp_weighted_prefix(grid, fv * st.w_I0, st.kk)
    c_out = exp_weighted_suffix(grid, fv * st.w_K0, -st.kk)
    # vbar = (g - G_grow(1) * int_1^inf f s^{1-nu} G_dec ds) / G_dec(1),
    # held as its mantissa at shift +|k|
    vbar = ((g - st.I0[:, 0] * c_out[:, 0]) / st.K0[:, 0])[:, None]
    vals = (vbar * st.K0) * st.decay + st.K0 * c_in + st.I0 * c_out
    d1 = (vbar * st.K1) * st.decay + st.K1 * c_in + st.I1 * c_out
    d2 = ((vbar * st.K2) * st.decay + st.K2 * c_in + st.I2 * c_out) - fv
    return vals, d1, d2


def _meridional_rows(grid: RadialGrid, ks, nu: float, frv: np.ndarray,
                     fzv: np.ndarray, g_r, g_z) -> SimpleNamespace:
    """Meridional solves of modes ks at once: forcing rows frv, fzv (R, n),
    boundary values g_r, g_z (R,).

    Returns v_r, v_z and phi as (values, d1, d2) and w as (values, d1),
    each array (R, n), plus the per-row scalars phi_bar, w_bar (mantissas
    at shift +|k|) and g_kf (shift -|k|).
    """
    st = _meridional_stack(grid, ks, nu)
    r = grid.nodes
    k = np.asarray(ks, dtype=float)[:, None]
    ik = 1j * k
    # f_r part of F = ik f_r - f_z', plus the integrated-by-parts f_z part
    # carrying (s^{1-nu} J)' and (s^{1-nu} V)' against plain f_z values
    b_in = ik * frv * st.w_J0 + fzv * st.dJ
    b_out = ik * frv * st.w_V0 + fzv * st.dV
    c_in = exp_weighted_prefix(grid, b_in, st.kk)
    c_out = exp_weighted_suffix(grid, b_out, -st.kk)
    bdry = st.J0[:, :1] * fzv[:, :1]  # boundary term of the integration by parts

    # h(r): the w_bar-independent part of the vorticity, and its derivative
    h_vals = st.V0 * c_in + st.J0 * c_out + bdry * st.V0d
    dh_vals = st.V1 * c_in + st.J1 * c_out + bdry * st.V1d + fzv

    # stream transforms of h; S1[0] = |k| K_1'(|k|), T1[0] = |k| I_1'(|k|)
    p_h_in = exp_weighted_prefix(grid, h_vals * st.rT0, st.kk)
    s_h_out = exp_weighted_suffix(grid, h_vals * st.rS0, -st.kk)

    # closure: w_bar = D^{-1} (A g_r + B g_z - G); A, B and G are mantissas
    # at shift -|k|, D at -2|k|, so w_bar is one at +|k|
    g_kf = s_h_out[:, 0]
    w_bar = (st.a_k * g_r + st.b_k * g_z - g_kf) / st.d_k
    phi_bar = -(st.T0[:, 0] * g_z) - (st.T0[:, 0] + st.T1[:, 0]) * (g_r / ik[:, 0])
    wb, pb = w_bar[:, None], phi_bar[:, None]

    w_vals = wb * st.V0d + h_vals
    dw_vals = wb * st.V1d + dh_vals
    phi, d_phi, d2_phi = (
        pb * Sd + wb * Q + S * p_h_in + T * s_h_out
        for Sd, Q, S, T in ((st.Sd0, st.Q0, st.S0, st.T0),
                            (st.Sd1, st.Q1, st.S1, st.T1),
                            (st.Sd2, st.Q2, st.S2, st.T2)))
    d2_phi = d2_phi - w_vals
    return SimpleNamespace(
        v_r=(-ik * phi, -ik * d_phi, -ik * d2_phi),
        v_z=(d_phi + phi / r, d2_phi + d_phi / r - phi / r ** 2,
             -dw_vals + k * k * d_phi),
        w=(w_vals, dw_vals), phi=(phi, d_phi, d2_phi),
        phi_bar=phi_bar, w_bar=w_bar, g_kf=g_kf)


def solve_swirl_mode(grid: RadialGrid, k: int, nu: float, f, g_theta_k: complex,
                     f_decay: float) -> RadialProfile:
    """Nonzero-mode swirl solve of
    -(v'' + (1-nu)/r v' - ((1+nu)/r^2 + k^2) v) = f,  v(1) = g, decaying.

    The one-row case of the stacked solve that solve_linear_system runs.
    """
    if k == 0:
        raise DomainError("use solve_zero_swirl for the zero mode")
    _check_nonzero_mode(nu, f_decay)
    fv = _sample_forcing(f, grid)
    vals, d1, d2 = _swirl_rows(grid, (k,), nu, fv[None],
                               np.array([g_theta_k], dtype=complex))
    return RadialProfile(grid, vals[0], d1[0], d2[0])


def solve_meridional_mode(grid: RadialGrid, k: int, nu: float, f_r, f_z,
                          g_r_k: complex, g_z_k: complex,
                          f_decay: float) -> MeridionalModeSolution:
    """Nonzero-mode (v_r, v_z) through the stream-function/vorticity system.

    Pipeline: vorticity forcing F = ik f_r - f_z' handled by parts (only f_z
    values are needed); w_bar from the boundary closure; stream function from
    its own kernel pair; velocities and their derivatives from phi and w.
    The closure and the stream transforms use the same discrete integrals, so
    the boundary conditions are reproduced to kernel accuracy.

    Kernels and integrals are mantissas as in _swirl_rows; the
    boundary-anchored terms (those through bdry, w_bar and phi_bar) carry
    decay = e^{|k|(1-r)}.  The one-row case of the stacked solve that
    solve_linear_system runs.
    """
    if k == 0:
        raise DomainError("use solve_zero_meridional for the zero mode")
    _check_nonzero_mode(nu, f_decay)
    frv = _sample_forcing(f_r, grid)
    fzv = _sample_forcing(f_z, grid)
    sol = _meridional_rows(grid, (k,), nu, frv[None], fzv[None],
                           np.array([g_r_k], dtype=complex),
                           np.array([g_z_k], dtype=complex))
    st = _meridional_stack(grid, (k,), nu)
    kk = float(abs(k))

    def profile(arrays):
        return RadialProfile(grid, *(a[0] for a in arrays))

    with np.errstate(over="ignore", under="ignore"):
        closure = ClosureCoefficients(
            A_k=complex(st.a_k[0] * np.exp(-kk)),
            B_k=complex(st.b_k[0] * np.exp(-kk)),
            D_k=complex(st.d_k[0] * np.exp(-2.0 * kk)),
            G_kF=complex(sol.g_kf[0] * np.exp(-kk)))
        return MeridionalModeSolution(
            v_r=profile(sol.v_r), v_z=profile(sol.v_z), w=profile(sol.w),
            phi=profile(sol.phi), phi_bar=complex(sol.phi_bar[0] * np.exp(kk)),
            w_bar=complex(sol.w_bar[0] * np.exp(kk)), closure=closure)


def solve_linear_system(grid: RadialGrid, nu: float, mu: float, k_max: int,
                        rhs: dict, decays: dict, boundary):
    """Solve all modes |k| <= k_max of the linearized system.

    rhs maps (component, k) for 0 <= k <= k_max to forcing sample arrays
    (missing entries are zero); decays provides tail exponents under the
    keys ("theta", 0), ("z", 0) and "nonzero".  The modes k = 1..K are
    solved as one stack per stage: the swirl of every mode first, then the
    meridional pair, which takes the rotation coupling 2 mu v_theta,k / r^2
    from the fresh swirl.  Results go straight into the field's dense
    array; k < 0 follows from conjugate symmetry.  Returns the field and the
    MeridionalStacks (w, phi) of modes 1..K.
    """
    from .fourier import COMPONENTS, FourierField

    r = grid.nodes
    f = np.zeros((len(COMPONENTS), k_max + 1, len(grid)), dtype=complex)
    for (comp, k), v in rhs.items():
        if 0 <= k <= k_max:
            f[COMPONENTS.index(comp), k] = v
    f_r, f_theta, f_z = f

    field_out = FourierField.zero(grid, k_max, with_sigma=-2.0 <= nu < 0.0)
    swirl0 = solve_zero_swirl(grid, nu, f_theta[0],
                              boundary.coefficient("theta", 0),
                              decays[("theta", 0)])
    v_r0, v_z0 = solve_zero_meridional(grid, nu, f_z[0],
                                       boundary.coefficient("z", 0),
                                       decays[("z", 0)])
    field_out.set_mode(0, "theta", swirl0.v_regular)
    field_out.set_mode(0, "r", v_r0)
    field_out.set_mode(0, "z", v_z0)
    field_out.sigma = swirl0.sigma

    _check_nonzero_mode(nu, decays["nonzero"])
    ks = tuple(range(1, k_max + 1))

    def bc(comp):
        return np.array([boundary.coefficient(comp, k) for k in ks],
                        dtype=complex)

    _build_stacks(grid, ks, nu)
    swirl = _swirl_rows(grid, ks, nu, f_theta[1:], bc("theta"))
    merid = _meridional_rows(grid, ks, nu,
                             f_r[1:] + (2.0 * mu / r ** 2) * swirl[0],
                             f_z[1:], bc("r"), bc("z"))
    out = field_out.data[:, 1:]
    for d in range(3):
        out[0, :, d] = merid.v_r[d]
        out[1, :, d] = swirl[d]
        out[2, :, d] = merid.v_z[d]
    return field_out, MeridionalStacks(w=merid.w[0], phi=merid.phi[0])


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
