"""Per-mode linear solvers: zero-mode swirl/meridional, nonzero swirl and
nonzero meridional via stream-function/vorticity (see residuals for pressure).

All solvers evaluate explicit Green's-function representations; derivatives
are produced by differentiating the representations (never by re-differencing
grid values).  Sign conventions were fixed by substituting each formula back
into its ODE: the zero-mode vertical solve carries the forcing terms with
the opposite sign to the raw variation-of-parameters layout (the combination
below satisfies -(v'' + (1-nu)/r v') = f exactly; see the substitution tests).

Zero modes (Euler-type kernels; has_sigma_tail(nu) picks the swirl's):

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
mode.  Each stage (swirl, meridional forcing, stream transforms) takes its
prefix at +|k| and suffix at -|k| from one exp_weighted_integrals scan, as
each zero-mode solve takes its (inner, outer) pair: five scans an iteration
at nu < -2.  solve_linear_system solves k = 1..K as one stack per stage
(swirl first, then the meridional pair, which needs the fresh swirl through
2 mu v_theta,k / r^2), or only k = 1..m when the forcing and the data stop
at mode m (the iterate's band, see picard_solve): those stages read the
first m rows of each stack and their columns of the full-band scan plan;
solve_swirl_mode and solve_meridional_mode are the one-row case of the same
core, and a stack of P problems (the lockstep Picard loop) runs every stage
on (P, m, n) stacks against the same cached (m, n) arrays.  Everything in
a stage that depends only on (grid, nu, modes) -- the kernel mantissas, the
integrand factors, the boundary factor e^{|k|(1-r)} and, for the meridional
stage, the integrals p_v_in and s_v_out with the closure coefficients A_k,
B_k, D_k -- is built
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
from .fourier import COMPONENTS, FourierField
from .radial import (
    RadialGrid,
    RadialProfile,
    _sample,
    exp_weighted_integrals,
    exp_weighted_prefix,
    exp_weighted_suffix,
    integrate_inner,  # unused here; the span tracer wraps it by this name
    integrate_outer,
)

__all__ = [
    "has_sigma_tail",
    "ZeroModeSwirlSolution",
    "MeridionalModeSolution",
    "MeridionalStacks",
    "ClosureCoefficients",
    "solve_zero_swirl",
    "solve_zero_meridional",
    "solve_swirl_mode",
    "solve_meridional_mode",
]


def has_sigma_tail(nu: float) -> bool:
    """Whether the zero swirl mode carries a sigma/r tail: -2 <= nu < 0."""
    return bool(-2.0 <= nu < 0.0)


def _check_mode(nu: float, f_decay: float, floor: int, what: str) -> None:
    """DomainError unless the sink strength nu is finite and < 0, then
    NumericError unless the forcing of `what` decays faster than r^-floor
    (1 suffices for a nonzero mode, whose kernels damp the tails; the
    nonlinear construction's > 3/2 is the forcing space's check)."""
    if 0.0 <= nu:
        raise DomainError("background sink strength nu must be negative")
    if not np.isfinite(nu):  # NaN or -inf
        raise DomainError(
            f"background sink strength nu must be finite, got {nu!r}")
    if not f_decay > floor:  # NaN included
        raise NumericError(f"{what} forcing must decay faster than r^-{floor}")


@dataclass
class ZeroModeSwirlSolution:
    """Regular part of v_theta0 plus the 1/r tail coefficient.

    sigma is a real number where has_sigma_tail(nu) and None elsewhere
    (structurally absent); the full mode is v_regular + sigma/r.
    """

    v_regular: RadialProfile
    sigma: Optional[float]


@dataclass
class ClosureCoefficients:
    A_k: complex
    B_k: complex


@dataclass
class MeridionalStacks:
    """Vorticity w and stream function phi of modes k = 1..K, (K, n) each
    ((P, K, n) for a stack of P problems)."""

    w: np.ndarray
    phi: np.ndarray


@dataclass
class MeridionalModeSolution:
    v_r: RadialProfile
    v_z: RadialProfile
    w: RadialProfile
    phi: RadialProfile
    w_bar: complex
    closure: ClosureCoefficients


def solve_zero_swirl(grid: RadialGrid, nu: float, f, g_theta0: complex,
                     f_decay: float) -> ZeroModeSwirlSolution:
    """Zero-mode swirl solve of -(v'' + (1-nu)/r v' - (1+nu)/r^2 v) = f.

    f may stack P problems, (P, n+1) with g_theta0 (P,): the profile's
    arrays are then (P, n+1) and sigma (P,).
    """
    _check_mode(nu, f_decay, 3, "zero-mode swirl")
    r = grid.nodes
    fv = np.asarray(_sample(f, grid), dtype=complex)

    if not has_sigma_tail(nu):
        # one rate-0 row per problem on each side
        c_in, s_out = (side[..., 0, :] for side in exp_weighted_integrals(
            grid, (fv * r ** (-nu))[..., None, :], 0.0,
            (fv * r ** 2)[..., None, :], 0.0, decay_exponent=f_decay - 2.0))
        a = -1.0 / (nu + 2.0)
        const = (g_theta0 + s_out[..., 0] / (nu + 2.0))[..., None]
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
    sigma_c = outer[..., 0] + g_theta0
    if np.any(np.abs(np.imag(sigma_c))
              > 1e-10 * np.maximum(1.0, np.abs(sigma_c))):
        raise NumericError("zero-mode data produced a complex tail coefficient")
    vals = -outer / r
    d1 = outer / r ** 2 + r ** nu * q
    d2 = -(1.0 - nu) / r * d1 + (1.0 + nu) / r ** 2 * vals - fv
    prof = RadialProfile(grid, vals, d1, d2)
    sigma = np.real(sigma_c)
    return ZeroModeSwirlSolution(prof, sigma if sigma.ndim else float(sigma))


def solve_zero_meridional(grid: RadialGrid, nu: float, f, g_z0: complex,
                          f_decay: float) -> RadialProfile:
    """Zero-mode v_z, solving -(v'' + (1-nu)/r v') = f with v(1) = g_z0,
    decaying.  The zero-mode v_r is 0: that is the boundary normalization
    g_{r,0} = 0.

    f may stack P problems as for solve_zero_swirl.
    """
    _check_mode(nu, f_decay, 2, "zero-mode vertical")
    r = grid.nodes
    fv = np.asarray(_sample(f, grid), dtype=complex)
    c_in, s_out = (side[..., 0, :] for side in exp_weighted_integrals(
        grid, (fv * r ** (1.0 - nu))[..., None, :], 0.0,
        (fv * r)[..., None, :], 0.0, decay_exponent=f_decay - 1.0))
    const = (g_z0 + s_out[..., 0] / nu)[..., None]
    vals = const * r ** nu - (r ** nu * c_in + s_out) / nu
    d1 = const * nu * r ** (nu - 1.0) - r ** (nu - 1.0) * c_in
    d2 = -(1.0 - nu) / r * d1 - fv
    return RadialProfile(grid, vals, d1, d2)


def _kernel_rows(grid: RadialGrid, ks, nu: float, kind: str, shared=None):
    """Kernel derivative mantissas of modes ks at shifts -|k|r and +|k|r.

    Returns ((G_dec, G_dec', G_dec''), (G_grow, G_grow', G_grow'')), each a
    (len(ks), n) stack with kernel = mantissa * e^{-|k|r} for the decaying
    triple and mantissa * e^{+|k|r} for the growing one; the vorticity
    kernels keep only (G, G'), since their second derivatives are never
    read.  Not cached here: the swirl and meridional stacks that hold them
    are.  shared is the transient dict of Bessel evaluations that
    kernel_K_derivs/kernel_I_derivs reuse across kinds (see _build_stacks).
    """
    upto = 1 if kind == "vorticity" else 2
    # the kernels come back at exactly the shifts -|k|r and +|k|r, so their
    # mantissas are read as they are
    sides = []
    for derivs in (kernel_K_derivs, kernel_I_derivs):
        per_k = [[g.mantissa for g in derivs(k, nu, grid.nodes, kind,
                                             upto=upto, shared=shared)]
                 for k in ks]
        sides.append(tuple(np.stack(rows) for rows in zip(*per_k)))
    return tuple(sides)


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
        return SimpleNamespace(kk=kk, decay=decay, K0=K0, K1=K1, K2=K2, I0=I0,
                               I1=I1, I2=I2, w_K0=weight * K0,
                               w_I0=weight * I0)
    return grid.cached(("swirlstack", ks, nu), build)


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
        # read once per grid, so its -2|k| scan plan is not kept
        s_v_out = exp_weighted_suffix(grid, r * S[0] * V0, -2.0 * kk,
                                      keep_plan=False)
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
        return SimpleNamespace(**out)
    return grid.cached(("meridionalstack", ks, nu), build)


def _build_stacks(grid: RadialGrid, ks, nu: float) -> None:
    """Build (or find cached) the swirl and meridional stacks of modes ks.

    The swirl, vorticity and stream kernels share every Bessel evaluation
    whose (K or I, order, |k|) coincides, through one dict that lives only
    while the two stacks are built; it adds nothing to the grid's cache.
    """
    shared = {}
    _swirl_stack(grid, ks, nu, shared)
    _meridional_stack(grid, ks, nu, shared)


def _first_rows(stack: SimpleNamespace, m: int) -> SimpleNamespace:
    """The rows of the first m modes of a cached stack, as views."""
    return SimpleNamespace(**{name: a[:m] for name, a in vars(stack).items()})


def _swirl_rows(grid: RadialGrid, ks, nu: float, fv: np.ndarray, g):
    """Swirl solves of the first m modes of ks at once: forcing rows fv
    (..., m, n), boundary values g (..., m), where the leading axes stack
    problems.  Returns (values, d1, d2), each (..., m, n).

    Only the boundary-anchored vbar term keeps an exponential factor,
    decay = e^{|k|(1-r)}.
    """
    full = _swirl_stack(grid, ks, nu)
    m = fv.shape[-2]
    st = _first_rows(full, m)
    c_in, c_out = exp_weighted_integrals(grid, fv * st.w_I0, full.kk,
                                         fv * st.w_K0, -full.kk, first_rows=m)
    # vbar = (g - G_grow(1) * int_1^inf f s^{1-nu} G_dec ds) / G_dec(1),
    # held as its mantissa at shift +|k|
    vbar = ((g - st.I0[:, 0] * c_out[..., 0]) / st.K0[:, 0])[..., None]
    vals = (vbar * st.K0) * st.decay + st.K0 * c_in + st.I0 * c_out
    d1 = (vbar * st.K1) * st.decay + st.K1 * c_in + st.I1 * c_out
    d2 = ((vbar * st.K2) * st.decay + st.K2 * c_in + st.I2 * c_out) - fv
    return vals, d1, d2


def _meridional_rows(grid: RadialGrid, ks, nu: float, frv: np.ndarray,
                     fzv: np.ndarray, g_r, g_z) -> SimpleNamespace:
    """Meridional solves of the first m modes of ks at once: forcing rows
    frv, fzv (..., m, n), boundary values g_r, g_z (..., m), where the
    leading axes stack problems.

    Returns v_r, v_z and phi as (values, d1, d2) and w as (values, d1),
    each array (..., m, n), plus the per-row scalar w_bar (its mantissa at
    shift +|k|), (..., m).
    """
    full = _meridional_stack(grid, ks, nu)
    m = frv.shape[-2]
    st = _first_rows(full, m)
    rates = (full.kk, -full.kk)
    r = grid.nodes
    k = np.asarray(ks[:m], dtype=float)[:, None]
    ik = 1j * k
    # f_r part of F = ik f_r - f_z', plus the integrated-by-parts f_z part
    # carrying (s^{1-nu} J)' and (s^{1-nu} V)' against plain f_z values
    b_in = ik * frv * st.w_J0 + fzv * st.dJ
    b_out = ik * frv * st.w_V0 + fzv * st.dV
    c_in, c_out = exp_weighted_integrals(grid, b_in, rates[0], b_out, rates[1],
                                         first_rows=m)
    # each intermediate is dropped once read, which keeps a solve's peak
    # memory down (it grows with the number of problems stacked)
    del b_in, b_out
    bdry = st.J0[:, :1] * fzv[..., :1]  # boundary term of the integration by parts

    # h(r): the w_bar-independent part of the vorticity, and its derivative
    h_vals = st.V0 * c_in + st.J0 * c_out + bdry * st.V0d
    dh_vals = st.V1 * c_in + st.J1 * c_out + bdry * st.V1d + fzv
    del c_in, c_out

    # stream transforms of h; S1[0] = |k| K_1'(|k|), T1[0] = |k| I_1'(|k|)
    p_h_in, s_h_out = exp_weighted_integrals(grid, h_vals * st.rT0, rates[0],
                                             h_vals * st.rS0, rates[1],
                                             first_rows=m)

    # closure: w_bar = D^{-1} (A g_r + B g_z - G) with G = s_h_out(1); A, B
    # and G are mantissas at shift -|k|, D at -2|k|, so w_bar is one at +|k|
    w_bar = (st.a_k * g_r + st.b_k * g_z - s_h_out[..., 0]) / st.d_k
    phi_bar = -(st.T0[:, 0] * g_z) - (st.T0[:, 0] + st.T1[:, 0]) * (g_r / ik[:, 0])
    wb, pb = w_bar[..., None], phi_bar[..., None]

    w_vals = wb * st.V0d + h_vals
    dw_vals = wb * st.V1d + dh_vals
    del h_vals, dh_vals
    phi, d_phi, d2_phi = (
        pb * Sd + wb * Q + S * p_h_in + T * s_h_out
        for Sd, Q, S, T in ((st.Sd0, st.Q0, st.S0, st.T0),
                            (st.Sd1, st.Q1, st.S1, st.T1),
                            (st.Sd2, st.Q2, st.S2, st.T2)))
    del p_h_in, s_h_out
    d2_phi = d2_phi - w_vals
    return SimpleNamespace(
        v_r=(-ik * phi, -ik * d_phi, -ik * d2_phi),
        v_z=(d_phi + phi / r, d2_phi + d_phi / r - phi / r ** 2,
             -dw_vals + k * k * d_phi),
        w=(w_vals, dw_vals), phi=(phi, d_phi, d2_phi),
        w_bar=w_bar)


def solve_swirl_mode(grid: RadialGrid, k: int, nu: float, f, g_theta_k: complex,
                     f_decay: float) -> RadialProfile:
    """Nonzero-mode swirl solve of
    -(v'' + (1-nu)/r v' - ((1+nu)/r^2 + k^2) v) = f,  v(1) = g, decaying.

    The one-row case of the stacked solve that solve_linear_system runs.
    """
    if k == 0:
        raise DomainError("use solve_zero_swirl for the zero mode")
    _check_mode(nu, f_decay, 1, "nonzero-mode")
    fv = np.asarray(_sample(f, grid), dtype=complex)
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
    _check_mode(nu, f_decay, 1, "nonzero-mode")
    frv = np.asarray(_sample(f_r, grid), dtype=complex)
    fzv = np.asarray(_sample(f_z, grid), dtype=complex)
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
            B_k=complex(st.b_k[0] * np.exp(-kk)))
        return MeridionalModeSolution(
            v_r=profile(sol.v_r), v_z=profile(sol.v_z), w=profile(sol.w),
            phi=profile(sol.phi), w_bar=complex(sol.w_bar[0] * np.exp(kk)),
            closure=closure)


def solve_linear_system(grid: RadialGrid, nu: float, mu: float, k_max: int,
                        rhs: np.ndarray, tau, boundary,
                        band: Optional[int] = None):
    """Solve all modes |k| <= k_max of the linearized system.

    rhs is the (3, K+1, n) forcing f_{c,k} of the components c of
    COMPONENTS (r, theta, z) and k = 0..K (RhsAssembly.rhs); the forcing
    tail exponents the solves declare are the TauInfo tau's decay_theta0
    (zero swirl), decay_z0 (zero vertical) and decay_nonzero.  The modes
    k = 1..K are solved as one stack per stage: the swirl of every mode
    first, then the meridional pair, which takes the rotation coupling
    2 mu v_theta,k / r^2 from the fresh swirl.  Results go straight into
    the field's dense array; k < 0 follows from conjugate symmetry.
    Returns the field and the MeridionalStacks (w, phi) of modes 1..K.

    P problems on one grid and nu are solved at once when rhs is a stack
    (P, 3, K+1, n), mu a sequence of P rates and boundary a sequence of P
    BoundaryData: every stage then runs on (P, m, n) stacks, the field's
    data is (P, 3, K+1, 3, n) with sigma (P,) (or None), and w and phi are
    (P, K, n).  Each problem keeps the bits of its own solve.

    band m (-1..K, None for K) declares that the forcing and the boundary
    data vanish above |k| = m: only modes 1..m are solved, on the first m
    rows of the cached stacks and scan plans, and rows m+1..K of the
    field, w and phi stay +0.
    """
    r = grid.nodes
    f = np.asarray(rhs, dtype=complex)
    single = f.ndim == 3
    if single:
        f, mu, boundary = f[None], (mu,), (boundary,)
    if f.shape[1:] != (len(COMPONENTS), k_max + 1, len(grid)):
        raise DomainError("forcing must be a (3, k_max + 1, n) array")
    m = k_max if band is None else band
    if not -1 <= m <= k_max:
        raise DomainError(f"band {m} is outside -1..{k_max}")
    f_r, f_theta, f_z = f.swapaxes(0, 1)  # (P, K+1, n) each
    coupling = 2.0 * np.asarray(mu, dtype=float)[:, None, None]
    # boundary coefficients of modes 0..m, (P, m+1) per component
    g_r, g_theta, g_z = np.array(
        [[[b.coefficient(comp, k) for k in range(max(m, 0) + 1)]
          for b in boundary] for comp in COMPONENTS], dtype=complex)

    data = np.zeros((len(f), len(COMPONENTS), k_max + 1, 3, len(grid)),
                    dtype=complex)
    swirl0 = solve_zero_swirl(grid, nu, f_theta[:, 0], g_theta[:, 0],
                              tau.decay_theta0)
    v_z0 = solve_zero_meridional(grid, nu, f_z[:, 0], g_z[:, 0],
                                 tau.decay_z0)
    for c, prof in ((1, swirl0.v_regular), (2, v_z0)):
        for d, values in enumerate((prof.values, prof.d1, prof.d2)):
            data[:, c, 0, d] = values

    _check_mode(nu, tau.decay_nonzero, 1, "nonzero-mode")
    w = phi = np.zeros((len(f), 0, len(grid)), dtype=complex)
    if m >= 1:
        ks = tuple(range(1, k_max + 1))
        _build_stacks(grid, ks, nu)
        band_rows = slice(1, m + 1)
        swirl = _swirl_rows(grid, ks, nu, f_theta[:, band_rows],
                            g_theta[:, band_rows])
        merid = _meridional_rows(
            grid, ks, nu, f_r[:, band_rows] + (coupling / r ** 2) * swirl[0],
            f_z[:, band_rows], g_r[:, band_rows], g_z[:, band_rows])
        out = data[:, :, band_rows]
        for d in range(3):
            out[:, 0, :, d] = merid.v_r[d]
            out[:, 1, :, d] = swirl[d]
            out[:, 2, :, d] = merid.v_z[d]
        w, phi = merid.w[0], merid.phi[0]
    w, phi, sigma = _zero_padded(w, k_max), _zero_padded(phi, k_max), swirl0.sigma
    if single:
        data, w, phi = data[0], w[0], phi[0]
        sigma = None if sigma is None else float(sigma[0])
    return FourierField(grid, data, sigma), MeridionalStacks(w=w, phi=phi)


def _zero_padded(rows: np.ndarray, k_max: int) -> np.ndarray:
    """rows (..., m, n) of modes 1..m as the (..., K, n) stack of modes
    1..K, the rows past m +0 (rows itself when m = K)."""
    if rows.shape[-2] == k_max:
        return rows
    out = np.zeros(rows.shape[:-2] + (k_max, rows.shape[-1]), dtype=rows.dtype)
    out[..., :rows.shape[-2], :] = rows
    return out
