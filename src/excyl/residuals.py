"""Independent verification: full PDE residuals in physical space, decay fits.

The audit re-synthesizes the velocity from mode VALUES only and differentiates
independently: 4th-order finite differences in r, exact spectral derivatives
in z.  Nothing from the solvers' analytic derivative formulas enters here, so
a wrong derivative or sign in a representation shows up as a residual.

Momentum residuals target the stationary axisymmetric system in cylindrical
components (advection + pressure gradient - viscous - forcing), with the
pressure modes 0..K given as one (K+1, n) array (recover_pressure of a
solve).  The velocity is sampled at 4K+1 heights, so every quadratic term
is resolved without aliasing.  Residual maxima are split at r_max/2: the
inner half reflects discretization quality, the outer half absorbs
domain-truncation effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import DomainError, NumericError
from .fourier import (COMPONENTS, BoundaryData, ForcingData, FourierField,
                      convolve_product)
from .radial import decay_fit, integrate_outer

__all__ = [
    "ResidualReport",
    "recover_pressure",
    "residual_asns",
    "decay_fit",
    "attach_residual_report",
    "manufactured_forcing",
]


@dataclass
class ResidualReport:
    momentum_r: float
    momentum_theta: float
    momentum_z: float
    divergence: float
    boundary_mismatch: float
    outer_momentum: float
    decay_fits: Dict[Tuple[str, int], Tuple[float, float]] = field(default_factory=dict)
    n_z: int = 0
    inner_radius_cut: float = 0.0
    # per-radius curves (max over z), for plot-ready CSV output
    curve_r: Optional[np.ndarray] = None
    curve_momentum: Optional[np.ndarray] = None   # (n, 3): r, theta, z columns
    curve_divergence: Optional[np.ndarray] = None

    def __post_init__(self):
        # an audit that reads a non-finite number measures nothing: it fails
        # as a non-finite iterate does, naming the first such quantity
        # (maxima, then curves, then decay fits)
        checks = [(f.name, getattr(self, f.name)) for f in fields(self)
                  if f.name != "decay_fits"]
        checks += [(f"decay fit {comp},{k}", fit)
                   for (comp, k), fit in sorted(self.decay_fits.items())]
        for name, value in checks:
            if value is not None and not np.all(np.isfinite(value)):
                raise NumericError(f"residual audit: {name} is not finite")

    @property
    def max_momentum(self) -> float:
        return max(self.momentum_r, self.momentum_theta, self.momentum_z)

    def as_text(self) -> str:
        lines = [
            f"momentum residual (r, inner half):      {self.momentum_r:.6e}",
            f"momentum residual (theta, inner half):  {self.momentum_theta:.6e}",
            f"momentum residual (z, inner half):      {self.momentum_z:.6e}",
            f"momentum residual (outer half):         {self.outer_momentum:.6e}",
            f"divergence residual:                    {self.divergence:.6e}",
            f"boundary mismatch:                      {self.boundary_mismatch:.6e}",
            f"z samples: {self.n_z}, inner region r <= {self.inner_radius_cut:g}",
        ]
        for (comp, k), (slope, r2) in sorted(self.decay_fits.items()):
            lines.append(f"decay fit {comp},{k}: slope {slope:+.3f} (R^2 {r2:.4f})")
        return "\n".join(lines)


def _synth(name: str, half: np.ndarray, z: np.ndarray) -> np.ndarray:
    """_synth_half(half, z), or a NumericError naming a non-finite field."""
    if not np.all(np.isfinite(half)):
        raise NumericError(f"{name} synthesis is not finite")
    return _synth_half(half, z)


def _synth_half(half: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The real (node, z) samples of the real field whose modes 0..K are
    half (K+1, n): one real product of their real and imaginary parts with
    the cosine and sine rows, mode k != 0 counted twice for its -k twin."""
    k = np.arange(len(half))
    kz = np.outer(k, z)
    weight = np.where(k == 0, 1.0, 2.0)[:, None]
    parts = np.concatenate((half.real, -half.imag))
    return parts.T @ np.concatenate((weight * np.cos(kz), weight * np.sin(kz)))


def _dz(a: np.ndarray, order: int = 1) -> np.ndarray:
    """Derivative 1 or 2 in z of real samples a (node, z) on a uniform
    periodic z grid of period 2 pi, exact on the modes it resolves: the
    real-input FFT along z, scaled by (ik)^order, transformed back."""
    n_z = a.shape[1]
    k = np.arange(n_z // 2 + 1)
    ah = np.fft.rfft(a, axis=1)
    ah *= 1j * k if order == 1 else -(k * k)
    return np.fft.irfft(ah, n_z, axis=1)


def recover_pressure(v: FourierField, nu: float, rhs) -> np.ndarray:
    """The (K+1, n) pressure modes 0..K of a field v whose last step solved
    the RhsAssembly rhs: pi_0' = f_{r,0} (the absorbed zero radial forcing)
    integrated in from infinity, and for k = 1..K the vertical balance
    ik pi_k = f_z + v_z'' + (1-nu)/r v_z' - k^2 v_z."""
    r = v.grid.nodes
    z = COMPONENTS.index("z")
    pressure = np.empty((v.k_max + 1, len(r)), dtype=complex)
    pressure[0] = -integrate_outer(rhs.absorbed_fr0, v.grid,
                                   decay_exponent=rhs.absorbed_fr0_decay,
                                   check_tail=False)
    k = np.arange(1, v.k_max + 1)[:, None]
    v_z, d1, d2 = v.data[z, 1:].swapaxes(0, 1)
    pressure[1:] = (rhs.rhs[z, 1:] + d2 + (1.0 - nu) / r * d1
                    - k * k * v_z) / (1j * k)
    return pressure


def residual_asns(field_v: FourierField, nu: float, mu: float,
                  forcing: ForcingData, boundary: BoundaryData,
                  pressure: np.ndarray,
                  z_offset: float = 0.0) -> ResidualReport:
    """Residuals of the full stationary system for the synthesized velocity.

    field_v holds the reduced solution; the scale-critical background
    (nu/r) e_r + (mu/r) e_theta is added here.  forcing enters the momentum
    residuals and boundary the boundary mismatch (ForcingData() and
    BoundaryData() state none).  pressure is the (K+1, n) array of the
    pressure modes 0..K (recover_pressure), any other shape a DomainError.
    """
    grid = field_v.grid
    r = grid.nodes
    rc = r[:, None]
    k_max = field_v.k_max
    n_z = 4 * k_max + 1
    z = 2.0 * np.pi * np.arange(n_z) / n_z + z_offset
    half = np.asarray(pressure, dtype=complex)
    if half.shape != (k_max + 1, len(grid)):
        raise DomainError(f"pressure must be the ({k_max + 1}, {len(grid)}) "
                          f"array of modes 0..K, got shape {half.shape}")
    f_modes = forcing.sample_stack(k_max, r)

    def forcing_of(comp):
        # a component whose modes all sample to zero enters as 0
        half_f = f_modes[COMPONENTS.index(comp)]
        return _synth(f"f_{comp}", half_f, z) if half_f.any() else 0.0

    edge = {}  # u_comp at r = 1, for the boundary mismatch

    def velocity(comp, background=None):
        """u_comp, and with a background b/r (b = nu, mu + sigma) its first
        and second r-derivatives: FD on the mode content, exact on b/r, so
        the audit measures the solution, not FD noise on 1/r."""
        u = _synth(f"u_{comp}", field_v.data[COMPONENTS.index(comp), :, 0], z)
        derivatives = ()
        if background is not None:
            d1 = grid.differentiate(u, 1)
            d1 += (-background / r)[:, None]
            d2 = grid.differentiate(u, 2)
            d2 += (2.0 * background / r ** 2)[:, None]
            u += background[:, None]
            derivatives = (d1, d2)
        edge[comp] = u[0].copy()
        return (u,) + derivatives

    def curve(a):
        """The per-radius maximum over z of |a|, overwriting a."""
        return np.max(np.abs(a, out=a), axis=1)

    def laplace(d2a, da, a):
        return d2a + da / rc + _dz(a, 2)

    def adv(da, a):
        return u_r * da + u_z * _dz(a, 1)

    # each residual is reduced to its per-radius maximum as soon as it is
    # formed, and each derivative dropped once its last equation is
    sigma = field_v.sigma or 0.0
    (u_z,) = velocity("z")
    u_r, dr_u_r, d2r_u_r = velocity("r", nu / r)
    curve_div = curve(dr_u_r + u_r / rc + _dz(u_z, 1))

    u_th, dr_u_th, d2r_u_th = velocity("theta", (mu + sigma) / r)
    curve_th = curve(adv(dr_u_th, u_th) + u_th * u_r / rc
                     - (laplace(d2r_u_th, dr_u_th, u_th) - u_th / rc ** 2)
                     - forcing_of("theta"))
    del dr_u_th, d2r_u_th

    eq_r = (adv(dr_u_r, u_r) - u_th ** 2 / rc
            - (laplace(d2r_u_r, dr_u_r, u_r) - u_r / rc ** 2)
            - forcing_of("r"))
    del u_th, dr_u_r, d2r_u_r

    # the pressure modes are real by construction (a non-finite one fails
    # the report); the background pair (nu/r, mu/r) carries its own exact
    # pressure -(nu^2+mu^2)/(2 r^2)
    dp_bg = ((nu * nu + mu * mu) / r ** 3)[:, None]
    p = _synth_half(half, z)
    curve_r = curve(eq_r + grid.differentiate(p, 1) + dp_bg)
    del eq_r
    dr_u_z = grid.differentiate(u_z, 1)
    curve_z = curve(adv(dr_u_z, u_z)
                    - laplace(grid.differentiate(u_z, 2), dr_u_z, u_z)
                    - forcing_of("z") + _dz(p, 1))
    del dr_u_z

    boundary_mismatch = 0.0
    for comp, base in (("r", nu), ("theta", mu), ("z", 0.0)):
        g = np.zeros(n_z, dtype=complex)
        for k in boundary.k_support():
            g += boundary.coefficient(comp, k) * np.exp(1j * k * z)
        boundary_mismatch = max(
            boundary_mismatch,
            float(np.max(np.abs(edge[comp] - base - np.real(g)))))

    cut = grid.r_max / 2.0
    inner = r <= cut
    outer = ~inner

    def mx(c, mask):
        return float(np.max(c[mask])) if mask.any() else 0.0

    return ResidualReport(
        momentum_r=mx(curve_r, inner),
        momentum_theta=mx(curve_th, inner),
        momentum_z=mx(curve_z, inner),
        divergence=float(np.max(curve_div)),
        boundary_mismatch=boundary_mismatch,
        outer_momentum=max(mx(curve_r, outer), mx(curve_th, outer),
                           mx(curve_z, outer)),
        n_z=n_z,
        inner_radius_cut=cut,
        curve_r=r.copy(),
        curve_momentum=np.stack([curve_r, curve_th, curve_z], axis=1),
        curve_divergence=curve_div,
        decay_fits={(comp, k): fit for k in range(k_max + 1)
                    for c, comp in enumerate(COMPONENTS)
                    if (fit := decay_fit(field_v.data[c, k, 0], grid))
                    is not None},
    )


def attach_residual_report(bundle) -> ResidualReport:
    """Recover the pressure modes and audit a converged solution bundle."""
    report = residual_asns(bundle.v, bundle.nu, bundle.mu, bundle.forcing,
                           bundle.boundary, recover_pressure(
                               bundle.v, bundle.nu, bundle.rhs_final))
    bundle.residual_report = report
    return report


def manufactured_forcing(field_star: FourierField, pressure_star: np.ndarray,
                         nu: float, mu: float):
    """Forcing arrays that make field_star an exact reduced solution.

    Pushes the manufactured modes (with their analytic derivatives) and the
    (K+1, n) pressure modes 0..K through the reduced momentum equations,
    quadratic terms included; returns {(component, k >= 0): sampled array}.
    The zero radial mode is whatever the pressure gradient absorbs and is
    returned too (the solver ignores it).
    """
    grid = field_star.grid
    r = grid.nodes
    k_max = field_star.k_max

    vals = {c: field_star.stack(c) for c in COMPONENTS}
    d1 = {c: field_star.stack(c, 1) for c in COMPONENTS}
    ik = 1j * np.arange(-k_max, k_max + 1)[:, None]
    il = {c: ik * vals[c] for c in COMPONENTS}

    conv = lambda a, b: convolve_product(a, b, k_max)
    quad = {c: conv(vals["r"], d1[c]) + conv(vals["z"], il[c])
            for c in COMPONENTS}
    cen = conv(vals["theta"], vals["theta"])
    stretch = conv(vals["r"], vals["theta"])

    sigma = field_star.sigma or 0.0
    lin_coeff = {"r": (1.0 - nu), "theta": (1.0 + nu), "z": 0.0}
    out = {}
    for k in range(0, k_max + 1):
        v_th = vals["theta"][k_max + k]
        pk = pressure_star[k]
        grad_p = {"r": grid.differentiate(pk, 1), "theta": 0.0,
                  "z": 1j * k * pk}
        for c, comp in enumerate(COMPONENTS):
            # the stack(c, 1) calls above refuse a field without derivatives
            v, v_d1, v_d2 = field_star.data[c, k]
            lin = -(v_d2 + (1.0 - nu) / r * v_d1
                    - lin_coeff[comp] / r ** 2 * v - k * k * v)
            q = quad[comp][k]
            if comp == "theta":
                q = q + stretch[k] / r
            if comp == "r":
                q = q - cen[k] / r \
                    - 2.0 * sigma * v_th / r ** 2 \
                    - 2.0 * mu * v_th / r ** 2
                if k == 0:
                    q = q - (sigma * sigma + 2.0 * mu * sigma) / r ** 3
            out[(comp, k)] = lin + q + grad_p[comp]
    return out
