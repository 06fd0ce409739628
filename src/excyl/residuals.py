"""Independent verification: full PDE residuals in physical space, decay fits.

The audit re-synthesizes the velocity from mode VALUES only and differentiates
independently.  Every derivative is taken on the (K+1, n) rows of the modes
0..K, by 4th-order finite differences in r and as (ik)^b times the rows in z
(exact on the modes), and only then synthesized at the z samples.  The
background b/r and its r-derivatives are added in closed form, and it has no
z-derivative, so the background is exact in both directions.  Nothing from
the solvers' analytic derivative formulas enters here, so a wrong derivative
or sign in a representation shows up as a residual.

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


def _z_rows(n_modes: int, z: np.ndarray) -> np.ndarray:
    """The (2 n_modes, len(z)) cosine and sine rows of the modes
    0..n_modes-1 at the heights z, mode k != 0 counted twice for its -k
    twin."""
    k = np.arange(n_modes)
    kz = np.outer(k, z)
    weight = np.where(k == 0, 1.0, 2.0)[:, None]
    return np.concatenate((weight * np.cos(kz), weight * np.sin(kz)))


def _synth_half(half: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The real (node, z) samples of the real field whose modes 0..K are
    half (K+1, n): one real product of their real and imaginary parts with
    the cosine and sine rows.  z is the heights (1-D) or those rows,
    _z_rows(K+1, heights), which an audit builds once (2-D)."""
    rows = z if z.ndim == 2 else _z_rows(len(half), z)
    return np.concatenate((half.real, -half.imag)).T @ rows


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
    z_rows = _z_rows(k_max + 1, z)  # every synthesis below reads these
    k = np.arange(k_max + 1)[:, None]
    half_p = np.asarray(pressure, dtype=complex)
    if half_p.shape != (k_max + 1, len(grid)):
        raise DomainError(f"pressure must be the ({k_max + 1}, {len(grid)}) "
                          f"array of modes 0..K, got shape {half_p.shape}")
    f_modes = forcing.sample_stack(k_max, r)
    rows = dict(zip(COMPONENTS, field_v.data[:, :, 0]))
    # the scale-critical background b/r of each velocity component
    sigma = field_v.sigma or 0.0
    background = {"r": nu, "theta": mu + sigma, "z": 0.0}

    def forcing_of(comp):
        # a component whose modes all sample to zero enters as 0
        half_f = f_modes[COMPONENTS.index(comp)]
        return _synth(f"f_{comp}", half_f, z_rows) if half_f.any() else 0.0

    def samples(half, nr, nz):
        """The (node, z) samples of d_r^nr d_z^nz of the field whose modes
        0..K are half: FD in r on the rows, (ik)^nz times them in z."""
        if nr:  # on the real and imaginary parts, as one real array
            half = grid.differentiate(
                np.ascontiguousarray(half.T).view(float), nr).view(complex).T
        if nz:
            half = half * (1j * k if nz == 1 else -(k * k))
        return _synth_half(half, z_rows)

    def d(comp, nr=0, nz=0):
        """d_r^nr d_z^nz u_comp, nr + nz > 0, with the r-derivative of the
        background b/r added exactly (it has no z-derivative), so the audit
        measures the solution, not FD noise on 1/r."""
        out = samples(rows[comp], nr, nz)
        if not nz:
            b = background[comp]
            out += ((-b / r ** 2) if nr == 1 else (2.0 * b / r ** 3))[:, None]
        return out

    # u_comp with its background, each synthesis checked for finiteness
    u_z, u_r, u_th = (_synth(f"u_{comp}", rows[comp], z_rows)
                      + (background[comp] / r)[:, None]
                      for comp in ("z", "r", "theta"))
    boundary_mismatch = 0.0
    for comp, base, edge in (("r", nu, u_r[0]), ("theta", mu, u_th[0]),
                             ("z", 0.0, u_z[0])):
        g = np.zeros(n_z, dtype=complex)
        for m in boundary.k_support():
            g += boundary.coefficient(comp, m) * np.exp(1j * m * z)
        boundary_mismatch = max(boundary_mismatch,
                                float(np.max(np.abs(edge - base - np.real(g)))))

    def curve(a):
        """The per-radius maximum over z of |a|, overwriting a."""
        return np.max(np.abs(a, out=a), axis=1)

    def transport(comp):
        """(u . grad) u_comp minus the scalar Laplacian of u_comp."""
        dr = d(comp, 1)
        return (u_r * dr + u_z * d(comp, nz=1)
                - (d(comp, 2) + dr / rc + d(comp, nz=2)))

    # each residual is reduced to its per-radius maximum as soon as it is
    # formed, and each derivative is formed where it is read
    curve_div = curve(d("r", 1) + u_r / rc + d("z", nz=1))
    curve_th = curve(transport("theta") + u_th * u_r / rc + u_th / rc ** 2
                     - forcing_of("theta"))
    # the pressure enters unchecked (a non-finite mode fails the report);
    # the background pair (nu/r, mu/r) carries its own exact pressure
    # -(nu^2+mu^2)/(2 r^2)
    dp_bg = ((nu * nu + mu * mu) / r ** 3)[:, None]
    curve_r = curve(transport("r") - u_th ** 2 / rc + u_r / rc ** 2
                    - forcing_of("r") + samples(half_p, 1, 0) + dp_bg)
    curve_z = curve(transport("z") - forcing_of("z") + samples(half_p, 0, 1))

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
