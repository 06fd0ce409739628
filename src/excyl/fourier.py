"""Fourier representation in z: fields, boundary and forcing data, norms.

Physical fields are real, so coefficients satisfy c_{-k} = conj(c_k); fields
store complex coefficients for all k in [-K, K] and builders enforce the
symmetry.  The zero-mode swirl tail sigma/r is held separately from the mode
profiles (it is the coefficient the non-uniqueness construction acts on and
is only present when -2 <= nu < 0).

Norms follow the solution/data space design:
  * boundary data:  sum over (j, k) of (1 + k^2) |g_{j,k}|
  * forcing:        weighted sup norms with exponents (lambda_theta on the
                    zero theta mode, lambda_z on the zero z mode, lambda on
                    every nonzero mode)
  * velocity:       |sigma| + weighted sups of the zero-mode profiles and
                    their two derivatives + |k|^{2-l}-weighted sups of the
                    nonzero-mode profiles, all at exponents tied to tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import ConfigError, DomainError, NumericError
from .radial import RadialGrid, RadialProfile, weighted_sup

COMPONENTS = ("r", "theta", "z")

__all__ = [
    "COMPONENTS",
    "FourierField",
    "BoundaryData",
    "ForcingData",
    "ForcingMode",
    "convolve_product",
    "synthesize",
    "vnorm",
    "enorm",
    "bnorm",
]


@dataclass
class FourierField:
    """Velocity modes: k -> {component -> RadialProfile}, plus the sigma tail."""

    grid: RadialGrid
    k_max: int
    modes: Dict[int, Dict[str, RadialProfile]] = field(default_factory=dict)
    sigma: Optional[float] = None  # zero-mode swirl 1/r coefficient

    @classmethod
    def zero(cls, grid: RadialGrid, k_max: int, with_sigma: bool) -> "FourierField":
        modes = {k: {c: RadialProfile.zero(grid) for c in COMPONENTS}
                 for k in range(-k_max, k_max + 1)}
        return cls(grid, k_max, modes, 0.0 if with_sigma else None)

    def profile(self, component: str, k: int) -> RadialProfile:
        if component not in COMPONENTS:
            raise DomainError(f"unknown component {component!r}")
        if k in self.modes and component in self.modes[k]:
            return self.modes[k][component]
        return RadialProfile.zero(self.grid)

    def set_mode(self, k: int, component: str, profile: RadialProfile) -> None:
        if abs(k) > self.k_max:
            raise DomainError(f"mode {k} exceeds truncation {self.k_max}")
        self.modes.setdefault(k, {})[component] = profile

    def mirror_negative_modes(self) -> None:
        """Fill k < 0 from conjugate symmetry of the k > 0 entries."""
        for k in range(1, self.k_max + 1):
            if k in self.modes:
                self.modes[-k] = {c: p.conjugate() for c, p in self.modes[k].items()}

    def conjugate_symmetry_defect(self) -> float:
        worst = 0.0
        for k in range(0, self.k_max + 1):
            for c in COMPONENTS:
                a = self.profile(c, k).values
                b = self.profile(c, -k).values
                worst = max(worst, float(np.max(np.abs(a - np.conj(b)))))
        return worst

    def divergence_defect(self) -> float:
        """Max over modes of | ik v_z + v_r' + v_r/r | on the grid."""
        r = self.grid.nodes
        worst = 0.0
        for k in range(-self.k_max, self.k_max + 1):
            vr = self.profile("r", k)
            vz = self.profile("z", k)
            if vr.d1 is None:
                d1 = self.grid.differentiate(vr.values, 1)
            else:
                d1 = vr.d1
            res = 1j * k * vz.values + d1 + vr.values / r
            worst = max(worst, float(np.max(np.abs(res))))
        return worst

    def component_values(self, component: str) -> Dict[int, np.ndarray]:
        return {k: self.profile(component, k).values
                for k in range(-self.k_max, self.k_max + 1)}

    def component_d1(self, component: str) -> Dict[int, np.ndarray]:
        out = {}
        for k in range(-self.k_max, self.k_max + 1):
            p = self.profile(component, k)
            if p.d1 is None:
                raise NumericError("field profiles are missing first derivatives")
            out[k] = p.d1
        return out

    def __sub__(self, other: "FourierField") -> "FourierField":
        out = FourierField(self.grid, max(self.k_max, other.k_max))
        for k in range(-out.k_max, out.k_max + 1):
            out.modes[k] = {c: self.profile(c, k) - other.profile(c, k)
                            for c in COMPONENTS}
        if self.sigma is None and other.sigma is None:
            out.sigma = None
        else:
            out.sigma = (self.sigma or 0.0) - (other.sigma or 0.0)
        return out

    def blend(self, other: "FourierField", weight: float) -> "FourierField":
        """(1 - weight) * self + weight * other (under-relaxation helper)."""
        out = FourierField(self.grid, max(self.k_max, other.k_max))
        for k in range(-out.k_max, out.k_max + 1):
            out.modes[k] = {
                c: self.profile(c, k).scaled(1.0 - weight)
                + other.profile(c, k).scaled(weight)
                for c in COMPONENTS}
        if self.sigma is None and other.sigma is None:
            out.sigma = None
        else:
            out.sigma = (1.0 - weight) * (self.sigma or 0.0) + weight * (other.sigma or 0.0)
        return out


@dataclass
class BoundaryData:
    """Fourier coefficients of the boundary perturbation g.

    g_{r,0} = 0 is a normalization, not a restriction: a nonzero mean radial
    inflow belongs to the background sink strength nu.
    """

    g_r: Dict[int, complex] = field(default_factory=dict)
    g_theta: Dict[int, complex] = field(default_factory=dict)
    g_z: Dict[int, complex] = field(default_factory=dict)

    def __post_init__(self):
        for comp, d in zip(COMPONENTS, (self.g_r, self.g_theta, self.g_z)):
            bad = [k for k, v in d.items() if not np.isfinite(v)]
            if bad:
                raise NumericError(f"boundary coefficient ({comp}, {bad[0]}) "
                                   f"is not finite: {d[bad[0]]}")
        if abs(self.g_r.get(0, 0.0)) != 0.0:
            raise ConfigError(
                "boundary normalization violated: g_{r,0} must be exactly 0 "
                "(fold any mean radial inflow into nu)")
        for d in (self.g_r, self.g_theta, self.g_z):
            for k, v in d.items():
                back = d.get(-k)
                if back is not None and abs(np.conj(back) - v) > 1e-12 * max(1.0, abs(v)):
                    raise ConfigError(
                        f"boundary coefficients break conjugate symmetry at k={k}")

    def coefficient(self, component: str, k: int) -> complex:
        d = {"r": self.g_r, "theta": self.g_theta, "z": self.g_z}[component]
        if k in d:
            return complex(d[k])
        if -k in d:
            return complex(np.conj(d[-k]))
        return 0.0

    def k_support(self) -> Tuple[int, ...]:
        ks = set()
        for d in (self.g_r, self.g_theta, self.g_z):
            for k in d:
                ks.add(k)
                ks.add(-k)
        return tuple(sorted(ks))

    def shifted_swirl_mean(self, delta: float) -> "BoundaryData":
        """New data with g_{theta,0} shifted by delta (mu-tilde construction)."""
        g_theta = dict(self.g_theta)
        g_theta[0] = g_theta.get(0, 0.0) + delta
        return BoundaryData(dict(self.g_r), g_theta, dict(self.g_z))


@dataclass
class ForcingMode:
    func: Callable[[np.ndarray], np.ndarray]
    decay: float


@dataclass
class ForcingData:
    """Per-mode radial forcing f_{j,k}(r) with declared decay exponents.

    lambda_theta > 3, lambda_z > 2, lambda_ > 3/2 are the space hypotheses;
    the zero radial mode f_{r,0} is accepted but ignored by the solver (it is
    absorbed into the zero mode of pressure).
    """

    modes: Dict[Tuple[str, int], ForcingMode] = field(default_factory=dict)
    lambda_theta: float = 10.0
    lambda_z: float = 10.0
    lambda_: float = 10.0

    def __post_init__(self):
        if not (self.lambda_theta > 3.0):
            raise ConfigError("forcing space requires lambda_theta > 3")
        if not (self.lambda_z > 2.0):
            raise ConfigError("forcing space requires lambda_z > 2")
        if not (self.lambda_ > 1.5):
            raise ConfigError("forcing space requires lambda > 3/2")
        for (comp, k) in self.modes:
            if comp not in COMPONENTS:
                raise ConfigError(f"unknown forcing component {comp!r}")

    def sample(self, component: str, k: int, r: np.ndarray) -> np.ndarray:
        mode = self.modes.get((component, k))
        if mode is None:
            conj = self.modes.get((component, -k))
            if conj is None:
                return np.zeros_like(r, dtype=complex)
            return np.conj(np.asarray(conj.func(r), dtype=complex))
        return np.asarray(mode.func(r), dtype=complex)

    @classmethod
    def from_grid_arrays(cls, grid, arrays, decay: float = 10.0,
                         lambda_theta: float = 10.0, lambda_z: float = 10.0,
                         lambda_: float = 10.0) -> "ForcingData":
        """Wrap sampled arrays {(component, k >= 0): values} as forcing modes."""
        modes = {}
        for (comp, k), vals in arrays.items():
            vals = np.asarray(vals, dtype=complex)

            def func(r, _v=vals, _g=grid):
                re = np.interp(r, _g.nodes, np.real(_v))
                im = np.interp(r, _g.nodes, np.imag(_v))
                return re + 1j * im

            modes[(comp, k)] = ForcingMode(func, decay)
        return cls(modes=modes, lambda_theta=lambda_theta, lambda_z=lambda_z,
                   lambda_=lambda_)

    def decay(self, component: str, k: int) -> float:
        mode = self.modes.get((component, k)) or self.modes.get((component, -k))
        if mode is None:
            return np.inf
        return mode.decay

    def k_support(self) -> Tuple[int, ...]:
        ks = set()
        for (_, k) in self.modes:
            ks.add(k)
            ks.add(-k)
        return tuple(sorted(ks))


# ----------------------------------------------------------------------------
# mode convolution (quadratic terms) and synthesis


def convolve_product(a: Dict[int, np.ndarray], b: Dict[int, np.ndarray],
                     k_max: int) -> Dict[int, np.ndarray]:
    """(a * b)_k = sum over l of a_{k-l} b_l, truncated to |k| <= k_max.

    Spectral Galerkin truncation: contributions with |k-l| or |l| above the
    inputs' support vanish; output modes beyond k_max are discarded.
    """
    shapes = {v.shape for v in a.values()} | {v.shape for v in b.values()}
    if len(shapes) > 1:
        raise DomainError("convolution inputs live on different grids")
    out: Dict[int, np.ndarray] = {}
    a_ks = sorted(a)
    b_ks = sorted(b)
    for k in range(-k_max, k_max + 1):
        acc = None
        for l in b_ks:
            j = k - l
            if j in a:
                term = a[j] * b[l]
                acc = term if acc is None else acc + term
        if acc is not None:
            out[k] = acc
    return out


def convolution_tail_norm(a: Dict[int, np.ndarray], b: Dict[int, np.ndarray],
                          k_max: int) -> float:
    """Sup norm of the discarded |k| > k_max convolution tail (diagnostic)."""
    worst = 0.0
    a_ks = sorted(a)
    b_ks = sorted(b)
    for k in list(range(-2 * k_max, -k_max)) + list(range(k_max + 1, 2 * k_max + 1)):
        acc = None
        for l in b_ks:
            j = k - l
            if j in a:
                term = a[j] * b[l]
                acc = term if acc is None else acc + term
        if acc is not None:
            worst = max(worst, float(np.max(np.abs(acc))))
    return worst


def synthesize(fieldv: FourierField, r, z, nu: float = 0.0, mu: float = 0.0,
               include_background: bool = False):
    """Evaluate (u_r, u_theta, u_z) at radius r and height(s) z.

    The sigma/r swirl tail is part of the reduced solution and is always
    included; the nu/r and mu/r background terms only when requested.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < fieldv.grid.nodes[0]) or np.any(r > fieldv.grid.nodes[-1]):
        raise DomainError("radius outside the grid range")
    z = np.asarray(z, dtype=float)
    out = {}
    for comp in COMPONENTS:
        acc = 0.0
        for k in range(-fieldv.k_max, fieldv.k_max + 1):
            prof = fieldv.profile(comp, k).values
            coeff = _interp_complex(fieldv.grid.nodes, prof, r)
            acc = acc + coeff * np.exp(1j * k * z)
        out[comp] = np.asarray(acc, dtype=complex)
    if fieldv.sigma is not None:
        out["theta"] = out["theta"] + fieldv.sigma / r
    if include_background:
        out["r"] = out["r"] + nu / r
        out["theta"] = out["theta"] + mu / r
    imag = max(float(np.max(np.abs(np.imag(v)))) for v in out.values())
    scale = max(float(np.max(np.abs(v))) for v in out.values())
    if imag > 1e-10 * max(scale, 1.0):
        raise NumericError(
            f"synthesized field is not real (imaginary residue {imag:.2e}); "
            "conjugate symmetry is broken")
    return tuple(np.real(out[c]) for c in COMPONENTS)


def _interp_complex(x, y, xq):
    if np.ndim(xq) == 0 or np.asarray(xq).shape == ():
        xq = np.asarray(xq, dtype=float)
    return np.interp(xq, x, np.real(y)) + 1j * np.interp(xq, x, np.imag(y))


# ----------------------------------------------------------------------------
# norms


def vnorm(g: BoundaryData) -> float:
    """Boundary space norm: sum of (1 + k^2) |g_{j,k}|."""
    total = 0.0
    for comp in COMPONENTS:
        d = {"r": g.g_r, "theta": g.g_theta, "z": g.g_z}[comp]
        seen = set()
        for k in d:
            for kk in (k, -k):
                if kk not in seen:
                    seen.add(kk)
                    total += (1 + kk * kk) * abs(g.coefficient(comp, kk))
    return total


def enorm(f: ForcingData, grid: RadialGrid) -> float:
    """Forcing space norm evaluated as grid sups with the declared weights."""
    r = grid.nodes
    support = sorted({(comp, kk) for (comp, k) in f.modes for kk in (k, -k)})
    total = 0.0
    for (comp, k) in support:
        vals = f.sample(comp, k, r)
        if k == 0:
            if comp == "theta":
                total += weighted_sup(vals, grid, f.lambda_theta).value
            elif comp == "z":
                total += weighted_sup(vals, grid, f.lambda_z).value
            # f_{r,0} is unrestricted (absorbed into the pressure zero mode)
        else:
            total += weighted_sup(vals, grid, f.lambda_).value
    return total


def bnorm(v: FourierField, tau: float) -> float:
    """Solution space norm at decay index tau.

    Zero modes: sum_l sup r^{3+tau-l} |v_theta0^{(2-l)}|  and
                sum_l sup r^{2+tau-l} |v_z0^{(2-l)}|;
    nonzero modes: sum_{k,j,l} |k|^{2-l} sup r^{3/2+tau} |v_{j,k}^{(l)}|;
    plus |sigma| when the tail coefficient is present.
    """
    grid = v.grid
    total = abs(v.sigma) if v.sigma is not None else 0.0
    vth0 = v.profile("theta", 0)
    vz0 = v.profile("z", 0)
    for ell in (0, 1, 2):
        total += weighted_sup(vth0.derivative(2 - ell), grid, 3.0 + tau - ell).value
        total += weighted_sup(vz0.derivative(2 - ell), grid, 2.0 + tau - ell).value
    for k in range(-v.k_max, v.k_max + 1):
        if k == 0:
            continue
        for comp in COMPONENTS:
            prof = v.profile(comp, k)
            for ell in (0, 1, 2):
                total += (abs(k) ** (2 - ell)
                          * weighted_sup(prof.derivative(ell), grid, 1.5 + tau).value)
    return total
