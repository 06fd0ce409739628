"""Fourier representation in z: fields, boundary and forcing data, norms.

Physical fields are real, so coefficients satisfy c_{-k} = conj(c_k); a
FourierField stores k = 0..K in one dense array and hands out the negative
modes as conjugates.  The zero-mode swirl tail sigma/r is held separately from the mode
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

import numbers
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
    """Velocity modes k = 0..K in one array, plus the sigma tail.

    data[c, k, d] is the radial derivative of order d (0, 1, 2) of the mode-k
    profile of COMPONENTS[c] on the grid nodes.  Mode -k is the conjugate of
    mode k, so the field is real by construction.  A field known by its
    values only (read back from artifacts) has has_derivatives False: its
    derivative slots are never handed out, and norms needing them refuse it.

    The Picard loop steps P problems at once on a field whose data has a
    leading problem axis, (P, 3, K+1, 3, n), and whose sigma is a (P,)
    array (or None); k_max, stack, blend and - read such a field, the other
    methods take one problem.
    """

    grid: RadialGrid
    data: np.ndarray
    sigma: Optional[float] = None  # zero-mode swirl 1/r coefficient
    has_derivatives: bool = True

    @classmethod
    def zero(cls, grid: RadialGrid, k_max: int, with_sigma: bool) -> "FourierField":
        data = np.zeros((len(COMPONENTS), k_max + 1, 3, len(grid)), dtype=complex)
        return cls(grid, data, 0.0 if with_sigma else None)

    @property
    def k_max(self) -> int:
        return self.data.shape[-3] - 1

    def profile(self, component: str, k: int) -> RadialProfile:
        if component not in COMPONENTS:
            raise DomainError(f"unknown component {component!r}")
        if abs(k) > self.k_max:
            return RadialProfile.zero(self.grid)
        vals, d1, d2 = self.data[COMPONENTS.index(component), abs(k)]
        if k < 0:
            vals, d1, d2 = np.conj(vals), np.conj(d1), np.conj(d2)
        if not self.has_derivatives:
            d1 = d2 = None
        return RadialProfile(self.grid, vals, d1, d2)

    def set_mode(self, k: int, component: str, profile: RadialProfile) -> None:
        """Store mode 0 <= k <= K.  A profile without both derivatives makes
        the whole field values-only."""
        if not 0 <= k <= self.k_max:
            raise DomainError(f"mode {k} is outside 0..{self.k_max} "
                              "(negative modes are conjugates)")
        slot = self.data[COMPONENTS.index(component), k]
        slot[0] = profile.values
        if profile.d1 is None or profile.d2 is None:
            self.has_derivatives = False
        else:
            slot[1], slot[2] = profile.d1, profile.d2

    def stack(self, component: str, order: int = 0) -> np.ndarray:
        """Derivative `order` of one component for k = -K..K, shape (2K+1, n),
        or (2K+1, P, n) for a stack of P problems (the mode axis first, as
        convolve_product takes it)."""
        if order and not self.has_derivatives:
            raise NumericError("field profiles are missing their derivatives")
        half = self.data[..., COMPONENTS.index(component), :, order, :]
        if half.ndim == 3:  # (P, K+1, n) -> (K+1, P, n)
            half = half.swapaxes(0, 1)
        return np.concatenate((np.conj(half[:0:-1]), half))

    def __sub__(self, other: "FourierField") -> "FourierField":
        return self._combine(other, lambda a, b: a - b)

    def blend(self, other: "FourierField", weight: float) -> "FourierField":
        """(1 - weight) * self + weight * other (under-relaxation helper)."""
        return self._combine(other, lambda a, b: (1.0 - weight) * a + weight * b)

    def _combine(self, other: "FourierField", op) -> "FourierField":
        if self.data.shape != other.data.shape:
            raise DomainError("fields differ in grid size or truncation")
        sigma = None
        if self.sigma is not None or other.sigma is not None:
            # per problem, a missing or -0 sigma reads +0 (s + 0.0 is s for
            # every other s, NaN included)
            sigma = op(*(0.0 if s is None else s + 0.0
                         for s in (self.sigma, other.sigma)))
        return FourierField(self.grid, op(self.data, other.data), sigma,
                            self.has_derivatives and other.has_derivatives)


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
            keys = [k for k in d if not isinstance(k, numbers.Integral)]
            if keys:
                raise ConfigError(f"boundary mode ({comp}, {keys[0]!r}) is "
                                  "not an integer")
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
        return _symmetric_support(k for d in (self.g_r, self.g_theta, self.g_z)
                                  for k in d)

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
            if not isinstance(k, numbers.Integral):
                raise ConfigError(f"forcing mode ({comp}, {k!r}) is not an "
                                  "integer")

    def sample(self, component: str, k: int, r: np.ndarray) -> np.ndarray:
        """f_{component,k} at r; a sample without the shape of r is a
        DomainError, a non-finite one a NumericError."""
        mode = self.modes.get((component, k))
        if mode is None:
            conj = self.modes.get((component, -k))
            if conj is None:
                return np.zeros_like(r, dtype=complex)
            vals = np.conj(np.asarray(conj.func(r), dtype=complex))
        else:
            vals = np.asarray(mode.func(r), dtype=complex)
        if vals.shape != np.shape(r):
            raise DomainError(f"forcing ({component}, {k}) does not return "
                              "one value per node")
        if not np.all(np.isfinite(vals)):
            raise NumericError(f"forcing ({component}, {k}) is not finite "
                               "on the grid")
        return vals

    def sample_stack(self, k_max: int, r: np.ndarray) -> np.ndarray:
        """f_{c,k} at r for the components c of COMPONENTS and k = 0..K, as
        one (3, K+1, n) array (absent modes are zero rows)."""
        out = np.zeros((len(COMPONENTS), k_max + 1, len(r)), dtype=complex)
        for k in range(k_max + 1):
            for c, comp in enumerate(COMPONENTS):
                out[c, k] = self.sample(comp, k, r)
        return out

    def decay(self, component: str, k: int) -> float:
        mode = self.modes.get((component, k)) or self.modes.get((component, -k))
        if mode is None:
            return np.inf
        return mode.decay

    def k_support(self) -> Tuple[int, ...]:
        return _symmetric_support(k for _, k in self.modes)


def _symmetric_support(ks) -> Tuple[int, ...]:
    """The modes ks and their conjugates -ks, sorted, each once."""
    return tuple(sorted({m for k in ks for m in (k, -k)}))


# ----------------------------------------------------------------------------
# mode convolution (quadratic terms) and synthesis


def convolve_product(a: np.ndarray, b: np.ndarray, k_max: int,
                     with_tail: bool = True,
                     band: Optional[int] = None) -> np.ndarray:
    """Rows k = 0..2K of the mode convolution (a * b)_k = sum_l a_{k-l} b_l.

    a and b stack the modes k = -K..K (K = k_max) along their first axis, as
    FourierField.stack returns them.  Rows 0..K are the Galerkin-truncated
    product and rows K+1..2K the tail the truncation discards; with_tail
    False forms rows 0..K only.  Rows k < 0 are the conjugates of rows -k
    for real fields and are not formed.  Each l adds a_{k-l} b_l to a slice
    of rows, l in increasing order, so every row sums its terms in the same
    order whether or not the tail is formed.

    band B (-1..K, None for K) declares that a and b vanish above |k| = B:
    only their modes -B..B are read and only rows up to 2B are formed (none
    at B = -1).  Every term it skips is an exact zero, and a row sum that
    starts at +0 never turns -0, so each formed row has the bits of the
    full product.  a and b may then stack the modes -B..B only (mode 0 alone
    at B = -1).
    """
    band = k_max if band is None else band
    if not -1 <= band <= k_max:
        raise DomainError(f"band {band} is outside -1..{k_max}")
    if a.shape != b.shape or len(a) not in (2 * k_max + 1, 2 * max(band, 0) + 1):
        raise DomainError("convolution inputs differ in grid size or truncation")
    n_rows = min(2 * k_max + 1 if with_tail else k_max + 1, 2 * band + 1)
    out = np.zeros((max(n_rows, 0),) + a.shape[1:], dtype=np.result_type(a, b))
    term = np.empty_like(out)  # one buffer for every term's products
    low = len(a) // 2 - band  # the row of mode -B
    a, b = a[low:low + 2 * band + 1], b[low:low + 2 * band + 1]
    for i, b_l in enumerate(b):  # l = i - B reaches rows 0..i from a_{B-i}..a_B
        m = min(i + 1, n_rows)
        out[:m] += np.multiply(a[2 * band - i:2 * band - i + m], b_l,
                               out=term[:m])
    return out


def convolution_tail_norm(product: np.ndarray, k_max: int) -> float:
    """Sup norm of the discarded |k| > k_max rows of a convolve_product result."""
    return float(np.max(np.abs(product[k_max + 1:]), initial=0.0))


def synthesize(fieldv: FourierField, r, z, nu: float = 0.0, mu: float = 0.0,
               include_background: bool = False):
    """Evaluate (u_r, u_theta, u_z) at radius r and height(s) z.

    The sigma/r swirl tail is part of the reduced solution and is always
    included; the nu/r and mu/r background terms only when requested.  A
    radius outside the grid range or a non-finite height is a DomainError.
    """
    r = np.asarray(r, dtype=float)
    if not np.all((fieldv.grid.nodes[0] <= r) & (r <= fieldv.grid.nodes[-1])):
        raise DomainError("radius outside the grid range (or not a number)")
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DomainError("heights z must be finite")
    out = {}
    for comp in COMPONENTS:
        acc = 0.0
        for k, row in zip(range(-fieldv.k_max, fieldv.k_max + 1),
                          fieldv.stack(comp)):
            coeff = (np.interp(r, fieldv.grid.nodes, np.real(row))
                     + 1j * np.interp(r, fieldv.grid.nodes, np.imag(row)))
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


# ----------------------------------------------------------------------------
# norms


def vnorm(g: BoundaryData) -> float:
    """Boundary space norm: sum of (1 + k^2) |g_{j,k}|."""
    total = 0.0
    for comp, d in zip(COMPONENTS, (g.g_r, g.g_theta, g.g_z)):
        # each given k and its conjugate -k once, in order of first mention
        for k in dict.fromkeys(m for given in d for m in (given, -given)):
            total += (1 + k * k) * abs(g.coefficient(comp, k))
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
                total += weighted_sup(vals, grid, f.lambda_theta)
            elif comp == "z":
                total += weighted_sup(vals, grid, f.lambda_z)
            # f_{r,0} is unrestricted (absorbed into the pressure zero mode)
        else:
            total += weighted_sup(vals, grid, f.lambda_)
    return total


def bnorm(v: FourierField, tau: float) -> float:
    """Solution space norm at decay index tau.

    Zero modes: sum_l sup r^{3+tau-l} |v_theta0^{(2-l)}|  and
                sum_l sup r^{2+tau-l} |v_z0^{(2-l)}|;
    nonzero modes: sum_{k,j,l} |k|^{2-l} sup r^{3/2+tau} |v_{j,k}^{(l)}|;
    plus |sigma| when the tail coefficient is present.  Modes -k and k
    contribute alike.
    """
    if not v.has_derivatives:
        raise NumericError("field profiles are missing their derivatives")
    r = v.grid.nodes
    order = np.arange(3)[:, None]
    mag = np.abs(v.data)  # (component, k, order, node)
    zero_modes = (np.max(r ** (1.0 + tau + order) * mag[1, 0], axis=-1).sum()
                  + np.max(r ** (tau + order) * mag[2, 0], axis=-1).sum())
    sups = np.max(r ** (1.5 + tau) * mag[:, 1:], axis=-1)  # (component, k, order)
    k_weights = np.arange(1, v.k_max + 1)[:, None] ** (2 - order.T)
    total = abs(v.sigma) if v.sigma is not None else 0.0
    return float(total + zero_modes + 2.0 * np.sum(k_weights * sups))
