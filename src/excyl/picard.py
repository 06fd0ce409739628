"""Quadratic right-hand sides, the Picard fixed-point loop, and the
non-uniqueness experiment.

One Picard step maps the previous iterate vbar to the solution v of the
linearized system driven by

    fbar_r     = -(vbar.grad) vbar_r + vbar_theta^2/r
                 + 2 sigma_bar vbar_theta / r^2   (only when -2 <= nu < 0)
                 + f_r                             [zero mode absorbed]
    fbar_theta = -(vbar.grad) vbar_theta - vbar_r vbar_theta / r + f_theta
    fbar_z     = -(vbar.grad) vbar_z + f_z

where vbar_theta is the sigma-free swirl (the sigma/r advection terms cancel
identically in the theta equation) and the rotation coupling 2 mu v_theta/r^2
enters the meridional solve with the freshly solved swirl mode.  The zero
radial mode of fbar is absorbed into the zero mode of pressure; an audit copy
of the full absorbed profile is kept so the pressure can be recovered.

The decay index of the solution space is

    tau = min( lam_theta_bar - 3, lam_z_bar - 2, lambda - 3/2 ),
    lam_theta_bar = lam_theta            for nu >= -2,
                    min(lam_theta, 2 - nu/2)  for nu < -2,
    lam_z_bar     = min(lam_z, 2 - nu/2),

and iterate distances are measured in the tau-weighted solution norm.

The iterates are band-limited: the zero iterate has no mode (band -1), the
quadratic term at most doubles the highest |k| present, and the data add
theirs, so after a step the band is min(K, max(2 B, data band)).
The loop passes that integer to assemble_rhs, which convolves only the
modes -B..B, and to solve_linear_system, which solves only the modes up to
the new band; both keep the bits of the full-band computation.

The quadratic term reads the iterate's parts below 2^-511 as zero
(QUADRATIC_FLOOR): the high modes decay like e^{-|k| r}, and their far-field
tails multiplied together would run through the subnormal range, where
every product costs a microcode assist on x86.  A product of two parts at or
above the floor is a normal double.  The iterate, its norms and distances,
the linear couplings and the mode solves read every part as it is.

Lockstep: one loop steps P problems that share the grid, nu, K, the forcing
and the loop settings and may differ in mu and the boundary data.  Their
iterates stack along a leading problem axis (FourierField data
(P, 3, K+1, 3, n)), so a step runs one assembly and one solve for all of
them: the elementwise work broadcasts over that axis, the convolutions take
(2K+1, P, n) stacks, and each scan reads the one cached plan of its rates
for every problem.  Norms, distances, the non-finite check and the stopping
rules stay per problem.  A step runs at one band for all of them, so their
data must reach the same highest mode (no data and data on mode 0 alone
agree: both solve the zero modes only).  A problem retires when it
converges, fails or reaches max_iters, and the rest go on.  picard_solve
is the one-problem call of that loop and nonuniqueness_pair the
two-problem one; every problem keeps the bits and the iteration count of
its own picard_solve, and a failure raises what the problems solved one
after the other would raise.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError, NumericError
from .fourier import (
    COMPONENTS,
    BoundaryData,
    ForcingData,
    FourierField,
    bnorm,
    convolve_product,
    convolution_tail_norm,
    enorm,
    vnorm,
)
from .modes import MeridionalStacks, solve_linear_system
from .radial import RadialGrid

__all__ = [
    "TauInfo",
    "compute_tau",
    "RhsAssembly",
    "assemble_rhs",
    "IterationState",
    "SolutionBundle",
    "picard_solve",
    "check_iteration_settings",
    "nonuniqueness_pair",
    "SeparationReport",
]


@dataclass(frozen=True)
class TauInfo:
    tau: float
    lambda_bar_theta: float
    lambda_bar_z: float


def compute_tau(nu: float, lambda_theta: float, lambda_z: float,
                lambda_: float) -> TauInfo:
    """Decay index of the solution space from the data decay exponents."""
    if not (np.isfinite(nu) and nu < 0):
        raise ConfigError("hypothesis violated: a finite nu < 0 is "
                          "required (boundary sink strength)")
    if not (lambda_theta > 3.0 and lambda_z > 2.0 and lambda_ > 1.5):
        raise ConfigError(
            "data space hypotheses violated: need lambda_theta > 3, "
            "lambda_z > 2, lambda > 3/2")
    if nu < -2.0:
        lam_th_bar = min(lambda_theta, 2.0 - 0.5 * nu)
    else:
        lam_th_bar = lambda_theta
    lam_z_bar = min(lambda_z, 2.0 - 0.5 * nu)
    tau = min(lam_th_bar - 3.0, lam_z_bar - 2.0, lambda_ - 1.5)
    if tau <= 0.0:
        raise ConfigError(
            f"decay exponents give non-positive solution index tau = {tau}")
    return TauInfo(tau, lam_th_bar, lam_z_bar)


# the quadratic term reads iterate parts below this as zero: the product of
# two parts at or above it is at least 2^-1022, the smallest normal double
QUADRATIC_FLOOR = 2.0 ** -511


@dataclass
class RhsAssembly:
    """Per-mode forcing arrays for k >= 0 plus bookkeeping.

    rhs is the (3, K+1, n) forcing f_{c,k} of the components c of
    COMPONENTS (r, theta, z) and k = 0..K, as solve_linear_system takes it;
    absorbed_fr0 is the audit copy of the zero radial mode (quadratics +
    sigma and rotation couplings + external forcing) that the solver drops
    into the pressure, whose row rhs[0, 0] is zero.  For a stack of P
    problems rhs is (P, 3, K+1, n), absorbed_fr0 (P, n) and
    convolution_tail a tuple of P floats.
    """

    rhs: np.ndarray
    absorbed_fr0: np.ndarray
    absorbed_fr0_decay: float
    convolution_tail: float


def assemble_rhs(vbar: FourierField, forcing: ForcingData, mu: float,
                 nu: float, forcing_samples: Optional[np.ndarray] = None,
                 band: Optional[int] = None) -> RhsAssembly:
    """Quadratic + external forcing for one linearized solve.

    forcing_samples is forcing.sample_stack(K, r); picard_solve samples it
    once per solve, and it is sampled here when not given.  Only the
    products a solve reads are formed: rows 0..K of each, plus the
    discarded rows K+1..2K of the two that the convolution_tail diagnostic
    reads.

    vbar may stack P problems (see FourierField) with mu a sequence of P
    rates; every product is then formed for all of them at once, on
    (rows, P, n) stacks, and the result stacks them too (see RhsAssembly).
    The convolution tail is reduced per problem.

    band B (-1..K) is the highest |k| at which vbar may be nonzero; None
    means K, so a field built or edited by hand is never taken as narrow.
    The products of a band-B iterate vanish above 2B, so only modes -B..B
    are convolved and only rows up to 2B formed (convolve_product); the
    rows above keep the forcing as it is, which is what -(+0) + f gives.
    The zero iterate has B = -1 and convolves nothing.

    The products read a copy of the values and first derivatives of the
    modes -B..B in which every real or imaginary part below
    QUADRATIC_FLOOR = 2^-511 in magnitude is zero; NaN and inf are kept.
    A product of two kept parts is at least 2^-1022, so none is subnormal
    (see the module docstring), and each product dropped is below 2^-511
    times a part of the other factor.  vbar itself and the swirl that the
    linear sigma and mu couplings read are not floored.
    """
    grid = vbar.grid
    r = grid.nodes
    k_max = vbar.k_max
    single = vbar.data.ndim == 4
    if single:  # the stack of one problem
        vbar = FourierField(grid, vbar.data[None],
                            None if vbar.sigma is None else np.array([vbar.sigma]),
                            vbar.has_derivatives)
        mu = (mu,)
    problems = len(vbar.data)
    mu = np.asarray(mu, dtype=float)[:, None]
    with_sigma = -2.0 <= nu < 0.0
    sigma_bar = (np.asarray(vbar.sigma, dtype=float)
                 if (with_sigma and vbar.sigma is not None)
                 else np.zeros(problems))
    # squared by pow() one problem at a time: an array's ** 2 multiplies,
    # which can round differently in the last bit
    sigma_sq = np.array([float(s) ** 2 for s in sigma_bar])[:, None]
    if forcing_samples is None:
        forcing_samples = forcing.sample_stack(k_max, r)

    # the products read the modes -B..B only: stack those, (2B+1, P, n)
    reach = max(k_max if band is None else band, 0)
    parts = vbar.data[..., :reach + 1, :2, :]  # orders 0 and 1
    if band != -1:  # the zero iterate convolves nothing
        # a copy with every real or imaginary part below the floor zeroed;
        # NaN (times False) and inf (times True) stay as they are
        flat = parts.view(float)
        parts = (flat * (np.abs(flat) >= QUADRATIC_FLOOR)).view(complex)
    modes = FourierField(grid, parts, has_derivatives=vbar.has_derivatives)
    vr, vth, vz = (modes.stack(c) for c in COMPONENTS)
    il = 1j * np.arange(-reach, reach + 1)[:, None, None]

    def conv(a, b, with_tail=False):
        return convolve_product(a, b, k_max, with_tail, band)

    # the derivative stacks and il-products are formed where they are read,
    # so no more than one of them is held at a time
    adv_th = conv(vr, modes.stack("theta", 1), with_tail=True)
    rot_th = conv(vz, il * vth)
    str_th = conv(vr, vth)
    adv_z = conv(vr, modes.stack("z", 1))
    rot_z = conv(vz, il * vz)
    adv_r = conv(vr, modes.stack("r", 1))
    rot_r = conv(vz, il * vr)
    cen_r = conv(vth, vth, with_tail=True)
    swirl = vbar.data[:, COMPONENTS.index("theta"), :, 0].swapaxes(0, 1)

    kept = slice(0, len(rot_th))  # rows 0..min(K, 2B)
    rhs = np.empty((problems, len(COMPONENTS), k_max + 1, len(grid)),
                   dtype=complex)
    rhs[:, :, kept.stop:] = forcing_samples[:, kept.stop:]
    f_r, f_th, f_z = rhs.transpose(1, 2, 0, 3)  # (K+1, P, n) views
    s_r, s_th, s_z = forcing_samples[:, kept, None]
    np.add(-(adv_r + rot_r - cen_r[kept] / r), s_r, out=f_r[kept])
    np.add(-(adv_th[kept] + rot_th + str_th / r), s_th, out=f_th[kept])
    np.add(-(adv_z + rot_z), s_z, out=f_z[kept])
    if with_sigma:
        f_r += 2.0 * sigma_bar[:, None] * swirl / r ** 2

    # absorb the zero radial mode into the pressure; audit the full profile,
    # including the pieces the split representation keeps implicit
    absorbed = f_r[0] + sigma_sq / r ** 3 \
        + 2.0 * mu * (swirl[0] + sigma_bar[:, None] / r) / r ** 2
    f_r[0] = 0.0
    absorbed_decay = min(3.0, forcing.decay("r", 0))

    tails = tuple(max(convolution_tail_norm(adv_th[:, p], k_max),
                      convolution_tail_norm(cen_r[:, p], k_max))
                  for p in range(problems))
    if single:
        return RhsAssembly(rhs=rhs[0], absorbed_fr0=absorbed[0],
                           absorbed_fr0_decay=absorbed_decay,
                           convolution_tail=tails[0])
    return RhsAssembly(rhs=rhs, absorbed_fr0=absorbed,
                       absorbed_fr0_decay=absorbed_decay,
                       convolution_tail=tails)


@dataclass
class IterationState:
    v_current: FourierField
    iterations: int = 0
    diff_norm_history: List[float] = field(default_factory=list)
    contraction_estimate: float = float("nan")

    def update_contraction(self):
        h = self.diff_norm_history
        ratios = [h[i + 1] / h[i] for i in range(len(h) - 1) if h[i] > 0]
        if not ratios:
            return
        last = ratios[-3:]
        if min(last) == 0.0:  # an exact fixed point was hit
            self.contraction_estimate = 0.0
        else:
            self.contraction_estimate = float(np.exp(np.mean(np.log(last))))


@dataclass
class SolutionBundle:
    v: FourierField
    nu: float
    mu: float
    tau: TauInfo
    norms: Dict[str, float]
    converged: bool
    iterations: int
    diff_history: List[float]
    contraction_estimate: float
    c_emp: float
    forcing: ForcingData
    boundary: BoundaryData
    rhs_final: Optional[RhsAssembly] = None
    residual_report: Optional[object] = None
    meridional: Optional[MeridionalStacks] = None  # w, phi of modes 1..K

    @property
    def sigma(self) -> Optional[float]:
        return self.v.sigma


SMALLNESS_WARN = 0.25


def check_iteration_settings(tol: float, max_iters: int,
                             relaxation: float) -> None:
    """Reject Picard loop settings outside their bounds (ConfigError)."""
    if not (0.0 < relaxation <= 1.0):
        raise ConfigError("relaxation must lie in (0, 1]")
    if not (np.isfinite(tol) and tol > 0.0):
        raise ConfigError("tol_picard (tol) must be finite and > 0")
    if not (isinstance(max_iters, numbers.Integral) and max_iters >= 1):
        raise ConfigError("max_iters must be an integer >= 1")


def picard_solve(grid: RadialGrid, nu: float, mu: float, k_max: int,
                 forcing: ForcingData, boundary: BoundaryData,
                 tol: float = 1e-10, max_iters: int = 25,
                 relaxation: float = 1.0) -> SolutionBundle:
    """Fixed-point construction of the reduced solution, starting from 0.

    Each step assembles the quadratic forcing from the current iterate and
    re-solves every linear mode; convergence is declared when consecutive
    iterates are closer than tol in the tau-weighted norm.  Distances growing
    three steps in a row abort with a diagnostic; a non-finite distance
    raises NumericError naming the first non-finite block; hitting max_iters
    returns the partial result flagged as unconverged.  Settings out of
    bounds, a truncation k_max that is not an integer >= 0 and a non-finite
    nu or mu raise ConfigError.  The one-problem case of the lockstep loop
    that nonuniqueness_pair runs.
    """
    return _lockstep(grid, nu, (mu,), k_max, forcing, (boundary,), tol,
                     max_iters, relaxation)[0]


def _lockstep(grid: RadialGrid, nu: float, mus, k_max: int,
              forcing: ForcingData, boundaries, tol: float = 1e-10,
              max_iters: int = 25,
              relaxation: float = 1.0) -> List[SolutionBundle]:
    """picard_solve of P problems at once, the p-th at (mus[p],
    boundaries[p]), returning their P bundles.

    Each step assembles and solves every active problem as one stack at one
    band (see the module docstring; data reaching different highest modes
    are a DomainError); norms, distances and the stopping rules are applied
    per problem.  A problem retires when it converges, fails or reaches
    max_iters, and the others go on.  When one fails, its error is raised
    once every problem before it has finished, unless one of those fails
    too: the lowest-index failure wins, as if the problems ran one after
    the other.  Each bundle has the bits of the problem's solve alone.
    """
    check_iteration_settings(tol, max_iters, relaxation)
    if not (isinstance(k_max, numbers.Integral) and k_max >= 0):
        raise ConfigError(f"k_max must be an integer >= 0, got {k_max!r}")
    if not all(np.isfinite(mu) for mu in mus):
        raise ConfigError("mu must be finite")
    tau = compute_tau(nu, forcing.lambda_theta, forcing.lambda_z,
                      forcing.lambda_)
    e_norm = enorm(forcing, grid)
    v_norms = [vnorm(b) for b in boundaries]
    data_norms = [e_norm + v for v in v_norms]
    for data_norm in data_norms:
        if data_norm > SMALLNESS_WARN:
            warnings.warn(
                f"data norm {data_norm:.3g} is large; the contraction "
                "argument only holds for small data -- iteration may diverge",
                RuntimeWarning, stacklevel=3)
    # the highest |k| of each problem's data (-1 for none)
    tops = [max({abs(k) for k in b.k_support() + forcing.k_support()},
                default=-1) for b in boundaries]
    data_band = max(tops)
    if data_band > k_max:
        raise ConfigError(f"data excite mode {data_band} beyond the "
                          f"truncation {k_max}")
    # every problem solves its zero modes, so bands -1 and 0 agree
    if len({max(top, 0) for top in tops}) > 1:
        raise DomainError("problems stepped in lockstep must reach the same "
                          f"highest mode; their data reach {tops}")

    with_sigma = -2.0 <= nu < 0.0
    states = [IterationState(FourierField.zero(grid, k_max, with_sigma))
              for _ in mus]
    decays = {("theta", 0): min(forcing.lambda_theta, 3.0 + 2.0 * tau.tau),
              ("z", 0): min(forcing.lambda_z, 3.0 + 2.0 * tau.tau),
              "nonzero": min(forcing.lambda_, 3.0 + 2.0 * tau.tau)}
    # the forcing does not depend on the iterate: sample it once per solve
    samples = forcing.sample_stack(k_max, grid.nodes)
    samples.setflags(write=False)
    converged = [False] * len(mus)
    finals = [(None, None)] * len(mus)  # (RhsAssembly, MeridionalStacks)
    errors = {}
    # the highest |k| the iterates can reach: the quadratic term at most
    # doubles it, the data add theirs (the zero iterate has none)
    band = -1
    active = list(range(len(mus)))
    v = FourierField(grid, np.zeros((len(mus),) + states[0].v_current.data.shape,
                                    dtype=complex),
                     np.zeros(len(mus)) if with_sigma else None)
    for it in range(1, max_iters + 1):
        step_mus = [mus[p] for p in active]
        rhs = assemble_rhs(v, forcing, step_mus, nu, samples, band)
        band = min(k_max, max(2 * band, data_band))
        v_new, merid = solve_linear_system(
            grid, nu, step_mus, k_max, rhs.rhs, decays,
            [boundaries[p] for p in active], band)
        going = []
        for i, p in enumerate(active):
            state = states[p]
            v_p = FourierField(grid, v_new.data[i], None if v_new.sigma is None
                               else float(v_new.sigma[i]))
            if relaxation != 1.0:
                # one problem at a time, as its own solve blends: blend
                # turns a -0 sigma +0, which a blend of the stack would not
                v_p = state.v_current.blend(v_p, relaxation)
                v_new.data[i] = v_p.data
                if with_sigma:
                    v_new.sigma[i] = v_p.sigma
            diff = bnorm(v_p - state.v_current, tau.tau)
            if not np.isfinite(diff):
                errors[p] = NumericError(
                    f"Picard iterate {it} is not finite: first at "
                    f"{_first_non_finite(v_p)}")
                continue
            state.v_current = v_p
            state.iterations = it
            state.diff_norm_history.append(diff)
            state.update_contraction()
            if diff <= tol or it == max_iters:  # what its bundle reports
                finals[p] = (RhsAssembly(rhs.rhs[i], rhs.absorbed_fr0[i],
                                         rhs.absorbed_fr0_decay,
                                         rhs.convolution_tail[i]),
                             MeridionalStacks(w=merid.w[i], phi=merid.phi[i]))
            if diff <= tol:
                converged[p] = True
                continue
            h = state.diff_norm_history
            if len(h) >= 4 and h[-1] > h[-2] > h[-3] > h[-4]:
                errors[p] = ConvergenceError(
                    f"Picard iteration diverging: distances {h[-4:]} "
                    f"(data norm {data_norms[p]:.3g})", state=state)
                continue
            going.append(i)
        # a problem after a failed one would never be reported
        going = [i for i in going if active[i] < min(errors, default=len(mus))]
        if not going:
            break
        v = v_new
        if len(going) < len(active):
            v = FourierField(grid, v_new.data[going],
                             None if v_new.sigma is None else v_new.sigma[going])
        active = [active[i] for i in going]
    if errors:
        raise errors[min(errors)]

    bundles = []
    for p, state in enumerate(states):
        v = state.v_current
        b_norm = bnorm(v, tau.tau)
        norms = {"V": v_norms[p], "E": e_norm, "B_tau": b_norm}
        c_emp = b_norm / data_norms[p] if data_norms[p] > 0 else 0.0
        bundles.append(SolutionBundle(
            v=v, nu=nu, mu=mus[p], tau=tau, norms=norms,
            converged=converged[p], iterations=state.iterations,
            diff_history=state.diff_norm_history,
            contraction_estimate=state.contraction_estimate, c_emp=c_emp,
            forcing=forcing, boundary=boundaries[p], rhs_final=finals[p][0],
            meridional=finals[p][1]))
    return bundles


def _first_non_finite(v: FourierField) -> str:
    """Name the first non-finite block of an iterate: sigma, then (component, k)."""
    if v.sigma is not None and not np.isfinite(v.sigma):
        return "sigma"
    for k in range(v.k_max + 1):
        for comp in COMPONENTS:
            p = v.profile(comp, k)
            if not all(np.all(np.isfinite(a)) for a in (p.values, p.d1, p.d2)
                       if a is not None):
                return f"({comp}, {k})"
    return "no single mode (the norm overflowed)"


@dataclass
class SeparationReport:
    """r (u_theta - u_theta~) over the outer decade, z-averaged.

    limit_estimate is the value at r_max.  For nu < -2 the separation
    approaches its limit like r^{nu+2} (the zero swirl mode's homogeneous
    solution r^{nu+1} carries the boundary shift), so the least-squares fit
    sep(r) ~ fitted_limit + fitted_coefficient r^{nu+2} over the decade
    removes that bias; fit_residual is the fit's max deviation there.
    """

    radii: np.ndarray
    values: np.ndarray
    limit_estimate: float
    delta_mu: float
    bundle_distance: float
    fitted_limit: float
    fitted_coefficient: float
    fit_residual: float


def nonuniqueness_pair(grid: RadialGrid, nu: float, mu: float, k_max: int,
                       forcing: ForcingData, boundary: BoundaryData,
                       delta_mu: float, **picard_kwargs):
    """Two solutions of the same boundary-value problem for nu < -2.

    The second run perturbs the background rotation rate to mu + delta_mu and
    compensates on the boundary (swirl mean shifted by -delta_mu), so both
    velocity fields satisfy identical boundary conditions; their swirl
    components differ in the r^{-1} coefficient by mu - mu~ = -delta_mu.
    The two solves step in lockstep on the grid (picard_kwargs are
    picard_solve's settings); each keeps the bits of its own picard_solve.
    """
    if nu >= -2.0:
        raise ConfigError(
            "the non-uniqueness construction requires nu < -2 (whether the "
            "problem is non-unique for nu >= -2 is open)")
    if not np.isfinite(delta_mu):
        raise ConfigError(f"delta_mu must be finite, got {delta_mu!r}")
    shifted = boundary.shifted_swirl_mean(-delta_mu)
    first, second = _lockstep(grid, nu, (mu, mu + delta_mu), k_max, forcing,
                              (boundary, shifted), **picard_kwargs)

    mask = grid.last_decade_mask()
    r = grid.nodes[mask]
    # z-average of u_theta is the zero swirl mode plus the background
    u1 = np.real(first.v.profile("theta", 0).values[mask]) + mu / r
    u2 = np.real(second.v.profile("theta", 0).values[mask]) + (mu + delta_mu) / r
    sep = r * (u1 - u2)
    dist = bnorm(first.v - second.v, first.tau.tau)
    basis = np.stack([np.ones_like(r), r ** (nu + 2.0)], axis=1)
    (limit, coefficient), *_ = np.linalg.lstsq(basis, sep, rcond=None)
    report = SeparationReport(
        radii=r, values=sep, limit_estimate=float(sep[-1]), delta_mu=delta_mu,
        bundle_distance=dist, fitted_limit=float(limit),
        fitted_coefficient=float(coefficient),
        fit_residual=float(np.max(np.abs(sep - basis @ (limit, coefficient)))))
    return first, second, report
