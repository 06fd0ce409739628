"""Spectral solver for the axisymmetric stationary Navier-Stokes equations
in the exterior periodic cylinder (r >= 1, z in the 2 pi torus).

The flow is split into the exact scale-critical background
(nu/r) e_r + (mu/r) e_theta and a reduced perturbation built per Fourier
mode in z from explicit Green's-function representations: Euler-type kernels
for the zero mode, modified-Bessel kernels for all others, with the
meridional pair recovered through a stream-function/vorticity closure.  A
Picard fixed-point loop handles the quadratic coupling; for sink strengths
nu < -2 two distinct solutions of one boundary-value problem are produced by
perturbing the background rotation rate.
"""

from .bessel import (
    ScaledValue,
    bessel_i,
    bessel_i_prime,
    bessel_k,
    bessel_k_prime,
    kernel_I,
    kernel_I_derivs,
    kernel_K,
    kernel_K_derivs,
    wronskian_check,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    ExcylError,
    NumericError,
)
from .fourier import (
    BoundaryData,
    ForcingData,
    ForcingMode,
    FourierField,
    bnorm,
    convolve_product,
    enorm,
    synthesize,
    vnorm,
)
from .modes import (
    MeridionalModeSolution,
    ZeroModeSwirlSolution,
    has_sigma_tail,
    solve_linear_system,
    solve_meridional_mode,
    solve_swirl_mode,
    solve_zero_meridional,
    solve_zero_swirl,
)
from .picard import (
    SolutionBundle,
    TauInfo,
    assemble_rhs,
    compute_tau,
    nonuniqueness_pair,
    picard_solve,
)
from .radial import (
    RadialGrid,
    RadialProfile,
    exp_weighted_integrals,
    exp_weighted_prefix,
    exp_weighted_suffix,
    fd_bvp_solve,
    fd_meridional_solve,
    integrate_inner,
    integrate_outer,
    weighted_sup,
)
from .residuals import (ResidualReport, decay_fit, recover_pressure,
                        residual_asns)

__version__ = "0.1.0"
