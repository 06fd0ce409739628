"""Mode-solver tests: analytic solutions, FD-oracle equivalence, invariants."""

import numpy as np
import pytest

from excyl.bessel import kernel_I_derivs, kernel_K, kernel_K_derivs
from excyl.errors import DomainError, NumericError
from excyl.fourier import BoundaryData, FourierField
from excyl.modes import (
    solve_linear_system,
    solve_meridional_mode,
    solve_swirl_mode,
    solve_zero_meridional,
    solve_zero_swirl,
)
from excyl.picard import RhsAssembly, TauInfo
from excyl.radial import (RadialGrid, RadialProfile, fd_bvp_solve,
                          fd_meridional_solve, weighted_sup)
from excyl.residuals import recover_pressure

from oracles import assert_same_bits


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.graded(1024, 100.0, 2.0)


def _zeros(grid):
    return np.zeros(len(grid), dtype=complex)


def _no_forcing(grid, k_max):
    """solve_linear_system's (3, K+1, n) forcing, all zero."""
    return np.zeros((3, k_max + 1, len(grid)), dtype=complex)


def _decays(theta0=10.0, z0=10.0, nonzero=10.0):
    """A TauInfo that carries only the solve decays solve_linear_system reads."""
    return TauInfo(np.nan, np.nan, np.nan, theta0, z0, nonzero)


def _pressure(grid, k, nu, v_z, f_z, fr0=None, fr0_decay=10.0):
    """recover_pressure's modes 0..k for a field whose only mode is v_z at k,
    with vertical forcing f_z at k and absorbed zero radial forcing fr0."""
    field = FourierField.zero(grid, k, with_sigma=False)
    field.set_mode(k, "z", v_z)
    rhs = _no_forcing(grid, k)
    rhs[2, k] = f_z
    absorbed = _zeros(grid) if fr0 is None else fr0
    return recover_pressure(field, nu, RhsAssembly(rhs, absorbed, fr0_decay, 0.0))


# --- zero-mode swirl ----------------------------------------------------------


def test_zero_swirl_homogeneous_supercritical(grid):
    # nu=-3, f=0, g=1: decaying homogeneous branch r^{nu+1}
    sol = solve_zero_swirl(grid, -3.0, _zeros(grid), 1.0, 10.0)
    assert sol.sigma is None
    np.testing.assert_allclose(sol.v_regular.values, grid.nodes ** -2.0,
                               rtol=0, atol=1e-14)


def test_zero_swirl_sigma_tail(grid):
    # nu=-1, f=0, g=1: the whole solution is the 1/r tail
    sol = solve_zero_swirl(grid, -1.0, _zeros(grid), 1.0, 10.0)
    assert sol.sigma == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(sol.v_regular.values)) == 0.0


def test_zero_swirl_log_solution(grid):
    # nu=-3, f=s^-4, g=0 -> r^-2 ln r (verified by substitution in the ODE)
    sol = solve_zero_swirl(grid, -3.0, grid.nodes ** -4.0, 0.0, 4.0)
    exact = grid.nodes ** -2.0 * np.log(grid.nodes)
    assert np.max(np.abs(sol.v_regular.values - exact)) < 1e-8


def test_zero_swirl_nu_minus_two_included(grid):
    # the -2 <= nu < 0 branch owns the boundary case nu = -2
    sol = solve_zero_swirl(grid, -2.0, grid.nodes ** -5.0, 0.2, 5.0)
    assert sol.sigma is not None
    full = sol.v_regular.values + sol.sigma / grid.nodes
    assert full[0] == pytest.approx(0.2, abs=1e-12)


def test_zero_swirl_oracle_equivalence_subcritical():
    # -2 <= nu < 0 branch against the independent FD solve, order >= 1.9.
    # Exponential forcing keeps the remainder below the oracle's outer-closure
    # resolution, so the comparison sees only the discretization error.
    nu = -1.0
    errs = []
    for n in (512, 1024, 2048):
        g = RadialGrid.graded(n, 100.0, 2.0)
        f = np.exp(-(g.nodes - 1.0))
        sol = solve_zero_swirl(g, nu, f, 0.3, 10.0)
        assert sol.sigma != 0.0
        full = sol.v_regular.values + sol.sigma / g.nodes
        fd = fd_bvp_solve(g, lambda r: (1.0 - nu) / r,
                          lambda r: -(1.0 + nu) / r ** 2, 0.0, f, 0.3, 1.0)
        errs.append(np.max(np.abs(full - fd)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.9)


def test_zero_swirl_rejects_slow_decay(grid):
    with pytest.raises(NumericError):
        solve_zero_swirl(grid, -3.0, _zeros(grid), 0.0, 3.0)
    with pytest.raises(DomainError):
        solve_zero_swirl(grid, 0.5, _zeros(grid), 0.0, 5.0)


@pytest.mark.parametrize("nu", [np.nan, -np.inf])
@pytest.mark.parametrize("solve", [solve_zero_swirl, solve_zero_meridional])
def test_zero_modes_reject_a_non_finite_nu(grid, solve, nu):
    # NaN and -inf are no sink strength: refused, not solved into
    # non-finite profiles
    with pytest.raises(DomainError, match="must be finite"):
        solve(grid, nu, grid.nodes ** -6.0, 1e-3, 6.0)
    # nor is a NaN decay exponent a decay rate to solve with
    with pytest.raises(NumericError, match="must decay faster"):
        solve(grid, -1.0, grid.nodes ** -6.0, 1e-3, np.nan)


def test_solved_norm_stable_under_refinement():
    # weighted sup of the solved subcritical swirl: finite and moving by
    # less than 1% between N and 2N
    vals = []
    for n in (1024, 2048):
        g = RadialGrid.graded(n, 100.0, 2.0)
        sol = solve_zero_swirl(g, -1.0, g.nodes ** -4.0, 0.3, 4.0)
        vals.append(weighted_sup(sol.v_regular.values, g, 1.5))
    assert np.isfinite(vals[0])
    assert abs(vals[0] - vals[1]) <= 0.01 * abs(vals[1])


def test_linear_only_slow_decay_allowed(grid):
    # decay in (1, 3/2] is enough for the mode integrals themselves; only the
    # nonlinear construction demands more (enforced at the data-space level)
    f = (grid.nodes ** -1.2).astype(complex)
    prof = solve_swirl_mode(grid, 2, -1.0, f, 0.0, 1.2)
    fd = fd_bvp_solve(grid, lambda r: 2.0 / r, lambda r: 0.0 * r, 4.0,
                      f, 0.0, 1.2)
    assert np.max(np.abs(prof.values - fd)) < 1e-5


# --- zero-mode meridional -----------------------------------------------------


def test_zero_meridional_homogeneous(grid):
    for nu in (-0.5, -1.0, -2.7):
        v_z = solve_zero_meridional(grid, nu, _zeros(grid), 1.0, 10.0)
        np.testing.assert_allclose(v_z.values, grid.nodes ** nu, rtol=0, atol=1e-13)


def test_zero_meridional_trivial(grid):
    v_z = solve_zero_meridional(grid, -1.0, _zeros(grid), 0.0, 10.0)
    assert np.max(np.abs(v_z.values)) == 0.0


def test_zero_meridional_log_solution(grid):
    # nu=-1, f=s^-3, g=0 -> ln r / r; confirms -(v'' + 2 v'/r) = r^-3
    v_z = solve_zero_meridional(grid, -1.0, grid.nodes ** -3.0, 0.0, 3.0)
    exact = np.log(grid.nodes) / grid.nodes
    assert np.max(np.abs(v_z.values - exact)) < 1e-8


def test_zero_meridional_oracle_equivalence():
    nu = -1.0
    errs = []
    for n in (512, 1024, 2048):
        g = RadialGrid.graded(n, 100.0, 2.0)
        f = g.nodes ** -3.0
        v_z = solve_zero_meridional(g, nu, f, 0.0, 3.0)
        fd = fd_bvp_solve(g, lambda r: (1.0 - nu) / r, lambda r: 0.0 * r,
                          0.0, f, 0.0, 1.0)
        errs.append(np.max(np.abs(v_z.values - fd)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.9)


# --- nonzero-mode swirl ---------------------------------------------------------


def test_swirl_mode_homogeneous(grid):
    # f=0, g=c: c K_k(r)/K_k(1), evaluated through the scaled kernels
    k, nu, c = 2, -1.0, 0.3 + 0.1j
    prof = solve_swirl_mode(grid, k, nu, _zeros(grid), c, 10.0)
    kk = kernel_K(k, nu, grid.nodes)
    want = c * kk.mantissa * np.exp(kk.exp_shift - kk.exp_shift[0]) / kk.mantissa[0]
    np.testing.assert_allclose(prof.values, want, rtol=0, atol=1e-13)
    assert prof.values[0] == pytest.approx(c, abs=1e-13)


def test_swirl_mode_trivial(grid):
    prof = solve_swirl_mode(grid, 1, -2.0, _zeros(grid), 0.0, 10.0)
    assert np.max(np.abs(prof.values)) == 0.0


def test_swirl_mode_oracle_equivalence():
    k, nu = 1, -2.0
    errs = []
    for n in (512, 1024, 2048):
        g = RadialGrid.graded(n, 100.0, 2.0)
        f = g.nodes ** -2.0 * np.exp(-(g.nodes - 1.0))
        prof = solve_swirl_mode(g, k, nu, f, 0.0, 10.0)
        fd = fd_bvp_solve(g, lambda r: (1.0 - nu) / r,
                          lambda r: -(1.0 + nu) / r ** 2, float(k * k), f, 0.0, 2.0)
        errs.append(np.max(np.abs(prof.values - fd)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert errs[-1] < 1e-5
    assert np.all(orders > 1.9)


def test_swirl_mode_large_k_no_overflow(grid):
    # |k| r_max = 4000: must evaluate without overflow and decay fast
    prof = solve_swirl_mode(grid, 40, -1.0, _zeros(grid), 1.0, 10.0)
    assert np.all(np.isfinite(prof.values))
    assert abs(prof.values[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(prof.values[len(grid) // 2]) < 1e-300 or \
        abs(prof.values[len(grid) // 2]) < abs(prof.values[0])


# --- linearity and substitution ---------------------------------------------


def test_solver_linearity(grid):
    nu = -1.5
    f1 = grid.nodes ** -4.0
    f2 = grid.nodes ** -5.0 * (1.0 + 0.5j)
    a, b = 2.0, -0.7 + 0.2j
    s1 = solve_swirl_mode(grid, 1, nu, f1, 0.1, 4.0)
    s2 = solve_swirl_mode(grid, 1, nu, f2, 0.3j, 5.0)
    s12 = solve_swirl_mode(grid, 1, nu, a * f1 + b * f2, a * 0.1 + b * 0.3j, 4.0)
    np.testing.assert_allclose(s12.values, a * s1.values + b * s2.values,
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("nu,branch", [(-3.0, "super"), (-1.0, "sub")])
def test_zero_swirl_ode_substitution(grid, nu, branch):
    # independent check: 4th-order FD of the solver output must satisfy
    # -(v'' + (1-nu)/r v' - (1+nu)/r^2 v) = f on the interior
    r = grid.nodes
    f = r ** -4.5
    sol = solve_zero_swirl(grid, nu, f, 0.2, 4.5)
    vals = sol.v_regular.values + ((sol.sigma or 0.0) / r)
    d1 = grid.differentiate(vals, 1)
    d2 = grid.differentiate(vals, 2)
    res = -(d2 + (1.0 - nu) / r * d1 - (1.0 + nu) / r ** 2 * vals) - f
    inner = (r > 1.2) & (r < 50.0)
    assert np.max(np.abs(res[inner])) < 1e-6


def test_zero_meridional_ode_substitution(grid):
    # the representation carries the sign-corrected forcing terms; verify
    # -(v'' + (1-nu)/r v') = +f on the interior via independent FD
    nu = -2.2
    r = grid.nodes
    f = r ** -3.7
    v_z = solve_zero_meridional(grid, nu, f, 0.1, 3.7)
    d1 = grid.differentiate(v_z.values, 1)
    d2 = grid.differentiate(v_z.values, 2)
    res = -(d2 + (1.0 - nu) / r * d1) - f
    inner = (r > 1.2) & (r < 50.0)
    assert np.max(np.abs(res[inner])) < 1e-6


def test_analytic_derivatives_match_fd(grid):
    sol = solve_zero_swirl(grid, -1.3, grid.nodes ** -4.0, 0.5, 4.0)
    prof = sol.v_regular
    inner = (grid.nodes > 1.1) & (grid.nodes < 60.0)
    fd1 = grid.differentiate(prof.values, 1)
    np.testing.assert_allclose(prof.d1[inner], fd1[inner], rtol=1e-5, atol=1e-9)


# --- nonzero-mode meridional --------------------------------------------------


def test_meridional_trivial(grid):
    sol = solve_meridional_mode(grid, 2, -3.0, _zeros(grid), _zeros(grid),
                                0.0, 0.0, 10.0)
    for prof in (sol.v_r, sol.v_z, sol.w, sol.phi):
        assert np.max(np.abs(prof.values)) == 0.0


def test_meridional_pure_stream(grid):
    # data chosen so the vorticity closure returns w_bar = 0: the solution is
    # a pure stream mode phi = phi_bar K_1(|k| r); both boundary values must
    # still be reproduced and the mode must be divergence-free
    k, nu = 2, -3.0
    probe = solve_meridional_mode(grid, k, nu, _zeros(grid), _zeros(grid),
                                  1.0, 0.0, 10.0)
    a_k, b_k = probe.closure.A_k, probe.closure.B_k
    g_r = 0.02 + 0.01j
    g_z = -a_k * g_r / b_k
    sol = solve_meridional_mode(grid, k, nu, _zeros(grid), _zeros(grid),
                                g_r, g_z, 10.0)
    assert abs(sol.w_bar) < 1e-12 * max(abs(g_r), 1.0)
    assert np.max(np.abs(sol.w.values)) < 1e-14
    assert abs(sol.v_r.values[0] - g_r) < 1e-12
    assert abs(sol.v_z.values[0] - g_z) < 1e-12
    div = 1j * k * sol.v_z.values + sol.v_r.d1 + sol.v_r.values / grid.nodes
    assert np.max(np.abs(div)) < 1e-12


@pytest.mark.parametrize("k", [3, 40])
def test_meridional_boundary_exactness(grid, k):
    # forced case: boundary interpolation survives the closure quadrature;
    # at k = 40, |k| r_max = 4000, so the e^{+-|k|r} factors of kernels and
    # integrals must cancel exactly through the meridional path
    nu = -1.0
    f_r = (grid.nodes ** -2.0 * np.exp(-(grid.nodes - 1.0))).astype(complex)
    f_z = (0.3j * grid.nodes ** -3.0).astype(complex)
    g_r, g_z = 0.05 - 0.02j, 0.01 + 0.04j
    sol = solve_meridional_mode(grid, k, nu, f_r, f_z, g_r, g_z, 10.0)
    assert abs(sol.v_r.values[0] - g_r) < 1e-10
    assert abs(sol.v_z.values[0] - g_z) < 1e-10
    div = 1j * k * sol.v_z.values + sol.v_r.d1 + sol.v_r.values / grid.nodes
    assert np.max(np.abs(div)) < 1e-12


def test_meridional_oracle_equivalence():
    # k=2, nu=-3 forced case against the coupled FD oracle, order >= 1.9
    k, nu = 2, -3.0
    errs = []
    for n in (512, 1024, 2048):
        g = RadialGrid.graded(n, 100.0, 2.0)
        f_r = (g.nodes ** -2.0 * np.exp(-(g.nodes - 1.0))).astype(complex)
        big_f = 1j * k * f_r
        sol = solve_meridional_mode(g, k, nu, f_r, np.zeros(len(g), complex),
                                    0.0, 0.0, 10.0)
        phi, w, v_r, v_z = fd_meridional_solve(g, k, nu, big_f, 0.0, 0.0, 2.5)
        errs.append(np.max(np.abs(v_r - sol.v_r.values))
                    + np.max(np.abs(v_z - sol.v_z.values)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.9)


def test_meridional_stream_equation_residual(grid):
    # -(phi'' + phi'/r - k^2 phi - phi/r^2) = w via independent FD
    k, nu = 2, -3.0
    r = grid.nodes
    f_r = (r ** -2.0 * np.exp(-(r - 1.0))).astype(complex)
    sol = solve_meridional_mode(grid, k, nu, f_r, _zeros(grid), 0.1, 0.2j, 10.0)
    d1 = grid.differentiate(sol.phi.values, 1)
    d2 = grid.differentiate(sol.phi.values, 2)
    res = -(d2 + d1 / r - (k * k + 1.0 / r ** 2) * sol.phi.values) - sol.w.values
    inner = (r > 1.2) & (r < 50.0)
    assert np.max(np.abs(res[inner])) < 1e-6


# --- pressure recovery --------------------------------------------------------


def test_pressure_zero_for_zero_solution(grid):
    prof = RadialProfile.zero(grid)
    p = _pressure(grid, 1, -1.0, prof, _zeros(grid))
    assert np.max(np.abs(p[1])) == 0.0


def test_pressure_manufactured_mode(grid):
    # manufactured (v_z, pi): pushing them through the vertical momentum
    # equation and recovering must return pi exactly (algebraic identity)
    k, nu = 1, -1.0
    r = grid.nodes
    v = np.exp(-(r - 1.0))
    d1 = -v
    d2 = v
    pi_star = r ** -2.0
    f_z = -(d2 + (1.0 - nu) / r * d1 - k * k * v) + 1j * k * pi_star
    prof = RadialProfile(grid, v.astype(complex), d1.astype(complex),
                         d2.astype(complex))
    p = _pressure(grid, k, nu, prof, f_z)
    np.testing.assert_allclose(p[k], pi_star, rtol=1e-12, atol=1e-14)


def test_pressure_zero_mode_integrates_inward(grid):
    # pi_0' = f_{r,0}: with f = -2 s^-3 the zero-mode pressure is r^-2
    f = -2.0 * grid.nodes ** -3.0
    p = _pressure(grid, 0, -1.0, RadialProfile.zero(grid), _zeros(grid), f, 3.0)
    np.testing.assert_allclose(p[0], grid.nodes ** -2.0, rtol=1e-6)


def test_pressure_radial_momentum_residual(grid):
    # pure-stream solution, f=0: recovered pi closes the radial momentum
    # equation -(v_r'' + (1-nu)/r v_r' - ((1-nu)/r^2 + k^2) v_r) + pi' = 0
    k, nu = 2, -3.0
    probe = solve_meridional_mode(grid, k, nu, _zeros(grid), _zeros(grid),
                                  1.0, 0.0, 10.0)
    g_r = 0.02 + 0.01j
    g_z = -probe.closure.A_k * g_r / probe.closure.B_k
    sol = solve_meridional_mode(grid, k, nu, _zeros(grid), _zeros(grid),
                                g_r, g_z, 10.0)
    p = _pressure(grid, k, nu, sol.v_z, _zeros(grid))
    r = grid.nodes
    dp = grid.differentiate(p[k], 1)
    res = -(sol.v_r.d2 + (1.0 - nu) / r * sol.v_r.d1
            - ((1.0 - nu) / r ** 2 + k * k) * sol.v_r.values) + dp
    inner = (r > 1.2) & (r < 50.0)
    assert np.max(np.abs(res[inner])) < 1e-6


# --- driver -------------------------------------------------------------------


def test_driver_mirrors_and_couples(grid):
    boundary = BoundaryData(g_theta={1: 1e-2}, g_r={1: 5e-3}, g_z={1: -2e-3j})
    rhs = _no_forcing(grid, 2)
    decays = _decays()
    field, merid = solve_linear_system(grid, -1.0, 2.0, 2, rhs, decays,
                                       boundary)
    # continuity ik v_z + v_r' + v_r/r of every mode k = 0..2
    vr, d1, vz = field.data[0, :, 0], field.data[0, :, 1], field.data[2, :, 0]
    ik = 1j * np.arange(field.k_max + 1)[:, None]
    assert np.max(np.abs(ik * vz + d1 + vr / grid.nodes)) < 1e-10
    assert field.sigma == pytest.approx(0.0)
    # rotation coupling: mu != 0 feeds the swirl into v_r even with g_r = 0
    boundary2 = BoundaryData(g_theta={1: 1e-2})
    field0, _ = solve_linear_system(grid, -1.0, 0.0, 2, rhs, decays,
                                    boundary2)
    field2, _ = solve_linear_system(grid, -1.0, 2.0, 2, rhs, decays,
                                    boundary2)
    v_r_nomu = np.max(np.abs(field0.profile("r", 1).values))
    v_r_mu = np.max(np.abs(field2.profile("r", 1).values))
    assert v_r_nomu < 1e-16
    assert v_r_mu > 1e-8


def test_driver_rows_equal_single_mode_solves(grid):
    # the stacked driver and the public one-mode solvers share one core:
    # every row is bitwise equal, with forcing on every mode and mu != 0
    r = grid.nodes
    k_max, nu, mu, lam = 3, -1.5, 2.0, 10.0
    rhs = _no_forcing(grid, k_max)  # rows r, theta, z
    for k in range(k_max + 1):
        rhs[1, k] = (1e-4 + 2e-5j * k) * r ** -6.0
        rhs[0, k] = (3e-5 - 1e-5j) * r ** -5.0 * np.exp(-0.1 * k * (r - 1.0))
        rhs[2, k] = -2e-5j * (k + 1) * r ** -7.0
    boundary = BoundaryData(g_theta={1: 1e-3, 3: 2e-4j}, g_r={2: 5e-4},
                            g_z={1: -3e-4j, 2: 1e-4})
    decays = _decays(6.0, 7.0, lam)
    field, merid = solve_linear_system(grid, nu, mu, k_max, rhs, decays,
                                       boundary)
    assert merid.w.shape == merid.phi.shape == (k_max, len(grid))
    for k in range(1, k_max + 1):
        swirl = solve_swirl_mode(grid, k, nu, rhs[1, k],
                                 boundary.coefficient("theta", k), lam)
        f_r = rhs[0, k] + (2.0 * mu / r ** 2) * swirl.values
        single = solve_meridional_mode(grid, k, nu, f_r, rhs[2, k],
                                       boundary.coefficient("r", k),
                                       boundary.coefficient("z", k), lam)
        for comp, prof in (("theta", swirl), ("r", single.v_r),
                           ("z", single.v_z)):
            got = field.profile(comp, k)
            for d in ("values", "d1", "d2"):
                assert np.array_equal(getattr(got, d), getattr(prof, d)), \
                    (comp, k, d)
        assert np.array_equal(merid.w[k - 1], single.w.values)
        assert np.array_equal(merid.phi[k - 1], single.phi.values)


# --- per-grid kernel cache ----------------------------------------------------


def _stack_entries(grid):
    """The stacked per-(modes, nu) caches of the swirl and meridional solves."""
    return {key: val for key, val in grid._cache.items()
            if key[0] in ("swirlstack", "meridionalstack")}


# the kernel mantissas of each stack: (name of its rows, kind, K or I side)
_STACK_KERNELS = {
    "swirlstack": [("K", "swirl", kernel_K_derivs),
                   ("I", "swirl", kernel_I_derivs)],
    "meridionalstack": [("V", "vorticity", kernel_K_derivs),
                        ("J", "vorticity", kernel_I_derivs),
                        ("S", "stream", kernel_K_derivs),
                        ("T", "stream", kernel_I_derivs)],
}


def _stacked_kernels(key, stack):
    """(derivs, kind, [mantissa stack of G, G', (G'')]) of a cached stack."""
    for name, kind, derivs in _STACK_KERNELS[key[0]]:
        orders = 2 if kind == "vorticity" else 3
        yield derivs, kind, [getattr(stack, f"{name}{j}")
                             for j in range(orders)]


def test_kernel_cache_is_per_grid():
    g60 = RadialGrid.graded(128, 60.0, 2.0)
    g80 = RadialGrid.graded(128, 80.0, 2.0)
    solve_swirl_mode(g60, 1, -1.0, _zeros(g60), 1.0, 10.0)
    key = ("swirlstack", (1,), -1.0)
    before = [m.copy() for _, _, side in _stacked_kernels(key, g60._cache[key])
              for m in side]
    solve_swirl_mode(g80, 1, -1.0, _zeros(g80), 1.0, 10.0)
    e60, e80 = _stack_entries(g60), _stack_entries(g80)
    assert set(e60) == set(e80) == {key}
    assert not any(k[0] == "kernels" for g in (g60, g80) for k in g._cache)
    kernels = [[m for _, _, side in _stacked_kernels(key, e[key])
                for m in side] for e in (e60, e80)]
    assert len(kernels[0]) == 6
    for m60, m80, old in zip(*kernels, before):
        assert not np.shares_memory(m60, m80)
        assert not np.array_equal(m60, m80)
        np.testing.assert_array_equal(m60, old)


def test_kernel_cache_separates_nu():
    g = RadialGrid.graded(128, 60.0, 2.0)
    solve_swirl_mode(g, 1, -1.0, _zeros(g), 1.0, 10.0)
    reused = solve_swirl_mode(g, 1, -3.0, _zeros(g), 1.0, 10.0)
    fresh_grid = RadialGrid.graded(128, 60.0, 2.0)
    fresh = solve_swirl_mode(fresh_grid, 1, -3.0, _zeros(fresh_grid), 1.0, 10.0)
    np.testing.assert_array_equal(reused.values, fresh.values)
    stacks = _stack_entries(g)
    assert set(stacks) == {("swirlstack", (1,), -1.0), ("swirlstack", (1,), -3.0)}
    assert len(g._cache) == len(fresh_grid._cache) + 1  # one more stack
    a, b = stacks.values()
    for name in vars(a):
        assert not np.shares_memory(getattr(a, name), getattr(b, name))
    assert not np.array_equal(a.w_I0, b.w_I0)
    assert not np.array_equal(a.K0, b.K0)


@pytest.mark.parametrize("nu, distinct", [
    (-1.0, 6),   # swirl 0.5 1.5 2.5, vorticity 1.5 2.5, stream 1 2 3
    (-3.0, 7),   # swirl 0.5 1.5 2.5, vorticity 2.5 3.5, stream 1 2 3
    (-2.0, 4),   # swirl 0 1 2, vorticity 2 3, stream 1 2 3
    (-4.0, 4),   # swirl 1 2 3, vorticity 3 4, stream 1 2 3
    (-0.5, 8),   # swirl 0.75 1.75 2.75, vorticity 1.25 2.25, stream 1 2 3
])
def test_fresh_grid_evaluates_each_distinct_bessel_order_once(monkeypatch, nu,
                                                              distinct):
    import excyl.bessel

    calls = []
    for name in ("ive", "kve"):
        def counting(order, x, name=name, original=getattr(excyl.bessel, name)):
            calls.append((name, order, x[0]))  # x[0] = |k| r_0 = |k|
            return original(order, x)
        monkeypatch.setattr(excyl.bessel, name, counting)
    g = RadialGrid.graded(128, 60.0, 2.0)
    k_max = 3
    decays = _decays()
    b = BoundaryData(g_theta={1: 1e-3}, g_z={2: 5e-4})
    solve_linear_system(g, nu, 1.0, k_max, _no_forcing(g, k_max), decays, b)
    assert len(calls) == len(set(calls)) == 2 * k_max * distinct
    calls.clear()
    solve_linear_system(g, nu, 0.5, k_max, _no_forcing(g, k_max), decays, b)
    assert calls == []
    # each stacked kernel row is the kernel evaluated on its own
    entries = _stack_entries(g)
    assert set(entries) == {(name, tuple(range(1, k_max + 1)), nu)
                            for name in _STACK_KERNELS}
    for key, stack in entries.items():
        for derivs, kind, side in _stacked_kernels(key, stack):
            for row, k in enumerate(key[1]):
                alone = derivs(k, nu, g.nodes, kind)
                for m, ref in zip(side, alone):
                    assert_same_bits(m[row], ref.mantissa)


def test_kernel_cache_mantissas_read_only():
    g = RadialGrid.graded(128, 60.0, 2.0)
    solve_meridional_mode(g, 2, -1.0, _zeros(g), _zeros(g), 1e-3, 1e-3, 10.0)
    assert not any(key[0] == "kernels" for key in g._cache)
    # the kernel mantissas and the iterate-independent closure arrays
    # (p_v_in, s_v_out, d_k, ...) live in the one stack of the solve
    (key, stack), = _stack_entries(g).items()
    assert key == ("meridionalstack", (2,), -1.0)
    kinds = {kind for _, kind, _ in _stacked_kernels(key, stack)}
    assert kinds == {"vorticity", "stream"}
    for name, arr in vars(stack).items():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_fd_meridional_singular_system_is_numeric_error(grid, monkeypatch):
    import scipy.sparse.linalg as spla

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "spsolve", singular)
    with pytest.raises(NumericError, match="singular"):
        fd_meridional_solve(grid, 1, -1.0, _zeros(grid), 1e-3, 0.0, 10.0)
