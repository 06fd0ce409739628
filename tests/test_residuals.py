"""Verification-module tests: background exactness, decay fits, manufactured
solutions through both the linear and nonlinear paths."""

import tracemalloc

import numpy as np
import pytest

from excyl.errors import DomainError, NumericError
from excyl.fourier import (COMPONENTS, BoundaryData, ForcingData, ForcingMode,
                           FourierField)
from excyl.modes import solve_linear_system
from excyl.picard import TauInfo, picard_solve
from excyl.radial import RadialGrid, RadialProfile, integrate_outer
from excyl.residuals import (_dz, _synth, attach_residual_report, decay_fit,
                             manufactured_forcing, recover_pressure,
                             residual_asns)

from oracles import assert_same_bits


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.graded(512, 100.0, 2.0)


def test_background_is_exact_solution(grid):
    rng = np.random.default_rng(42)
    for _ in range(10):
        nu = -3.0 * rng.random() - 0.05
        mu = 4.0 * rng.standard_normal()
        field = FourierField.zero(grid, 2, with_sigma=False)
        rep = residual_asns(field, nu, mu, ForcingData(), BoundaryData())
        assert rep.max_momentum < 1e-10
        assert rep.divergence < 1e-10


def test_z_translation_invariance(grid):
    # the equations are z-autonomous: translating the sample grid by a whole
    # number of spacings permutes the sampled residual exactly, and a generic
    # translation moves the sampled maximum only at sampling resolution
    b = BoundaryData(g_theta={1: 1e-3}, g_z={2: 5e-4})
    bundle = picard_solve(grid, -1.0, 1.0, 4, ForcingData(), b)
    n_z = 4 * 4 + 1
    r0 = residual_asns(bundle.v, -1.0, 1.0, bundle.forcing, bundle.boundary)
    r1 = residual_asns(bundle.v, -1.0, 1.0, bundle.forcing, bundle.boundary,
                       z_offset=5 * 2.0 * np.pi / n_z)
    assert abs(r0.max_momentum - r1.max_momentum) < 1e-12
    assert abs(r0.divergence - r1.divergence) < 1e-12
    r2 = residual_asns(bundle.v, -1.0, 1.0, bundle.forcing, bundle.boundary,
                       z_offset=0.731)
    assert r2.max_momentum == pytest.approx(r0.max_momentum, rel=0.02)


def test_decay_fit_pure_power(grid):
    slope, r2 = decay_fit(grid.nodes ** -2.0, grid)
    assert slope == pytest.approx(-2.0, abs=1e-6)
    assert r2 > 0.999999


def test_decay_fit_log_modified(grid):
    # r^-2 ln r over [10, 100]: the pointwise slope is -2 + 1/ln r, which
    # ranges over (-1.79, -1.57) on this window; the fit must land inside
    slope, r2 = decay_fit(grid.nodes ** -2.0 * np.log(grid.nodes), grid)
    assert -1.80 < slope < -1.55


def test_decay_fit_zero_window(grid):
    assert decay_fit(np.zeros(len(grid)), grid) is None


def _polyfit_decay(values, grid):
    """The decay fit by np.polyfit, as a reference for the closed form."""
    mask = grid.last_decade_mask()
    x, y = np.log(grid.nodes[mask]), np.log(np.abs(values[mask]))
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = np.sum((y - slope * x - intercept) ** 2)
    return slope, 1.0 - ss_res / np.sum((y - np.mean(y)) ** 2)


@pytest.mark.parametrize("case", ["power", "log", "random"])
def test_decay_fit_closed_form_matches_polyfit(grid, case):
    r = grid.nodes
    values = {"power": r ** -2.0, "log": r ** -2.0 * np.log(r),
              "random": r ** -3.0 * np.exp(
                  0.3 * np.random.default_rng(7).standard_normal(len(r)))}[case]
    slope, r2 = decay_fit(values, grid)
    ref_slope, ref_r2 = _polyfit_decay(values, grid)
    assert abs(slope - ref_slope) < 1e-12
    assert abs(r2 - ref_r2) < 1e-12


# --- manufactured solutions ---------------------------------------------------


def _manufactured_field(grid, nu, amp=1e-3, sigma=None):
    r = grid.nodes

    def exp_prof(a):
        vals = a * np.exp(-(r - 1.0))
        return RadialProfile(grid, vals.astype(complex), -vals.astype(complex),
                             vals.astype(complex))

    field = FourierField.zero(grid, 2, with_sigma=sigma is not None)
    field.set_mode(0, "theta", exp_prof(amp))
    field.set_mode(0, "z", exp_prof(0.7 * amp))
    # divergence-free mode 1 from a stream profile phi = c e^{-(r-1)}
    c = amp * (0.8 + 0.3j)
    phi = c * np.exp(-(r - 1.0))
    dphi = -phi
    d2phi = phi
    d3phi = -phi
    v_r = RadialProfile(grid, -1j * phi, -1j * dphi, -1j * d2phi)
    v_z = RadialProfile(grid, dphi + phi / r, d2phi + dphi / r - phi / r ** 2,
                        d3phi + d2phi / r - 2 * dphi / r ** 2 + 2 * phi / r ** 3)
    field.set_mode(1, "r", v_r)
    field.set_mode(1, "z", v_z)
    field.set_mode(1, "theta", exp_prof(amp * (0.5 - 0.2j)))
    if sigma is not None:
        field.sigma = sigma
    return field


def _boundary_of(field):
    g_r, g_th, g_z = {}, {}, {}
    for k in range(0, field.k_max + 1):
        vr = field.profile("r", k).values[0]
        vth = field.profile("theta", k).values[0]
        vz = field.profile("z", k).values[0]
        if k == 0:
            vth = vth + (field.sigma or 0.0)
        if abs(vr):
            g_r[k] = complex(vr)
        if abs(vth):
            g_th[k] = complex(vth)
        if abs(vz):
            g_z[k] = complex(vz)
    return BoundaryData(g_r=g_r, g_theta=g_th, g_z=g_z)


def _pressure_of(grid, amp):
    r = grid.nodes
    return np.array([amp * np.exp(-(r - 1.0)),
                     amp * (0.2 + 0.1j) * np.exp(-(r - 1.0)),
                     np.zeros(len(grid))])


def _forcing_on_nodes(arrays, **lambdas):
    """ForcingData that returns each sampled array {(component, k): values}
    (decay 10) when it is sampled on the grid nodes."""
    return ForcingData({key: ForcingMode(lambda r, v=v: v, 10.0)
                        for key, v in arrays.items()}, **lambdas)


def test_manufactured_forcing_closes_residual(grid):
    # independent consistency loop: the manufactured field with its
    # manufactured forcing and pressure must satisfy the full system
    nu, mu = -1.5, 0.7
    field = _manufactured_field(grid, nu, amp=1e-2, sigma=5e-3)
    pressure = _pressure_of(grid, 1e-2)
    arrays = manufactured_forcing(field, pressure, nu, mu)
    forcing = _forcing_on_nodes(arrays)
    rep = residual_asns(field, nu, mu, forcing, _boundary_of(field),
                        pressure=pressure)
    assert rep.max_momentum < 1e-7
    assert rep.divergence < 1e-9
    assert rep.boundary_mismatch < 1e-12


def test_manufactured_linear_solve_recovers_field():
    # push the manufactured forcing through the linear driver and compare;
    # the error is quadrature-dominated: order ~ 4 between N and 2N
    nu, mu = -1.5, 0.7
    errs = []
    for n in (256, 512):
        g = RadialGrid.graded(n, 60.0, 2.0)
        field = _manufactured_field(g, nu, amp=1e-2, sigma=5e-3)
        pressure = _pressure_of(g, 1e-2)
        arrays = manufactured_forcing(field, pressure, nu, mu)
        # remove the quadratic terms: the linear driver solves only the
        # linearized system, so feed it the linear part of the forcing
        from excyl.picard import assemble_rhs
        quad = assemble_rhs(field, ForcingData(), mu, nu)
        lin = quad.rhs.copy()
        for (comp, k), arr in arrays.items():
            c = COMPONENTS.index(comp)
            lin[c, k] = arr + quad.rhs[c, k]
        # assemble_rhs already dropped the k=0 radial mode; the linear driver
        # ignores it anyway
        decays = TauInfo(np.nan, np.nan, np.nan, 10.0, 10.0, 10.0)
        solved, _ = solve_linear_system(g, nu, mu, 2, lin, decays,
                                        _boundary_of(field))
        err = 0.0
        for k in range(0, 3):
            for comp in ("r", "theta", "z"):
                err = max(err, float(np.max(np.abs(
                    solved.profile(comp, k).values
                    - field.profile(comp, k).values))))
        if field.sigma is not None:
            err = max(err, abs((solved.sigma or 0.0) - field.sigma))
        errs.append(err)
    order = np.log2(errs[0] / errs[1])
    assert errs[1] < 1e-8
    assert 3.5 <= order <= 4.5


def test_manufactured_nonlinear_solve_recovers_field(grid):
    nu, mu = -1.5, 0.7
    field = _manufactured_field(grid, nu, amp=1e-3, sigma=5e-4)
    pressure = _pressure_of(grid, 1e-3)
    arrays = manufactured_forcing(field, pressure, nu, mu)
    forcing = _forcing_on_nodes(arrays, lambda_theta=4.0, lambda_z=3.0,
                                lambda_=2.0)
    bundle = picard_solve(grid, nu, mu, 2, forcing, _boundary_of(field))
    assert bundle.converged
    assert bundle.sigma == pytest.approx(field.sigma, rel=1e-4)
    for k in range(0, 3):
        for comp in ("r", "theta", "z"):
            np.testing.assert_allclose(
                bundle.v.profile(comp, k).values,
                field.profile(comp, k).values, atol=2e-9)


def test_audit_holds_with_a_sizable_sigma():
    # a swirl mean of 1e-2 gives sigma = 1.0e-2, so the absorbed sigma^2 / r^3
    # term of the zero radial forcing is far above the audit's bound: the
    # direct audit measures 1.0e-9 with it and 1.0e-4 without it
    g = RadialGrid.graded(1024, 100.0, 2.0)
    b = BoundaryData(g_theta={0: 1e-2, 1: 1e-3})
    bundle = picard_solve(g, -1.0, 1.0, 8, ForcingData(), b)
    attach_residual_report(bundle)
    assert bundle.converged
    assert bundle.sigma == pytest.approx(1e-2, rel=0.05)
    assert bundle.residual_report.max_momentum < 1e-6


def _reference_pressure(bundle):
    """Independent copy of the pressure recovery one mode at a time: the
    zero mode integrated in from the absorbed radial forcing, then the
    vertical balance of each mode k = 1..K on its own profile."""
    grid, nu, rhs = bundle.v.grid, bundle.nu, bundle.rhs_final
    r = grid.nodes
    rows = [-integrate_outer(np.asarray(rhs.absorbed_fr0, dtype=complex),
                             grid, decay_exponent=rhs.absorbed_fr0_decay,
                             check_tail=False)]
    for k in range(1, bundle.v.k_max + 1):
        v_z = bundle.v.profile("z", k)
        f_z = np.asarray(rhs.rhs[2][k], dtype=complex)
        resid = f_z + v_z.d2 + (1.0 - nu) / r * v_z.d1 \
            - k * k * v_z.values
        rows.append(resid / (1j * k))
    return np.array(rows)


@pytest.mark.parametrize("nu", [-1.0, -2.5])
def test_dense_pressure_keeps_the_per_mode_bits(grid, nu):
    # the (K+1, n) pressure of one vectorised expression has the bits of
    # the mode-by-mode recovery, and the audit takes no other shape; at
    # nu = -1 the factor 1 - nu = 2 is exact, so -2.5 checks its rounding
    forcing = ForcingData({
        ("theta", 0): ForcingMode(lambda r: 1e-4 * r ** -10.0, 10.0),
        ("r", 0): ForcingMode(lambda r: 2e-4 * r ** -6.0, 6.0),
        ("z", 2): ForcingMode(lambda r: (1e-4 - 3e-5j) * r ** -12.0, 12.0)})
    b = BoundaryData(g_theta={1: 1e-3}, g_z={2: 5e-4}, g_r={3: 2e-4})
    bundle = picard_solve(grid, nu, 1.0, 4, forcing, b)
    assert bundle.converged and bundle.v.k_max >= 3
    pressure = recover_pressure(bundle.v, bundle.nu, bundle.rhs_final)
    assert pressure.shape == (5, len(grid))
    assert np.max(np.abs(pressure[1:])) > 0.0
    assert_same_bits(pressure, _reference_pressure(bundle))
    for bad in (pressure[:-1], np.zeros((5, len(grid) + 1), dtype=complex)):
        with pytest.raises(DomainError, match="pressure"):
            residual_asns(bundle.v, nu, 1.0, forcing, b, pressure=bad)


def test_tampered_solution_detected(grid):
    # corrupting one mode profile must blow up the residual
    b = BoundaryData(g_theta={1: 1e-3})
    bundle = picard_solve(grid, -1.0, 1.0, 3, ForcingData(), b)
    attach_residual_report(bundle)
    clean = residual_asns(bundle.v, -1.0, 1.0, bundle.forcing, b)
    prof = bundle.v.profile("theta", 1)
    tampered = prof.values.copy()
    near = len(grid) // 8  # r ~ 2.5, where the mode is still O(data)
    tampered[near] *= 1.5
    bundle.v.set_mode(1, "theta", RadialProfile(grid, tampered, prof.d1, prof.d2))
    rep = residual_asns(bundle.v, -1.0, 1.0, bundle.forcing, b)
    assert rep.max_momentum > 100 * max(clean.max_momentum, 1e-12)


def test_forcing_given_at_minus_k_is_counted_once(grid):
    # f_{z,-1} = conj(f_{z,1}) states the same real forcing as f_{z,1}; with
    # the forcing keys holding both +1 and -1 the audit must still add each
    # component's +-k forcing once
    amp = 1e-4 * (1.0 + 0.5j)
    f_th = ForcingMode(lambda r: 1e-4 * r ** -10.0, 10.0)
    plus = ForcingData({("theta", 1): f_th,
                        ("z", 1): ForcingMode(lambda r: amp * r ** -10.0, 10.0)})
    minus = ForcingData({("theta", 1): f_th,
                         ("z", -1): ForcingMode(
                             lambda r: np.conj(amp) * r ** -10.0, 10.0)})
    b = BoundaryData(g_theta={1: 1e-3})
    bundle = picard_solve(grid, -1.0, 1.0, 4, plus, b)
    reports = [residual_asns(bundle.v, -1.0, 1.0, f, b)
               for f in (plus, minus)]
    for name in ("momentum_r", "momentum_theta", "momentum_z", "divergence"):
        assert getattr(reports[1], name) == pytest.approx(
            getattr(reports[0], name), rel=1e-12, abs=1e-300), name
    assert reports[1].momentum_theta < 1e-7


def test_non_conjugate_forcing_pair_is_not_real(grid):
    # f_{z,-1} given beside f_{z,1} but not its conjugate states no real
    # forcing; the audit samples each k on its own, so it must refuse it
    f = ForcingData({("z", 1): ForcingMode(lambda r: 1e-4j * r ** -10.0, 10.0),
                     ("z", -1): ForcingMode(lambda r: 1e-4j * r ** -10.0, 10.0)})
    field = FourierField.zero(grid, 2, with_sigma=False)
    with pytest.raises(NumericError, match="f_z synthesis is not real"):
        residual_asns(field, -1.0, 1.0, f, BoundaryData())


def _conjugate_stack(rng, k_max, n):
    """A random stack of the modes -K..K with mode -k the conjugate of k."""
    half = rng.standard_normal((k_max + 1, n)) \
        + 1j * rng.standard_normal((k_max + 1, n))
    half[0] = half[0].real
    return np.concatenate((np.conj(half[:0:-1]), half))


@pytest.mark.parametrize("k_max", [0, 1, 8, 32])
def test_half_spectrum_synthesis_matches_the_complex_sum(k_max):
    # the sum over modes 0..K as cosine and sine products, and the real-FFT
    # z-derivatives, are the complex sum over -K..K and the complex-FFT
    # derivatives of a real field
    rng = np.random.default_rng(k_max)
    n_z = 4 * k_max + 1
    z = 2.0 * np.pi * np.arange(n_z) / n_z + 0.3
    stack = _conjugate_stack(rng, k_max, 40)
    k = np.arange(-k_max, k_max + 1)
    ref = np.real(stack.T @ np.exp(1j * np.outer(k, z)))
    got = _synth("u", stack, z)
    assert got.shape == (40, n_z)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    freqs = np.fft.fftfreq(n_z, d=1.0 / n_z)
    for order in (1, 2):
        ref = np.real(np.fft.ifft(np.fft.fft(got, axis=1)
                                  * (1j * freqs) ** order, axis=1))
        assert np.max(np.abs(_dz(got, order) - ref)) <= \
            1e-13 * max(np.max(np.abs(ref)), 1e-300)


def test_single_z_sample_field_audits():
    # K = 0 synthesizes one z sample, whose z-derivatives vanish
    g = RadialGrid.graded(128, 60.0, 2.0)
    bundle = picard_solve(g, -1.0, 1.0, 0, ForcingData(),
                          BoundaryData(g_theta={0: 1e-3}))
    rep = attach_residual_report(bundle)
    assert bundle.converged and rep.n_z == 1
    assert rep.pressure_mode == "direct"
    assert rep.max_momentum < 1e-6 and rep.boundary_mismatch < 1e-12
    assert rep.curve_momentum.shape == (len(g), 3)


def test_non_finite_mode_fails_at_its_synthesis(grid):
    # a NaN in one mode of one component is named where that component is
    # synthesized, not as a downstream residual
    field = _manufactured_field(grid, -1.5)
    field.data[COMPONENTS.index("theta"), 1, 0, len(grid) // 4] = np.nan
    with pytest.raises(NumericError, match="u_theta synthesis is not finite"):
        residual_asns(field, -1.5, 0.7, ForcingData(), BoundaryData())


def test_audit_memory_peak():
    # the audit reduces each residual to its per-radius curve as it forms
    # and drops each derivative after its last use; its traced peak at
    # n = 256, K = 32 measures 3.2 MiB, against 6.5 MiB when it held every
    # (n, 4K+1) array to the end
    g = RadialGrid.graded(256, 100.0, 2.0)
    k_max = 32
    b = BoundaryData(g_theta={k: 1e-4 / k for k in range(1, k_max + 1)},
                     g_z={k: 5e-5 / k for k in range(1, k_max + 1)})
    bundle = picard_solve(g, -1.0, 1.0, k_max, ForcingData(), b)
    assert bundle.converged
    tracemalloc.start()
    try:
        attach_residual_report(bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2 ** 20, peak / 2 ** 20


def test_forcing_without_modes_is_a_zero_forcing(grid):
    # a component with no forcing mode enters as a scalar 0: the residuals
    # keep the bits of a forcing whose every mode samples to zero
    b = BoundaryData(g_theta={1: 1e-3}, g_z={2: 5e-4})
    bundle = picard_solve(grid, -1.0, 1.0, 3, ForcingData(), b)
    zero = ForcingData({(comp, k): ForcingMode(lambda r: 0.0 * r, 10.0)
                        for comp in COMPONENTS for k in (0, 1)})
    pressure = recover_pressure(bundle.v, -1.0, bundle.rhs_final)
    for p in (pressure, None):
        reports = [residual_asns(bundle.v, -1.0, 1.0, f, b, pressure=p)
                   for f in (ForcingData(), zero)]
        assert_same_bits(reports[0].curve_momentum, reports[1].curve_momentum)
