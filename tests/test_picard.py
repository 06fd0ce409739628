"""Nonlinear assembly and fixed-point iteration tests."""

import numpy as np
import pytest

from excyl.errors import ConfigError, DomainError, NumericError
from excyl.fourier import (COMPONENTS, BoundaryData, ForcingData, ForcingMode,
                           FourierField, bnorm)
from excyl.modes import has_sigma_tail, solve_zero_swirl
from excyl.picard import (
    QUADRATIC_FLOOR,
    assemble_rhs,
    compute_tau,
    nonuniqueness_pair,
    picard_solve,
)
from excyl.radial import RadialGrid, RadialProfile
from excyl.residuals import attach_residual_report

from oracles import assert_same_bits


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.graded(768, 100.0, 2.0)


# --- tau ----------------------------------------------------------------------


def test_tau_subcritical_branch():
    t = compute_tau(-1.0, 4.0, 3.0, 2.0)
    assert t.tau == pytest.approx(0.5)
    assert t.lambda_bar_theta == 4.0
    assert t.lambda_bar_z == 2.5


def test_tau_supercritical_branch():
    t = compute_tau(-4.0, 10.0, 10.0, 10.0)
    assert t.tau == pytest.approx(1.0)
    assert t.lambda_bar_theta == 4.0
    assert t.lambda_bar_z == 4.0


def test_tau_admissibility_boundary():
    t = compute_tau(-1.0, 3.01, 2.01, 1.51)
    assert t.tau == pytest.approx(0.01)


def test_tau_rejections():
    with pytest.raises(ConfigError):
        compute_tau(0.5, 4.0, 3.0, 2.0)
    with pytest.raises(ConfigError):
        compute_tau(-1.0, 3.0, 3.0, 2.0)
    with pytest.raises(ConfigError):
        compute_tau(-1.0, 4.0, 2.0, 2.0)
    with pytest.raises(ConfigError):
        compute_tau(-1.0, 4.0, 3.0, 1.5)


# --- RHS assembly ---------------------------------------------------------------


def _profile(grid, amp, rate=1.0):
    r = grid.nodes
    vals = amp * np.exp(-rate * (r - 1.0))
    d1 = -rate * vals
    d2 = rate * rate * vals
    return RadialProfile(grid, vals, d1, d2)


def test_rhs_zero_iterate_returns_forcing(grid):
    r = grid.nodes
    forcing = ForcingData(modes={
        ("theta", 0): ForcingMode(lambda s: s ** -4.0, 4.0),
        ("r", 0): ForcingMode(lambda s: s ** -2.0, 2.0),
        ("z", 1): ForcingMode(lambda s: (0.1 + 0.2j) * s ** -3.0, 3.0),
    })
    vbar = FourierField.zero(grid, 2, with_sigma=True)
    rhs = assemble_rhs(vbar, forcing, 1.0, -1.0)
    np.testing.assert_allclose(rhs.rhs[COMPONENTS.index("theta"), 0], r ** -4.0)
    np.testing.assert_allclose(rhs.rhs[COMPONENTS.index("z"), 1],
                               (0.1 + 0.2j) * r ** -3.0)
    # the zero radial mode is absorbed (audited), not solved
    assert np.all(rhs.rhs[COMPONENTS.index("r"), 0] == 0.0)
    np.testing.assert_allclose(rhs.absorbed_fr0, r ** -2.0)


def test_rhs_swirl_only_support(grid):
    # vbar with only v_theta,+-1: quadratic terms live on k in {0, 2};
    # the k=0 radial output is absorbed, the k=2 centrifugal term survives
    vbar = FourierField.zero(grid, 2, with_sigma=False)
    c = _profile(grid, 1e-2)
    vbar.set_mode(1, "theta", c)
    rhs = assemble_rhs(vbar, ForcingData(), 0.0, -3.0)
    r = grid.nodes
    np.testing.assert_allclose(rhs.rhs[COMPONENTS.index("r"), 2],
                               c.values ** 2 / r, rtol=1e-12)
    assert np.all(rhs.rhs[COMPONENTS.index("r"), 0] == 0.0)
    # audit keeps the absorbed centrifugal zero mode 2|c|^2/r
    np.testing.assert_allclose(rhs.absorbed_fr0,
                               2.0 * np.abs(c.values) ** 2 / r, rtol=1e-12)
    # no sigma coupling for nu < -2 and no theta/z quadratics from pure swirl
    assert np.max(np.abs(rhs.rhs[COMPONENTS.index("theta"), 1])) == 0.0
    assert np.max(np.abs(rhs.rhs[COMPONENTS.index("z"), 1])) == 0.0


def test_rhs_sigma_coupling(grid):
    vbar = FourierField.zero(grid, 1, with_sigma=True)
    vbar.sigma = 0.3
    c = _profile(grid, 1e-2)
    vbar.set_mode(1, "theta", c)
    rhs = assemble_rhs(vbar, ForcingData(), 0.0, -1.0)
    r = grid.nodes
    np.testing.assert_allclose(rhs.rhs[COMPONENTS.index("r"), 1],
                               2.0 * 0.3 * c.values / r ** 2, rtol=1e-12)


def _physical_nonlinearity(vbar, n_z=64):
    """Pseudo-spectral oracle for the quadratic forcing terms."""
    grid = vbar.grid
    z = 2.0 * np.pi * np.arange(n_z) / n_z
    k_rng = range(-vbar.k_max, vbar.k_max + 1)

    def phys(comp, der=0):
        out = np.zeros((len(grid), n_z), dtype=complex)
        for k in k_rng:
            p = vbar.profile(comp, k)
            vals = p.values if der == 0 else p.d1
            out += vals[:, None] * np.exp(1j * k * z)[None, :]
        return out

    def dz(comp):
        out = np.zeros((len(grid), n_z), dtype=complex)
        for k in k_rng:
            out += 1j * k * vbar.profile(comp, k).values[:, None] \
                * np.exp(1j * k * z)[None, :]
        return out

    r = grid.nodes[:, None]
    vr, vth, vz = phys("r"), phys("theta"), phys("z")
    out = {
        "theta": -(vr * phys("theta", 1) + vz * dz("theta") + vr * vth / r),
        "z": -(vr * phys("z", 1) + vz * dz("z")),
        "r": -(vr * phys("r", 1) + vz * dz("r") - vth * vth / r),
    }
    freqs = np.fft.fftfreq(n_z, d=1.0 / n_z).astype(int)
    modes = {}
    for comp, matrix in out.items():
        coeff = np.fft.fft(matrix, axis=1) / n_z
        for k in range(0, vbar.k_max + 1):
            (col,) = np.nonzero(freqs == k)
            modes[(comp, k)] = coeff[:, col[0]]
    return modes


def test_rhs_matches_pseudo_spectral_oracle(grid):
    rng = np.random.default_rng(7)
    vbar = FourierField.zero(grid, 3, with_sigma=False)
    r = grid.nodes
    for k in range(0, 3):
        for comp in ("r", "theta", "z"):
            if comp == "r" and k == 0:
                continue  # structural zero
            a = rng.standard_normal() * 1e-2
            b = rng.standard_normal() * 1e-2 if k else 0.0
            vals = (a + 1j * b) * np.exp(-(r - 1.0)) * r ** -1.0
            d1 = (a + 1j * b) * (-np.exp(-(r - 1.0)) * r ** -1.0
                                 - np.exp(-(r - 1.0)) * r ** -2.0)
            vbar.set_mode(k, comp, RadialProfile(grid, vals, d1, d1 * 0.0))
    rhs = assemble_rhs(vbar, ForcingData(), 0.0, -3.0)
    oracle = _physical_nonlinearity(vbar)
    for k in range(0, 4):
        for comp in ("theta", "z", "r"):
            if comp == "r" and k == 0:
                continue
            want = oracle.get((comp, k), 0.0 * r)
            np.testing.assert_allclose(rhs.rhs[COMPONENTS.index(comp), k],
                                       want, atol=1e-9,
                                       err_msg=f"{comp},{k}")


def _full_product(a, b, k_max):
    """Rows 0..2K of sum_l a_{k-l} b_l, l ascending (shift-and-add)."""
    out = np.zeros(a.shape, dtype=complex)
    for i, b_l in enumerate(b):
        out[:i + 1] += a[2 * k_max - i:] * b_l
    return out


def _reference_assembly(vbar, forcing, mu, nu):
    """The assembly before its products were truncated: all 8 products over
    rows 0..2K, also on the zero iterate, and the forcing sampled per k."""
    r = vbar.grid.nodes
    k_max = vbar.k_max
    with_sigma = -2.0 <= nu < 0.0  # this oracle's own copy of the rule
    sigma_bar = vbar.sigma if (with_sigma and vbar.sigma is not None) else 0.0
    vr, vth, vz = (vbar.stack(c) for c in COMPONENTS)
    d_vr, d_vth, d_vz = (vbar.stack(c, 1) for c in COMPONENTS)
    il = 1j * np.arange(-k_max, k_max + 1)[:, None]
    il_vth, il_vz, il_vr = il * vth, il * vz, il * vr
    conv = lambda a, b: _full_product(a, b, k_max)
    adv_th, rot_th, str_th = conv(vr, d_vth), conv(vz, il_vth), conv(vr, vth)
    adv_z, rot_z = conv(vr, d_vz), conv(vz, il_vz)
    adv_r, rot_r, cen_r = conv(vr, d_vr), conv(vz, il_vr), conv(vth, vth)
    rhs = {}
    for k in range(0, k_max + 1):
        f_th = (-(adv_th[k] + rot_th[k] + str_th[k] / r)
                + forcing.sample("theta", k, r))
        f_z = -(adv_z[k] + rot_z[k]) + forcing.sample("z", k, r)
        f_r = (-(adv_r[k] + rot_r[k] - cen_r[k] / r)
               + forcing.sample("r", k, r))
        if with_sigma:
            f_r = f_r + 2.0 * sigma_bar * vth[k_max + k] / r ** 2
        rhs[("theta", k)], rhs[("z", k)], rhs[("r", k)] = f_th, f_z, f_r
    absorbed = rhs[("r", 0)] + (sigma_bar ** 2) / r ** 3 \
        + 2.0 * mu * (vth[k_max] + sigma_bar / r) / r ** 2
    rhs[("r", 0)] = np.zeros(len(r), dtype=complex)
    tail = max(float(np.max(np.abs(p[k_max + 1:]), initial=0.0))
               for p in (adv_th, cen_r))
    return rhs, absorbed, tail


def _several_mode_forcing():
    return ForcingData(modes={
        ("theta", 0): ForcingMode(lambda s: 1e-3 * s ** -10.0, 10.0),
        ("z", 0): ForcingMode(lambda s: -5e-4 * s ** -8.0, 8.0),
        ("r", 0): ForcingMode(lambda s: 3e-4 * s ** -6.0, 6.0),
        ("theta", 2): ForcingMode(lambda s: (2e-4 - 1e-4j) * s ** -6.0, 6.0),
        ("r", -1): ForcingMode(lambda s: (1e-4 + 3e-5j) * s ** -5.0, 5.0),
        ("z", 3): ForcingMode(lambda s: -1e-4j * s ** -5.0, 5.0),
    })


@pytest.mark.parametrize("case", ["zero", "zero-sigma", "nu=-1", "nu=-3"])
def test_assembly_bitwise_equal_to_full_products(grid, case):
    nu = -3.0 if case == "nu=-3" else -1.0
    k_max = 4
    vbar = FourierField.zero(grid, k_max, has_sigma_tail(nu))
    if case == "zero-sigma":
        vbar.sigma = 0.2
    if case.startswith("nu="):
        rng = np.random.default_rng(17)
        decay = np.exp(-(grid.nodes - 1.0)) / grid.nodes
        shape = vbar.data.shape
        vbar.data[:] = decay * (rng.standard_normal(shape)
                                + 1j * rng.standard_normal(shape)) * 1e-2
        vbar.data[:, 0] = vbar.data[:, 0].real  # real zero modes
        vbar.data[0, 0] = 0.0                  # no zero radial mode
        vbar.data[1, 3, :, ::4] = complex(-0.0, 0.0)
        if vbar.sigma is not None:
            vbar.sigma = 0.3
    forcing = _several_mode_forcing()
    got = assemble_rhs(vbar, forcing, 0.7, nu)
    rhs, absorbed, tail = _reference_assembly(vbar, forcing, 0.7, nu)
    assert got.rhs.shape == (len(COMPONENTS), k_max + 1, len(grid))
    assert len(rhs) == got.rhs.shape[0] * got.rhs.shape[1]
    for (comp, k), want in rhs.items():
        assert_same_bits(got.rhs[COMPONENTS.index(comp), k], want)
    assert_same_bits(got.absorbed_fr0, absorbed)
    assert got.convolution_tail == tail
    assert (tail == 0.0) == case.startswith("zero")
    # the forcing sampled once by the caller gives the same bits
    again = assemble_rhs(vbar, forcing, 0.7, nu,
                         forcing.sample_stack(k_max, grid.nodes))
    for (comp, k), want in rhs.items():
        assert_same_bits(again.rhs[COMPONENTS.index(comp), k], want)


@pytest.mark.parametrize("nu, band", [(-1.0, -1), (-1.0, 1), (-3.0, 2),
                                      (-1.0, 3)])
def test_band_limited_assembly_bitwise_equal_to_full_products(grid, nu, band):
    # an iterate that vanishes above |k| = band, some of those zeros signed:
    # convolving only its modes -band..band gives every rhs row, the audit
    # copy and the tail the bits of the products over all modes
    k_max = 4
    vbar = FourierField.zero(grid, k_max, has_sigma_tail(nu))
    rng = np.random.default_rng(23 + band)
    decay = np.exp(-(grid.nodes - 1.0)) / grid.nodes
    inside = vbar.data[:, :band + 1]
    inside[:] = decay * (rng.standard_normal(inside.shape)
                         + 1j * rng.standard_normal(inside.shape)) * 1e-2
    vbar.data[:, 0] = vbar.data[:, 0].real
    vbar.data[0, 0] = 0.0
    vbar.data[:, band + 1:, :, ::5] = complex(-0.0, -0.0)
    if vbar.sigma is not None:
        vbar.sigma = 0.3
    forcing = _several_mode_forcing()
    got = assemble_rhs(vbar, forcing, 0.7, nu, band=band)
    rhs, absorbed, tail = _reference_assembly(vbar, forcing, 0.7, nu)
    for (comp, k), want in rhs.items():
        assert_same_bits(got.rhs[COMPONENTS.index(comp), k], want)
    assert_same_bits(got.absorbed_fr0, absorbed)
    assert got.convolution_tail == tail
    assert (tail > 0.0) == (2 * band > k_max)


def _below_floor(x):
    """Mask of the nonzero real and imaginary parts below QUADRATIC_FLOOR."""
    parts = np.asarray(x).view(float)
    return (parts != 0.0) & (np.abs(parts) < QUADRATIC_FLOOR)


def test_quadratic_term_stays_out_of_the_subnormal_range(monkeypatch):
    # data on every mode: the far-field tails of the high modes fall through
    # the whole double range, yet no convolution reads a part below the
    # floor, so no product and no row it returns is subnormal
    import excyl.picard

    convolve = excyl.picard.convolve_product
    seen = []

    def spy(a, b, *args, **kwargs):
        out = convolve(a, b, *args, **kwargs)
        seen.append((a, b, out))
        return out

    monkeypatch.setattr(excyl.picard, "convolve_product", spy)
    k_max = 16
    g = RadialGrid.graded(128, 100.0, 2.0)
    boundary = BoundaryData(g_theta={k: 4e-4 / k ** 2
                                     for k in range(1, k_max + 1)})
    picard_solve(g, -1.0, 1.0, k_max, ForcingData(), boundary)
    assert len(seen) > 8  # beyond the zero iterate
    tiny = np.finfo(float).tiny
    for a, b, out in seen:
        assert not _below_floor(a).any() and not _below_floor(b).any()
        parts = out.view(float)
        assert not ((parts != 0.0) & (np.abs(parts) < tiny)).any()


@pytest.mark.parametrize("nu", [-1.0, -3.0])
def test_assembly_reads_parts_below_the_floor_as_zero(grid, nu):
    # sub-floor parts, zeros of either sign among them, in the values and
    # both derivatives of every component: the assembly has the bits of the
    # same iterate with those parts zeroed by hand.  The zero swirl mode's
    # values also feed the linear sigma and mu couplings, which read them
    # as they are, so they keep no sub-floor part here.
    k_max = 4
    vbar = FourierField.zero(grid, k_max, has_sigma_tail(nu))
    rng = np.random.default_rng(29)
    decay = np.exp(-(grid.nodes - 1.0)) / grid.nodes
    shape = vbar.data.shape
    vbar.data[:] = decay * (rng.standard_normal(shape)
                            + 1j * rng.standard_normal(shape)) * 1e-2
    vbar.data[:, 0] = vbar.data[:, 0].real
    vbar.data[0, 0] = 0.0
    if vbar.sigma is not None:
        vbar.sigma = 0.3
    parts = vbar.data.view(float)
    small = rng.random(parts.shape) < 0.3
    small[COMPONENTS.index("theta"), 0, 0] = False
    parts[small] = rng.choice([1e-200, -3e-160, 5e-320, -2.0 ** -512,
                               np.nextafter(QUADRATIC_FLOOR, 0.0), -0.0],
                              size=np.count_nonzero(small))
    zeroed = FourierField(grid, vbar.data.copy(), vbar.sigma)
    zeroed.data.view(float)[small] = 0.0
    assert _below_floor(vbar.data).any()
    before = vbar.data.copy()
    forcing = _several_mode_forcing()
    got = assemble_rhs(vbar, forcing, 0.7, nu)
    want = assemble_rhs(zeroed, forcing, 0.7, nu)
    assert_same_bits(got.rhs, want.rhs)
    assert_same_bits(got.absorbed_fr0, want.absorbed_fr0)
    assert got.convolution_tail == want.convolution_tail
    assert_same_bits(vbar.data, before)  # the iterate is not touched


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_iterate_part_reaches_the_rhs(grid, value):
    k_max = 2
    vbar = FourierField.zero(grid, k_max, with_sigma=False)
    vbar.set_mode(1, "theta", _profile(grid, 1e-2))
    vbar.set_mode(1, "r", _profile(grid, 1e-3))
    node = len(grid) // 2
    vbar.data[COMPONENTS.index("r"), 1, 0, node] = value
    with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 are NaN
        rhs = assemble_rhs(vbar, ForcingData(), 0.0, -3.0).rhs
    assert not np.all(np.isfinite(rhs[..., node]))
    assert np.all(np.isfinite(np.delete(rhs, node, axis=-1)))


def test_forcing_sampled_once_per_solve(grid):
    calls = []

    def f(r):
        calls.append(len(r))
        return 1e-4 * r ** -10.0

    forcing = ForcingData(modes={("theta", 0): ForcingMode(f, 10.0),
                                 ("z", 1): ForcingMode(f, 10.0)})
    b = BoundaryData(g_theta={1: 1e-3})
    counts = []
    for max_iters in (1, 4):
        calls.clear()
        bundle = picard_solve(grid, -1.0, 1.0, 2, forcing, b, tol=1e-30,
                              max_iters=max_iters)
        assert bundle.iterations == max_iters
        counts.append(len(calls))
    assert counts[0] == counts[1]


# --- the fixed-point loop -------------------------------------------------------


def test_picard_zero_data(grid):
    bundle = picard_solve(grid, -1.0, 1.0, 4, ForcingData(), BoundaryData())
    assert bundle.converged
    assert bundle.iterations == 1
    assert bundle.norms["B_tau"] == 0.0
    assert bundle.sigma == 0.0


def test_picard_small_boundary_mode(grid):
    b = BoundaryData(g_theta={1: 1e-3})
    bundle = picard_solve(grid, -1.0, 1.0, 6, ForcingData(), b)
    attach_residual_report(bundle)
    assert bundle.converged
    assert bundle.iterations <= 15
    assert bundle.contraction_estimate <= 0.5
    rep = bundle.residual_report
    assert rep.max_momentum < 1e-6
    assert rep.divergence < 1e-8
    assert rep.boundary_mismatch < 1e-10


def test_picard_epsilon_scaling(grid):
    # halving the data should halve the solution norm to leading order
    b1 = BoundaryData(g_theta={1: 1e-3}, g_z={1: 0.5e-3})
    b2 = BoundaryData(g_theta={1: 0.5e-3}, g_z={1: 0.25e-3})
    s1 = picard_solve(grid, -1.0, 1.0, 6, ForcingData(), b1)
    s2 = picard_solve(grid, -1.0, 1.0, 6, ForcingData(), b2)
    ratio = s1.norms["B_tau"] / s2.norms["B_tau"]
    assert ratio == pytest.approx(2.0, rel=0.1)


def test_picard_fixed_point_stability(grid):
    # re-assembling the RHS from the converged iterate and re-solving moves
    # the solution by no more than the convergence tolerance
    from excyl.modes import solve_linear_system

    b = BoundaryData(g_theta={1: 1e-3})
    tol = 1e-11
    bundle = picard_solve(grid, -1.0, 1.0, 5, ForcingData(), b, tol=tol)
    rhs = assemble_rhs(bundle.v, bundle.forcing, bundle.mu, bundle.nu)
    v_again, _ = solve_linear_system(grid, bundle.nu, bundle.mu, 5, rhs.rhs,
                                     bundle.tau, b)
    assert bnorm(v_again - bundle.v, bundle.tau.tau) <= 10 * tol


def test_picard_sigma_structure(grid):
    b = BoundaryData(g_theta={0: 1e-3, 1: 1e-3})
    sup = picard_solve(grid, -3.0, 1.0, 4, ForcingData(), b)
    assert sup.sigma is None  # structurally absent for nu < -2
    sub = picard_solve(grid, -1.0, 1.0, 4, ForcingData(), b)
    assert sub.sigma is not None
    assert sub.sigma == pytest.approx(1e-3, rel=1e-3)  # dominated by g_theta0


@pytest.mark.parametrize("setting, value", [
    ("relaxation", 0.0), ("relaxation", -0.5), ("relaxation", 1.5),
    ("relaxation", float("nan")), ("tol", float("nan")), ("tol", 0.0),
    ("tol", -1e-10), ("tol", float("inf")), ("max_iters", 0),
    ("max_iters", -2), ("max_iters", 2.5)])
def test_picard_rejects_out_of_bounds_settings(grid, setting, value):
    # the bounds RunConfig.validate puts on a config file hold for library
    # callers too: relaxation 0 would return the zero field as converged,
    # max_iters 0 a bundle with no forcing, tol nan would never converge and
    # a fractional max_iters would fail in range()
    b = BoundaryData(g_theta={1: 1e-3})
    with pytest.raises(ConfigError, match=setting):
        picard_solve(grid, -1.0, 1.0, 2, ForcingData(), b, **{setting: value})


@pytest.mark.parametrize("setting, value", [
    ("relaxation", 0.0), ("tol", float("nan")), ("max_iters", 0)])
def test_nonuniqueness_pair_passes_settings_to_picard(grid, setting, value):
    b = BoundaryData(g_theta={1: 1e-3})
    with pytest.raises(ConfigError, match=setting):
        nonuniqueness_pair(grid, -3.0, 1.0, 2, ForcingData(), b, 0.05,
                           **{setting: value})


def _no_solve(monkeypatch):
    import excyl.picard

    def refuse(*args, **kwargs):
        raise AssertionError("solve_linear_system ran")

    monkeypatch.setattr(excyl.picard, "solve_linear_system", refuse)


@pytest.mark.parametrize("nu, mu, match", [
    (float("nan"), 1.0, "finite nu"), (-float("inf"), 1.0, "finite nu"),
    (-3.0, float("nan"), "mu must be finite"),
    (-3.0, float("inf"), "mu must be finite"),
    (-3.0, -float("inf"), "mu must be finite")])
@pytest.mark.parametrize("solve", ["picard_solve", "nonuniqueness_pair"])
def test_non_finite_nu_or_mu_is_rejected_before_any_solve(grid, monkeypatch,
                                                          solve, nu, mu,
                                                          match):
    # the library raises what RunConfig.validate raises for a config file,
    # before any solve: a NaN nu passes a plain nu >= 0 test, and a
    # non-finite mu would only show in the first iterate
    _no_solve(monkeypatch)
    b = BoundaryData(g_theta={1: 1e-3})
    args = (grid, nu, mu, 2, ForcingData(), b)
    with pytest.raises(ConfigError, match=match):
        if solve == "picard_solve":
            picard_solve(*args)
        else:
            nonuniqueness_pair(*args, 0.05)


@pytest.mark.parametrize("k_max, modes", [
    (-1, {}), (2.5, {}), (2.0, {}),
    (2, {"g_theta": {1.5: 1e-3}}), (2, {"g_theta": {1.0: 1e-3}}),
    (2, {"g_theta": {"1": 1e-3}}), (2, {"forcing": ("theta", 1.5)})],
    ids=["k_max=-1", "k_max=2.5", "k_max=2.0", "key=1.5", "key=1.0",
         "key='1'", "forcing-key=1.5"])
@pytest.mark.parametrize("solve", ["picard_solve", "nonuniqueness_pair"])
def test_bad_truncation_or_mode_key_is_rejected_before_any_solve(
        grid, monkeypatch, solve, k_max, modes):
    # a truncation or a mode number that is not an integer (>= 0 for the
    # truncation) is a ConfigError where it enters, not a TypeError or a
    # DomainError from inside the loop
    _no_solve(monkeypatch)
    with pytest.raises(ConfigError, match="integer"):
        forcing = ForcingData()
        if "forcing" in modes:
            forcing = ForcingData(modes={modes["forcing"]: ForcingMode(
                lambda s: 1e-3 * s ** -10.0, 10.0)})
        b = BoundaryData(g_theta=modes.get("g_theta", {1: 1e-3}))
        args = (grid, -3.0, 1.0, k_max, forcing, b)
        if solve == "picard_solve":
            picard_solve(*args)
        else:
            nonuniqueness_pair(*args, 0.05)


def test_numpy_integer_modes_and_a_zero_truncation_are_accepted():
    g = RadialGrid.graded(128, 60.0, 2.0)
    plain = picard_solve(g, -1.0, 1.0, 2, ForcingData(),
                         BoundaryData(g_theta={1: 1e-3}))
    forcing = ForcingData(modes={("theta", np.int64(0)): ForcingMode(
        lambda s: 1e-3 * s ** -10.0, 10.0)})
    b = BoundaryData(g_theta={np.int64(1): 1e-3})
    assert_same_bits(picard_solve(g, -1.0, 1.0, np.int64(2), ForcingData(),
                                  b).v.data, plain.v.data)
    zero = picard_solve(g, -1.0, 1.0, 0, forcing, BoundaryData(g_z={0: 1e-3}))
    assert zero.converged and zero.v.k_max == 0


def test_pair_rejects_a_shifted_mu_that_overflows(grid, monkeypatch):
    _no_solve(monkeypatch)
    with pytest.raises(ConfigError, match="mu must be finite"):
        nonuniqueness_pair(grid, -3.0, 1e308, 2, ForcingData(),
                           BoundaryData(g_theta={1: 1e-3}), 1e308)


def test_picard_large_data_warns(grid):
    b = BoundaryData(g_theta={1: 0.5})
    with pytest.warns(RuntimeWarning, match="large"):
        try:
            picard_solve(grid, -1.0, 1.0, 4, ForcingData(), b, max_iters=4)
        except Exception:
            pass  # divergence is acceptable here; only the warning is required


def test_picard_truncation_guard(grid):
    b = BoundaryData(g_theta={5: 1e-3})
    with pytest.raises(ConfigError):
        picard_solve(grid, -1.0, 1.0, 3, ForcingData(), b)


def test_picard_ball_invariance(grid):
    # all iterate norms stay within the observed-constant ball
    b = BoundaryData(g_theta={1: 2e-4})
    bundle = picard_solve(grid, -1.0, 1.0, 4, ForcingData(), b)
    data = bundle.norms["V"] + bundle.norms["E"]
    assert bundle.norms["B_tau"] <= 2.0 * bundle.c_emp * data + 1e-12


# --- non-uniqueness -------------------------------------------------------------


def test_nonuniqueness_requires_supercritical(grid):
    with pytest.raises(ConfigError, match="nu < -2"):
        nonuniqueness_pair(grid, -1.0, 1.0, 2, ForcingData(), BoundaryData(), 0.05)


@pytest.mark.parametrize("nu, tail", [(0.5, False), (0.0, False),
                                      (-1.0, True), (-2.0, True),
                                      (-3.0, False), (np.nan, False),
                                      (np.inf, False), (-np.inf, False)])
def test_has_sigma_tail(nu, tail):
    assert has_sigma_tail(nu) is tail


@pytest.mark.parametrize("nu", [-2.0 - 1e-12, -2.0, np.nextafter(-2.0, 0.0)])
def test_sigma_split_sits_at_one_nu_everywhere(grid, nu, monkeypatch):
    # every site that splits on nu = -2 agrees with has_sigma_tail on both
    # sides of the split and at it (nextafter(-2, -inf) is left out: tau
    # rounds to 0 there and compute_tau refuses it)
    import excyl.picard

    tail = has_sigma_tail(nu)
    zero = np.zeros(len(grid), dtype=complex)
    assert (solve_zero_swirl(grid, nu, zero, 1e-3, 10.0).sigma is None) \
        == (not tail)
    assert (compute_tau(nu, 10.0, 10.0, 10.0).lambda_bar_theta < 10.0) \
        == (not tail)
    # the 2 sigma v_theta / r^2 coupling, set up as in test_rhs_sigma_coupling
    vbar = FourierField.zero(grid, 1, with_sigma=True)
    vbar.sigma = 0.3
    c = _profile(grid, 1e-2)
    vbar.set_mode(1, "theta", c)
    rhs = assemble_rhs(vbar, ForcingData(), 0.0, nu).rhs
    f_r1 = rhs[COMPONENTS.index("r"), 1]
    want = 2.0 * 0.3 * c.values / grid.nodes ** 2 if tail else 0.0 * f_r1
    np.testing.assert_allclose(f_r1, want, rtol=1e-12, atol=0.0)

    # the pair refuses before it would solve anything
    def no_solve(*args, **kwargs):
        raise AssertionError("nonuniqueness_pair went on to solve")

    monkeypatch.setattr(excyl.picard, "_lockstep", no_solve)
    if tail:
        with pytest.raises(ConfigError, match="nu < -2"):
            nonuniqueness_pair(grid, nu, 1.0, 1, ForcingData(),
                               BoundaryData(), 0.05)
    else:
        with pytest.raises(AssertionError, match="went on to solve"):
            nonuniqueness_pair(grid, nu, 1.0, 1, ForcingData(),
                               BoundaryData(), 0.05)


def test_nonuniqueness_zero_shift_is_identity(grid):
    first, second, rep = nonuniqueness_pair(
        grid, -3.0, 1.0, 2, ForcingData(), BoundaryData(), 0.0)
    assert rep.bundle_distance == 0.0
    np.testing.assert_allclose(rep.values, 0.0, atol=1e-15)


def test_nonuniqueness_separation(grid):
    first, second, rep = nonuniqueness_pair(
        grid, -3.0, 1.0, 2, ForcingData(), BoundaryData(), 0.05)
    assert first.converged and second.converged
    i = int(np.argmin(np.abs(rep.radii - 50.0)))
    assert rep.values[i] == pytest.approx(-0.05, rel=0.05)
    assert rep.bundle_distance > 10 * 1e-10


@pytest.mark.parametrize("delta_mu", [0.01, 0.05])
def test_fitted_separation_limit_removes_the_decay_bias(delta_mu):
    # at nu = -2.5 the separation approaches -delta_mu like r^{-1/2}, so its
    # value at r_max = 100 is 10 % off; the fit L + c r^{nu+2} over the last
    # decade recovers L = -delta_mu to 1.2e-15 relative and c = delta_mu to
    # six digits, with a max residual of 3.4e-14 delta_mu (n = 1024)
    g = RadialGrid.graded(1024, 100.0, 2.0)
    b = BoundaryData(g_theta={1: 1e-3}, g_z={1: 1e-3})
    _, _, rep = nonuniqueness_pair(g, -2.5, 1.0, 8, ForcingData(), b, delta_mu)
    assert abs(rep.limit_estimate + delta_mu) > 0.05 * delta_mu
    assert abs(rep.fitted_limit + delta_mu) <= 1e-13 * delta_mu
    assert rep.fitted_coefficient == pytest.approx(delta_mu, rel=1e-5)
    assert rep.fit_residual <= 1e-12 * delta_mu


def test_picard_non_finite_iterate_is_numeric_error(grid, monkeypatch):
    # non-finite data is rejected where it enters (next test), so poison the
    # linear solve's output (a stack of problems) to reach the iterate check
    import excyl.picard

    solve = excyl.picard.solve_linear_system

    def poisoned(*args, **kwargs):
        field, merid = solve(*args, **kwargs)
        field.data[..., COMPONENTS.index("theta"), 0, 0, len(grid) // 2] = np.nan
        return field, merid

    monkeypatch.setattr(excyl.picard, "solve_linear_system", poisoned)
    forcing = ForcingData(modes={
        ("theta", 0): ForcingMode(lambda r: 1e-4 * r ** -10.0, 10.0)})
    with pytest.raises(NumericError, match=r"iterate 1 .*\(theta, 0\)"):
        picard_solve(grid, -3.0, 1.0, 2, forcing, BoundaryData())


@pytest.mark.parametrize("where, slot, message", [
    ("value", (COMPONENTS.index("z"), 2, 0, 5), "(z, 2)"),
    ("derivative", (COMPONENTS.index("r"), 1, 2, 40), "(r, 1)"),
    ("sigma", None, "sigma"),
    ("values-only derivative", (COMPONENTS.index("theta"), 0, 1, 7),
     "(theta, 3)")])
def test_first_non_finite_names_the_first_poisoned_block(where, slot,
                                                         message):
    # sigma comes first, then (component, k) with k the slower index; a
    # field known by its values only does not look at its derivative slots
    from excyl.picard import _first_non_finite

    g = RadialGrid.graded(64, 60.0, 2.0)
    v = FourierField.zero(g, 3, with_sigma=True)
    v.data[COMPONENTS.index("theta"), 3, 0, 9] = np.inf  # a later block
    if slot is None:
        v.sigma = float("nan")
    else:
        v.data[slot] = complex(0.0, np.nan)
    v.has_derivatives = where != "values-only derivative"
    assert _first_non_finite(v) == message
    v.data[...], v.sigma = 0.0, 0.0
    assert _first_non_finite(v) == "no single mode (the norm overflowed)"


def test_non_finite_forcing_is_rejected_where_it_enters(grid):
    def f(r):
        out = 1e-4 * r ** -10.0
        out[len(r) // 2] = np.nan
        return out

    forcing = ForcingData(modes={("theta", 0): ForcingMode(f, 10.0)})
    with pytest.raises(NumericError, match=r"forcing \(theta, 0\) is not finite"):
        picard_solve(grid, -3.0, 1.0, 2, forcing, BoundaryData())


def test_forcing_without_a_value_per_node_is_rejected_where_it_enters(
        grid, monkeypatch):
    # a constant callable samples to a 0-d value, which the loop would
    # broadcast and the residual audit then fail on with a bare ValueError
    forcing = ForcingData(modes={("theta", 1): ForcingMode(lambda r: 1e-4,
                                                           10.0)})
    with pytest.raises(DomainError, match="one value per node"):
        forcing.sample("theta", -1, grid.nodes)
    _no_solve(monkeypatch)
    with pytest.raises(DomainError, match="one value per node"):
        picard_solve(grid, -1.0, 1.0, 2, forcing, BoundaryData())


def _imaginary(r):
    return 1e-4j * r ** -10.0


@pytest.mark.parametrize("modes, match", [
    ({("z", 1): _imaginary, ("z", -1): _imaginary},
     r"forcing \(z, 1\) and \(z, -1\) are not conjugates \(residue 1.00e-04\)"),
    ({("theta", 0): _imaginary}, r"forcing \(theta, 0\) is not real")],
    ids=["non-conjugate-pair", "imaginary-zero-mode"])
@pytest.mark.parametrize("solve", ["picard_solve", "nonuniqueness_pair"])
def test_non_real_forcing_is_rejected_before_any_solve(grid, monkeypatch,
                                                       solve, modes, match):
    # the loop samples the modes 0..K only: a mode -k that is not the
    # conjugate of mode k, or an imaginary mode 0, would be dropped silently
    forcing = ForcingData({key: ForcingMode(f, 10.0)
                           for key, f in modes.items()})
    _no_solve(monkeypatch)
    with pytest.raises(ConfigError, match=match):
        if solve == "picard_solve":
            picard_solve(grid, -1.0, 1.0, 2, forcing, BoundaryData())
        else:
            nonuniqueness_pair(grid, -3.0, 1.0, 2, forcing, BoundaryData(),
                               0.05)


# --- per-grid kernel cache ------------------------------------------------------


def _count_kernel_calls(monkeypatch):
    import excyl.modes

    calls = {}

    def counting(name):
        original = getattr(excyl.modes, name)

        def wrapper(k, nu, r, kind="swirl", **kwargs):
            key = (name, abs(k), kind)
            calls[key] = calls.get(key, 0) + 1
            return original(k, nu, r, kind, **kwargs)

        monkeypatch.setattr(excyl.modes, name, wrapper)

    counting("kernel_K_derivs")
    counting("kernel_I_derivs")
    return calls


def _cached_array_bytes(grid) -> int:
    """Bytes of the arrays in a grid's cache, each counted once, a view
    through its base."""
    bases = {}

    def visit(entry):
        if isinstance(entry, np.ndarray):
            while isinstance(entry.base, np.ndarray):
                entry = entry.base
            bases[id(entry)] = entry
        elif isinstance(entry, (tuple, list)):
            for e in entry:
                visit(e)
        elif hasattr(entry, "__dict__"):
            for e in vars(entry).values():
                visit(e)

    visit(list(grid._cache.values()))
    return sum(a.nbytes for a in bases.values())


def test_kernel_cache_shared_across_iterations_and_solves(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    g = RadialGrid.graded(256, 60.0, 2.0)
    b = BoundaryData(g_theta={1: 1e-3}, g_z={2: 5e-4})
    first, second, _ = nonuniqueness_pair(g, -3.0, 1.0, 2, ForcingData(), b, 0.05)
    assert first.iterations > 1 and second.iterations > 1
    expected = {(name, k, kind): 1
                for name in ("kernel_K_derivs", "kernel_I_derivs")
                for k in (1, 2) for kind in ("swirl", "vorticity", "stream")}
    assert calls == expected
    keys = set(g._cache)
    size = _cached_array_bytes(g)
    assert any(key[0] == "scanplan" for key in keys)
    nonuniqueness_pair(g, -3.0, 0.5, 2, ForcingData(), b, 0.02)
    assert calls == expected
    # a warm grid gains no cache entry and no cached bytes
    assert set(g._cache) == keys
    assert _cached_array_bytes(g) == size


def test_every_cached_operator_is_read_only():
    # the solve fills the kernel stacks and scan plans, its residual audit
    # the differentiation stencils; a one-mode solve adds its own stack and
    # cell_integrals its rule's basis: every array in the cache is frozen
    from types import SimpleNamespace

    from excyl.modes import solve_meridional_mode

    g = RadialGrid.graded(128, 60.0, 2.0)
    b = BoundaryData(g_theta={1: 1e-3}, g_z={2: 5e-4})
    attach_residual_report(picard_solve(g, -1.0, 1.0, 2, ForcingData(), b))
    zeros = np.zeros(len(g), dtype=complex)
    solve_meridional_mode(g, 1, -1.0, zeros, zeros, 1e-3, 0.0, 10.0)
    g.cell_integrals(g.nodes ** -2.0)
    assert ("deriv", 1) in g._cache
    assert ("meridionalstack", (1,), -1.0) in g._cache
    arrays = []

    def visit(entry):
        if isinstance(entry, np.ndarray):
            arrays.append(entry)
        elif isinstance(entry, tuple):
            for e in entry:
                visit(e)
        else:
            assert isinstance(entry, SimpleNamespace), type(entry)
            for e in vars(entry).values():
                visit(e)

    for key, entry in g._cache.items():
        before = len(arrays)
        visit(entry)
        assert len(arrays) > before, key
        for arr in arrays[before:]:
            assert not arr.flags.writeable, key
    assert not any(key[0] in ("kernels", "cellweights") for key in g._cache)


def test_closure_scan_factors_not_kept():
    # s_v_out, the one suffix at rates -2|k|, runs once per grid; its scan
    # plan is not kept, nor are per-rate cell weights, while the two-sided
    # plan that every nonzero stage of an iteration reads is
    g = RadialGrid.graded(256, 60.0, 2.0)
    b = BoundaryData(g_theta={1: 1e-3}, g_z={2: 5e-4})
    picard_solve(g, -1.0, 1.0, 3, ForcingData(), b)
    plans = {key[1:] for key in g._cache if key[0] == "scanplan"}
    assert ((), (-2.0, -4.0, -6.0)) not in plans
    assert ((1.0, 2.0, 3.0), (-1.0, -2.0, -3.0)) in plans
    assert not any(key[0] == "cellweights" for key in g._cache)


def test_wide_solve_cache_bytes_bounded():
    # the benchmark's wide-k solve (n = 512, K = 32, nu = -1): the scan
    # plans stack the cell weights of all their rates once and keep no
    # per-rate copies, so the grid cache holds no more than the 8321040
    # bytes (7.94 MiB) of the per-rate weights and factor tables before them
    g = RadialGrid.graded(512, 100.0, 2.0)
    b = BoundaryData(g_theta={k: 4e-4 / k ** 2 for k in range(1, 33)})
    picard_solve(g, -1.0, 1.0, 32, ForcingData(), b)
    assert _cached_array_bytes(g) <= 8321040


@pytest.mark.parametrize("nu, two_sided, one_sided", [(-3.0, 5, 0),
                                                      (-1.0, 4, 2)])
def test_scan_passes_per_iteration(monkeypatch, nu, two_sided, one_sided):
    # each nonzero stage (swirl, meridional forcing, stream transforms)
    # takes its prefix and suffix from one scan, and so does each zero-mode
    # solve, except the nested outer integrals of the swirl at -2 <= nu < 0
    import excyl.radial

    g = RadialGrid.graded(128, 60.0, 2.0)
    b = BoundaryData(g_theta={1: 1e-3}, g_z={2: 5e-4})
    picard_solve(g, nu, 1.0, 2, ForcingData(), b)  # builds the grid's cache
    calls = []
    scan = excyl.radial._scan

    def counting(sides, weights, steps):
        calls.append((len(sides), weights.shape[-1]))
        return scan(sides, weights, steps)

    monkeypatch.setattr(excyl.radial, "_scan", counting)
    bundle = picard_solve(g, nu, 1.0, 2, ForcingData(), b)
    assert bundle.iterations > 1
    assert [c for c, _ in calls].count(2) == two_sided * bundle.iterations
    assert [c for c, _ in calls].count(1) == one_sided * bundle.iterations
    assert len(calls) == (two_sided + one_sided) * bundle.iterations

    # narrow data: the first step solves modes 1..m = 1..2 of K = 4, so its
    # three nonzero stages (the last scans of an iteration) scan 2 m plan
    # columns; the later steps have the full band, 2 K columns
    picard_solve(g, nu, 1.0, 4, ForcingData(), b)
    calls.clear()
    bundle = picard_solve(g, nu, 1.0, 4, ForcingData(), b)
    per_step = two_sided + one_sided
    assert len(calls) == per_step * bundle.iterations
    widths = [[w for _, w in calls[i:i + per_step][-3:]]
              for i in range(0, len(calls), per_step)]
    assert widths == [[4] * 3] + [[8] * 3] * (bundle.iterations - 1)
    # zero-mode data only (m = 0): the nonzero stages run no scan
    calls.clear()
    zero_mode = BoundaryData(g_theta={0: 1e-3}, g_z={0: 5e-4})
    bundle = picard_solve(g, nu, 1.0, 4, ForcingData(), zero_mode)
    assert len(calls) == (per_step - 3) * bundle.iterations
    assert np.array_equal(bundle.v.data[:, 1:], np.zeros_like(bundle.v.data[:, 1:]))


def _narrow_cases():
    zero_mode = ForcingData(modes={
        ("theta", 0): ForcingMode(lambda s: 1e-3 * s ** -10.0, 10.0)})
    mode_1 = {"g_theta": {1: 1e-3}, "g_z": {1: 5e-4}}
    return [
        (-3.0, 8, ForcingData(), mode_1),
        (-1.0, 8, zero_mode, {"g_theta": {1: 1e-3}, "g_z": {2: 5e-4}}),
        (-3.0, 12, ForcingData(), mode_1),
    ]


@pytest.mark.parametrize("nu, k_max, forcing, data", _narrow_cases(),
                         ids=["nu=-3", "nu=-1-forced", "nu=-3-K=12"])
def test_band_limited_solve_equals_full_band_solve(nu, k_max, forcing, data):
    # data on modes <= 2 keep the first iterates narrow (bands 1 or 2, then
    # doubling; at K = 12 the band stops at 8); an explicit zero boundary
    # coefficient at mode K gives the same problem with the full band from
    # the first step
    g = RadialGrid.graded(192, 60.0, 2.0)
    narrow = picard_solve(g, nu, 1.0, k_max, forcing, BoundaryData(**data),
                          tol=1e-13)
    wide_data = dict(data, g_r={k_max: 0.0})
    full = picard_solve(g, nu, 1.0, k_max, forcing, BoundaryData(**wide_data),
                        tol=1e-13)
    assert narrow.iterations == full.iterations > 3
    assert narrow.diff_history == full.diff_history
    assert narrow.sigma == full.sigma
    assert np.array_equal(narrow.v.data, full.v.data)
    assert np.array_equal(narrow.meridional.w, full.meridional.w)
    assert np.array_equal(narrow.meridional.phi, full.meridional.phi)
    assert np.array_equal(narrow.rhs_final.rhs, full.rhs_final.rhs)
    assert (narrow.rhs_final.convolution_tail
            == full.rhs_final.convolution_tail)


def test_band_limited_solve_adds_no_cache_entry():
    # the narrow steps read their columns from the full-band scan plans and
    # their rows from the full-band stacks, so they cache nothing of their own
    k_max = 8
    caches = []
    for g_r in ({}, {k_max: 0.0}):
        g = RadialGrid.graded(128, 60.0, 2.0)
        b = BoundaryData(g_theta={1: 1e-3}, g_z={1: 5e-4}, g_r=g_r)
        picard_solve(g, -3.0, 1.0, k_max, ForcingData(), b)
        caches.append(({key for key in g._cache if key[0] == "scanplan"},
                       _cached_array_bytes(g)))
    assert caches[0] == caches[1]


def test_kernel_cache_hit_is_bit_identical():
    g = RadialGrid.graded(256, 60.0, 2.0)
    b = BoundaryData(g_theta={1: 1e-3}, g_z={2: 5e-4})
    cold = picard_solve(g, -1.0, 1.0, 2, ForcingData(), b)
    warm = picard_solve(g, -1.0, 1.0, 2, ForcingData(), b)
    assert warm.norms["B_tau"] == cold.norms["B_tau"]
    assert warm.diff_history == cold.diff_history
    for k in range(-2, 3):
        for c in ("r", "theta", "z"):
            p_cold, p_warm = cold.v.profile(c, k), warm.v.profile(c, k)
            for a, b_ in ((p_cold.values, p_warm.values), (p_cold.d1, p_warm.d1),
                          (p_cold.d2, p_warm.d2)):
                np.testing.assert_array_equal(a, b_)
