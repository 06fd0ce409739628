"""Nonlinear assembly and fixed-point iteration tests."""

import numpy as np
import pytest

from excyl.errors import ConfigError, NumericError
from excyl.fourier import (COMPONENTS, BoundaryData, ForcingData, ForcingMode,
                           FourierField, bnorm)
from excyl.picard import (
    assemble_rhs,
    compute_tau,
    nonuniqueness_pair,
    picard_solve,
)
from excyl.radial import RadialGrid, RadialProfile

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
    np.testing.assert_allclose(rhs.rhs[("theta", 0)], r ** -4.0)
    np.testing.assert_allclose(rhs.rhs[("z", 1)], (0.1 + 0.2j) * r ** -3.0)
    # the zero radial mode is absorbed (audited), not solved
    assert np.all(rhs.rhs[("r", 0)] == 0.0)
    np.testing.assert_allclose(rhs.absorbed_fr0, r ** -2.0)


def test_rhs_swirl_only_support(grid):
    # vbar with only v_theta,+-1: quadratic terms live on k in {0, 2};
    # the k=0 radial output is absorbed, the k=2 centrifugal term survives
    vbar = FourierField.zero(grid, 2, with_sigma=False)
    c = _profile(grid, 1e-2)
    vbar.set_mode(1, "theta", c)
    rhs = assemble_rhs(vbar, ForcingData(), 0.0, -3.0)
    r = grid.nodes
    np.testing.assert_allclose(rhs.rhs[("r", 2)], c.values ** 2 / r,
                               rtol=1e-12)
    assert np.all(rhs.rhs[("r", 0)] == 0.0)
    # audit keeps the absorbed centrifugal zero mode 2|c|^2/r
    np.testing.assert_allclose(rhs.absorbed_fr0,
                               2.0 * np.abs(c.values) ** 2 / r, rtol=1e-12)
    # no sigma coupling for nu < -2 and no theta/z quadratics from pure swirl
    assert np.max(np.abs(rhs.rhs[("theta", 1)])) == 0.0
    assert np.max(np.abs(rhs.rhs[("z", 1)])) == 0.0


def test_rhs_sigma_coupling(grid):
    vbar = FourierField.zero(grid, 1, with_sigma=True)
    vbar.sigma = 0.3
    c = _profile(grid, 1e-2)
    vbar.set_mode(1, "theta", c)
    rhs = assemble_rhs(vbar, ForcingData(), 0.0, -1.0)
    r = grid.nodes
    np.testing.assert_allclose(rhs.rhs[("r", 1)],
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
            np.testing.assert_allclose(rhs.rhs[(comp, k)], want, atol=1e-9,
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
    with_sigma = -2.0 <= nu < 0.0
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
    vbar = FourierField.zero(grid, k_max, with_sigma=-2.0 <= nu < 0.0)
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
    assert set(got.rhs) == set(rhs)
    for key, want in rhs.items():
        assert_same_bits(got.rhs[key], want)
    assert_same_bits(got.absorbed_fr0, absorbed)
    assert got.convolution_tail == tail
    assert (tail == 0.0) == case.startswith("zero")
    # the forcing sampled once by the caller gives the same bits
    again = assemble_rhs(vbar, forcing, 0.7, nu,
                         forcing.sample_stack(k_max, grid.nodes))
    for key, want in rhs.items():
        assert_same_bits(again.rhs[key], want)


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
    bundle = picard_solve(grid, -1.0, 1.0, 6, ForcingData(), b, verify=True)
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
    decays = {("theta", 0): 3.0 + 2 * bundle.tau.tau,
              ("z", 0): 3.0 + 2 * bundle.tau.tau,
              "nonzero": 3.0 + 2 * bundle.tau.tau}
    v_again, _ = solve_linear_system(grid, bundle.nu, bundle.mu, 5, rhs.rhs,
                                     decays, b)
    assert bnorm(v_again - bundle.v, bundle.tau.tau) <= 10 * tol


def test_picard_sigma_structure(grid):
    b = BoundaryData(g_theta={0: 1e-3, 1: 1e-3})
    sup = picard_solve(grid, -3.0, 1.0, 4, ForcingData(), b)
    assert sup.sigma is None  # structurally absent for nu < -2
    sub = picard_solve(grid, -1.0, 1.0, 4, ForcingData(), b)
    assert sub.sigma is not None
    assert sub.sigma == pytest.approx(1e-3, rel=1e-3)  # dominated by g_theta0


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


def test_picard_non_finite_iterate_is_numeric_error(grid, monkeypatch):
    # non-finite data is rejected where it enters (next test), so poison the
    # linear solve's output to reach the iterate check
    import excyl.picard

    solve = excyl.picard.solve_linear_system

    def poisoned(*args, **kwargs):
        field, merid = solve(*args, **kwargs)
        field.data[COMPONENTS.index("theta"), 0, 0, len(grid) // 2] = np.nan
        return field, merid

    monkeypatch.setattr(excyl.picard, "solve_linear_system", poisoned)
    forcing = ForcingData(modes={
        ("theta", 0): ForcingMode(lambda r: 1e-4 * r ** -10.0, 10.0)})
    with pytest.raises(NumericError, match=r"iterate 1 .*\(theta, 0\)"):
        picard_solve(grid, -3.0, 1.0, 2, forcing, BoundaryData())


def test_non_finite_forcing_is_rejected_where_it_enters(grid):
    def f(r):
        out = 1e-4 * r ** -10.0
        out[len(r) // 2] = np.nan
        return out

    forcing = ForcingData(modes={("theta", 0): ForcingMode(f, 10.0)})
    with pytest.raises(NumericError, match=r"forcing \(theta, 0\) is not finite"):
        picard_solve(grid, -3.0, 1.0, 2, forcing, BoundaryData())


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


def _cached_bytes(entry) -> int:
    if isinstance(entry, np.ndarray):
        return entry.nbytes
    if isinstance(entry, (tuple, list)):
        return sum(_cached_bytes(e) for e in entry)
    if hasattr(entry, "__dict__"):
        return sum(_cached_bytes(e) for e in vars(entry).values())
    return 0


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
    size = _cached_bytes(list(g._cache.values()))
    assert any(key[0] == "scanfactors" for key in keys)
    nonuniqueness_pair(g, -3.0, 0.5, 2, ForcingData(), b, 0.02)
    assert calls == expected
    # a warm grid gains no cache entry and no cached bytes
    assert set(g._cache) == keys
    assert _cached_bytes(list(g._cache.values())) == size


def test_closure_scan_factors_not_kept():
    # s_v_out, the one suffix at rates -2|k|, runs once per grid; its
    # scan-factor table is not kept, while the tables iterations read are
    g = RadialGrid.graded(256, 60.0, 2.0)
    b = BoundaryData(g_theta={1: 1e-3}, g_z={2: 5e-4})
    picard_solve(g, -1.0, 1.0, 3, ForcingData(), b)
    tables = {key[1:] for key in g._cache if key[0] == "scanfactors"}
    assert ((-2.0, -4.0, -6.0), True) not in tables
    assert ((-1.0, -2.0, -3.0), True) in tables
    assert ((1.0, 2.0, 3.0), False) in tables


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
