"""Mode convolution, synthesis and norm tests against spectral oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from excyl.errors import ConfigError, DomainError, NumericError
from excyl.fourier import (
    BoundaryData,
    ForcingData,
    ForcingMode,
    FourierField,
    bnorm,
    convolve_product,
    convolution_tail_norm,
    enorm,
    synthesize,
    vnorm,
)
from excyl.radial import RadialGrid, RadialProfile

from oracles import assert_same_bits


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.graded(96, 50.0, 2.0)


def _random_stack(grid, ks, k_max, rng):
    """Conjugate-symmetric modes -k_max..k_max, nonzero on +-ks only."""
    half = np.zeros((k_max + 1, len(grid)), dtype=complex)
    for k in ks:
        half[k] = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
    half[0] = half[0].real  # a real field has a real zero mode
    return np.concatenate((np.conj(half[:0:-1]), half))


def _pseudo_spectral_product(a, b, k_max):
    """Oracle: synthesize on a fine z grid, multiply pointwise, re-project.

    Returns rows k = 0..2K; 4K+1 samples resolve the product without aliasing.
    """
    n_z = 4 * k_max + 1
    z = 2.0 * np.pi * np.arange(n_z) / n_z
    e = np.exp(1j * np.outer(np.arange(-k_max, k_max + 1), z))
    prod = (a.T @ e) * (b.T @ e)
    coeffs = np.fft.fft(prod, axis=1) / n_z  # e^{+ikz} convention
    return coeffs[:, :2 * k_max + 1].T


def _direct_sum(a, b, k_max):
    """Reference loop: row k sums a_{k-l} b_l over l in increasing order."""
    out = np.zeros_like(a)
    for k in range(0, 2 * k_max + 1):
        for l in range(-k_max, k_max + 1):
            if abs(k - l) <= k_max:
                out[k] += a[k - l + k_max] * b[l + k_max]
    return out


def test_convolution_zero_factor(grid):
    rng = np.random.default_rng(1)
    a = _random_stack(grid, [0, 1], 3, rng)
    out = convolve_product(a, np.zeros_like(a), 3)
    assert np.all(out == 0)


def test_convolution_support(grid):
    rng = np.random.default_rng(2)
    a = _random_stack(grid, [1], 4, rng)
    b = _random_stack(grid, [1], 4, rng)
    out = convolve_product(a, b, 4)
    nonzero = {k for k, v in enumerate(out) if np.max(np.abs(v)) > 0}
    assert nonzero <= {0, 2}


def test_convolution_matches_pseudo_spectral_oracle(grid):
    rng = np.random.default_rng(3)
    k_max = 4
    a = _random_stack(grid, [0, 1, 2], k_max, rng)
    b = _random_stack(grid, [0, 1, 2], k_max, rng)
    got = convolve_product(a, b, k_max)
    np.testing.assert_allclose(got, _pseudo_spectral_product(a, b, k_max),
                               atol=1e-10)
    # same terms, same summation order as the plain double loop
    wide_a = _random_stack(grid, range(k_max + 1), k_max, rng)
    wide_b = _random_stack(grid, range(k_max + 1), k_max, rng)
    np.testing.assert_array_equal(convolve_product(wide_a, wide_b, k_max),
                                  _direct_sum(wide_a, wide_b, k_max))


@pytest.mark.parametrize("k_max", [1, 4, 7])
def test_product_without_tail_is_rows_of_full_product(grid, k_max):
    rng = np.random.default_rng(10 + k_max)
    a = _random_stack(grid, range(k_max + 1), k_max, rng)
    b = _random_stack(grid, range(0, k_max + 1, 2), k_max, rng)
    # signed zeros: a zero product row's sign depends on how its terms are
    # added, so every row must sum the same terms in the same order
    a[k_max + 1, ::3] = complex(-0.0, -0.0)
    b[0, ::2] = complex(-0.0, 0.0)
    for x, y in ((a, b), (b, a), (b, b), (a, -a)):
        got = convolve_product(x, y, k_max, with_tail=False)
        assert got.shape == (k_max + 1, len(grid))
        assert_same_bits(got, convolve_product(x, y, k_max)[:k_max + 1])
        assert_same_bits(got, _direct_sum(x, y, k_max)[:k_max + 1])


@pytest.mark.parametrize("band", [-1, 0, 1, 2, 4])
def test_band_limited_product_is_rows_of_full_product(grid, band):
    # inputs that vanish above |k| = band, some of those zeros signed: the
    # band-limited product forms rows 0..min(2K, 2B) (K + 1 at most without
    # the tail), each with the bits of the full product, whose rows above
    # 2B are zero
    k_max = 4
    rng = np.random.default_rng(30 + band)
    a = _random_stack(grid, range(band + 1), k_max, rng)
    b = _random_stack(grid, range(0, band + 1, 2), k_max, rng)
    a[k_max + band + 1:, ::3] = complex(-0.0, -0.0)
    b[:k_max - band, ::2] = complex(-0.0, 0.0)
    for x, y in ((a, b), (b, a), (a, -a)):
        for with_tail in (True, False):
            full = convolve_product(x, y, k_max, with_tail)
            got = convolve_product(x, y, k_max, with_tail, band=band)
            rows = max(0, min(len(full), 2 * band + 1))
            assert_same_bits(got, full[:rows])
            assert not np.any(full[rows:])
    for bad in (-2, k_max + 1):
        with pytest.raises(DomainError):
            convolve_product(a, b, k_max, band=bad)


def test_convolution_symmetry_and_linearity(grid):
    rng = np.random.default_rng(4)
    a, b, c = (_random_stack(grid, [0, 1], 2, rng) for _ in range(3))
    np.testing.assert_allclose(convolve_product(a, b, 2),
                               convolve_product(b, a, 2), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(convolve_product(a, b + c, 2),
                               convolve_product(a, b, 2) + convolve_product(a, c, 2),
                               rtol=1e-12, atol=1e-12)


def test_truncation_consistency(grid):
    # inputs supported on |k| <= K/2: truncated convolution equals the
    # truncated pseudo-spectral product exactly
    rng = np.random.default_rng(5)
    k_max = 6
    a = _random_stack(grid, [0, 1, 3], k_max, rng)
    b = _random_stack(grid, [0, 2, 3], k_max, rng)
    got = convolve_product(a, b, k_max)
    want = _pseudo_spectral_product(a, b, k_max)
    np.testing.assert_allclose(got[:k_max + 1], want[:k_max + 1], atol=1e-10)
    # support up to K/2 generates no discarded tail at all
    assert convolution_tail_norm(got, k_max) == 0.0
    # wider support does, and the diagnostic reports it
    wide = _random_stack(grid, [4], k_max, rng)
    assert convolution_tail_norm(convolve_product(wide, wide, k_max), k_max) > 0


def test_grid_mismatch_rejected(grid):
    other = RadialGrid.graded(64, 50.0, 2.0)
    a = np.ones((3, len(grid)), dtype=complex)
    b = np.ones((3, len(other)), dtype=complex)
    with pytest.raises(DomainError):
        convolve_product(a, b, 1)


# --- synthesis ---------------------------------------------------------------


def _field_with(grid, k, comp, values, k_max=3, sigma=None):
    f = FourierField.zero(grid, k_max, with_sigma=sigma is not None)
    prof = RadialProfile(grid, np.asarray(values, dtype=complex))
    f.set_mode(k, comp, prof)
    if sigma is not None:
        f.sigma = sigma
    return f


def test_synthesize_background_only(grid):
    f = FourierField.zero(grid, 2, with_sigma=True)
    u_r, u_th, u_z = synthesize(f, 2.0, 0.3, nu=-1.5, mu=2.0,
                                include_background=True)
    assert u_r == pytest.approx(-1.5 / 2.0)
    assert u_th == pytest.approx(2.0 / 2.0)
    assert u_z == pytest.approx(0.0)


def test_synthesize_single_mode_real_part(grid):
    c = grid.nodes ** -2.0 * (0.3 + 0.1j)
    f = _field_with(grid, 1, "theta", c)
    r = 3.0
    z = np.linspace(0, 2 * np.pi, 7)
    _, u_th, _ = synthesize(f, r, z, mu=1.0, include_background=True)
    cr = np.interp(r, grid.nodes, np.real(c)) + 1j * np.interp(r, grid.nodes, np.imag(c))
    want = 2.0 * np.real(cr * np.exp(1j * z)) + 1.0 / r
    np.testing.assert_allclose(u_th, want, rtol=1e-12)


def test_synthesize_matches_direct_summation(grid):
    rng = np.random.default_rng(6)
    f = FourierField.zero(grid, 3, with_sigma=False)
    for k in range(0, 4):
        for comp in ("r", "theta", "z"):
            vals = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
            if k == 0:
                vals = np.real(vals) + 0j
            f.set_mode(k, comp, RadialProfile(grid, vals))
    z = 2.0 * np.pi * np.arange(64) / 64
    r = grid.nodes[17]
    u = synthesize(f, r, z)
    for i, comp in enumerate(("r", "theta", "z")):
        direct = np.zeros_like(z, dtype=complex)
        for k in range(-3, 4):
            direct += f.profile(comp, k).values[17] * np.exp(1j * k * z)
        np.testing.assert_allclose(u[i], np.real(direct), atol=1e-12)
        assert np.max(np.abs(np.imag(direct))) < 1e-12


def test_synthesize_sigma_tail(grid):
    f = FourierField.zero(grid, 1, with_sigma=True)
    f.sigma = 0.7
    _, u_th, _ = synthesize(f, 2.0, 0.0)
    assert u_th == pytest.approx(0.7 / 2.0)


def test_synthesize_range_check(grid):
    f = FourierField.zero(grid, 1, with_sigma=False)
    with pytest.raises(DomainError):
        synthesize(f, 0.5, 0.0)
    # a NaN radius fails every range comparison; it and a non-finite height
    # are refused, not synthesized into NaN velocities
    with pytest.raises(DomainError, match="radius"):
        synthesize(f, np.nan, 0.0)
    for z in (np.inf, np.nan, [0.0, np.nan]):
        with pytest.raises(DomainError, match="heights"):
            synthesize(f, 2.0, z)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_synthesize_real_for_conjugate_symmetric(seed):
    grid = RadialGrid.graded(32, 20.0, 2.0)
    rng = np.random.default_rng(seed)
    f = FourierField.zero(grid, 2, with_sigma=False)
    for k in (1, 2):
        vals = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
        f.set_mode(k, "theta", RadialProfile(grid, vals))
    # would raise NumericError if the imaginary residue exceeded 1e-10
    synthesize(f, 5.0, np.linspace(0, 6.0, 5))


# --- data containers and norms ----------------------------------------------


def test_boundary_normalization_enforced():
    with pytest.raises(ConfigError):
        BoundaryData(g_r={0: 0.1})


def test_boundary_conjugate_symmetry_enforced():
    with pytest.raises(ConfigError):
        BoundaryData(g_theta={1: 1.0 + 1.0j, -1: 1.0 + 1.0j})


def test_boundary_non_finite_rejected():
    with pytest.raises(NumericError, match=r"\(theta, 1\)"):
        BoundaryData(g_theta={1: float("nan")})
    with pytest.raises(NumericError, match=r"\(z, 2\)"):
        BoundaryData(g_z={2: complex(0.0, float("inf"))})
    with pytest.raises(NumericError):
        BoundaryData(g_r={0: float("nan")})


def test_vnorm_single_mode():
    g = BoundaryData(g_theta={2: 0.1})
    # modes +2 and -2 each contribute (1+4)*0.1
    assert vnorm(g) == pytest.approx(1.0)


def test_forcing_validation():
    with pytest.raises(ConfigError):
        ForcingData(lambda_theta=3.0)
    with pytest.raises(ConfigError):
        ForcingData(lambda_z=2.0)
    with pytest.raises(ConfigError):
        ForcingData(lambda_=1.5)
    with pytest.raises(ConfigError):
        ForcingData(modes={("q", 0): ForcingMode(lambda r: r, 4.0)})


def test_enorm_power_law(grid):
    f = ForcingData(
        modes={("theta", 0): ForcingMode(lambda r: r ** -4.0, 4.0)},
        lambda_theta=4.0, lambda_z=3.0, lambda_=2.0)
    assert enorm(f, grid) == pytest.approx(1.0, rel=1e-12)
    # f_{r,0} is unrestricted: must not contribute
    f2 = ForcingData(
        modes={("r", 0): ForcingMode(lambda r: 13.0 * r ** -2.0, 2.0)},
        lambda_theta=4.0, lambda_z=3.0, lambda_=2.0)
    assert enorm(f2, grid) == 0.0


def test_bnorm_zero_field(grid):
    f = FourierField.zero(grid, 2, with_sigma=True)
    assert bnorm(f, 0.5) == 0.0


def test_bnorm_power_law_profile():
    # v_theta0 = r^-(1+tau): contribution sum_l sup r^{3+tau-l} |v^{(2-l)}|
    grid = RadialGrid.graded(4096, 100.0, 2.0)
    tau = 0.5
    r = grid.nodes
    p = 1.0 + tau
    vals = r ** -p
    d1 = -p * r ** (-p - 1.0)
    d2 = p * (p + 1.0) * r ** (-p - 2.0)
    f = FourierField.zero(grid, 1, with_sigma=False)
    f.set_mode(0, "theta", RadialProfile(grid, vals.astype(complex),
                                         d1.astype(complex), d2.astype(complex)))
    # analytic sups attained at r=1: |v''| weight 3+tau, |v'| weight 2+tau, v weight 1+tau
    want = p * (p + 1.0) + p + 1.0
    assert bnorm(f, tau) == pytest.approx(want, rel=1e-2)


def test_bnorm_includes_sigma(grid):
    f = FourierField.zero(grid, 1, with_sigma=True)
    f.sigma = 0.25
    assert bnorm(f, 0.5) == pytest.approx(0.25)


def test_bnorm_k_weights(grid):
    vals = np.exp(-(grid.nodes - 1.0)).astype(complex)
    zero = np.zeros(len(grid), dtype=complex)
    f = FourierField.zero(grid, 3, with_sigma=False)
    f.set_mode(3, "z", RadialProfile(grid, vals, zero, zero))
    tau = 0.5
    w = np.max(grid.nodes ** (1.5 + tau) * np.abs(vals))
    assert bnorm(f, tau) == pytest.approx(2 * 9 * w, rel=1e-12)


def test_bnorm_requires_derivatives(grid):
    f = FourierField.zero(grid, 1, with_sigma=False)
    f.set_mode(0, "theta", RadialProfile(grid, np.ones(len(grid), dtype=complex)))
    from excyl.errors import NumericError
    with pytest.raises(NumericError):
        bnorm(f, 0.5)
