"""Grid, quadrature, tail closure and FD-oracle tests."""

import numpy as np
import pytest
from scipy.integrate import quad

from excyl.bessel import bessel_k
from excyl.errors import DomainError, NumericError
from excyl.radial import (
    RadialGrid,
    RadialProfile,
    exp_weighted_integrals,
    exp_weighted_prefix,
    exp_weighted_suffix,
    fd_bvp_solve,
    fd_meridional_solve,
    integrate_inner,
    integrate_outer,
    tail_closure,
    weighted_sup,
)
from excyl.radial import _phi_functions

from oracles import assert_same_bits


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.graded(512, 100.0, 2.0)


def test_grid_invariants(grid):
    assert grid.nodes[0] == 1.0
    assert grid.nodes[-1] == 100.0
    assert np.all(np.diff(grid.nodes) > 0)
    with pytest.raises(DomainError):
        RadialGrid(np.linspace(0.5, 10, 50))
    with pytest.raises(DomainError):
        RadialGrid(np.ones(20))
    with pytest.raises(DomainError, match="finite"):
        RadialGrid(np.append(np.linspace(1.0, 10.0, 20), np.inf))


def test_graded_takes_an_integer_cell_count():
    # a fractional n would put the last node past r_max (11.09 for n = 8.5)
    for n in (8.5, 64.0, "64"):
        with pytest.raises(DomainError, match="integer"):
            RadialGrid.graded(n, 10.0)
    g = RadialGrid.graded(np.int64(64), 10.0)
    assert len(g) == 65 and g.r_max == 10.0


@pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf])
def test_non_finite_radius_is_not_a_node(grid, r):
    # abs(x - nan) > tol is False for every node, so a NaN radius must be
    # rejected before the nearest-node search
    f = grid.nodes ** -3.0
    with pytest.raises(DomainError, match="not a grid node"):
        grid.node_index(r)
    with pytest.raises(DomainError, match="not a grid node"):
        integrate_inner(f, grid, r)
    with pytest.raises(DomainError, match="not a grid node"):
        integrate_outer(f, grid, r, decay_exponent=3.0)


def test_cell_integrals_exact_on_cubics_cell_by_cell():
    g = RadialGrid.graded(96, 40.0, 2.0)
    coef = [0.7, -0.3, 0.02, -5e-4]
    cubic = np.polynomial.Polynomial(coef)
    anti = cubic.integ()
    exact = np.diff(anti(g.nodes))
    np.testing.assert_allclose(g.cell_integrals(cubic(g.nodes)), exact,
                               rtol=1e-13)
    # the rate-0 rule reads the left-anchored basis and caches nothing else
    assert set(g._cache) == {("cellbasis", False)}


def test_quadrature_exact_on_cubics(grid):
    for p in range(4):
        got = integrate_inner(grid.nodes ** p, grid)
        exact = (grid.nodes ** (p + 1) - 1.0) / (p + 1)
        np.testing.assert_allclose(got, exact, rtol=1e-13, atol=1e-13)


def test_inner_inverse_square():
    # int_1^2 s^-2 ds = 1/2 on a grid with 2.0 as an exact node
    g = RadialGrid(np.linspace(1.0, 4.0, 601))
    got = integrate_inner(lambda s: s ** -2.0, g, 2.0)
    assert got == pytest.approx(0.5, abs=1e-9)


def test_outer_inverse_cube(grid):
    got = integrate_outer(lambda s: s ** -3.0, grid, 1.0, decay_exponent=3.0)
    assert got == pytest.approx(0.5, abs=1e-6)


def test_outer_scaled_kernel_matches_adaptive_oracle():
    # integrand s^2 * (e^{-|k|s}-scaled kernel), k=3, from r ~ 2
    g = RadialGrid.graded(2048, 100.0, 2.0)
    suffix = exp_weighted_suffix(g, g.nodes ** 2.0, -3.0)
    j = g.node_index(g.nodes[np.argmin(np.abs(g.nodes - 2.0))])
    rj = g.nodes[j]
    ref, _ = quad(lambda s: s * s * np.exp(-3.0 * (s - rj)), rj, g.r_max,
                  limit=1500, epsabs=1e-15, epsrel=1e-13)
    assert suffix[j] == pytest.approx(ref, rel=1e-9)


def test_inner_outer_consistency(grid):
    f = grid.nodes ** -2.5
    total = integrate_outer(f, grid, 1.0, decay_exponent=2.5)
    split = (integrate_inner(f, grid, grid.r_max)
             + integrate_outer(f, grid, grid.r_max, decay_exponent=2.5))
    assert split == pytest.approx(total, rel=1e-13)


def test_tail_closure_exact_on_power_law(grid):
    # the closure leaves no truncation bias at r_max for an exact power law,
    # so only the 4th-order quadrature error remains (N=512 here)
    p = 3.5
    got = integrate_outer(grid.nodes ** -p, grid, 1.0, decay_exponent=p)
    assert got == pytest.approx(1.0 / (p - 1.0), rel=2e-6)
    fine = RadialGrid.graded(2048, 100.0, 2.0)
    got = integrate_outer(fine.nodes ** -p, fine, 1.0, decay_exponent=p)
    assert got == pytest.approx(1.0 / (p - 1.0), rel=1e-8)


def test_nonintegrable_tail_rejected(grid):
    with pytest.raises(NumericError):
        integrate_outer(grid.nodes ** -0.5, grid, 1.0, decay_exponent=0.5)


def test_tail_mismatch_warning(grid):
    with pytest.warns(RuntimeWarning):
        integrate_outer(grid.nodes ** -2.0, grid, 1.0, decay_exponent=3.0)


def test_exp_weighted_prefix_and_suffix_match_quad(grid):
    k = 3.0
    b = grid.nodes ** 2.0 * np.exp(-0.3 * (grid.nodes - 1.0))
    pre = exp_weighted_prefix(grid, b, k)
    suf = exp_weighted_suffix(grid, b, -k)
    for j in [40, 205, 410]:
        rj = grid.nodes[j]
        fb = lambda s: s * s * np.exp(-0.3 * (s - 1.0))
        ref_p, _ = quad(lambda s: fb(s) * np.exp(k * (s - rj)), 1.0, rj,
                        limit=1200, epsabs=1e-300, epsrel=1e-13)
        ref_s, _ = quad(lambda s: fb(s) * np.exp(-k * (s - rj)), rj, grid.r_max,
                        limit=1200, epsabs=1e-300, epsrel=1e-13)
        assert pre[j] == pytest.approx(ref_p, rel=2e-6, abs=1e-300)
        assert suf[j] == pytest.approx(ref_s, rel=2e-6)


@pytest.mark.parametrize("rate", [40.0, 2000.0])
def test_exp_weighted_no_overflow_huge_rate(grid, rate):
    # |k| r_max = 4000 and 2e5: mantissas must stay finite, also where
    # e^{-rate h} underflows to 0 across a cell (rate 2000)
    pre = exp_weighted_prefix(grid, np.ones(len(grid)), rate)
    suf = exp_weighted_suffix(grid, np.ones(len(grid)), -rate)
    assert np.all(np.isfinite(pre))
    assert np.all(np.isfinite(suf))
    # int_1^r e^{ks} ds * e^{-kr} -> 1/k ; int_r^inf-ish e^{-ks} e^{+kr} -> 1/k
    np.testing.assert_allclose(pre[len(grid) // 2], 1 / rate, rtol=1e-6)
    np.testing.assert_allclose(suf[len(grid) // 2], 1 / rate, rtol=1e-6)


def _exact_mantissas(coef, rate, nodes, suffix):
    """Mantissas of the prefix (rate >= 0) or suffix (rate < 0) integrals of
    q(s) e^{rate s} on [1, r_max] for the polynomial q with coefficients
    coef, in closed form (mpmath): an antiderivative is
    e^{rate s} sum_i (-1)^i q^(i)(s) / rate^(i+1)."""
    import mpmath as mp

    with mp.workdps(60):
        q = np.polynomial.Polynomial(coef)
        derivs = [q.deriv(i).coef[::-1].tolist() for i in range(len(coef))]
        xs = [mp.mpf(float(x)) for x in nodes]
        rate = mp.mpf(rate)

        def anti(s, ref):
            if rate == 0:
                return mp.fsum(c * s ** (i + 1) / (i + 1)
                               for i, c in enumerate(coef))
            terms = (mp.polyval(d, s) * (-1) ** i / rate ** (i + 1)
                     for i, d in enumerate(derivs))
            return mp.fsum(terms) * mp.exp(rate * (s - ref))

        if suffix:
            vals = [anti(xs[-1], x) - anti(x, x) for x in xs]
        else:
            vals = [anti(x, x) - anti(xs[0], x) for x in xs]
        return np.array([float(v) for v in vals])


@pytest.mark.parametrize("rate", [0.0, 1e-3, 0.5, 1.0, 2.0, 16.0, 64.0, 84.0,
                                  128.0, 200.0, 2000.0])
def test_exp_weighted_exact_on_cubics_at_every_rate(grid, rate):
    # the cell rule integrates each cell's cubic against the exponential in
    # closed form, so a global cubic has no quadrature error at any rate
    for coef in ([1.0], [0.7, -0.3, 0.02, -5e-4]):
        b = np.polynomial.Polynomial(coef)(grid.nodes)
        got = [(exp_weighted_prefix(grid, b, rate),
                _exact_mantissas(coef, rate, grid.nodes, False))]
        if rate > 0:
            got.append((exp_weighted_suffix(grid, b, -rate),
                        _exact_mantissas(coef, -rate, grid.nodes, True)))
        for value, exact in got:
            scale = np.max(np.abs(exact))
            assert np.max(np.abs(value - exact)) <= 1e-14 * scale


@pytest.mark.parametrize("z", [0.0, -1e-8, -0.5, -0.999, -1.0, -1.001, -1.999,
                               -2.0, -2.001, -40.0, -800.0])
def test_phi_functions_match_mpmath(z):
    # both sides of the switch between the series and the recurrence
    import mpmath as mp

    got = _phi_functions(np.array([z]))[:, 0]
    with mp.workdps(50):
        zm = mp.mpf(z)
        for j in range(1, 5):
            # phi_j(z) = (e^z - sum_{i<j} z^i/i!) / z^j, or 1/j! at z = 0
            ref = (1 / mp.factorial(j) if z == 0 else
                   (mp.exp(zm) - mp.fsum(zm ** i / mp.factorial(i)
                                         for i in range(j))) / zm ** j)
            assert abs(got[j - 1] - ref) <= 1e-15 * abs(ref)


def test_cell_rule_cache_after_wide_solve():
    # a K=32 solve reads every rate up to 2K; the exact rule keeps one
    # inverse Vandermonde stack per anchor side and no quadrature tables,
    # and the scan plans hold the weights of the rates the iterations read
    from excyl.fourier import BoundaryData, ForcingData
    from excyl.picard import picard_solve

    g = RadialGrid.graded(128, 60.0, 2.0)
    boundary = BoundaryData(g_theta={k: 4e-4 / k ** 2 for k in range(1, 33)})
    picard_solve(g, -1.0, 1.0, 32, ForcingData(), boundary)
    assert not any(key[0] == "cellquad" for key in g._cache)
    bases = {key: val for key, val in g._cache.items() if key[0] == "cellbasis"}
    assert set(bases) == {("cellbasis", True), ("cellbasis", False)}
    for idx, basis in bases.values():
        assert basis.shape == (g.n_cells, 4, 4) and idx.shape == (g.n_cells, 4)
        assert not basis.flags.writeable and not idx.flags.writeable
    assert not any(key[0] == "cellweights" for key in g._cache)
    ks = tuple(float(k) for k in range(1, 33))
    weights, _ = g._cache[("scanplan", ks, tuple(-k for k in ks))]
    assert weights.shape == (4, g.n_cells, 64)
    # rate -2K is read once per grid, by the closure, and not kept
    assert not any(-64.0 in key[1] + key[2]
                   for key in g._cache if key[0] == "scanplan")


def test_rate_zero_prefix_is_integrate_inner(grid):
    for b in (grid.nodes ** -2.0, (1.0 - 2.0j) * np.cos(grid.nodes)):
        assert np.array_equal(exp_weighted_prefix(grid, b, 0.0),
                              integrate_inner(b, grid))


def test_stacked_exp_weighted_matches_row_by_row(grid):
    # one scan over a stack, one rate per row, equals the single-row calls
    r = grid.nodes
    rates = np.array([0.5, 1.0, 3.0, 8.0, 40.0])
    real = np.stack([r ** -p for p in (1.0, 2.0, 0.5, 3.0, 1.5)])
    for stack in (real, (1.0 - 2.0j) * np.cos(real) + 1j * real):
        pre = exp_weighted_prefix(grid, stack, rates)
        suf = exp_weighted_suffix(grid, stack, -rates)
        assert pre.shape == suf.shape == stack.shape
        for i, rate in enumerate(rates):
            assert np.array_equal(pre[i], exp_weighted_prefix(grid, stack[i], rate))
            assert np.array_equal(suf[i], exp_weighted_suffix(grid, stack[i], -rate))
    # one rate for every row
    zero = exp_weighted_prefix(grid, real, 0.0)
    for i in range(len(real)):
        assert np.array_equal(zero[i], integrate_inner(real[i], grid))


def test_stacked_exp_weighted_rejects_any_wrong_sign(grid):
    stack = np.ones((3, len(grid)))
    with pytest.raises(DomainError):
        exp_weighted_prefix(grid, stack, np.array([1.0, -1.0, 2.0]))
    with pytest.raises(DomainError):
        exp_weighted_suffix(grid, stack, np.array([-1.0, 0.0, -2.0]))
    with pytest.raises(DomainError):
        exp_weighted_suffix(grid, stack, np.array([-1.0, -2.0]))  # 2 rates, 3 rows


def _reference_scan(grid, b, rate, reverse):
    """The doubling scan as first written: weights and factors stacked on
    every call, factors doubled for complex rows, a suffix scanned through
    reversed views, and the factor products updated in the loop."""
    vals = np.asarray(b)
    rows = vals.reshape(-1, vals.shape[-1])
    rates = np.broadcast_to(np.asarray(rate, dtype=float), rows.shape[:1])
    rules = [grid._cell_rules(np.array([x])) for x in rates]
    w = np.stack([rule[0][0] for rule in rules], axis=-1)
    g = rows.T[grid._cache[("cellbasis", bool(rates[0] > 0))][0]]
    cells = (w[:, 0] * g[:, 0] + w[:, 1] * g[:, 1]
             + w[:, 2] * g[:, 2] + w[:, 3] * g[:, 3])
    a = np.stack([rule[1][0] for rule in rules], axis=-1)
    acc = cells.view(float)
    if acc.shape != a.shape:
        a = np.repeat(a, 2, axis=1)
    if reverse:
        a, acc = a[::-1], acc[::-1]
    s = 1
    while s < len(acc):
        acc[s:] += a[s:] * acc[:-s]
        a[s:] *= a[:-s]
        s *= 2
    out = np.zeros((len(acc) + 1, cells.shape[1]), cells.dtype)
    if reverse:
        out[:-1] = cells
    else:
        out[1:] = cells
    return out.T.reshape(vals.shape)


@pytest.mark.parametrize("n", [64, 512])
def test_scan_bitwise_equal_to_reference(n):
    g = RadialGrid.graded(n, 80.0, 2.0)
    rng = np.random.default_rng(n)
    ks = np.arange(1.0, 9.0)
    real = rng.standard_normal((len(ks), len(g))) * g.nodes ** -2.0
    real[4:, ::7] = -0.0
    cplx = real + 1j * rng.standard_normal(real.shape)
    cplx[4, ::5] = complex(0.0, -0.0)
    cplx[5, ::3] = complex(-0.0, 1.0)
    # rows of zeros with random signs: the sign of a zero cell integral
    # depends on how each product w * b is formed (a real weight times a
    # complex value is a complex product, whose zero signs differ from
    # separate products with the real and imaginary parts)
    signs = rng.standard_normal((2, 4, len(g)))
    real[:4] = np.copysign(0.0, signs[0])
    cplx.real[:4] = np.copysign(0.0, signs[0])
    cplx.imag[:4] = np.copysign(0.0, signs[1])
    for stack in (real, cplx):
        for rate in (0.0, ks):
            assert_same_bits(exp_weighted_prefix(g, stack, rate),
                             _reference_scan(g, stack, rate, False))
        for rate in (-ks, -2.0 * ks):
            assert_same_bits(exp_weighted_suffix(g, stack, rate),
                             _reference_scan(g, stack, rate, True))
        for i, k in enumerate(ks):
            row = stack[i]
            assert_same_bits(exp_weighted_prefix(g, row, k),
                             _reference_scan(g, row, k, False))
            assert_same_bits(exp_weighted_suffix(g, row, -2.0 * k),
                             _reference_scan(g, row, -2.0 * k, True))
            assert_same_bits(integrate_inner(row, g),
                             _reference_scan(g, row, 0.0, False))
            tail = tail_closure(row[-1], g.r_max, 3.0)
            assert_same_bits(
                integrate_outer(row, g, decay_exponent=3.0, check_tail=False),
                _reference_scan(g, row, 0.0, True) + tail)


def test_scan_factors_cached_read_only_per_rates_and_direction():
    # one plan per (prefix rates, suffix rates): its weights and step
    # factors are read-only, one column per row rate (one column for a
    # one-sided stack that shares a rate)
    g = RadialGrid.graded(64, 50.0, 2.0)
    stack = np.ones((3, len(g)))
    rates = np.array([1.0, 2.0, 3.0])
    exp_weighted_prefix(g, stack, rates)
    exp_weighted_prefix(g, 1j * stack, rates)  # complex rows share the entry
    exp_weighted_suffix(g, stack, -rates)
    exp_weighted_integrals(g, stack, rates, 1j * stack, -rates)
    # one shared rate, given once or per row, and a single row at that rate
    exp_weighted_prefix(g, stack, 2.0)
    exp_weighted_prefix(g, stack, np.full(3, 2.0))
    exp_weighted_prefix(g, stack[0], 2.0)
    entries = {key[1:]: val for key, val in g._cache.items()
               if key[0] == "scanplan"}
    assert set(entries) == {((1.0, 2.0, 3.0), ()), ((), (-1.0, -2.0, -3.0)),
                            ((1.0, 2.0, 3.0), (-1.0, -2.0, -3.0)),
                            ((2.0,), ())}
    assert not any(key[0] in ("cellweights", "scanfactors") for key in g._cache)
    for (in_rates, out_rates), (weights, steps) in entries.items():
        columns = len(in_rates) + len(out_rates)
        assert weights.shape == (4, g.n_cells, columns)
        assert not weights.flags.writeable
        assert len(steps) == 6  # ceil(log2 64) doubling steps
        for j, step in enumerate(steps):
            assert step.shape == (g.n_cells - 2 ** j, columns)
            assert not step.flags.writeable
    with pytest.raises(ValueError):
        entries[((2.0,), ())][1][0][0, 0] = 1.0
    with pytest.raises(ValueError):
        entries[((2.0,), ())][0][0, 0, 0] = 1.0
    # the two-sided plan holds each side's columns in its own scan order
    both = entries[((1.0, 2.0, 3.0), (-1.0, -2.0, -3.0))]
    for side, part in ((((1.0, 2.0, 3.0), ()), slice(0, 3)),
                       (((), (-1.0, -2.0, -3.0)), slice(3, 6))):
        for got, want in zip(both[1], entries[side][1]):
            assert_same_bits(got[:, part], want)
        assert_same_bits(both[0][:, :, part], entries[side][0])


def test_suffix_without_kept_factors_is_bitwise_equal():
    g = RadialGrid.graded(64, 50.0, 2.0)
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((3, len(g))) + 1j * rng.standard_normal((3, len(g)))
    rates = np.array([-2.0, -4.0, -6.0])
    key = ("scanplan", (), (-2.0, -4.0, -6.0))
    once = exp_weighted_suffix(g, stack, rates, keep_plan=False)
    assert key not in g._cache
    assert not any(key[0] == "cellweights" for key in g._cache)
    kept = exp_weighted_suffix(g, stack, rates)
    assert key in g._cache
    assert_same_bits(once, kept)
    # a plan that is already cached is read, and stays
    plan = g._cache[key]
    assert_same_bits(exp_weighted_suffix(g, stack, rates, keep_plan=False),
                     kept)
    assert g._cache[key] is plan


def _signed_zero_stacks(g, rng):
    """The real and complex stacks of test_scan_bitwise_equal_to_reference:
    random rows, rows with signed zeros, and rows of zeros of random signs."""
    real = rng.standard_normal((8, len(g))) * g.nodes ** -2.0
    real[4:, ::7] = -0.0
    cplx = real + 1j * rng.standard_normal(real.shape)
    cplx[4, ::5] = complex(0.0, -0.0)
    cplx[5, ::3] = complex(-0.0, 1.0)
    signs = rng.standard_normal((2, 4, len(g)))
    real[:4] = np.copysign(0.0, signs[0])
    cplx.real[:4] = np.copysign(0.0, signs[0])
    cplx.imag[:4] = np.copysign(0.0, signs[1])
    return real, cplx


@pytest.mark.parametrize("n", [64, 512])
def test_two_sided_scan_bitwise_equal_to_one_sided(n):
    # one scan over a prefix and a suffix stack equals the two one-sided
    # calls, for every side layout, dtype mix and rate pattern
    g = RadialGrid.graded(n, 80.0, 2.0)
    real, cplx = _signed_zero_stacks(g, np.random.default_rng(n + 1))
    ks = np.arange(1.0, 9.0)
    mixed = np.array([0.0, 0.5, 3.0, 1.0, 40.0, 2.0, 0.0, 7.0])
    cases = [(ks, -ks), (ks, -2.0 * ks), (mixed, -(mixed + 1.0)),
             (0.0, -ks), (mixed, -3.0)]
    for rate_in, rate_out in cases:
        for b_in, b_out in ((real, real), (cplx, cplx), (real, cplx),
                            (cplx, real[::-1])):
            pre, suf = exp_weighted_integrals(g, b_in, rate_in, b_out, rate_out)
            assert_same_bits(pre, exp_weighted_prefix(g, b_in, rate_in))
            assert_same_bits(suf, exp_weighted_suffix(g, b_out, rate_out))
    # one row per side, at rates of any size
    for i, (k_in, k_out) in enumerate(((1.0, -1.0), (0.0, -64.0), (8.0, -0.5))):
        pre, suf = exp_weighted_integrals(g, cplx[i], k_in, real[i + 4], k_out)
        assert_same_bits(pre, exp_weighted_prefix(g, cplx[i], k_in))
        assert_same_bits(suf, exp_weighted_suffix(g, real[i + 4], k_out))
    # rate 0 on both sides: integrate_inner and integrate_outer
    for row_in, row_out in ((real[0], real[5]), (cplx[1], cplx[6]),
                            (cplx[4], real[7])):
        inner, outer = exp_weighted_integrals(g, row_in, 0.0, row_out, 0.0,
                                              decay_exponent=3.0,
                                              check_tail=False)
        assert_same_bits(inner, integrate_inner(row_in, g))
        assert_same_bits(outer, integrate_outer(row_out, g, decay_exponent=3.0,
                                                check_tail=False))


def test_two_sided_scan_checks_each_side(grid):
    ones = np.ones((2, len(grid)))
    with pytest.raises(DomainError):  # a prefix rate below 0
        exp_weighted_integrals(grid, ones, [1.0, -1.0], ones, [-1.0, -2.0])
    with pytest.raises(DomainError):  # a suffix rate 0 with no tail
        exp_weighted_integrals(grid, ones, [1.0, 2.0], ones, [0.0, 0.0])
    with pytest.raises(DomainError):  # rate 0 mixed with decaying rows
        exp_weighted_integrals(grid, ones, 1.0, ones, [0.0, -1.0],
                               decay_exponent=3.0)
    with pytest.raises(DomainError):  # two rates for one row
        exp_weighted_integrals(grid, ones[0], [1.0, 2.0], ones, -1.0)
    pre, suf = exp_weighted_integrals(grid, ones, 1.0, None, None)
    assert suf is None and pre.shape == ones.shape


def test_first_rows_scan_reads_the_full_plan():
    # the rows of the first m rates scan on m columns per side of the plan
    # of all the rates: the same bits as the full call's rows, no new plan
    grid = RadialGrid.graded(96, 50.0, 2.0)
    rng = np.random.default_rng(41)
    rates = np.arange(1.0, 6.0)
    b_in, b_out = (rng.standard_normal((5, len(grid)))
                   + 1j * rng.standard_normal((5, len(grid))) for _ in "io")
    full = exp_weighted_integrals(grid, b_in, rates, b_out, -rates)
    prefix = exp_weighted_prefix(grid, b_in, rates)
    keys = set(grid._cache)
    for m in (1, 3, 5):
        got = exp_weighted_integrals(grid, b_in[:m], rates, b_out[:m], -rates,
                                     first_rows=m)
        for side, want in zip(got, full):
            assert_same_bits(side, want[:m])
        pre = exp_weighted_integrals(grid, b_in[:m], rates, None, None,
                                     first_rows=m)[0]
        assert_same_bits(pre, prefix[:m])
    assert set(grid._cache) == keys
    with pytest.raises(DomainError):  # rows beyond first_rows
        exp_weighted_integrals(grid, b_in[:3], rates, b_out[:3], -rates,
                               first_rows=2)
    with pytest.raises(DomainError):  # fewer rates than first_rows
        exp_weighted_integrals(grid, b_in, rates[:4], b_out, -rates[:4],
                               first_rows=5)


def _pressure(g, f):
    from excyl.modes import recover_pressure

    return recover_pressure(g, 0, -1.0, None, f, 4.0)


def _swirl_mode(g, f):
    from excyl.modes import solve_swirl_mode

    return solve_swirl_mode(g, 1, -1.0, f, 0.0, 10.0)


_SAMPLING_ENTRY_POINTS = {
    "integrate_inner": lambda g, f: integrate_inner(f, g),
    "integrate_outer": lambda g, f: integrate_outer(f, g, decay_exponent=4.0),
    "exp_weighted_prefix": lambda g, f: exp_weighted_prefix(g, f, 1.0),
    "fd_bvp_solve": lambda g, f: fd_bvp_solve(
        g, lambda r: 0 * r, lambda r: 0 * r, 1.0, f, 0.0, 2.0),
    "solve_swirl_mode": _swirl_mode,
    "recover_pressure": _pressure,
}


@pytest.mark.parametrize("entry", sorted(_SAMPLING_ENTRY_POINTS))
def test_samples_off_the_grid_are_a_domain_error(entry):
    # one sampler serves every entry point: an array or the result of a
    # callable whose last axis is not the nodes' is rejected alike
    g = RadialGrid.graded(64, 10.0, 1.5)
    run = _SAMPLING_ENTRY_POINTS[entry]
    run(g, lambda r: r ** -4.0)  # a callable of the nodes is sampled
    for bad in (np.ones(len(g) - 1), lambda r: r[1:] ** -4.0,
                lambda r: 1.0):
        with pytest.raises(DomainError, match="do not match the grid"):
            run(g, bad)


def test_exp_weighted_rate_signs(grid):
    # a rate-0 suffix would need a power-law tail closure, which is
    # integrate_outer's job, so suffixes take rate < 0 only
    ones = np.ones(len(grid))
    with pytest.raises(DomainError):
        exp_weighted_prefix(grid, ones, -1.0)
    for rate in (0.0, 1.0):
        with pytest.raises(DomainError):
            exp_weighted_suffix(grid, ones, rate)


def test_weighted_sup():
    g = RadialGrid.graded(128, 100.0, 2.0)
    zeta = 1.5
    n1 = weighted_sup(g.nodes ** -zeta, g, zeta)
    assert n1.value == pytest.approx(1.0, rel=1e-12)
    n2 = weighted_sup(g.nodes ** (-zeta - 1.0), g, zeta)
    assert n2.value == pytest.approx(1.0, rel=1e-12)
    assert n2.argmax_r == 1.0


def test_profile_guards():
    g = RadialGrid.graded(64, 50.0, 2.0)
    p = RadialProfile(g, np.ones(len(g)))
    with pytest.raises(NumericError):
        p.derivative(1)
    with pytest.raises(DomainError):
        RadialProfile(g, np.ones(7))


def test_differentiation_fourth_order():
    errs = []
    for n in (128, 256):
        g = RadialGrid.graded(n, 20.0, 2.0)
        f = np.exp(-(g.nodes - 1.0)) * g.nodes ** -1.0
        d_exact = -f - f / g.nodes
        errs.append(np.max(np.abs(g.differentiate(f, 1) - d_exact)))
    order = np.log2(errs[0] / errs[1])
    assert order > 3.5


# --- FD oracle ---------------------------------------------------------------


def _swirl_ops(nu):
    return (lambda r: (1.0 - nu) / r), (lambda r: -(1.0 + nu) / r ** 2)


def test_fd_oracle_homogeneous_inverse_r():
    # nu=-1 zero-mode swirl operator, f=0, bc 1 -> 1/r
    errs = []
    for n in (256, 512, 1024):
        g = RadialGrid.graded(n, 100.0, 2.0)
        p1, p0 = _swirl_ops(-1.0)
        sol = fd_bvp_solve(g, p1, p0, 0.0, np.zeros(len(g)), 1.0, 1.0)
        errs.append(np.max(np.abs(sol - 1.0 / g.nodes)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert errs[-1] < 5e-5
    assert np.all(orders > 1.9)


def test_fd_oracle_log_solution():
    # nu=-3 swirl zero mode with f = s^-4, bc 0 -> r^-2 ln r
    errs = []
    for n in (256, 512, 1024):
        g = RadialGrid.graded(n, 100.0, 2.0)
        p1, p0 = _swirl_ops(-3.0)
        sol = fd_bvp_solve(g, p1, p0, 0.0, g.nodes ** -4.0, 0.0, 2.0)
        exact = g.nodes ** -2.0 * np.log(g.nodes)
        errs.append(np.max(np.abs(sol - exact)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert errs[-1] < 5e-5
    assert np.all(orders > 1.9)


def test_fd_oracle_bessel_homogeneous():
    # nonzero-mode swirl, k=1, nu=0, f=0, bc 1 -> K_1(r)/K_1(1)
    errs = []
    for n in (256, 512, 1024):
        g = RadialGrid.graded(n, 100.0, 2.0)
        p1, p0 = _swirl_ops(0.0)
        sol = fd_bvp_solve(g, p1, p0, 1.0, np.zeros(len(g)), 1.0, 1.0)
        exact = bessel_k(1.0, g.nodes).value() / bessel_k(1.0, 1.0).value()
        errs.append(np.max(np.abs(sol - exact)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert errs[-1] < 5e-5
    assert np.all(orders > 1.9)


def _pure_stream_bc(g, k):
    from excyl.bessel import bessel_k_prime
    kk = abs(k)
    K1 = bessel_k(1.0, float(kk)).value()
    K1p = bessel_k_prime(1.0, float(kk)).value()
    # choose phi = K_1(|k| r): then g_r = -ik K1, g_z = |k| K1' + K1
    g_r = -1j * k * K1
    g_z = kk * K1p + K1
    return g_r, g_z


def test_fd_meridional_oracle_pure_stream():
    k = 2
    errs = []
    for n in (256, 512):
        g = RadialGrid.graded(n, 60.0, 2.0)
        g_r, g_z = _pure_stream_bc(g, k)
        phi, w, v_r, v_z = fd_meridional_solve(
            g, k, -1.0, np.zeros(len(g), dtype=complex), g_r, g_z, 5.0)
        exact = bessel_k(1.0, float(k) * g.nodes).value()
        errs.append(np.max(np.abs(phi - exact)))
    assert errs[-1] < 5e-4
    assert np.log2(errs[0] / errs[1]) > 1.8


@pytest.mark.parametrize("oracle", ["fd_bvp_solve", "fd_meridional_solve"])
def test_fd_oracle_failed_factorization_is_numeric_error(monkeypatch, oracle):
    import scipy.sparse.linalg as spla

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "spsolve", singular)
    g = RadialGrid.graded(64, 10.0, 1.5)
    with pytest.raises(NumericError, match="singular"):
        if oracle == "fd_bvp_solve":
            fd_bvp_solve(g, lambda r: 0 * r, lambda r: 0 * r, 1.0,
                         np.zeros(len(g)), 1.0, 2.0)
        else:
            fd_meridional_solve(g, 1, -1.0, np.zeros(len(g)), 1e-3, 0.0, 10.0)


def test_fd_oracle_singular_system_reported():
    g = RadialGrid.graded(64, 10.0, 1.5)
    with pytest.raises(NumericError):
        # absurd reaction term engineered to make the matrix singular is hard
        # to hit generically; non-finite rhs is the reliable failure signal
        fd_bvp_solve(g, lambda r: 0 * r, lambda r: 0 * r, 0.0,
                     np.full(len(g), np.nan), 0.0, 2.0)


def test_fd_oracle_complex_coefficient_with_real_data():
    # the system is complex when a sampled coefficient is, so real data
    # solve the same problem as the same data held complex
    g = RadialGrid.graded(64, 10.0, 1.5)
    p1, p0 = (lambda r: 1.0 / r), (lambda r: 1j / r ** 2)
    f = g.nodes ** -4.0
    sol = fd_bvp_solve(g, p1, p0, 1.0, f, 1.0, 2.0)
    want = fd_bvp_solve(g, p1, p0, 1.0, f.astype(complex), 1.0, 2.0)
    assert_same_bits(sol, want)
    assert np.max(np.abs(sol.imag)) > 0.0
