"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its headline numbers (run pytest
with -s to see them during the run); stated runtime budgets are asserted.
"""

import filecmp
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import excyl
from excyl.bessel import bessel_i, bessel_k, wronskian_check
from excyl.cli import main as cli_main
from excyl.fourier import BoundaryData, ForcingData, ForcingMode
from excyl.modes import (
    solve_meridional_mode,
    solve_swirl_mode,
    solve_zero_meridional,
    solve_zero_swirl,
)
from excyl.picard import compute_tau, nonuniqueness_pair, picard_solve
from excyl.radial import RadialGrid, fd_bvp_solve, fd_meridional_solve
from excyl.residuals import attach_residual_report, decay_fit, residual_asns
from excyl.fourier import FourierField

from oracles import mp_bessel_i, mp_bessel_k


def _report(num, label, **numbers):
    detail = ", ".join(f"{k}={v:.3g}" for k, v in numbers.items())
    print(f"\nACCEPTANCE {num}: PASS - {label} ({detail})")


def test_criterion_1_bessel_substrate():
    t0 = time.time()
    xs = np.geomspace(0.1, 30.0, 200)
    worst = 0.0
    import mpmath as mp
    for alpha in (0.0, 0.5, 1.0, 1.5, 2.5):
        got_i = bessel_i(alpha, xs)
        got_k = bessel_k(alpha, xs)
        li = got_i.log_abs()
        lk = got_k.log_abs()
        for j, x in enumerate(xs):
            # compare in log space to dodge under/overflow of tiny values
            log_ref_i = float(mp.log(mp_bessel_i(alpha, float(x))))
            log_ref_k = float(mp.log(mp_bessel_k(alpha, float(x))))
            rel_i = abs(np.expm1(float(li[j]) - log_ref_i))
            rel_k = abs(np.expm1(float(lk[j]) - log_ref_k))
            worst = max(worst, rel_i, rel_k)
    assert worst <= 1e-10
    xw = np.linspace(0.5, 50.0, 120)
    wr = wronskian_check(xw)
    wrel = float(np.max(np.abs(wr * xw + 1.0)))
    assert wrel <= 1e-8
    dt = time.time() - t0
    assert dt < 10.0
    _report(1, "modified Bessel substrate vs series oracle",
            max_rel_err=worst, wronskian_rel=wrel, seconds=dt)


def test_criterion_2_linear_mode_oracle_equivalence():
    t0 = time.time()
    ns = (512, 1024, 2048)
    # (a) closed-form solvers reproduce the analytic solutions at N=2048
    g = RadialGrid.graded(2048, 100.0, 2.0)
    r = g.nodes
    sol = solve_zero_swirl(g, -3.0, r ** -4.0, 0.0, 4.0)
    err_a = float(np.max(np.abs(sol.v_regular.values - r ** -2.0 * np.log(r))))
    vz = solve_zero_meridional(g, -1.0, r ** -3.0, 0.0, 3.0)
    err_b = float(np.max(np.abs(vz.values - np.log(r) / r)))
    from excyl.bessel import kernel_K
    c = 0.7 - 0.2j
    prof = solve_swirl_mode(g, 2, -1.0, np.zeros(len(g), complex), c, 10.0)
    kk = kernel_K(2, -1.0, r)
    ref = c * kk.mantissa * np.exp(kk.exp_shift - kk.exp_shift[0]) / kk.mantissa[0]
    err_c = float(np.max(np.abs(prof.values - ref)))
    assert max(err_a, err_b, err_c) <= 1e-6
    # (b) the independent FD oracle converges to them at order >= 1.9
    orders = []
    for nu, ksq, f, bc, decay, exact in (
            (-3.0, 0.0, lambda rr: rr ** -4.0, 0.0, 2.0,
             lambda rr: rr ** -2.0 * np.log(rr)),
            (-1.0, 0.0, lambda rr: np.zeros_like(rr), 1.0, 1.0,
             lambda rr: 1.0 / rr)):
        errs = []
        for n in ns:
            gg = RadialGrid.graded(n, 100.0, 2.0)
            p1 = lambda rr: (1.0 - nu) / rr
            p0 = lambda rr: -(1.0 + nu) / rr ** 2
            fd = fd_bvp_solve(gg, p1, p0, ksq, f(gg.nodes), bc, decay)
            errs.append(np.max(np.abs(fd - exact(gg.nodes))))
        orders.extend(np.log2(np.array(errs[:-1]) / np.array(errs[1:])))
    # vertical zero mode oracle
    errs = []
    for n in ns:
        gg = RadialGrid.graded(n, 100.0, 2.0)
        fd = fd_bvp_solve(gg, lambda rr: 2.0 / rr, lambda rr: 0.0 * rr, 0.0,
                          gg.nodes ** -3.0, 0.0, 1.0)
        errs.append(np.max(np.abs(fd - np.log(gg.nodes) / gg.nodes)))
    orders.extend(np.log2(np.array(errs[:-1]) / np.array(errs[1:])))
    assert min(orders) >= 1.9
    dt = time.time() - t0
    assert dt < 30.0
    _report(2, "linear-mode analytic examples and FD-oracle orders",
            max_err=max(err_a, err_b, err_c), min_order=min(orders), seconds=dt)


def test_criterion_3_meridional_closure():
    t0 = time.time()
    g = RadialGrid.graded(1024, 100.0, 2.0)
    zeros = np.zeros(len(g), dtype=complex)
    k, nu = 2, -3.0
    probe = solve_meridional_mode(g, k, nu, zeros, zeros, 1.0, 0.0, 10.0)
    g_r = 0.02 + 0.01j
    g_z = -probe.closure.A_k * g_r / probe.closure.B_k
    sol = solve_meridional_mode(g, k, nu, zeros, zeros, g_r, g_z, 10.0)
    bc_err = max(abs(sol.v_r.values[0] - g_r), abs(sol.v_z.values[0] - g_z))
    div = float(np.max(np.abs(1j * k * sol.v_z.values + sol.v_r.d1
                              + sol.v_r.values / g.nodes)))
    assert abs(sol.w_bar) < 1e-10
    assert bc_err <= 1e-8
    assert div <= 1e-8
    errs = []
    for n in (512, 1024, 2048):
        gg = RadialGrid.graded(n, 100.0, 2.0)
        f_r = (gg.nodes ** -2.0 * np.exp(-(gg.nodes - 1.0))).astype(complex)
        solved = solve_meridional_mode(gg, k, nu, f_r,
                                       np.zeros(len(gg), complex), 0.0, 0.0, 10.0)
        phi, w, v_r, v_z = fd_meridional_solve(gg, k, nu, 1j * k * f_r,
                                               0.0, 0.0, 2.5)
        errs.append(np.max(np.abs(v_r - solved.v_r.values))
                    + np.max(np.abs(v_z - solved.v_z.values)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.min(orders) >= 1.9
    dt = time.time() - t0
    assert dt < 60.0
    _report(3, "pure-stream closure and coupled-oracle order",
            bc_err=bc_err, divergence=div, min_order=float(np.min(orders)),
            seconds=dt)


@pytest.mark.parametrize("nu,mu", [(-1.0, 1.0), (-3.0, 1.0), (-1.0, 5.0)])
def test_criterion_4_nonlinear_construction(nu, mu):
    t0 = time.time()
    grid = RadialGrid.graded(1024, 100.0, 2.0)
    eps = 1e-3
    forcing = ForcingData()
    bundle = picard_solve(grid, nu, mu, 8, forcing,
                          BoundaryData(g_theta={1: eps}))
    attach_residual_report(bundle)
    assert bundle.converged
    assert bundle.iterations <= 15
    assert bundle.contraction_estimate <= 0.5
    rep = bundle.residual_report
    assert rep.max_momentum <= 1e-6
    assert rep.divergence <= 1e-8
    half = picard_solve(grid, nu, mu, 8, forcing,
                        BoundaryData(g_theta={1: eps / 2}))
    ratio = bundle.norms["B_tau"] / half.norms["B_tau"]
    assert ratio == pytest.approx(2.0, rel=0.10)
    dt = time.time() - t0
    assert dt < 600.0
    _report(4, f"nonlinear construction nu={nu}, mu={mu}",
            iters=bundle.iterations, contraction=bundle.contraction_estimate,
            momentum=rep.max_momentum, divergence=rep.divergence,
            scaling_ratio=ratio, seconds=dt)


def test_criterion_5_decay_verification():
    # the criterion's own arithmetic (min{10,4} and tau = 1) pins nu = -4;
    # see the decisions ledger for the inconsistency with its nu=-3 label
    t0 = time.time()
    nu, mu = -4.0, 1.0
    tau = compute_tau(nu, 10.0, 10.0, 10.0)
    assert tau.tau == pytest.approx(1.0)
    amp = 1e-3
    fam = lambda: ForcingMode(lambda r: amp * r ** -10.0, 10.0)
    forcing = ForcingData(modes={
        ("theta", 0): fam(), ("z", 0): fam(),
        ("r", 1): fam(), ("theta", 1): fam(), ("z", 1): fam(),
    }, lambda_theta=10.0, lambda_z=10.0, lambda_=10.0)
    grid = RadialGrid.graded(1024, 100.0, 2.0)
    bundle = picard_solve(grid, nu, mu, 8, forcing, BoundaryData())
    assert bundle.converged
    slope_th0, _ = decay_fit(bundle.v.profile("theta", 0).values, grid)
    slope_z0, _ = decay_fit(bundle.v.profile("z", 0).values, grid)
    assert slope_th0 <= -(1.0 + tau.tau) + 0.1
    assert slope_z0 <= -tau.tau + 0.1
    worst_nonzero = -np.inf
    for comp in ("r", "theta", "z"):
        fit = decay_fit(bundle.v.profile(comp, 1).values, grid)
        assert fit is not None
        worst_nonzero = max(worst_nonzero, fit[0])
    assert worst_nonzero <= -(0.5 + tau.tau) + 0.1
    dt = time.time() - t0
    assert dt < 600.0
    _report(5, "decay exponents vs tau = 1", swirl0=slope_th0, z0=slope_z0,
            nonzero=worst_nonzero, seconds=dt)


def test_criterion_6_nonuniqueness():
    t0 = time.time()
    grid = RadialGrid.graded(1024, 100.0, 2.0)
    tol = 1e-10
    first, second, rep = nonuniqueness_pair(
        grid, -3.0, 1.0, 8, ForcingData(), BoundaryData(), 0.05, tol=tol)
    from excyl.residuals import attach_residual_report
    r1 = attach_residual_report(first)
    r2 = attach_residual_report(second)
    assert r1.max_momentum <= 1e-6 and r1.divergence <= 1e-8
    assert r2.max_momentum <= 1e-6 and r2.divergence <= 1e-8
    i = int(np.argmin(np.abs(rep.radii - grid.r_max / 2.0)))
    sep = rep.values[i]
    assert sep == pytest.approx(-0.05, rel=0.05)
    assert rep.bundle_distance > 10.0 * tol
    dt = time.time() - t0
    assert dt < 1200.0
    _report(6, "non-uniqueness pair at nu=-3", separation_at_half=sep,
            distance=rep.bundle_distance,
            worst_residual=max(r1.max_momentum, r2.max_momentum), seconds=dt)


def test_criterion_7_background_exactness():
    t0 = time.time()
    grid = RadialGrid.graded(512, 100.0, 2.0)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        nu = -4.0 * rng.random() - 1e-3
        mu = 5.0 * rng.standard_normal()
        rep = residual_asns(FourierField.zero(grid, 2, with_sigma=False),
                            nu, mu, ForcingData(), BoundaryData())
        worst = max(worst, rep.max_momentum, rep.divergence)
    assert worst <= 1e-10
    dt = time.time() - t0
    assert dt < 10.0
    _report(7, "scale-critical background is an exact solution",
            worst_residual=worst, seconds=dt)


def _solve_in_subprocess(cfg_file, out, blas_threads):
    """`excyl solve` in a fresh interpreter whose BLAS runs blas_threads
    threads (the pool is sized once, at import)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               OMP_NUM_THREADS=str(blas_threads))
    src = str(Path(excyl.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "excyl.cli", "solve", str(cfg_file),
         "--output", str(out)], env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_criterion_8_determinism(tmp_path):
    t0 = time.time()
    cfg = """
[params]
nu = -1.0
mu = 1.0
k_max = 4
n_radial = 512

[boundary]
theta,1 = 1e-3
"""
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(cfg)
    outs = [tmp_path / d for d in ("a", "b", "blas1", "blas2")]
    assert cli_main(["solve", str(cfg_file), "--output", str(outs[0])]) == 0
    assert cli_main(["solve", str(cfg_file), "--output", str(outs[1])]) == 0
    # the only threads a solve runs are BLAS's: one and two of them write
    # the same bytes, which is stronger than the required <= 1e-13
    # componentwise agreement
    _solve_in_subprocess(cfg_file, outs[2], 1)
    _solve_in_subprocess(cfg_file, outs[3], 2)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(["config.ini", "residuals.csv", "summary.txt"]
                           + [f"mode_{k}.csv" for k in range(0, 5)])
    for out in outs[1:]:
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert filecmp.cmp(outs[0] / name, out / name, shallow=False), \
                (out.name, name)
    dt = time.time() - t0
    _report(8, "bit-identical reruns, in process and under 1 and 2 BLAS "
            "threads", files=len(names), runs=len(outs), seconds=dt)
