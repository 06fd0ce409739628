"""The four per-mode linear solvers against closed forms and the FD oracle.

Zero modes use Euler-type kernels (power laws), nonzero modes the Bessel
pair; the meridional velocities come from a stream-function/vorticity
closure.  Three of the cases below have exact solutions; the forced
meridional case is cross-checked against an independent coupled
finite-difference solve instead.

Run:  python demos/02_linear_modes.py
"""

import numpy as np

from excyl import (
    RadialGrid,
    fd_meridional_solve,
    solve_meridional_mode,
    solve_swirl_mode,
    solve_zero_meridional,
    solve_zero_swirl,
)
from excyl.bessel import kernel_K

grid = RadialGrid.graded(2048, 100.0, 2.0)
r = grid.nodes

print("zero-mode swirl, nu=-3, f = r^-4, g = 0  (exact: r^-2 log r)")
sol = solve_zero_swirl(grid, -3.0, r ** -4.0, 0.0, 4.0)
print(f"  max error = {np.max(np.abs(sol.v_regular.values - r**-2.0*np.log(r))):.2e}")

print("zero-mode swirl, nu=-1, f = 0, g = 1  (pure 1/r tail)")
sol = solve_zero_swirl(grid, -1.0, np.zeros(len(grid)), 1.0, 10.0)
print(f"  sigma = {sol.sigma}, regular part max = {np.max(np.abs(sol.v_regular.values)):.1e}")

print("zero-mode vertical, nu=-1, f = r^-3, g = 0  (exact: log r / r)")
vz = solve_zero_meridional(grid, -1.0, r ** -3.0, 0.0, 3.0)
print(f"  max error = {np.max(np.abs(vz.values - np.log(r)/r)):.2e}")

print("swirl mode k=2, nu=-1, f = 0, g = 0.3  (exact: decaying kernel ratio)")
prof = solve_swirl_mode(grid, 2, -1.0, np.zeros(len(grid), complex), 0.3, 10.0)
kk = kernel_K(2, -1.0, r)
ref = 0.3 * kk.mantissa * np.exp(kk.exp_shift - kk.exp_shift[0]) / kk.mantissa[0]
print(f"  max error = {np.max(np.abs(prof.values - ref)):.2e}")

print("meridional mode k=2, nu=-3, f_r = r^-2 e^{-(r-1)}  (vs coupled FD oracle)")
f_r = (r ** -2.0 * np.exp(-(r - 1.0))).astype(complex)
sol = solve_meridional_mode(grid, 2, -3.0, f_r, np.zeros(len(grid), complex),
                            0.0, 0.0, 10.0)
phi, w, v_r, v_z = fd_meridional_solve(grid, 2, -3.0, 2j * f_r, 0.0, 0.0, 2.5)
print(f"  |v_r - oracle| = {np.max(np.abs(sol.v_r.values - v_r)):.2e} "
      "(oracle is 2nd order; the representation itself is ~1e-10 accurate)")
div = 2j * sol.v_z.values + sol.v_r.d1 + sol.v_r.values / r
print(f"  divergence identity on the grid: {np.max(np.abs(div)):.2e}")
