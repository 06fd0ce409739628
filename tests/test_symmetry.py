"""Exact symmetries of the discrete construction, checked bit for bit.

The stationary axisymmetric system is invariant under three maps of its
data, and the solver keeps each of them exactly: IEEE negation and
conjugation are exact, and rounding is symmetric in sign.

- swirl reversal: mu -> -mu with every theta boundary and forcing entry
  negated sends v_theta -> -v_theta and sigma -> -sigma; v_r and v_z keep
  their values;
- z reflection: every entry conjugated, the z entries also negated, sends
  v_r, v_theta -> conj and v_z -> -conj; sigma is unchanged;
- half-period shift z -> z + pi: entry k times (-1)^k sends mode k of the
  solution to (-1)^k times itself, so data on even modes only leave every
  odd mode exactly zero.

A failure means an asymmetric edit (an abs, a sign test, a wrong partner in
a quadratic term), not a tolerance to tune.  Values are compared with
np.array_equal, which reads -0 and +0 as equal: where the expected array
negates a zero the solve writes +0, which is no asymmetry.  Norms and
distance histories are even in the data and must agree exactly.
"""

import numpy as np
import pytest

from excyl.fourier import COMPONENTS, BoundaryData, ForcingData, ForcingMode
from excyl.picard import nonuniqueness_pair, picard_solve
from excyl.radial import RadialGrid
from excyl.residuals import attach_residual_report

R, TH, Z = (COMPONENTS.index(c) for c in ("r", "theta", "z"))
K = 6

# boundary data on r, theta and z at modes 0-3, complex ones included, and
# forcing on five modes; small enough for the contraction regime
BOUNDARY = {("r", 1): 2e-4 - 1e-4j, ("r", 3): 1e-4, ("theta", 0): 1e-3,
            ("theta", 2): 3e-4 + 2e-4j, ("z", 0): 4e-4, ("z", 1): 2e-4j,
            ("z", 2): -1e-4 + 1e-4j}
FORCING = {("theta", 0): (1e-4, 10.0), ("r", 1): (5e-5 + 2e-5j, 4.0),
           ("z", 0): (3e-5, 10.0), ("z", 2): (2e-5j, 6.0),
           ("theta", 3): (-4e-5, 5.0)}

# each map of the data, applied to the entry of (component, k)
DATA_MAPS = {
    "identity": lambda comp, k, v: v,
    "swirl reversal": lambda comp, k, v: -v if comp == "theta" else v,
    "z reflection": lambda comp, k, v: (-np.conj(v) if comp == "z"
                                        else np.conj(v)),
    "half-period shift": lambda comp, k, v: v * (-1) ** k,
}


def _solution_map(name, data, sigma):
    """The solution (data, sigma) that the map of the data must produce."""
    data = data.copy()
    if name == "swirl reversal":
        data[TH] = -data[TH]
        sigma = None if sigma is None else -sigma
    elif name == "z reflection":
        data = np.conj(data)
        data[Z] = -data[Z]
    elif name == "half-period shift":
        data *= ((-1.0) ** np.arange(K + 1))[:, None, None]
    return data, sigma


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.graded(256, 60.0, 2.0)


def _data(name, keep=lambda k: True):
    """BoundaryData and ForcingData of the map `name` of the entries whose
    mode k passes keep."""
    tr = DATA_MAPS[name]
    g = {"r": {}, "theta": {}, "z": {}}
    for (comp, k), v in BOUNDARY.items():
        if keep(k):
            g[comp][k] = tr(comp, k, v)
    modes = {}
    for (comp, k), (amp, p) in FORCING.items():
        if keep(k):
            a = tr(comp, k, amp)
            modes[comp, k] = ForcingMode(
                lambda r, a=a, p=p: a * r ** -p * np.exp(-(r - 1.0)), p + 10.0)
    return (BoundaryData(g_r=g["r"], g_theta=g["theta"], g_z=g["z"]),
            ForcingData(modes=modes))


def _solve(grid, nu, mu, name, keep=lambda k: True):
    boundary, forcing = _data(name, keep)
    return picard_solve(grid, nu, mu, K, forcing, boundary)


def _assert_mapped(got, base, name):
    data, sigma = _solution_map(name, base.v.data, base.sigma)
    assert np.array_equal(got.v.data, data)
    assert got.sigma == sigma
    assert got.norms == base.norms
    assert got.diff_history == base.diff_history


@pytest.mark.parametrize("name", ["swirl reversal", "z reflection",
                                  "half-period shift"])
@pytest.mark.parametrize("nu", [-1.0, -3.0])
def test_picard_solve_keeps_the_symmetry(grid, nu, name):
    mu = 0.7
    base = _solve(grid, nu, mu, "identity")
    assert base.converged and base.iterations > 2  # the quadratic terms act
    assert (base.sigma is not None) == (nu == -1.0)
    got = _solve(grid, nu, -mu if name == "swirl reversal" else mu, name)
    _assert_mapped(got, base, name)


@pytest.mark.parametrize("nu", [-1.0, -3.0])
def test_even_mode_data_leave_odd_modes_zero(grid, nu):
    bundle = _solve(grid, nu, 0.7, "identity", keep=lambda k: k % 2 == 0)
    assert bundle.converged
    assert np.any(bundle.v.data[:, 2::2] != 0.0)
    assert not np.any(bundle.v.data[:, 1::2])


def test_nonuniqueness_pair_keeps_swirl_reversal(grid):
    nu, mu, delta_mu = -3.0, 0.7, 0.05
    pairs = []
    for sign, name in ((1.0, "identity"), (-1.0, "swirl reversal")):
        boundary, forcing = _data(name)
        pairs.append(nonuniqueness_pair(grid, nu, sign * mu, K, forcing,
                                        boundary, sign * delta_mu))
    (first, second, rep), (first_r, second_r, rep_r) = pairs
    _assert_mapped(first_r, first, "swirl reversal")
    _assert_mapped(second_r, second, "swirl reversal")
    assert np.array_equal(rep_r.values, -rep.values)
    assert rep_r.bundle_distance == rep.bundle_distance


def test_audited_solve_at_negative_mu_with_zero_mode_swirl():
    # swirl reversal cannot see a rotation term written with |mu|, and the
    # other tier-1 solves all run at mu >= 0: an audited mu < 0 solve with
    # zero-mode swirl data reads such a term in its inner momentum residual
    grid = RadialGrid.graded(512, 100.0, 2.0)
    bundle = picard_solve(grid, -1.0, -1.0, 4, ForcingData(),
                          BoundaryData(g_theta={0: 1e-3, 1: 1e-3},
                                       g_z={1: 5e-4}))
    rep = attach_residual_report(bundle)
    assert bundle.converged
    assert rep.pressure_mode == "direct"
    assert rep.max_momentum <= 1e-6
    assert rep.divergence <= 1e-8
