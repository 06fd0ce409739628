"""The lockstep Picard loop: a non-uniqueness pair (and any stack of problems
on one grid) steps its solves together, and each keeps the bits, the
iteration count and the failure of its own picard_solve."""

import numpy as np
import pytest

from excyl.errors import ConvergenceError, DomainError
from excyl.fourier import BoundaryData, ForcingData, ForcingMode
from excyl.picard import _lockstep, nonuniqueness_pair, picard_solve
from excyl.radial import RadialGrid

from oracles import assert_same_bits


def _assert_same_bundle(got, want):
    """Every number a bundle carries, bit for bit (signed zeros included)."""
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert_same_bits(got.v.data, want.v.data)
    assert_same_bits(np.array(got.diff_history), np.array(want.diff_history))
    for a, b in ((got.sigma, want.sigma),
                 (got.contraction_estimate, want.contraction_estimate),
                 (got.rhs_final.convolution_tail,
                  want.rhs_final.convolution_tail),
                 (got.norms["B_tau"], want.norms["B_tau"])):
        assert type(a) is type(b)
        if a is not None and not (np.isnan(a) and np.isnan(b)):
            assert_same_bits(np.array(a), np.array(b))
    assert_same_bits(got.rhs_final.rhs, want.rhs_final.rhs)
    assert_same_bits(got.rhs_final.absorbed_fr0, want.rhs_final.absorbed_fr0)
    assert_same_bits(got.meridional.w, want.meridional.w)
    assert_same_bits(got.meridional.phi, want.meridional.phi)


def _pair_cases():
    narrow = {"g_theta": {1: 1e-3}, "g_z": {1: 5e-4}}
    wide = {"g_theta": {1: 1e-3}, "g_z": {1: 5e-4}, "g_r": {2: 5e-4}}
    return [
        # the benchmark's pair: 4 and 5 iterations
        (256, 8, wide, 0.06, {}),
        # bands 1, 2, 4, 8, 16, 24 at K = 24
        (256, 24, narrow, 0.06, {}),
        # no data: the first problem has band -1, the second (whose swirl
        # mean is shifted) band 0
        (128, 4, {}, 0.05, {}),
        (256, 8, wide, 0.06, {"relaxation": 0.7}),
    ]


@pytest.mark.parametrize("n, k_max, data, delta_mu, settings", _pair_cases(),
                         ids=["iterations-differ", "narrow-K=24", "no-data",
                              "relaxation"])
def test_lockstep_pair_has_the_bits_of_two_solves(n, k_max, data, delta_mu,
                                                  settings):
    g = RadialGrid.graded(n, 60.0, 2.0)
    b = BoundaryData(**data)
    first, second, _ = nonuniqueness_pair(g, -3.0, 1.0, k_max, ForcingData(),
                                          b, delta_mu, **settings)
    alone = [picard_solve(g, -3.0, 1.0, k_max, ForcingData(), b, **settings),
             picard_solve(g, -3.0, 1.0 + delta_mu, k_max, ForcingData(),
                          b.shifted_swirl_mean(-delta_mu), **settings)]
    for got, want in zip((first, second), alone):
        _assert_same_bundle(got, want)
    if data == {}:  # the first retires after one step
        assert first.iterations == 1 < second.iterations
    elif not settings:
        assert first.iterations != second.iterations


def test_lockstep_keeps_sigma_and_each_problems_band():
    # nu = -1 carries sigma (and its sigma^2 / r^3 audit term); all three
    # problems reach mode 3, two of them through an explicit zero
    # coefficient, so each steps at its own bands 3, 6, 8; a forcing on
    # mode 0 is shared by all three problems
    g = RadialGrid.graded(192, 60.0, 2.0)
    forcing = ForcingData(modes={
        ("theta", 0): ForcingMode(lambda s: 1e-3 * s ** -10.0, 10.0)})
    problems = [(1.0, BoundaryData(g_theta={0: 2e-3, 1: 1e-3, 3: 0.0})),
                (0.5, BoundaryData(g_theta={3: 5e-4}, g_z={3: 2e-4})),
                (2.0, BoundaryData(g_theta={1: 4e-4, 3: 0.0}, g_r={1: 1e-4}))]
    bundles = _lockstep(g, -1.0, [mu for mu, _ in problems], 8, forcing,
                        [b for _, b in problems])
    for (mu, b), got in zip(problems, bundles):
        want = picard_solve(g, -1.0, mu, 8, forcing, b)
        assert got.sigma is not None and got.sigma != 0.0
        _assert_same_bundle(got, want)
    # one band steps them all: data stopping at modes 1 and 3 do not share
    with pytest.raises(DomainError, match="same highest mode"):
        _lockstep(g, -1.0, [1.0, 0.5], 8, forcing,
                  [BoundaryData(g_theta={1: 1e-3}),
                   BoundaryData(g_theta={3: 5e-4})])


def test_relaxed_lockstep_with_sigma_keeps_each_problems_bits():
    # nu = -1 carries sigma, which the stacked blend reads per problem; the
    # all-zero second problem keeps sigma exactly 0 and retires after one
    # step (22, 1 and 23 iterations)
    g = RadialGrid.graded(192, 60.0, 2.0)
    problems = [(1.0, BoundaryData(g_theta={1: 1e-3, 3: 0.0})),
                (0.5, BoundaryData(g_theta={3: 0.0})),
                (2.0, BoundaryData(g_theta={0: -1e-3, 3: 5e-4},
                                   g_z={1: 2e-4}))]
    bundles = _lockstep(g, -1.0, [mu for mu, _ in problems], 8,
                        ForcingData(), [b for _, b in problems],
                        relaxation=0.6)
    for (mu, b), got in zip(problems, bundles):
        _assert_same_bundle(got, picard_solve(g, -1.0, mu, 8, ForcingData(),
                                              b, relaxation=0.6))
    assert [b.iterations for b in bundles] == [22, 1, 23]
    assert bundles[1].sigma == 0.0 and bundles[0].sigma != 0.0


def _error_of(solve):
    with pytest.raises(ConvergenceError) as info:
        solve()
    return info.value


@pytest.mark.parametrize("mean, delta_mu, failing", [
    (10.0, -30.0, "second"), (40.0, 40.0, "first"), (40.0, -30.0, "both")],
    ids=["second-diverges", "first-diverges", "both-diverge"])
def test_pair_raises_the_error_of_its_first_diverging_problem(mean, delta_mu,
                                                              failing):
    # at nu = -3 a swirl mean of 40 or 70 diverges (within 6 iterations),
    # one of 0 or 10 converges; the pair shifts the mean by -delta_mu.  The
    # error of the lowest-index failing problem is raised once the problems
    # before it have finished: a diverging second problem waits for the
    # first to converge (23 iterations), and when both diverge the first's
    # error wins although the second fails one step earlier
    g = RadialGrid.graded(128, 60.0, 2.0)
    b = BoundaryData(g_theta={0: mean, 1: 0.05}, g_z={1: 0.025})
    shifted = b.shifted_swirl_mean(-delta_mu)

    def first():
        return picard_solve(g, -3.0, 1.0, 4, ForcingData(), b, max_iters=40)

    def second():
        return picard_solve(g, -3.0, 1.0 + delta_mu, 4, ForcingData(),
                            shifted, max_iters=40)

    with pytest.warns(RuntimeWarning, match="large"):
        if failing == "second":
            want = _error_of(second)
            assert first().iterations > want.state.iterations
        else:
            want = _error_of(first)
            if failing == "both":
                assert _error_of(second).state.iterations \
                    < want.state.iterations
            else:
                assert second().converged
        got = _error_of(lambda: nonuniqueness_pair(
            g, -3.0, 1.0, 4, ForcingData(), b, delta_mu, max_iters=40))
    assert str(got) == str(want)
    assert got.state.iterations == want.state.iterations
    assert got.state.diff_norm_history == want.state.diff_norm_history
    assert_same_bits(got.state.v_current.data, want.state.v_current.data)


def _count_scans(monkeypatch):
    import excyl.radial

    calls = []
    scan = excyl.radial._scan

    def counting(sides, weights, steps):
        calls.append(len(sides))
        return scan(sides, weights, steps)

    monkeypatch.setattr(excyl.radial, "_scan", counting)
    return calls


def test_pair_shares_the_plans_of_one_solve(monkeypatch):
    # the problems of a step read the plans of one solve, broadcast over
    # the problem axis: no plan with tiled rates, no other cache entry, and
    # five two-sided scans a step at nu = -3 whatever the number of problems
    from test_picard import _cached_array_bytes

    b = BoundaryData(g_theta={1: 1e-3}, g_z={1: 5e-4}, g_r={2: 5e-4})
    caches = []
    for solve in (
            lambda g: picard_solve(g, -3.0, 1.0, 8, ForcingData(), b),
            lambda g: nonuniqueness_pair(g, -3.0, 1.0, 8, ForcingData(), b,
                                         0.06)):
        g = RadialGrid.graded(128, 60.0, 2.0)
        solve(g)
        caches.append((set(g._cache), _cached_array_bytes(g)))
    assert caches[0] == caches[1]
    calls = _count_scans(monkeypatch)
    first, second, _ = nonuniqueness_pair(g, -3.0, 1.0, 8, ForcingData(), b,
                                          0.06)
    steps = max(first.iterations, second.iterations)
    assert first.iterations != second.iterations
    assert calls == [2] * 5 * steps
