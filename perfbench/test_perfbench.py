"""Tests of the benchmark itself (not part of the solver suite).

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import excyl.cli  # noqa: E402
import excyl.modes  # noqa: E402
import hostspeed  # noqa: E402
from tracer import Tracer, TracerError  # noqa: E402
from workloads import (WORKLOADS, OpInput, Runner,  # noqa: E402
                       grid_problems, make_plan, plan_digest, ref_key,
                       render_input)

SMALL = dataclasses.replace(
    WORKLOADS["wide-k"], name="small", k_max=2, n_radial=256,
    boundary=(("theta", 1, 1e-4), ("z", 2, 5e-5)))


def _input(w, shift=0, r_max=100.0):
    return OpInput(render_input(w, w.mus[0], r_max, shift), 0.0,
                   ref_key(w, w.mus[0], 0.0, r_max))


def test_plan_is_a_function_of_the_seed():
    for w in WORKLOADS.values():
        assert plan_digest(make_plan(w, 7)) == plan_digest(make_plan(w, 7))
        assert plan_digest(make_plan(w, 7)) != plan_digest(make_plan(w, 8))
    ladder = WORKLOADS["ladder-cold"]
    first = make_plan(ladder, 3)[:len(ladder.r_maxes)]
    assert len({inp.config for inp in first}) == len(ladder.r_maxes)


def test_axial_shift_keeps_iterations_and_b_tau(tmp_path):
    runner = Runner(SMALL, tmp_path, None)
    a = runner.run(_input(SMALL, shift=0))
    b = runner.run(_input(SMALL, shift=3))
    assert a.ok and b.ok, (a.reason, b.reason)
    assert a.iterations == b.iterations
    assert b.b_tau[0] == pytest.approx(a.b_tau[0], rel=1e-12)


def test_forced_failure_is_counted_and_the_run_continues(tmp_path):
    diverging = dataclasses.replace(SMALL, boundary=(("theta", 1, 30.0),))
    runner = Runner(diverging, tmp_path, None)
    with pytest.warns(RuntimeWarning, match="data norm"):
        bad = runner.run(_input(diverging))
    assert not bad.ok
    assert bad.reason.startswith("ConvergenceError") and bad.traceback
    good = Runner(SMALL, tmp_path, None).run(_input(SMALL))
    assert good.ok, good.reason


def test_reference_mismatch_fails_the_operation(tmp_path):
    inp = _input(SMALL)
    wrong = {"small": {inp.key: {"iterations": [99], "B_tau": [1.0],
                                 "momentum": 1.0, "divergence": 1.0}}}
    res = Runner(SMALL, tmp_path, wrong).run(inp)
    assert not res.ok
    assert "iterations" in res.reason and "B_tau" in res.reason
    assert res.momentum_vs_ref == res.momentum
    assert res.divergence_vs_ref == res.divergence


def test_cli_operation_checks_the_written_summary(tmp_path):
    cli_small = dataclasses.replace(SMALL, kind="cli")
    res = Runner(cli_small, tmp_path, None).run(_input(cli_small))
    assert res.ok, res.reason
    assert res.bytes_written > 0 and res.iterations[0] >= 2
    assert not any(tmp_path.iterdir())  # artifacts removed after the check


def test_grid_check_rejects_the_grid_of_another_r_max():
    def csv(r_max):
        nodes = excyl.cli.parse_config(render_input(SMALL, 1.0, r_max, 0)).grid().nodes
        return "r,momentum\n" + "".join(f"{r:.17g},0\n" for r in nodes)
    config = render_input(SMALL, 1.0, 100.0, 0)
    assert grid_problems(config, csv(100.0)) == []
    assert "r_max" in grid_problems(config, csv(101.0))[0]
    short = "\n".join(csv(100.0).splitlines()[:-1])
    assert "n_radial" in grid_problems(config, short)[0]


def test_missing_entry_point_is_an_error():
    original = excyl.modes.kernel_K_derivs
    tracer = Tracer(entry_points=(
        ("excyl.modes", "kernel_K_derivs", "bessel", None),
        ("excyl.modes", "no_such_entry_point", "bessel", None)))
    with pytest.raises(TracerError, match="no_such_entry_point"):
        tracer.install()
    assert excyl.modes.kernel_K_derivs is original  # partial install undone


def test_self_times_partition_the_operation(tmp_path):
    runner = Runner(SMALL, tmp_path, None)
    tracer = Tracer()
    with tracer.installed():
        res = runner.run(_input(SMALL), tracer, op_id=1)
    assert res.ok, res.reason
    assert excyl.modes.kernel_K_derivs.__module__ == "excyl.bessel"  # restored
    st = tracer.self_times(1, "op")
    assert sum(st.values()) == pytest.approx(tracer.root_duration(1, "op"),
                                             rel=1e-9)
    assert st["bessel"] > 0 and st["modes"] > 0 and st["picard"] > 0
    counts = tracer.counts[(1, "op")]
    # per iteration: swirl (K, I) plus vorticity and stream pairs, k = 1, 2
    assert counts["bessel.calls"] == 6 * 2 * counts["picard.iterations"]
    # two zero-mode solves plus swirl and meridional for k = 1, 2
    assert counts["modes.solves"] == (2 + 2 * 2) * counts["picard.iterations"]
    assert tracer.self_times(1, "check")["residuals"] > 0


def test_host_sampler_leaves_out_its_own_time_and_rescales():
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with hostspeed.Region() as host:
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            sum(range(1000))
    wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(host.samples) >= 4  # entry, exit and at least two alarms
    assert 0 < host.spent
    assert host.seconds == pytest.approx(0.4 - host.spent, abs=0.05)
    assert host.seconds < wall
    assert host.reference_seconds == pytest.approx(
        host.seconds * hostspeed.REFERENCE_S / host.mean_kernel_s, rel=1e-12)


def test_sampled_operation_reports_reference_seconds(tmp_path):
    res = Runner(SMALL, tmp_path, None).run(_input(SMALL), sample_host=True)
    assert res.ok, res.reason
    assert res.kernel_s > 0
    assert res.reference_seconds == pytest.approx(
        res.seconds * hostspeed.REFERENCE_S / res.kernel_s, rel=1e-12)
