#!/usr/bin/env python3
"""excyl benchmark: closed loop, one client, one workload per process.

    python3 perfbench/run.py --workload pair-warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root; the solver is imported from ./src.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics, with ``--trace 1`` one with the per-layer metrics of a traced run.
``--workload all`` runs every workload in its own child process and prints
all their reports.  See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 7     # fresh-process set-ups per run, spread between ops
RADIAL_SETUP_REPEATS = 5

END_TO_END = (  # (name, unit) in the order the JSON line carries them
    ("op_s.p50", "s"), ("ops_per_s", "1/s"), ("setup_s", "s"),
    ("peak_rss_mb", "MiB"), ("momentum_residual_inner.vs_ref", "ratio"),
    ("divergence_residual.vs_ref", "ratio"),
)
# Printed with the rest but not part of the JSON line: ops_failed_frac is 0
# on a correct run, the absolute residuals depend on which input classes the
# loop reached, the boundary mismatch is rounding noise (~1e-16), and
# separation_error exists on pair-warm only.  Every operation is checked
# against the acceptance bounds and the committed per-class reference.
REPORTED_ONLY = (
    ("ops_failed_frac", "ratio"), ("momentum_residual_inner", "abs"),
    ("divergence_residual", "abs"), ("boundary_mismatch", "abs"),
    ("separation_error", "abs"),
)
PER_LAYER = (
    ("bessel.s", "s"), ("bessel.calls", "count"), ("bessel.points", "count"),
    ("radial.quad_s", "s"), ("radial.calls", "count"), ("radial.setup_s", "s"),
    ("fourier.convolve_s", "s"), ("fourier.convolve.calls", "count"),
    ("fourier.norms_s", "s"), ("modes.s", "s"), ("modes.solves", "count"),
    ("picard.iterations", "count"), ("picard.assemble_s", "s"),
    ("picard.s", "s"), ("residuals.audit_s", "s"), ("cli.s", "s"),
    ("cli.bytes_written", "bytes"), ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)
# per-layer time metric -> tracer layer whose op-phase self time it reports
LAYER_TIMES = {
    "bessel.s": "bessel", "radial.quad_s": "radial.quad",
    "fourier.convolve_s": "fourier.convolve", "fourier.norms_s": "fourier.norms",
    "modes.s": "modes", "picard.assemble_s": "picard.assemble",
    "picard.s": "picard", "cli.s": "cli",
}
COUNTS = ("bessel.calls", "bessel.points", "radial.calls",
          "fourier.convolve.calls", "modes.solves", "picard.iterations")


def _pin_threads() -> None:
    """Fixed, single-threaded BLAS/OpenMP and the solver's serial path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("EXCYL_WORKERS", None)


def _import_solver():
    if not (SRC / "excyl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no solver source at {SRC / 'excyl'}; run from "
                 "a checkout of the repository root")
    sys.path.insert(0, str(SRC))
    import excyl
    if Path(excyl.__file__).resolve().parent != (SRC / "excyl").resolve():
        sys.exit(f"perfbench: imported excyl from {excyl.__file__}, not {SRC}")
    return excyl


def warm_grid(grid, k_max: int) -> None:
    """The public radial operator calls whose caches the solver fills:
    cell quadrature, 5-point stencils of orders 1 and 2, and the subdivided
    Gauss rules of exp_weighted_prefix at each rate |k| and 2|k|."""
    import numpy as np
    import excyl.radial as radial
    vals = grid.nodes ** -2.0
    grid.cell_integrals(vals)
    grid.differentiate(vals, 1)
    grid.differentiate(vals, 2)
    for k in range(1, k_max + 1):
        radial.exp_weighted_prefix(grid, vals, float(k))
        radial.exp_weighted_prefix(grid, vals, 2.0 * k)
    np.linalg.solve(np.eye(2), np.ones(2))


def setup_probe(name: str) -> None:
    """One cold set-up in a fresh interpreter: import, grid, warm grid.
    Prints the host-speed samples taken meanwhile as a JSON line."""
    import hostspeed
    with hostspeed.Region() as host:
        _import_solver()
        from workloads import WORKLOADS, first_grid
        w = WORKLOADS[name]
        warm_grid(first_grid(w), w.k_max)
    print(json.dumps({"spent": host.spent, "kernel_s": host.mean_kernel_s}))


def measure_setup(name: str):
    """One fresh-process set-up of the workload: (wall seconds, seconds at
    the reference host's speed).  The probe's sampler time is left out."""
    import hostspeed
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--setup-probe", name], check=True, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    host = json.loads(proc.stdout.strip().splitlines()[-1])
    seconds = wall - host["spent"]
    return seconds, seconds * hostspeed.REFERENCE_S / host["kernel_s"]


def radial_setup_seconds(w) -> float:
    """Cold minus warm time of warm_grid's calls on fresh grids (median)."""
    from workloads import first_grid
    diffs = []
    for _ in range(RADIAL_SETUP_REPEATS):
        grid = first_grid(w)
        t0 = time.perf_counter()
        warm_grid(grid, w.k_max)
        t1 = time.perf_counter()
        warm_grid(grid, w.k_max)
        diffs.append((t1 - t0) - (time.perf_counter() - t1))
    return statistics.median(diffs)


def _print_settings() -> None:
    import numpy as np
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    threads = ", ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    print(f"threads: {threads}; EXCYL_WORKERS unset; BLAS {blas} "
          f"threads=1; cpus={len(os.sched_getaffinity(0))}; "
          f"python {sys.version.split()[0]}; numpy {np.__version__}")


def run_workload(args) -> int:
    t_start = time.perf_counter()
    _pin_threads()
    _import_solver()
    import hostspeed
    from workloads import (REFERENCE_PATH, WORKLOADS, Runner, first_grid,
                           make_plan, plan_digest)
    w = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE_PATH.read_text())
    plan = make_plan(w, args.seed)

    work_dir = WORK / f"{w.name}-{os.getpid()}"
    try:
        runner = Runner(w, work_dir, reference)
        warm_grid(runner.grid if runner.grid is not None else first_grid(w),
                  w.k_max)
        in_process_setup = time.perf_counter() - t_start
        _print_settings()
        print(f"workload {w.name}: seed {args.seed}, inputs digest "
              f"{plan_digest(plan)}, closed loop, 1 client, {args.seconds} s")
        if args.trace:
            return _traced(args, w, runner, plan)
        # The set-up probes run between operations, so they sample the
        # machine over the whole run; their time does not count toward it.
        results, setups = [], []
        t0 = time.perf_counter()
        while not results or (time.perf_counter() - t0
                              - sum(s for s, _ in setups)) < args.seconds:
            results.append(runner.run(plan[len(results) % len(plan)],
                                      sample_host=True))
            if len(setups) < SETUP_PROBES:
                setups.append(measure_setup(w.name))
        while len(setups) < SETUP_PROBES:
            setups.append(measure_setup(w.name))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    ok = [r for r in results if r.ok]
    timed = [r.reference_seconds for r in ok]
    failed = len(results) - len(ok)
    _print_failures(results)
    metrics = {
        "op_s.p50": statistics.median(timed) if timed else float("nan"),
        "ops_per_s": len(ok) / sum(r.reference_seconds for r in results),
        "setup_s": statistics.median(s for _, s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "momentum_residual_inner.vs_ref": max(r.momentum_vs_ref for r in results),
        "divergence_residual.vs_ref": max(r.divergence_vs_ref for r in results),
        "ops_failed_frac": failed / len(results),
        "momentum_residual_inner": max(r.momentum for r in results),
        "divergence_residual": max(r.divergence for r in results),
        "boundary_mismatch": max(r.boundary for r in results),
        "separation_error": max(r.separation for r in results),
    }
    units = dict(END_TO_END + REPORTED_ONLY)
    print(f"timed ops: n={len(timed)}; op seconds at reference speed: "
          + " ".join(f"{r.reference_seconds:.3f}" for r in results))
    print("  wall seconds: " + " ".join(f"{r.seconds:.3f}" for r in results))
    print("  host slowdown (kernel time / reference): "
          + " ".join(f"{r.kernel_s / hostspeed.REFERENCE_S:.2f}" for r in results))
    print(f"set-up: {len(setups)} fresh-process set-ups at reference speed "
          + " ".join(f"{s:.3f}" for _, s in setups) + " s; wall "
          + " ".join(f"{s:.3f}" for s, _ in setups)
          + f" s; in-process set-up {in_process_setup:.3f} s wall")
    for name, value in metrics.items():
        if name == "separation_error" and w.kind != "pair":
            continue
        print(f"  {name:<31} {value:.6g} {units[name]}")
    _emit(results, failed, {n: (metrics[n], u) for n, u in END_TO_END})
    return 0


def _traced(args, w, runner, plan) -> int:
    """Alternate untraced and traced operations; report per-layer metrics."""
    from tracer import Tracer
    radial_setup = radial_setup_seconds(w)
    tracer = Tracer()
    plain, traced = [], []
    t0 = time.perf_counter()
    i = 0
    while len(traced) < 1 or time.perf_counter() - t0 < args.seconds:
        inp = plan[i % len(plan)]
        if i % 2 == 0:
            plain.append(runner.run(inp))
        else:
            with tracer.installed():
                traced.append((i, runner.run(inp, tracer, op_id=i)))
        i += 1
    results = plain + [r for _, r in traced]
    failed = sum(not r.ok for r in results)
    _print_failures(results)

    per_op = []
    for op, res in traced:
        st = tracer.self_times(op, "op")
        counts = tracer.counts.get((op, "op"), {})
        row = {name: st.get(layer, 0.0) for name, layer in LAYER_TIMES.items()}
        row.update({name: counts.get(name, 0) for name in COUNTS})
        row["residuals.audit_s"] = tracer.self_times(op).get("residuals", 0.0)
        row["cli.bytes_written"] = res.bytes_written
        wall = tracer.root_duration(op, "op")
        row["trace.unattributed_frac"] = st.get("bench", 0.0) / wall
        row["_layer_sum"] = sum(v for k, v in st.items() if k != "bench")
        row["_wall"] = wall
        per_op.append(row)
    rate = lambda rs: len(rs) / sum(r.seconds for r in rs)
    metrics = {name: (statistics.median_low if unit in ("count", "bytes")
                      else statistics.median)([row[name] for row in per_op])
               for name, unit in PER_LAYER
               if name not in ("radial.setup_s", "trace.overhead_frac")}
    metrics["radial.setup_s"] = radial_setup
    metrics["trace.overhead_frac"] = rate(plain) / rate([r for _, r in traced]) - 1.0

    med = statistics.median
    layer_sum = med([row["_layer_sum"] for row in per_op])
    print(f"traced ops: n={len(traced)}, untraced ops: n={len(plain)}")
    print(f"layer self-time sum {layer_sum:.4f} s per op = "
          f"{layer_sum / med([row['_wall'] for row in per_op]):.4f} of traced "
          f"op wall, {layer_sum / med([r.seconds for r in plain]):.4f} of "
          f"untraced op wall (trace.overhead_frac "
          f"{metrics['trace.overhead_frac']:.4f})")
    units = dict(PER_LAYER)
    for name, _ in PER_LAYER:
        print(f"  {name:<26} {metrics[name]:.6g} {units[name]}")
    _emit(results, failed, {n: (metrics[n], u) for n, u in PER_LAYER})
    return 0


def _print_failures(results) -> None:
    for i, r in enumerate(results):
        if not r.ok:
            print(f"FAILED op {i}: {r.reason}")
            print(r.traceback, end="", file=sys.stderr)


def _emit(results, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))


def run_all(args) -> int:
    """Each workload in its own child process: print every child's report,
    then all their result lines as one JSON object."""
    from workloads import WORKLOADS
    rows, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(f"== {name}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            code = proc.returncode
            continue
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(rows))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="WORKLOAD")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
