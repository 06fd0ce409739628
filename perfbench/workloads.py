"""Seeded inputs, the operation of each workload, and its correctness check.

Every operation's input is a run configuration (the INI text ``excyl solve``
reads) generated from the seed.  The amplitudes are fixed; the seed picks
the boundary phases, and per workload the rotation rate ``mu`` with the
rotation shift ``delta_mu`` (pair-warm) or the truncation radius ``r_max``
(ladder-cold).  So every operation does the same work and iterates the same
number of times.

The phases come from an axial shift z0: every boundary coefficient of mode k
is multiplied by exp(i k z0).  The equations are invariant under z
translation, so the shifted solution is the unshifted one moved by z0.
Its iteration count and B_tau are therefore those of the committed
reference (``reference.json``) up to rounding, which makes them an exact
correctness check.  z0 is a multiple of 2 pi / (4K + 1), the spacing of the
residual audit's z samples, so the audit sees the same physical points and
its residual maxima do not depend on the seed either.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostspeed

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Acceptance-suite bounds (tests/test_acceptance.py criteria 4 and 6,
# tests/test_picard.py for the boundary mismatch).
MOMENTUM_BOUND = 1e-6
DIVERGENCE_BOUND = 1e-8
BOUNDARY_BOUND = 1e-10
# Criterion 6: r (u_theta - u_theta~) at r_max / 2 within 5 % of -delta_mu.
SEPARATION_REL = 0.05
# B_tau against the committed reference, relative.  Acceptance criterion 1
# only pins the Bessel substrate to 1e-10 relative, and B_tau is a positive
# sum of kernel-linear sups, so a conforming substrate may move it by about
# that much; 1e-8 leaves 100x headroom for that and for rounding.  B_tau
# hardly depends on r_max (two ladder-cold classes differ by only 1.3e-8
# relative), so it does not identify the grid; _check_cli checks the grid
# the CLI wrote instead.
B_TAU_REL = 1e-8

PLAN_LENGTH = 64


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "pair", "solve" or "cli"
    nu: float
    k_max: int
    n_radial: int
    mus: Tuple[float, ...]
    delta_mus: Tuple[float, ...] = (0.0,)
    r_maxes: Tuple[float, ...] = (100.0,)
    boundary: Tuple[Tuple[str, int, float], ...] = ()
    forcing: Tuple[str, ...] = ()


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # nonuniqueness_pair on one warm grid: mu-independent kernel work repeats
    Workload(
        name="pair-warm", kind="pair", nu=-3.0, k_max=8, n_radial=512,
        mus=(0.75, 1.0, 1.25), delta_mus=(0.06, 0.07),
        boundary=(("theta", 1, 1e-3), ("z", 1, 5e-4), ("r", 2, 5e-4))),
    # picard_solve with data on every k <= 32: the O(K^2) terms grow
    Workload(
        name="wide-k", kind="solve", nu=-1.0, k_max=32, n_radial=512,
        mus=(1.0,),
        boundary=tuple(("theta", k, 4e-4 / k ** 2) for k in range(1, 33))),
    # excyl solve on a fresh grid per operation: set-up, audit and I/O
    Workload(
        name="ladder-cold", kind="cli", nu=-1.0, k_max=8, n_radial=1024,
        mus=(1.0,),
        r_maxes=tuple(92.0 + i for i in range(16)),
        boundary=(("theta", 1, 1e-3), ("z", 2, 5e-4)),
        forcing=("theta,0 = power_decay(0.001, 10.0)",)),
)}


@dataclass(frozen=True)
class OpInput:
    """One operation's generated input; key selects the reference entry."""

    config: str
    delta_mu: float
    key: str


def ref_key(w: Workload, mu: float, delta_mu: float, r_max: float) -> str:
    if w.kind == "pair":
        return f"mu={mu!r},delta_mu={delta_mu!r}"
    if w.kind == "cli":
        return f"r_max={r_max!r}"
    return "all"


def render_input(w: Workload, mu: float, r_max: float, shift: int) -> str:
    z0 = 2.0 * math.pi * shift / (4 * w.k_max + 1)
    lines = ["[params]", f"nu = {w.nu!r}", f"mu = {mu!r}",
             f"k_max = {w.k_max}", f"n_radial = {w.n_radial}",
             f"r_max = {r_max!r}", "", "[boundary]"]
    for comp, k, amp in w.boundary:
        c = amp * complex(math.cos(k * z0), math.sin(k * z0))
        lines.append(f"{comp},{k} = {c!r}")
    if w.forcing:
        lines += ["", "[forcing]", *w.forcing]
    return "\n".join(lines) + "\n"


def make_plan(w: Workload, seed: int) -> List[OpInput]:
    """The seeded sequence of operation inputs.

    r_max values are dealt without replacement (reshuffled each round), so
    ladder-cold never reuses a grid within a run of up to len(r_maxes) ops.
    """
    rng = random.Random(seed)
    plan: List[OpInput] = []
    deck: List[float] = []
    for _ in range(PLAN_LENGTH):
        if not deck:
            deck = list(w.r_maxes)
            rng.shuffle(deck)
        r_max = deck.pop()
        mu = rng.choice(w.mus)
        delta_mu = rng.choice(w.delta_mus)
        shift = rng.randrange(4 * w.k_max + 1)
        plan.append(OpInput(render_input(w, mu, r_max, shift), delta_mu,
                            ref_key(w, mu, delta_mu, r_max)))
    return plan


def plan_digest(plan: List[OpInput]) -> str:
    h = hashlib.sha256()
    for inp in plan:
        h.update(inp.config.encode())
        h.update(repr(inp.delta_mu).encode())
    return h.hexdigest()[:16]


def first_grid(w: Workload):
    """The grid of the workload's first input class (the warm grid)."""
    import excyl.cli
    return excyl.cli.parse_config(
        render_input(w, w.mus[0], w.r_maxes[0], 0)).grid()


# ----------------------------------------------------------------------------
# operations


@dataclass
class OpResult:
    seconds: float                 # timed region only, wall seconds
    ok: bool
    reason: str = ""
    momentum: float = 0.0          # worst over the op's solutions
    divergence: float = 0.0
    boundary: float = 0.0
    separation: float = 0.0        # |limit_estimate + delta_mu|, pair only
    momentum_vs_ref: float = 0.0   # momentum / its class reference
    divergence_vs_ref: float = 0.0
    b_tau: Tuple[float, ...] = ()
    iterations: Tuple[int, ...] = ()
    bytes_written: int = 0
    traceback: str = ""
    reference_seconds: float = 0.0  # seconds at the reference host's speed
    kernel_s: float = 0.0          # mean calibration kernel time, if sampled


class Runner:
    """Executes operations of one workload; owns the warm grid and work dir."""

    def __init__(self, w: Workload, work_dir: Path, reference: Optional[dict]):
        self.w = w
        self.work_dir = work_dir
        self.reference = reference
        self.grid = first_grid(w) if w.kind != "cli" else None
        self._count = 0

    def run(self, inp: OpInput, tracer=None, op_id: int = 0,
            sample_host: bool = False) -> OpResult:
        """One timed operation plus its (untimed, for the library workloads)
        correctness check.  Never raises for a failing operation.  With
        sample_host the timed region samples the host's speed (hostspeed.py)
        and the result carries its time at the reference host's speed."""
        root = (lambda name: tracer.root(op_id, name)) if tracer else \
            (lambda name: contextlib.nullcontext())
        host = hostspeed.Region() if sample_host else None
        self._count += 1
        t0 = time.perf_counter()
        try:
            with root("op"), host or contextlib.nullcontext():
                t0 = time.perf_counter()
                out = self._timed(inp)
                seconds = time.perf_counter() - t0
            with root("check"):
                res = self._check(inp, out, seconds)
        except Exception as exc:  # a failing op is counted, never fatal
            res = OpResult(time.perf_counter() - t0, False,
                           f"{type(exc).__name__}: {exc}",
                           traceback=traceback.format_exc())
        res.reference_seconds = res.seconds
        if host is not None and host.seconds:  # the timed region has ended
            res.seconds = host.seconds  # less the sampler's own time
            res.reference_seconds = host.reference_seconds
            res.kernel_s = host.mean_kernel_s
        return res

    # -- timed region ---------------------------------------------------------

    def _timed(self, inp: OpInput):
        import excyl.cli
        import excyl.picard
        w = self.w
        if w.kind == "cli":
            op_dir = self.work_dir / f"op{self._count}"
            op_dir.mkdir(parents=True)
            cfg_path = op_dir / "run.ini"
            cfg_path.write_text(inp.config)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(buf):
                rc = excyl.cli.main(["solve", str(cfg_path), "--output",
                                     str(op_dir / "out")])
            return rc, op_dir, buf.getvalue()
        cfg = excyl.cli.parse_config(inp.config)
        if w.kind == "pair":
            return excyl.picard.nonuniqueness_pair(
                self.grid, cfg.nu, cfg.mu, cfg.k_max, cfg.forcing_data(),
                cfg.boundary_data(), inp.delta_mu, tol=cfg.tol_picard,
                max_iters=cfg.max_iters)
        return (excyl.picard.picard_solve(
            self.grid, cfg.nu, cfg.mu, cfg.k_max, cfg.forcing_data(),
            cfg.boundary_data(), tol=cfg.tol_picard, max_iters=cfg.max_iters),)

    # -- correctness ----------------------------------------------------------

    def _check(self, inp: OpInput, out, seconds: float) -> OpResult:
        import excyl.residuals
        if self.w.kind == "cli":
            return self._check_cli(inp, out, seconds)
        bundles = out[:2] if self.w.kind == "pair" else out
        res = OpResult(seconds, True)
        for b in bundles:
            rep = excyl.residuals.attach_residual_report(b)
            res.momentum = max(res.momentum, rep.max_momentum)
            res.divergence = max(res.divergence, rep.divergence)
            res.boundary = max(res.boundary, rep.boundary_mismatch)
        res.b_tau = tuple(b.norms["B_tau"] for b in bundles)
        res.iterations = tuple(b.iterations for b in bundles)
        problems = [f"not converged after {b.iterations} iterations"
                    for b in bundles if not b.converged]
        if self.w.kind == "pair":
            sep = out[2]
            res.separation = abs(sep.limit_estimate + inp.delta_mu)
            i = min(range(len(sep.radii)),
                    key=lambda j: abs(sep.radii[j] - self.grid.r_max / 2.0))
            if abs(sep.values[i] + inp.delta_mu) > SEPARATION_REL * inp.delta_mu:
                problems.append(f"separation {sep.values[i]!r} at r_max/2 is "
                                f"not -delta_mu = {-inp.delta_mu!r}")
        return self._verdict(inp, res, problems)

    def _check_cli(self, inp: OpInput, out, seconds: float) -> OpResult:
        rc, op_dir, output = out
        res = OpResult(seconds, True)
        if rc != 0:
            return OpResult(seconds, False, f"excyl solve exit code {rc}: "
                            f"{output.strip().splitlines()[-1:]}")
        out_dir = op_dir / "out"
        res.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir())
        summary = parse_summary((out_dir / "summary.txt").read_text())
        res.momentum = max(summary["momentum_r"], summary["momentum_theta"],
                           summary["momentum_z"])
        res.divergence = summary["divergence"]
        res.boundary = summary["boundary"]
        res.b_tau = (summary["B_tau"],)
        res.iterations = (summary["iterations"],)
        problems = [] if summary["converged"] else ["summary says converged = False"]
        problems += grid_problems(inp.config, (out_dir / "residuals.csv").read_text())
        shutil.rmtree(op_dir)
        return self._verdict(inp, res, problems)

    def _verdict(self, inp: OpInput, res: OpResult, problems: List[str]) -> OpResult:
        if res.momentum > MOMENTUM_BOUND:
            problems.append(f"momentum residual {res.momentum:.3e} > {MOMENTUM_BOUND}")
        if res.divergence > DIVERGENCE_BOUND:
            problems.append(f"divergence {res.divergence:.3e} > {DIVERGENCE_BOUND}")
        if res.boundary > BOUNDARY_BOUND:
            problems.append(f"boundary mismatch {res.boundary:.3e} > {BOUNDARY_BOUND}")
        if self.reference is not None:
            ref = self.reference[self.w.name][inp.key]
            res.momentum_vs_ref = res.momentum / ref["momentum"]
            res.divergence_vs_ref = res.divergence / ref["divergence"]
            if list(res.iterations) != ref["iterations"]:
                problems.append(f"iterations {list(res.iterations)} differ from "
                                f"the reference {ref['iterations']}")
            for got, want in zip(res.b_tau, ref["B_tau"]):
                if abs(got - want) > B_TAU_REL * abs(want):
                    problems.append(f"B_tau {got!r} differs from the reference "
                                    f"{want!r} by more than {B_TAU_REL:g} relative")
        if problems:
            res.ok = False
            res.reason = "; ".join(problems)
        return res


def grid_problems(config: str, residuals_csv: str) -> List[str]:
    """The radii of residuals.csv must be the nodes of the input's own grid:
    n_radial + 1 rows, the last at r_max.  B_tau cannot tell grids apart."""
    import excyl.cli
    cfg = excyl.cli.parse_config(config)
    rows = residuals_csv.strip().splitlines()[1:]
    if len(rows) != cfg.n_radial + 1:
        return [f"residuals.csv has {len(rows)} radii, not n_radial + 1 = "
                f"{cfg.n_radial + 1}"]
    last_r = float(rows[-1].split(",", 1)[0])
    if last_r != cfg.r_max:
        return [f"residuals.csv ends at r = {last_r!r}, not r_max = {cfg.r_max!r}"]
    return []


def parse_summary(text: str) -> Dict[str, float]:
    """The fields of excyl's summary.txt that the check needs."""
    out: Dict[str, float] = {}
    labels = {"momentum residual (r, inner half)": "momentum_r",
              "momentum residual (theta, inner half)": "momentum_theta",
              "momentum residual (z, inner half)": "momentum_z",
              "divergence residual": "divergence",
              "boundary mismatch": "boundary"}
    for line in text.splitlines():
        if " = " in line:
            key, val = (s.strip() for s in line.split(" = ", 1))
            if key == "converged":
                out["converged"] = val == "True"
            elif key == "iterations":
                out["iterations"] = int(val)
            elif key == "norm_B_tau":
                out["B_tau"] = float(val)
        elif ":" in line:
            key, val = (s.strip() for s in line.split(":", 1))
            if key in labels:
                out[labels[key]] = float(val)
    missing = {"converged", "iterations", "B_tau", *labels.values()} - set(out)
    if missing:
        raise ValueError(f"summary.txt lacks {sorted(missing)}")
    return out
