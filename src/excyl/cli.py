"""Configuration, run orchestration and the command-line interface.

Runs are described by a flat INI document with three sections:

    [params]                      solver knobs, one key per symbol
    nu = -1.0                     background sink strength (must be < 0)
    mu = 1.0                      background rotation rate
    k_max = 8                     Fourier truncation |k| <= k_max
    r_max = 100.0                 domain truncation radius
    n_radial = 1024               radial cells (nodes = n_radial + 1)
    grid_gamma = 2.0              algebraic grading exponent
    lambda_theta = 10.0           forcing decay exponents (> 3, > 2, > 3/2)
    lambda_z = 10.0
    lambda = 10.0
    tol_picard = 1e-10            fixed-point stopping distance
    max_iters = 25
    relaxation = 1.0              under-relaxation factor in (0, 1]
    output_dir = out

    [boundary]                    component,k = complex coefficient
    theta,1 = 1e-3

    [forcing]                     component,k = family(args)
    theta,0 = power_decay(1e-3, 10)      # amp * r^-p
    r,1 = power_exp_decay(1e-3, 2, 1.0)  # amp * r^-p * exp(-c (r-1))

Subcommands: solve, verify, nonunique, bessel, oracle, calibrate.
Exit codes: 0 ok, 1 config (command-line usage errors too), 2 numeric,
3 convergence, 4 io.
All numeric output is written with 17 significant digits, and identical
configurations reproduce bit-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import io
import re
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .bessel import (bessel_i, bessel_i_prime, bessel_k, bessel_k_prime,
                     wronskian_check)
from .errors import ConfigError, ConvergenceError, ExcylError, NumericError
from .fourier import BoundaryData, ForcingData, ForcingMode, FourierField
from .picard import compute_tau, nonuniqueness_pair, picard_solve
from .radial import RadialGrid, RadialProfile, fd_bvp_solve
from .residuals import attach_residual_report, residual_asns

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_CONVERGENCE, EXIT_IO = 0, 1, 2, 3, 4

_FMT = "%.17g"

_PARAM_TYPES = {
    "nu": float, "mu": float, "k_max": int, "r_max": float, "n_radial": int,
    "grid_gamma": float, "lambda_theta": float, "lambda_z": float,
    "lambda": float, "tol_picard": float, "max_iters": int,
    "relaxation": float, "output_dir": str,
}

_FAMILY_RE = re.compile(r"^\s*(power_decay|power_exp_decay)\s*\(([^)]*)\)\s*$")


@dataclass
class RunConfig:
    nu: float = -1.0
    mu: float = 0.0
    k_max: int = 8
    r_max: float = 100.0
    n_radial: int = 1024
    grid_gamma: float = 2.0
    lambda_theta: float = 10.0
    lambda_z: float = 10.0
    lambda_: float = 10.0
    tol_picard: float = 1e-10
    max_iters: int = 25
    relaxation: float = 1.0
    output_dir: str = "out"
    boundary: List[Tuple[str, int, complex]] = dc_field(default_factory=list)
    forcing: List[Tuple[str, int, str, Tuple[float, ...]]] = dc_field(default_factory=list)

    def validate(self):
        if not (np.isfinite(self.nu) and self.nu < 0):
            raise ConfigError("hypothesis violated: a finite nu < 0 is "
                              "required (boundary sink strength)")
        if not np.isfinite(self.mu):
            raise ConfigError("mu must be finite")
        if not self.lambda_theta > 3.0:
            raise ConfigError("hypothesis violated: lambda_theta > 3 required")
        if not self.lambda_z > 2.0:
            raise ConfigError("hypothesis violated: lambda_z > 2 required")
        if not self.lambda_ > 1.5:
            raise ConfigError("hypothesis violated: lambda > 3/2 required")
        if not (0.0 < self.relaxation <= 1.0):
            raise ConfigError("relaxation must lie in (0, 1]")
        if self.k_max < 1 or self.n_radial < 8:
            raise ConfigError("need k_max >= 1 and n_radial >= 8")
        if not (np.isfinite(self.r_max) and self.r_max > 1.0):
            raise ConfigError("r_max must be finite and > 1")
        if not (np.isfinite(self.grid_gamma) and self.grid_gamma > 0.0):
            raise ConfigError("grid_gamma must be finite and > 0")
        if not (np.isfinite(self.tol_picard) and self.tol_picard > 0.0):
            raise ConfigError("tol_picard must be finite and > 0")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        # BoundaryData rejects non-finite values (NumericError) before the
        # g_{r,0} normalization (ConfigError)
        self.boundary_data()
        # tau > 0 is a hypothesis too; computing it raises ConfigError if not
        self.tau_info()
        return self

    def tau_info(self):
        return compute_tau(self.nu, self.lambda_theta, self.lambda_z,
                           self.lambda_)

    # -- builders -------------------------------------------------------------

    def grid(self) -> RadialGrid:
        return RadialGrid.graded(self.n_radial, self.r_max, self.grid_gamma)

    def boundary_data(self) -> BoundaryData:
        g = {"r": {}, "theta": {}, "z": {}}
        for comp, k, val in self.boundary:
            g[comp][k] = g[comp].get(k, 0.0) + val
        return BoundaryData(g_r=g["r"], g_theta=g["theta"], g_z=g["z"])

    def forcing_data(self) -> ForcingData:
        modes = {}
        for comp, k, family, args in self.forcing:
            if family == "power_decay":
                amp, p = args

                def f(r, _a=amp, _p=p):
                    return _a * r ** (-_p)

                decay = p
            else:  # power_exp_decay
                amp, p, c = args

                def f(r, _a=amp, _p=p, _c=c):
                    return _a * r ** (-_p) * np.exp(-_c * (r - 1.0))

                decay = p + 10.0  # effectively faster than any power
            modes[(comp, k)] = ForcingMode(f, decay)
        return ForcingData(modes=modes, lambda_theta=self.lambda_theta,
                           lambda_z=self.lambda_z, lambda_=self.lambda_)


def parse_config(text: str) -> RunConfig:
    """Parse and validate the flat INI run description."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    cfg = RunConfig()
    if cp.has_section("params"):
        for key, raw in cp.items("params"):
            if key not in _PARAM_TYPES:
                raise ConfigError(f"unknown parameter {key!r}")
            attr = "lambda_" if key == "lambda" else key
            typ = _PARAM_TYPES[key]
            try:
                setattr(cfg, attr, typ(raw))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    for section, parser in (("boundary", _parse_boundary_item),
                            ("forcing", _parse_forcing_item)):
        if cp.has_section(section):
            items = getattr(cfg, section)
            for key, raw in cp.items(section):
                items.append(parser(key, raw))
    return cfg.validate()


def _parse_mode_key(key: str) -> Tuple[str, int]:
    try:
        comp, k_str = key.split(",")
        comp = comp.strip()
        k = int(k_str)
    except ValueError as exc:
        raise ConfigError(
            f"mode key {key!r} must look like 'component,k'") from exc
    if comp not in ("r", "theta", "z"):
        raise ConfigError(f"unknown component {comp!r} in {key!r}")
    return comp, k


def _parse_boundary_item(key: str, raw: str) -> Tuple[str, int, complex]:
    comp, k = _parse_mode_key(key)
    try:
        val = complex(raw.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"bad boundary coefficient {raw!r}") from exc
    return comp, k, val


def _parse_forcing_item(key: str, raw: str):
    comp, k = _parse_mode_key(key)
    m = _FAMILY_RE.match(raw)
    if not m:
        raise ConfigError(
            f"forcing {raw!r} must be power_decay(amp, p) or "
            "power_exp_decay(amp, p, c)")
    family = m.group(1)
    try:
        args = tuple(float(a) for a in m.group(2).split(","))
    except ValueError as exc:
        raise ConfigError(f"bad forcing arguments in {raw!r}") from exc
    want = 2 if family == "power_decay" else 3
    if len(args) != want:
        raise ConfigError(f"{family} takes {want} arguments, got {len(args)}")
    return comp, k, family, args


def render_config(cfg: RunConfig) -> str:
    """Inverse of parse_config (round-trips exactly)."""
    out = io.StringIO()
    out.write("[params]\n")
    for key in _PARAM_TYPES:
        attr = "lambda_" if key == "lambda" else key
        val = getattr(cfg, attr)
        out.write(f"{key} = {val!r}\n" if isinstance(val, float)
                  else f"{key} = {val}\n")
    if cfg.boundary:
        out.write("\n[boundary]\n")
        for comp, k, val in cfg.boundary:
            out.write(f"{comp},{k} = {val!r}\n")
    if cfg.forcing:
        out.write("\n[forcing]\n")
        for comp, k, family, args in cfg.forcing:
            arg_s = ", ".join(repr(a) for a in args)
            out.write(f"{comp},{k} = {family}({arg_s})\n")
    return out.getvalue()


# ----------------------------------------------------------------------------
# output helpers


def _write_csv(path: Path, header: List[str], columns: List[np.ndarray]):
    """The bytes np.savetxt(fmt=_FMT, delimiter=",") writes, from one
    %-format over the whole table."""
    table = np.column_stack(columns)
    row = ",".join([_FMT] * table.shape[1]) + "\n"
    body = (row * len(table)) % tuple(table.ravel().tolist())
    path.write_text(",".join(header) + "\n" + body)


def _write_mode_csv(path: Path, grid: RadialGrid, profs: Dict[str, np.ndarray]):
    header = ["r"]
    cols = [grid.nodes]
    for name in ("v_r", "v_theta", "v_z", "w", "phi"):
        vals = profs.get(name)
        if vals is None:
            vals = np.zeros(len(grid), dtype=complex)
        header += [f"re_{name}", f"im_{name}"]
        cols += [np.real(vals), np.imag(vals)]
    _write_csv(path, header, cols)


def _solve_bundle(cfg: RunConfig):
    grid = cfg.grid()
    bundle = picard_solve(grid, cfg.nu, cfg.mu, cfg.k_max, cfg.forcing_data(),
                          cfg.boundary_data(), tol=cfg.tol_picard,
                          max_iters=cfg.max_iters, relaxation=cfg.relaxation)
    attach_residual_report(bundle)
    return bundle


def _write_solution(cfg: RunConfig, bundle, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.ini").write_text(render_config(cfg))
    grid = bundle.v.grid
    for k in range(0, cfg.k_max + 1):
        profs = {
            "v_r": bundle.v.profile("r", k).values,
            "v_theta": bundle.v.profile("theta", k).values,
            "v_z": bundle.v.profile("z", k).values,
        }
        if bundle.meridional is not None and k >= 1:
            profs["w"] = bundle.meridional.w[k - 1]
            profs["phi"] = bundle.meridional.phi[k - 1]
        _write_mode_csv(out_dir / f"mode_{k}.csv", grid, profs)
    rep = bundle.residual_report
    _write_csv(out_dir / "residuals.csv",
               ["r", "momentum_r", "momentum_theta", "momentum_z", "divergence"],
               [rep.curve_r, rep.curve_momentum[:, 0], rep.curve_momentum[:, 1],
                rep.curve_momentum[:, 2], rep.curve_divergence])
    (out_dir / "summary.txt").write_text(_summary_text(cfg, bundle))


def _summary_text(cfg: RunConfig, bundle) -> str:
    tau = bundle.tau
    lines = ["# solve summary", "", "[config]"]
    lines += [ln for ln in render_config(cfg).splitlines() if ln.strip()]
    lines += [
        "",
        "[solution]",
        f"tau = {tau.tau!r}",
        f"lambda_bar_theta = {tau.lambda_bar_theta!r}",
        f"lambda_bar_z = {tau.lambda_bar_z!r}",
        f"converged = {bundle.converged}",
        f"iterations = {bundle.iterations}",
        "diff_norms = " + ", ".join(_FMT % d for d in bundle.diff_history),
        f"contraction_estimate = {bundle.contraction_estimate!r}",
        f"norm_V = {bundle.norms['V']!r}",
        f"norm_E = {bundle.norms['E']!r}",
        f"norm_B_tau = {bundle.norms['B_tau']!r}",
        f"c_emp = {bundle.c_emp!r}",
        f"sigma = {bundle.sigma!r}",
        "convolution_tail = "
        + (repr(bundle.rhs_final.convolution_tail) if bundle.rhs_final else "0.0"),
        "",
        "[residuals]",
        bundle.residual_report.as_text(),
        "",
        "[files]",
    ]
    lines += [f"mode_{k}.csv" for k in range(0, cfg.k_max + 1)]
    lines += ["residuals.csv"]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    cfg = parse_config(Path(args.config).read_text())
    bundle = _solve_bundle(cfg)
    out_dir = Path(args.output or cfg.output_dir)
    _write_solution(cfg, bundle, out_dir)
    print((out_dir / "summary.txt").read_text(), end="")
    if not bundle.converged:
        raise ConvergenceError(
            f"not converged after {bundle.iterations} iterations "
            f"(last distance {bundle.diff_history[-1]:.3e})")
    return EXIT_OK


def cmd_verify(args) -> int:
    sol_dir = Path(args.solution_dir)
    cfg = parse_config((sol_dir / "config.ini").read_text())
    grid = cfg.grid()
    field = FourierField.zero(grid, cfg.k_max,
                              with_sigma=-2.0 <= cfg.nu < 0.0)
    for k in range(0, cfg.k_max + 1):
        data = np.genfromtxt(sol_dir / f"mode_{k}.csv", delimiter=",",
                             names=True)
        for comp, name in (("r", "v_r"), ("theta", "v_theta"), ("z", "v_z")):
            vals = data[f"re_{name}"] + 1j * data[f"im_{name}"]
            field.set_mode(k, comp, RadialProfile(grid, vals))  # values only
    if field.sigma is not None:
        field.sigma = _summary_sigma(sol_dir / "summary.txt")
    rep = residual_asns(field, cfg.nu, cfg.mu, forcing=cfg.forcing_data(),
                        boundary=cfg.boundary_data())
    print(rep.as_text())
    _write_csv(sol_dir / "residuals_verify.csv",
               ["r", "momentum_r", "momentum_theta", "momentum_z", "divergence"],
               [rep.curve_r, rep.curve_momentum[:, 0], rep.curve_momentum[:, 1],
                rep.curve_momentum[:, 2], rep.curve_divergence])
    return EXIT_OK


def _summary_sigma(path: Path) -> float:
    """The 1/r tail coefficient from a solve summary's `sigma = ` line.

    A missing summary is an OSError; a missing or unparseable line is a
    ConfigError.
    """
    for line in path.read_text().splitlines():
        if line.startswith("sigma = "):
            try:
                return float(line[len("sigma = "):])
            except ValueError as exc:
                raise ConfigError(f"{path}: bad sigma line {line!r}") from exc
    raise ConfigError(f"{path} has no 'sigma = <float>' line")


def cmd_nonunique(args) -> int:
    cfg = parse_config(Path(args.config).read_text())
    grid = cfg.grid()
    first, second, rep = nonuniqueness_pair(
        grid, cfg.nu, cfg.mu, cfg.k_max, cfg.forcing_data(),
        cfg.boundary_data(), args.delta_mu, tol=cfg.tol_picard,
        max_iters=cfg.max_iters, relaxation=cfg.relaxation)
    attach_residual_report(first)
    attach_residual_report(second)
    out_dir = Path(args.output or cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "separation.csv", ["r", "r_times_dutheta"],
               [rep.radii, rep.values])
    print(f"delta_mu = {args.delta_mu!r}")
    print(f"separation limit estimate = {rep.limit_estimate!r} "
          f"(construction forces {-args.delta_mu!r})")
    print(f"solution distance in the tau norm = {rep.bundle_distance!r}")
    print(f"first residual max = {first.residual_report.max_momentum:.3e}")
    print(f"second residual max = {second.residual_report.max_momentum:.3e}")
    print(f"wrote {out_dir / 'separation.csv'}")
    unconverged = [f"{name} solve after {b.iterations} iterations (last "
                   f"distance {b.diff_history[-1]:.3e})"
                   for name, b in (("first", first), ("second", second))
                   if not b.converged]
    if unconverged:
        raise ConvergenceError("not converged: " + "; ".join(unconverged))
    return EXIT_OK


def cmd_bessel(args) -> int:
    alpha, x = args.order, args.x
    iv = bessel_i(alpha, x)
    kv = bessel_k(alpha, x)
    ivp = bessel_i_prime(alpha, x)
    kvp = bessel_k_prime(alpha, x)
    wr = float(wronskian_check(np.asarray(x)))
    header = "order,x,I,K,I_prime,K_prime,wronskian_defect"
    if args.scaled:
        row = [alpha, x, float(iv.mantissa), float(kv.mantissa),
               float(ivp.with_shift(iv.exp_shift).mantissa),
               float(kvp.with_shift(kv.exp_shift).mantissa)]
        header = ("order,x,I_mantissa,K_mantissa,I_prime_mantissa,"
                  "K_prime_mantissa,wronskian_defect")
    else:
        row = [alpha, x, float(iv.value()), float(kv.value()),
               float(ivp.value()), float(kvp.value())]
    row.append(wr * x + 1.0)  # K1' I1 - K1 I1' + 1/x, zero in exact arithmetic
    print(header)
    print(",".join(_FMT % v for v in row))
    return EXIT_OK


def cmd_oracle(args) -> int:
    """FD-oracle regression: the three analytic cases at three resolutions."""
    cases = [
        ("swirl0 nu=-1 homogeneous -> 1/r", -1.0, 0.0,
         lambda r: np.zeros_like(r), 1.0, 1.0, lambda r: 1.0 / r),
        ("swirl0 nu=-3 f=s^-4 -> r^-2 log r", -3.0, 0.0,
         lambda r: r ** -4.0, 0.0, 2.0,
         lambda r: r ** -2.0 * np.log(r)),
        ("swirl k=1 nu=0-like Bessel decay", -1.0, 1.0,
         lambda r: np.zeros_like(r), 1.0, 1.0, None),
    ]
    status = EXIT_OK
    print("case,n,max_error,order")
    for name, nu, ksq, f, bc, decay, exact in cases:
        errs = []
        for n in (512, 1024, 2048):
            g = RadialGrid.graded(n, 100.0, 2.0)
            p1 = lambda r: (1.0 - nu) / r
            p0 = lambda r: -(1.0 + nu) / r ** 2
            sol = fd_bvp_solve(g, p1, p0, ksq, f(g.nodes), bc, decay)
            if exact is None:
                from .bessel import kernel_K
                kk = kernel_K(1, nu, g.nodes)
                ref = kk.mantissa * np.exp(kk.exp_shift - kk.exp_shift[0]) \
                    / kk.mantissa[0]
            else:
                ref = exact(g.nodes)
            errs.append(float(np.max(np.abs(sol - ref))))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        for n, e in zip((512, 1024, 2048), errs):
            print(f"{name},{n},{_FMT % e},")
        print(f"{name},orders,,{'/'.join('%.3f' % o for o in orders)}")
        if not np.all(orders > 1.9):
            status = EXIT_NUMERIC
    return status


def cmd_calibrate(args) -> int:
    """Bisect the empirical smallness threshold for one (nu, mu) pair.

    Scales a single swirl boundary mode until the iteration stops
    converging; the bracket midpoint is reported and cached to a file.  If
    no trial diverged within --steps, the file is still written and the
    command fails with ConvergenceError: there is no threshold to report.
    """
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    if not (np.isfinite(args.start) and args.start > 0.0):
        raise ConfigError(f"--start must be finite and > 0, got {args.start!r}")
    cfg = parse_config(Path(args.config).read_text())
    grid = cfg.grid()
    forcing = cfg.forcing_data()
    lo, hi = 0.0, np.inf
    amp = args.start
    import warnings as _w
    for _ in range(args.steps):
        b = BoundaryData(g_theta={1: amp})
        try:
            with _w.catch_warnings():
                _w.simplefilter("ignore")
                bundle = picard_solve(grid, cfg.nu, cfg.mu, cfg.k_max, forcing,
                                      b, tol=cfg.tol_picard,
                                      max_iters=cfg.max_iters)
            ok = bundle.converged
        except (ConvergenceError, NumericError):
            ok = False
        if ok:
            lo = amp
            amp = amp * 2.0 if hi == np.inf else 0.5 * (lo + hi)
        else:
            hi = amp
            amp = 0.5 * (lo + hi)
    out_dir = Path(args.output or cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = (f"nu = {cfg.nu!r}\nmu = {cfg.mu!r}\n"
            f"largest_converged_amplitude = {lo!r}\n"
            f"smallest_diverged_amplitude = {hi!r}\n")
    (out_dir / "calibration.txt").write_text(text)
    print(text, end="")
    if hi == np.inf:
        raise ConvergenceError(f"no trial diverged in {args.steps} steps "
                               f"(largest amplitude tried {lo!r})")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which is EXIT_NUMERIC here; report
    it as a ConfigError (exit 1) after the usual usage text instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="excyl",
        description="Spectral solver for axisymmetric stationary Navier-Stokes "
                    "flow outside a periodic cylinder")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the fixed-point solver")
    p.add_argument("config")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="re-audit a solution directory")
    p.add_argument("solution_dir")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("nonunique", help="two-solution construction (nu < -2)")
    p.add_argument("config")
    p.add_argument("--delta-mu", type=float, default=0.05, dest="delta_mu")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_nonunique)

    p = sub.add_parser("bessel", help="evaluate the modified Bessel substrate")
    p.add_argument("--order", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--scaled", action="store_true")
    p.set_defaults(func=cmd_bessel)

    p = sub.add_parser("oracle", help="FD-oracle regression cases")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("calibrate", help="bisect the smallness threshold")
    p.add_argument("config")
    p.add_argument("--start", type=float, default=0.02)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_calibrate)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ExcylError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
