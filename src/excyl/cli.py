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
3 convergence, 4 io, 5 verify's audit differs from a fresh solve's.
All numeric output is written with 17 significant digits, and identical
configurations reproduce bit-identical files.  Every CSV is byte for byte
what np.savetxt(fmt="%.17g", delimiter=",") writes under its header:
_g17.csv_blocks formats the table in blocks of rows with array
arithmetic, and formats one by one only the values its exact product
cannot decide (near-ties, non-finite and huge values).
"""

from __future__ import annotations

import argparse
import configparser
import io
import re
import sys
import warnings
from dataclasses import MISSING, dataclass, fields, field as dc_field
from itertools import zip_longest
from pathlib import Path
from typing import List, Tuple

import numpy as np

from .bessel import (bessel_i, bessel_i_prime, bessel_k, bessel_k_prime,
                     kernel_K, wronskian_check)
from .errors import ConfigError, ConvergenceError, ExcylError, NumericError
from .fourier import (COMPONENTS, BoundaryData, ForcingData, ForcingMode,
                      FourierField)
from .picard import (check_iteration_settings, compute_tau, nonuniqueness_pair,
                     picard_solve)
from .radial import RadialGrid, fd_bvp_solve
from .residuals import attach_residual_report, recover_pressure, residual_asns

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_CONVERGENCE, EXIT_IO = 0, 1, 2, 3, 4
EXIT_MISMATCH = 5

_FMT = "%.17g"

# Largest iterate a config may ask for, in complex values (3 components x
# (k_max+1) modes x 3 derivative orders x (n_radial+1) nodes): 256 MiB.  A
# solve holds about twelve times its iterate, so larger sizes are refused
# before anything is allocated.
MAX_ITERATE_VALUES = 2 ** 24

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
        # ForcingData checks the decay exponents, compute_tau nu and tau > 0;
        # the grid parameters are checked here (the grid raises DomainError)
        self.forcing_data()
        self.tau_info()
        if not np.isfinite(self.mu):
            raise ConfigError("mu must be finite")
        check_iteration_settings(**self.settings())
        if self.k_max < 1 or self.n_radial < 8:
            raise ConfigError("need k_max >= 1 and n_radial >= 8")
        values = 3 * (self.k_max + 1) * 3 * (self.n_radial + 1)
        if values > MAX_ITERATE_VALUES:
            raise ConfigError(
                f"k_max = {self.k_max} with n_radial = {self.n_radial} needs an "
                f"iterate of {values} complex values, more than "
                f"MAX_ITERATE_VALUES = {MAX_ITERATE_VALUES}")
        if not (np.isfinite(self.r_max) and self.r_max > 1.0):
            raise ConfigError("r_max must be finite and > 1")
        if not (np.isfinite(self.grid_gamma) and self.grid_gamma > 0.0):
            raise ConfigError("grid_gamma must be finite and > 0")
        # BoundaryData rejects non-finite values (NumericError) before the
        # g_{r,0} normalization (ConfigError)
        self.boundary_data()
        return self

    def tau_info(self):
        return compute_tau(self.nu, self.lambda_theta, self.lambda_z,
                           self.lambda_)

    def settings(self) -> dict:
        """picard_solve's loop settings, as keyword arguments."""
        return dict(tol=self.tol_picard, max_iters=self.max_iters,
                    relaxation=self.relaxation)

    # -- builders -------------------------------------------------------------

    def grid(self) -> RadialGrid:
        return RadialGrid.graded(self.n_radial, self.r_max, self.grid_gamma)

    def boundary_data(self) -> BoundaryData:
        g = {"r": {}, "theta": {}, "z": {}}
        for comp, k, val in self.boundary:
            g[comp][k] = val
        return BoundaryData(g_r=g["r"], g_theta=g["theta"], g_z=g["z"])

    def forcing_data(self) -> ForcingData:
        # the families are real, so modes k and -k must be one function
        spec = {(comp, k): f"{fam}{args}"
                for comp, k, fam, args in self.forcing}
        modes = {}
        for comp, k, family, args in self.forcing:
            if spec.get((comp, -k), spec[comp, k]) != spec[comp, k]:
                raise ConfigError(f"forcing {comp},{k} = {spec[comp, k]} and "
                                  f"{comp},{-k} = {spec[comp, -k]} differ")
            if family == "power_decay":
                amp, p = args
                c = 0.0

                def f(r, _a=amp, _p=p):
                    return _a * r ** (-_p)
            else:  # power_exp_decay
                amp, p, c = args

                def f(r, _a=amp, _p=p, _c=c):
                    return _a * r ** (-_p) * np.exp(-_c * (r - 1.0))

            # a power law (c = 0) must decay as fast as its mode's exponent
            # (f_{r,0} has none: it is absorbed into the pressure); c > 0
            # decays faster than any power
            attr = ("lambda_" if k else
                    {"theta": "lambda_theta", "z": "lambda_z"}.get(comp))
            if c == 0.0 and attr and p < getattr(self, attr):
                raise ConfigError(
                    f"forcing {comp},{k} = {spec[comp, k]} decays slower than "
                    f"{attr.rstrip('_')} = {getattr(self, attr)!r}")
            modes[(comp, k)] = ForcingMode(f, p if c == 0.0 else p + 10.0)
        return ForcingData(modes=modes, lambda_theta=self.lambda_theta,
                           lambda_z=self.lambda_z, lambda_=self.lambda_)


# [params] key -> (RunConfig attribute, type) in field order; the type is
# the default's, and "lambda" is stored as lambda_ (a Python keyword)
_PARAMS = {f.name.rstrip("_"): (f.name, type(f.default))
           for f in fields(RunConfig) if f.default is not MISSING}


def _read_text(path: Path) -> str:
    """The UTF-8 text of path: other bytes are a ConfigError naming the
    file, a missing file an OSError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate the flat INI run description."""
    # no header can name the section "", so [DEFAULT] is an unknown section
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    for section in cp.sections():
        if section not in ("params", "boundary", "forcing"):
            raise ConfigError(f"unknown section [{section}]")
    cfg = RunConfig()
    if cp.has_section("params"):
        for key, raw in cp.items("params"):
            if key not in _PARAMS:
                raise ConfigError(f"unknown parameter {key!r}")
            attr, typ = _PARAMS[key]
            try:
                setattr(cfg, attr, typ(raw))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    for section, parser in (("boundary", _parse_boundary_item),
                            ("forcing", _parse_forcing_item)):
        if cp.has_section(section):
            keys = {}  # (component, k) -> the key that gave it
            for key, raw in cp.items(section):
                item = parser(key, raw)
                if keys.setdefault(item[:2], key) != key:
                    raise ConfigError(f"[{section}] gives {item[0]},{item[1]} "
                                      f"twice: {keys[item[:2]]!r}, {key!r}")
                getattr(cfg, section).append(item)
    return cfg.validate()


def _parse_mode_key(key: str) -> Tuple[str, int]:
    try:
        comp, k_str = key.split(",")
        comp = comp.strip()
        k = int(k_str)
    except ValueError as exc:
        raise ConfigError(
            f"mode key {key!r} must look like 'component,k'") from exc
    if comp not in COMPONENTS:
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
    # a non-finite amplitude is caught when the forcing is sampled
    if not np.all(np.isfinite(args[1:])):
        raise ConfigError(f"forcing exponents must be finite in {raw!r}")
    if family == "power_exp_decay" and args[2] < 0:
        raise ConfigError(f"power_exp_decay needs c >= 0 in {raw!r}")
    return comp, k, family, args


def render_config(cfg: RunConfig) -> str:
    """Inverse of parse_config (round-trips exactly)."""
    out = io.StringIO()
    out.write("[params]\n")
    for key, (attr, _) in _PARAMS.items():
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
    """Write the bytes np.savetxt(fmt=_FMT, delimiter=",") writes for the
    columns under the header: csv_blocks formats them in blocks of rows
    with array arithmetic, and a value its exact product cannot decide with
    "%.17g" % alone.  It is imported on first use, so `import excyl.cli`
    does not compile it."""
    from ._g17 import csv_blocks
    with path.open("wb") as f:
        f.write((",".join(header) + "\n").encode())
        f.writelines(csv_blocks(np.column_stack(columns)))


# a mode CSV holds r, then the real and imaginary parts of these rows
_MODE_ROWS = ("v_r", "v_theta", "v_z", "w", "phi")
_MODE_HEADER = ["r"] + [f"{p}_{n}" for n in _MODE_ROWS for p in ("re", "im")]


def _write_mode_csv(path: Path, grid: RadialGrid, rows: List[np.ndarray]):
    """rows are v_r, v_theta, v_z, then w and phi when present (zero
    columns when not)."""
    cols = [grid.nodes]
    for vals in rows + [np.zeros(len(grid))] * (len(_MODE_ROWS) - len(rows)):
        cols += [np.real(vals), np.imag(vals)]
    _write_csv(path, _MODE_HEADER, cols)


def _read_mode_csv(path: Path, grid: RadialGrid) -> np.ndarray:
    """The rows v_r, v_theta, v_z, (3, n+1), of a mode CSV that solve wrote
    on this grid.  Other columns, a row count other than n_radial + 1, an r
    column other than the grid's nodes or a value that is not a finite
    number is a ConfigError; a missing file is an OSError."""
    header, *lines = _read_text(path).splitlines() or [""]
    if header.split(",") != _MODE_HEADER:
        raise ConfigError(f"{path}: columns are not {','.join(_MODE_HEADER)}")
    if len(lines) != len(grid):
        raise ConfigError(f"{path}: {len(lines)} rows, not {len(grid)}")
    try:
        table = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not np.array_equal(table[:, 0], grid.nodes):
        raise ConfigError(f"{path}: the r column is not the grid's nodes")
    if not np.all(np.isfinite(table)):
        raise ConfigError(f"{path} holds a value that is not finite")
    return table[:, 1:7:2].T + 1j * table[:, 2:7:2].T


def _write_residuals(path: Path, rep):
    _write_csv(path, ["r", "momentum_r", "momentum_theta", "momentum_z",
                      "divergence"],
               [rep.curve_r, *rep.curve_momentum.T, rep.curve_divergence])


def _solve(cfg: RunConfig, grid: RadialGrid):
    """The unaudited picard_solve of cfg on grid."""
    return picard_solve(grid, cfg.nu, cfg.mu, cfg.k_max, cfg.forcing_data(),
                        cfg.boundary_data(), **cfg.settings())


def _write_solution(cfg: RunConfig, bundle, out_dir: Path) -> str:
    """Write a solve's artifacts to out_dir; returns summary.txt's text."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.ini").write_text(render_config(cfg))
    grid = bundle.v.grid
    for k in range(0, cfg.k_max + 1):
        rows = list(bundle.v.data[:, k, 0])  # v_r, v_theta, v_z
        if k >= 1:
            rows += [bundle.meridional.w[k - 1], bundle.meridional.phi[k - 1]]
        _write_mode_csv(out_dir / f"mode_{k}.csv", grid, rows)
    _write_residuals(out_dir / "residuals.csv", bundle.residual_report)
    summary = _summary_text(cfg, bundle)
    (out_dir / "summary.txt").write_text(summary)
    return summary


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
        f"convolution_tail = {bundle.rhs_final.convolution_tail!r}",
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
    cfg = parse_config(_read_text(Path(args.config)))
    bundle = _solve(cfg, cfg.grid())
    attach_residual_report(bundle)
    print(_write_solution(cfg, bundle, Path(args.output or cfg.output_dir)),
          end="")
    if not bundle.converged:
        raise ConvergenceError(
            f"not converged after {bundle.iterations} iterations "
            f"(last distance {bundle.diff_history[-1]:.3e})")
    return EXIT_OK


def cmd_verify(args) -> int:
    """Audit the velocity that a solution directory's mode files hold, with
    the pressure and sigma of solving its config.ini again, as solve does,
    and fail (exit 5) when the report is not the fresh solve's own."""
    sol_dir = Path(args.solution_dir)
    cfg = parse_config(_read_text(sol_dir / "config.ini"))
    grid = cfg.grid()
    values = [_read_mode_csv(sol_dir / f"mode_{k}.csv", grid)
              for k in range(0, cfg.k_max + 1)]
    # the audit synthesizes mode 0 from its real part alone
    if np.max(np.abs(values[0].imag)) > 1e-10 * max(1.0, np.max(np.abs(values[0]))):
        raise ConfigError(f"{sol_dir / 'mode_0.csv'}: mode 0 is not real")
    bundle = _solve(cfg, grid)
    field = FourierField(grid, np.zeros_like(bundle.v.data), bundle.sigma,
                         has_derivatives=False)
    field.data[:, :, 0] = np.stack(values, axis=1)
    rep = residual_asns(field, cfg.nu, cfg.mu, bundle.forcing, bundle.boundary,
                        recover_pressure(bundle.v, cfg.nu, bundle.rhs_final))
    print(rep.as_text())
    _write_residuals(sol_dir / "residuals_verify.csv", rep)
    for written, solved in zip_longest(
            rep.as_text().splitlines(),
            attach_residual_report(bundle).as_text().splitlines(),
            fillvalue="(no line)"):
        if written != solved:
            print(f"verify mismatch: the mode files read\n  {written}\n"
                  f"where a fresh solve of config.ini reads\n  {solved}",
                  file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


def cmd_nonunique(args) -> int:
    cfg = parse_config(_read_text(Path(args.config)))
    grid = cfg.grid()
    first, second, rep = nonuniqueness_pair(
        grid, cfg.nu, cfg.mu, cfg.k_max, cfg.forcing_data(),
        cfg.boundary_data(), args.delta_mu, **cfg.settings())
    attach_residual_report(first)
    attach_residual_report(second)
    out_dir = Path(args.output or cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "separation.csv", ["r", "r_times_dutheta"],
               [rep.radii, rep.values])
    print(f"delta_mu = {args.delta_mu!r}")
    print(f"separation limit estimate = {rep.limit_estimate!r} "
          f"(construction forces {-args.delta_mu!r})")
    print(f"fitted limit L = {rep.fitted_limit!r}, coefficient c = "
          f"{rep.fitted_coefficient!r} of sep(r) ~ L + c r^(nu+2) on the "
          f"last decade, max residual {rep.fit_residual:.3e}")
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
    # the substrate's domain; an x past its range is still a numeric error
    if not (np.isfinite(alpha) and alpha >= 0.0):
        raise ConfigError(f"--order must be finite and >= 0, got {alpha!r}")
    if not (np.isfinite(x) and x > 0.0):
        raise ConfigError(f"--x must be finite and > 0, got {x!r}")
    iv = bessel_i(alpha, x)
    kv = bessel_k(alpha, x)
    ivp = bessel_i_prime(alpha, x)
    kvp = bessel_k_prime(alpha, x)
    wr = float(wronskian_check(np.asarray(x)))
    header = "order,x,I,K,I_prime,K_prime,wronskian_defect"
    if args.scaled:
        # I' and K' carry the shifts of I and K, so the mantissas line up
        row = [alpha, x, float(iv.mantissa), float(kv.mantissa),
               float(ivp.mantissa), float(kvp.mantissa)]
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
    cfg = parse_config(_read_text(Path(args.config)))
    grid = cfg.grid()
    forcing = cfg.forcing_data()
    lo, hi = 0.0, np.inf
    amp = args.start
    for _ in range(args.steps):
        b = BoundaryData(g_theta={1: amp})
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                bundle = picard_solve(grid, cfg.nu, cfg.mu, cfg.k_max, forcing,
                                      b, **cfg.settings())
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
