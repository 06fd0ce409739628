"""Config round-trip, run orchestration, artifact layout, determinism."""

import filecmp

import numpy as np
import pytest

from excyl.cli import (
    EXIT_CONFIG,
    EXIT_CONVERGENCE,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    _write_csv,
    main,
    parse_config,
    render_config,
)
from excyl.errors import ConfigError

MINIMAL = """
[params]
nu = -1.0
mu = 0.0
"""

SMALL_RUN = """
[params]
nu = -1.0
mu = 1.0
k_max = 3
n_radial = 256
r_max = 60.0

[boundary]
theta,1 = 1e-3

[forcing]
theta,0 = power_decay(1e-4, 10)
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.nu == -1.0
    assert cfg.k_max == 8
    assert cfg.tau_info().tau > 0


def test_roundtrip():
    cfg = parse_config(SMALL_RUN)
    again = parse_config(render_config(cfg))
    assert again == cfg


def test_validation_messages():
    with pytest.raises(ConfigError, match="lambda_theta > 3"):
        parse_config("[params]\nnu = -1.0\nlambda_theta = 3.0\n")
    with pytest.raises(ConfigError, match="nu < 0"):
        parse_config("[params]\nnu = 0.5\n")
    with pytest.raises(ConfigError, match="g_{r,0}"):
        parse_config("[params]\nnu = -1.0\n[boundary]\nr,0 = 0.1\n")
    with pytest.raises(ConfigError, match="parse error"):
        parse_config("params]\nbroken")
    with pytest.raises(ConfigError, match="unknown parameter"):
        parse_config("[params]\nnu = -1.0\nbogus = 3\n")
    with pytest.raises(ConfigError, match="power_decay"):
        parse_config("[params]\nnu = -1.0\n[forcing]\ntheta,0 = cubic(1,2)\n")


def test_forcing_families():
    cfg = parse_config(SMALL_RUN)
    f = cfg.forcing_data()
    r = np.array([1.0, 2.0, 4.0])
    np.testing.assert_allclose(f.sample("theta", 0, r), 1e-4 * r ** -10.0)
    cfg2 = parse_config(
        "[params]\nnu = -1.0\n[forcing]\nz,1 = power_exp_decay(2.0, 3, 0.5)\n")
    f2 = cfg2.forcing_data()
    np.testing.assert_allclose(
        f2.sample("z", 1, r), 2.0 * r ** -3.0 * np.exp(-0.5 * (r - 1.0)))


def test_solve_layout_and_summary(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(SMALL_RUN)
    out = tmp_path / "out"
    rc = main(["solve", str(cfg_file), "--output", str(out)])
    assert rc == EXIT_OK
    for name in ["config.ini", "summary.txt", "residuals.csv"] + \
            [f"mode_{k}.csv" for k in range(0, 4)]:
        assert (out / name).exists(), name
    summary = (out / "summary.txt").read_text()
    assert "converged = True" in summary
    assert "tau = " in summary
    # 17-significant-digit numeric format in the CSVs
    row = (out / "mode_1.csv").read_text().splitlines()[1]
    assert len(row.split(",")) == 11


def test_solve_zero_config_is_trivial(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(MINIMAL)
    out = tmp_path / "out"
    rc = main(["solve", str(cfg_file), "--output", str(out)])
    assert rc == EXIT_OK
    summary = (out / "summary.txt").read_text()
    assert "iterations = 1" in summary
    assert "norm_B_tau = 0.0" in summary


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[params]\nnu = 0.3\n")
    assert main(["solve", str(bad)]) == EXIT_CONFIG
    missing = tmp_path / "nope.ini"
    rc = main(["solve", str(missing)])
    assert rc == 4  # io error
    ok = tmp_path / "nu1.ini"
    ok.write_text(MINIMAL)
    assert main(["nonunique", str(ok)]) == EXIT_CONFIG  # nu >= -2 refused
    # beyond x = 2^30 the Bessel substrate has no finite value
    assert main(["bessel", "--order", "1", "--x", "1e10"]) == EXIT_NUMERIC


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["bessel", "--order", "1", "--x", "abc"],
    # argparse reads -inf as an option, so --delta-mu has no value
    ["nonunique", "run.ini", "--delta-mu", "-inf"],
])
def test_usage_errors_are_config_errors(argv, capsys):
    # argparse's own usage exit status (2) would read as EXIT_NUMERIC
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"usage: excyl {argv[0]}")
    assert "config error" in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: excyl solve")


def test_non_finite_boundary_is_numeric_error(tmp_path, capsys):
    cfg = tmp_path / "nan.ini"
    cfg.write_text(SMALL_RUN.replace("theta,1 = 1e-3", "theta,1 = nan"))
    assert main(["solve", str(cfg), "--output", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert "(theta, 1)" in capsys.readouterr().err
    # a non-finite g_{r,0} is a numeric error too, not a normalization breach
    cfg.write_text(MINIMAL + "[boundary]\nr,0 = nan\n")
    assert main(["solve", str(cfg), "--output", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert "(r, 0)" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "r_max = nan", "r_max = inf", "r_max = 1.0", "grid_gamma = nan",
    "grid_gamma = -1", "tol_picard = nan", "tol_picard = 0", "max_iters = 0"])
def test_bad_grid_and_iteration_parameters_are_config_errors(tmp_path, capsys,
                                                             line):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(MINIMAL + line + "\n")
    assert main(["solve", str(cfg), "--output", str(tmp_path / "out")]) == EXIT_CONFIG
    assert line.split()[0] in capsys.readouterr().err


@pytest.mark.parametrize("nu, mu", [
    ("nan", "0.0"), ("-inf", "0.0"), ("-1.0", "nan"), ("-1.0", "inf"),
    ("-1.0", "-inf")])
def test_non_finite_nu_and_mu_are_config_errors(tmp_path, capsys, nu, mu):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[params]\nnu = {nu}\nmu = {mu}\n")
    assert main(["solve", str(cfg), "--output", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert ("nu" if nu != "-1.0" else "mu") in err


@pytest.mark.parametrize("delta_mu", ["nan", "inf", "-inf"])
def test_non_finite_delta_mu_is_config_error(tmp_path, capsys, delta_mu):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[params]\nnu = -3.0\nmu = 1.0\nk_max = 2\nn_radial = 64\n")
    rc = main(["nonunique", str(cfg), f"--delta-mu={delta_mu}",
               "--output", str(tmp_path / "pair")])
    assert rc == EXIT_CONFIG
    assert "delta_mu" in capsys.readouterr().err


@pytest.mark.parametrize("table", [
    np.array([[0.0, -0.0, 5e-324], [1e300, np.nan, np.inf],
              [-np.inf, 1.0 / 3.0, -2.5e-310]]),
    np.array([[1.0, -0.0, np.pi]]),
])
def test_write_csv_matches_savetxt(tmp_path, table):
    header = [f"c{j}" for j in range(table.shape[1])]
    ref = tmp_path / "ref.csv"
    np.savetxt(ref, table, fmt="%.17g", delimiter=",", header=",".join(header),
               comments="")
    got = tmp_path / "got.csv"
    _write_csv(got, header, list(table.T))
    assert got.read_bytes() == ref.read_bytes()


def test_verify_roundtrip_and_tamper_detection(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(SMALL_RUN)
    out = tmp_path / "out"
    assert main(["solve", str(cfg_file), "--output", str(out)]) == EXIT_OK
    assert main(["verify", str(out)]) == EXIT_OK
    clean = np.genfromtxt(out / "residuals_verify.csv", delimiter=",",
                          names=True)
    clean_max = np.max(clean["momentum_r"])
    # tamper with one coefficient of mode_1.csv and re-verify
    lines = (out / "mode_1.csv").read_text().splitlines()
    head, rows = lines[0], lines[1:]
    cols = rows[30].split(",")
    cols[3] = repr(float(cols[3]) + 1e-4)  # re_v_theta bump
    rows[30] = ",".join(cols)
    (out / "mode_1.csv").write_text("\n".join([head] + rows) + "\n")
    assert main(["verify", str(out)]) == EXIT_OK
    tampered = np.genfromtxt(out / "residuals_verify.csv", delimiter=",",
                             names=True)
    assert np.max(tampered["momentum_theta"]) > 1e3 * max(clean_max, 1e-12)


def test_verify_needs_the_summary_sigma(tmp_path, capsys):
    # nu = -1 keeps a 1/r tail, so verify must reread sigma from summary.txt
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(SMALL_RUN)
    out = tmp_path / "out"
    assert main(["solve", str(cfg_file), "--output", str(out)]) == EXIT_OK
    summary = out / "summary.txt"
    text = summary.read_text()
    assert main(["verify", str(out)]) == EXIT_OK
    summary.write_text(text.replace("sigma = ", "sigma = not-a-number # "))
    assert main(["verify", str(out)]) == EXIT_CONFIG
    summary.write_text("".join(ln for ln in text.splitlines(keepends=True)
                               if not ln.startswith("sigma = ")))
    assert main(["verify", str(out)]) == EXIT_CONFIG
    assert "sigma" in capsys.readouterr().err


def test_verify_missing_summary_is_io_error(tmp_path, capsys):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(SMALL_RUN)
    out = tmp_path / "out"
    assert main(["solve", str(cfg_file), "--output", str(out)]) == EXIT_OK
    (out / "summary.txt").unlink()
    assert main(["verify", str(out)]) == EXIT_IO
    assert "summary.txt" in capsys.readouterr().err


def test_bessel_subcommand(capsys):
    assert main(["bessel", "--order", "1.0", "--x", "2.0"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    vals = out[1].split(",")
    assert float(vals[2]) == pytest.approx(1.5906368546373291, rel=1e-12)
    assert float(vals[3]) == pytest.approx(0.13986588181652243, rel=1e-12)
    assert abs(float(vals[6])) < 1e-12  # wronskian defect


def test_determinism_bit_identical(tmp_path, monkeypatch):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(SMALL_RUN)
    out1, out2, out8 = (tmp_path / d for d in ("d1", "d2", "d8"))
    assert main(["solve", str(cfg_file), "--output", str(out1)]) == EXIT_OK
    assert main(["solve", str(cfg_file), "--output", str(out2)]) == EXIT_OK
    monkeypatch.setenv("EXCYL_WORKERS", "8")
    assert main(["solve", str(cfg_file), "--output", str(out8)]) == EXIT_OK
    for name in ["summary.txt", "residuals.csv"] + \
            [f"mode_{k}.csv" for k in range(0, 4)]:
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name
        assert filecmp.cmp(out1 / name, out8 / name, shallow=False), name


def test_oracle_subcommand():
    assert main(["oracle"]) == EXIT_OK


def test_nonunique_subcommand(tmp_path, capsys):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(
        "[params]\nnu = -3.0\nmu = 1.0\nk_max = 2\nn_radial = 256\n")
    out = tmp_path / "pair"
    rc = main(["nonunique", str(cfg_file), "--delta-mu", "0.05",
               "--output", str(out)])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    for which in ("first", "second"):
        assert sum(ln.startswith(f"{which} residual max = ")
                   for ln in lines) == 1, which
    data = np.genfromtxt(out / "separation.csv", delimiter=",", names=True)
    assert data["r_times_dutheta"][-1] == pytest.approx(-0.05, rel=0.05)


@pytest.mark.parametrize("boundary, unconverged", [
    ("", ("second",)),  # zero data: the first solve is exact at once
    ("[boundary]\ntheta,1 = 1e-3\n", ("first", "second")),
])
def test_nonunique_unconverged_is_convergence_failure(tmp_path, capsys,
                                                      boundary, unconverged):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text("[params]\nnu = -3.0\nmu = 1.0\nk_max = 2\n"
                        "n_radial = 256\nmax_iters = 1\n" + boundary)
    out = tmp_path / "pair"
    rc = main(["nonunique", str(cfg_file), "--delta-mu", "0.05",
               "--output", str(out)])
    assert rc == EXIT_CONVERGENCE
    assert (out / "separation.csv").exists()  # written before the failure
    err = capsys.readouterr().err
    assert err.startswith("convergence failure: not converged")
    for which in ("first", "second"):
        assert (f"{which} solve after 1 iterations" in err) == (
            which in unconverged), which


CALIBRATE_RUN = """
[params]
nu = -1.0
mu = 1.0
k_max = 2
n_radial = 64
r_max = 60.0
"""


def _calibrate(tmp_path, *extra):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CALIBRATE_RUN)
    return main(["calibrate", str(cfg), "--output", str(tmp_path / "cal"),
                 *extra])


def test_calibrate_brackets_the_threshold(tmp_path):
    # 20 diverges, 10 diverges, 5 converges
    assert _calibrate(tmp_path, "--start", "20", "--steps", "3") == EXIT_OK
    text = (tmp_path / "cal" / "calibration.txt").read_text()
    assert "largest_converged_amplitude = 5.0\n" in text
    assert "smallest_diverged_amplitude = 10.0\n" in text


def test_calibrate_without_a_diverged_trial_is_convergence_failure(tmp_path,
                                                                  capsys):
    # 0.02 and 0.04 both converge, so there is no threshold to report
    assert _calibrate(tmp_path, "--steps", "2") == EXIT_CONVERGENCE
    text = (tmp_path / "cal" / "calibration.txt").read_text()
    assert "largest_converged_amplitude = 0.04\n" in text
    assert "smallest_diverged_amplitude = inf\n" in text
    assert "no trial diverged in 2 steps" in capsys.readouterr().err


@pytest.mark.parametrize("extra, name", [
    (("--steps", "0"), "--steps"), (("--steps", "-1"), "--steps"),
    (("--start", "0"), "--start"), (("--start=-0.5",), "--start"),
    (("--start", "nan"), "--start"), (("--start", "inf"), "--start")])
def test_calibrate_bad_arguments_are_config_errors(tmp_path, capsys, extra,
                                                   name):
    assert _calibrate(tmp_path, *extra) == EXIT_CONFIG
    assert name in capsys.readouterr().err
    assert not (tmp_path / "cal").exists()
