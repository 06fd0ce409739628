"""Config round-trip, run orchestration, artifact layout, determinism."""

import filecmp
import shutil

import numpy as np
import pytest

from excyl import residuals
from excyl.cli import (
    EXIT_CONFIG,
    EXIT_CONVERGENCE,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    MAX_ITERATE_VALUES,
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


@pytest.mark.parametrize("command", ["solve", "nonunique", "calibrate"])
def test_non_utf8_config_is_config_error(tmp_path, capsys, command):
    # bytes that are not UTF-8 (here a UTF-16 byte-order mark) are a config
    # error naming the file, not a UnicodeDecodeError traceback
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(b"\xff\xfe" + MINIMAL.encode())
    out = tmp_path / "out"
    assert main([command, str(cfg), "--output", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "run.ini" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text, section", [
    ("[boundry]\ntheta,1 = 1e-3\n", "boundry"),
    # configparser would otherwise merge [DEFAULT] into every section
    ("[DEFAULT]\nnu = -3.0\n", "DEFAULT"),
    (MINIMAL + "[Forcing]\ntheta,0 = power_decay(1e-3, 10)\n", "Forcing")],
    ids=["misspelled", "DEFAULT", "capitalised"])
def test_unknown_sections_are_config_errors(text, section):
    with pytest.raises(ConfigError, match=rf"unknown section \[{section}\]"):
        parse_config(text)


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


@pytest.mark.parametrize("item", [
    "r,1 = power_exp_decay(1e-3, 2, -5)",  # a growing exponential
    "r,1 = power_exp_decay(1e-3, 2, nan)",
    "r,1 = power_exp_decay(1e-3, inf, 1.0)",
    "theta,0 = power_decay(1e-3, nan)",
    "theta,0 = power_decay(1e-3, -inf)"])
def test_bad_forcing_arguments_are_config_errors(tmp_path, capsys, item):
    with pytest.raises(ConfigError, match="forcing exponents|c >= 0"):
        parse_config(MINIMAL + "[forcing]\n" + item + "\n")
    cfg = tmp_path / "bad.ini"
    cfg.write_text(MINIMAL + "[forcing]\n" + item + "\n")
    assert main(["solve", str(cfg), "--output", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("item, exponent", [
    ("theta,0 = power_decay(1e-3, 3.5)", "lambda_theta = 10.0"),
    ("z,0 = power_exp_decay(1e-3, 9.5, 0.0)", "lambda_z = 10.0"),
    ("z,2 = power_decay(1e-3, 5)", "lambda = 10.0"),
    ("r,-1 = power_exp_decay(1e-3, 2, 0)", "lambda = 10.0")])
def test_forcing_slower_than_its_exponent_is_config_error(tmp_path, capsys,
                                                          item, exponent):
    # a power law weighed with a larger exponent has an enormous data norm
    # and contradicts its own declared tail; the entry and the exponent are
    # named
    key = item.split(" = ")[0]
    with pytest.raises(ConfigError, match=rf"forcing {key} = .* decays "
                                          rf"slower than {exponent}"):
        parse_config(MINIMAL + "[forcing]\n" + item + "\n")
    cfg = tmp_path / "slow.ini"
    cfg.write_text(MINIMAL + "[forcing]\n" + item + "\n")
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--output", str(out)]) == EXIT_CONFIG
    assert exponent in capsys.readouterr().err
    assert not out.exists()


def test_power_law_forcing_declares_its_exponent():
    # power_exp_decay with c = 0 is the power law amp r^-p and declares p; a
    # power law may decay as slowly as its exponent, an exponential (c > 0)
    # and f_{r,0} (absorbed into the pressure) as slowly as they like
    cfg = parse_config(
        "[params]\nnu = -1.0\nlambda_theta = 3.5\n[forcing]\n"
        "theta,0 = power_decay(1e-3, 3.5)\n"
        "z,0 = power_exp_decay(1e-3, 10, 0)\n"
        "r,0 = power_decay(2e-4, 2)\n"
        "r,1 = power_exp_decay(1e-3, 2, 0.5)\n")
    f = cfg.forcing_data()
    assert [f.decay(comp, k) for comp, k in
            (("theta", 0), ("z", 0), ("r", 0), ("r", 1))] == [3.5, 10.0, 2.0,
                                                               12.0]


@pytest.mark.parametrize("section, lines, message", [
    ("boundary", ["theta,1 = 1e-3", "theta, 1 = 1e-3"],
     "theta,1 twice: 'theta,1', 'theta, 1'"),
    ("forcing", ["z,1 = power_decay(1e-3, 5)", "z, 1 = power_decay(2e-3, 5)"],
     "z,1 twice: 'z,1', 'z, 1'"),
    # a real family's modes k and -k are one function
    ("forcing", ["theta,1 = power_decay(1e-3, 5)",
                 "theta,-1 = power_decay(2e-3, 5)"], "differ"),
    ("forcing", ["r,2 = power_decay(1e-3, 5)",
                 "r,-2 = power_exp_decay(1e-3, 5, 0.0)"], "differ")],
    ids=["boundary-twice", "forcing-twice", "pair-args", "pair-family"])
def test_mode_given_twice_is_config_error(tmp_path, capsys, section, lines,
                                          message):
    text = MINIMAL + f"[{section}]\n" + "\n".join(lines) + "\n"
    with pytest.raises(ConfigError, match=message):
        parse_config(text)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--output", str(out)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_mode_keys_are_read_as_integers(tmp_path):
    # 'theta, 1', 'z,+2' and 'r,02' name modes 1, 2 and 2; config.ini
    # writes them back as 'theta,1', 'z,2' and 'r,2'
    cfg = tmp_path / "run.ini"
    cfg.write_text(MINIMAL.replace("mu = 0.0", "mu = 1.0\nk_max = 2\n"
                                   "n_radial = 64\nr_max = 30.0")
                   + "[boundary]\ntheta, 1 = 1e-3\nz,+2 = 5e-4\n"
                   "[forcing]\nr,02 = power_decay(1e-4, 10)\n")
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--output", str(out)]) == EXIT_OK
    written = (out / "config.ini").read_text()
    for key in ("theta,1 = ", "z,2 = ", "r,2 = "):
        assert key in written
    assert main(["verify", str(out)]) == EXIT_OK


def test_non_finite_forcing_amplitude_is_numeric_error(tmp_path, capsys):
    # the amplitude is left to the sampling check, which names the mode
    cfg = tmp_path / "nan.ini"
    cfg.write_text(MINIMAL + "[forcing]\nr,1 = power_exp_decay(nan, 2, 1.0)\n")
    assert main(["solve", str(cfg), "--output", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert "forcing (r, " in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "r_max = nan", "r_max = inf", "r_max = 1.0", "grid_gamma = nan",
    "grid_gamma = -1", "tol_picard = nan", "tol_picard = 0", "max_iters = 0"])
def test_bad_grid_and_iteration_parameters_are_config_errors(tmp_path, capsys,
                                                             line):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(MINIMAL + line + "\n")
    assert main(["solve", str(cfg), "--output", str(tmp_path / "out")]) == EXIT_CONFIG
    assert line.split()[0] in capsys.readouterr().err


@pytest.mark.parametrize("line", ["n_radial = 10000000000000000000000",
                                  "k_max = 100000000000"])
def test_sizes_past_the_iterate_ceiling_are_config_errors(tmp_path, capsys,
                                                          line):
    # refused by RunConfig.validate before the grid or the iterate exists
    cfg = tmp_path / "big.ini"
    cfg.write_text(MINIMAL + line + "\n")
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--output", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert line in err and "MAX_ITERATE_VALUES" in err
    assert not out.exists()


def test_iterate_ceiling_counts_three_components_and_derivatives():
    # k_max = 1: 3 * 2 * 3 * (n_radial + 1) complex values
    largest = MAX_ITERATE_VALUES // 18 - 1
    parse_config(f"[params]\nnu = -1.0\nk_max = 1\nn_radial = {largest}\n")
    with pytest.raises(ConfigError, match=f"n_radial = {largest + 1} "):
        parse_config(f"[params]\nnu = -1.0\nk_max = 1\n"
                     f"n_radial = {largest + 1}\n")


_NAN_AUDIT_RUN = """
[params]
nu = -1.0
mu = 1.0
k_max = 2
n_radial = 64
r_max = 30.0

[boundary]
theta,1 = 1e-3
"""


def _nan_in_u_theta(synth):
    def patched(name, stack, z):
        out = synth(name, stack, z)
        if name == "u_theta":
            out[len(out) // 4, 0] = np.nan
        return out
    return patched


def _nan_in_pressure(recover):
    def patched(v, nu, rhs):
        out = recover(v, nu, rhs)
        out[1, len(v.grid) // 4] = np.nan
        return out
    return patched


def _nan_slope(fit):
    def patched(values, grid):
        got = fit(values, grid)
        return None if got is None else (np.nan, got[1])
    return patched


@pytest.mark.parametrize("target, patch, quantity", [
    ("_synth", _nan_in_u_theta, "momentum_r"),
    ("recover_pressure", _nan_in_pressure, "momentum_r"),
    ("decay_fit", _nan_slope, "decay fit r,1"),
])
def test_non_finite_audit_is_numeric_error(tmp_path, capsys, monkeypatch,
                                           target, patch, quantity):
    # one NaN in the audit's synthesis, pressure or decay fits: the solve
    # fails before it writes anything, naming the first non-finite quantity
    monkeypatch.setattr(residuals, target, patch(getattr(residuals, target)))
    cfg = tmp_path / "run.ini"
    cfg.write_text(_NAN_AUDIT_RUN)
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--output", str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert f"residual audit: {quantity} is not finite" in err
    assert not out.exists()


def test_non_finite_audit_fails_verify_and_nonunique(tmp_path, capsys,
                                                     monkeypatch):
    cfg = tmp_path / "run.ini"
    cfg.write_text(_NAN_AUDIT_RUN)
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--output", str(out)]) == EXIT_OK
    pair_cfg = tmp_path / "pair.ini"
    pair_cfg.write_text(_NAN_AUDIT_RUN.replace("nu = -1.0", "nu = -3.0"))
    pair = tmp_path / "pair"
    capsys.readouterr()
    monkeypatch.setattr(residuals, "_synth",
                        _nan_in_u_theta(residuals._synth))
    assert main(["verify", str(out)]) == EXIT_NUMERIC
    assert main(["nonunique", str(pair_cfg), "--output", str(pair)]) == \
        EXIT_NUMERIC
    assert capsys.readouterr().err.count("residual audit: ") == 2
    assert not (out / "residuals_verify.csv").exists()
    assert not pair.exists()


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
    for bad in ("not-a-number", "nan", "inf"):
        summary.write_text("".join(
            f"sigma = {bad}\n" if ln.startswith("sigma = ") else ln
            for ln in text.splitlines(keepends=True)))
        assert main(["verify", str(out)]) == EXIT_CONFIG
        assert f"summary.txt: bad sigma line 'sigma = {bad}'" \
            in capsys.readouterr().err
    summary.write_text("".join(ln for ln in text.splitlines(keepends=True)
                               if not ln.startswith("sigma = ")))
    assert main(["verify", str(out)]) == EXIT_CONFIG
    assert "sigma" in capsys.readouterr().err


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    """A SMALL_RUN solution directory (n = 256, K = 3), solved once."""
    root = tmp_path_factory.mktemp("solved")
    (root / "run.ini").write_text(SMALL_RUN)
    out = root / "out"
    assert main(["solve", str(root / "run.ini"), "--output", str(out)]) \
        == EXIT_OK
    return out


def _edit_row(row, col, text):
    """row (a line of 11 comma-separated fields) with field col replaced."""
    cols = row.split(",")
    cols[col] = text
    return ",".join(cols)


# (mode file, edit of its lines) for every way a mode CSV can stop being
# the one solve wrote; field 0 is r, field 1 re_v_r
_CORRUPTIONS = {
    "renamed column": (1, lambda ls: [ls[0].replace("re_v_r", "re_v_x")]
                       + ls[1:]),
    "missing last row": (2, lambda ls: ls[:-1]),
    "r off the nodes": (0, lambda ls: ls[:5] + [_edit_row(ls[5], 0, "1.5")]
                        + ls[6:]),
    "unparseable value": (0, lambda ls: ls[:5] + [
        _edit_row(_edit_row(ls[5], 0, "1"), 3, "abc")] + ls[6:]),
    "non-finite value": (3, lambda ls: ls[:9] + [_edit_row(ls[9], 5, "nan")]
                         + ls[10:]),
    # written as the byte 0xFF, which no UTF-8 text holds
    "stray 0xFF byte": (1, lambda ls: ls[:5] + [ls[5] + "\udcff"] + ls[6:]),
}


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_verify_rejects_corrupted_mode_csvs(tmp_path, capsys, solved_dir,
                                            corruption):
    # a mode file must have solve's columns, n_radial + 1 rows, the grid's
    # nodes as its r column and finite values; anything else is a config
    # error naming the file, not a traceback, a numeric error or a NaN audit
    out = tmp_path / "out"
    shutil.copytree(solved_dir, out)
    k, edit = _CORRUPTIONS[corruption]
    path = out / f"mode_{k}.csv"
    text = "\n".join(edit(path.read_text().splitlines())) + "\n"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    assert main(["verify", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and f"mode_{k}.csv" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["config.ini", "summary.txt"])
def test_verify_rejects_non_utf8_files(tmp_path, capsys, solved_dir, name):
    # verify reads config.ini and, at nu = -1, the sigma line of summary.txt
    out = tmp_path / "out"
    shutil.copytree(solved_dir, out)
    path = out / name
    path.write_bytes(b"\xff" + path.read_bytes())
    capsys.readouterr()
    assert main(["verify", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and name in err
    assert "Traceback" not in err


_NU_3_RUN = """
[params]
nu = -3.0
mu = 1.0
k_max = 3
n_radial = 256
r_max = 60.0

[boundary]
theta,1 = 1e-3
z,1 = 5e-4
r,2 = 5e-4
"""


@pytest.mark.parametrize("config", [SMALL_RUN, _NU_3_RUN],
                         ids=["nu-1-sigma", "nu-3"])
def test_verify_repeats_the_pressure_free_report_lines(tmp_path, capsys,
                                                       config):
    # verify audits the written values without a pressure, in curl form;
    # every report line that needs no pressure must equal solve's.  The r,
    # z and outer momentum lines differ, and the curl audit of the values
    # reads far above solve's direct one (ROADMAP item 2): inner r and z
    # 2.2e-8 and 1.6e-8 against 2.9e-6 at nu = -1, 5.2e-7 and 1.6e-6
    # against 1.2e-4 at nu = -3
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(config)
    out = tmp_path / "out"
    assert main(["solve", str(cfg_file), "--output", str(out)]) == EXIT_OK
    summary = (out / "summary.txt").read_text()
    report = summary.split("[residuals]\n")[1].split("\n\n")[0]
    capsys.readouterr()
    assert main(["verify", str(out)]) == EXIT_OK
    solve, verify = ({ln.split(":")[0]: ln for ln in text.splitlines()}
                     for text in (report, capsys.readouterr().out))
    assert solve.keys() == verify.keys()
    differ = {f"momentum residual ({which})"
              for which in ("r, inner half", "z, inner half", "outer half")}
    fits = [label for label in solve if label.startswith("decay fit ")]
    assert len(fits) >= 6
    for label in solve:
        if label in differ:
            assert solve[label] != verify[label], label
        elif label != "pressure handling":
            assert solve[label] == verify[label], label
    assert solve["pressure handling"].endswith(" direct")
    assert verify["pressure handling"].endswith(" curl")
    for which in ("r", "z"):
        label = f"momentum residual ({which}, inner half)"
        value = {side: float(lines[label].split()[-1])
                 for side, lines in (("solve", solve), ("verify", verify))}
        assert value["verify"] > 10.0 * value["solve"], label


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


def test_determinism_bit_identical(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(SMALL_RUN)
    out1, out2 = (tmp_path / d for d in ("d1", "d2"))
    assert main(["solve", str(cfg_file), "--output", str(out1)]) == EXIT_OK
    assert main(["solve", str(cfg_file), "--output", str(out2)]) == EXIT_OK
    for name in ["summary.txt", "residuals.csv"] + \
            [f"mode_{k}.csv" for k in range(0, 4)]:
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


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
    assert sum(ln.startswith("fitted limit L = ") for ln in lines) == 1
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


def test_calibrate_trials_use_the_configs_loop_settings(tmp_path,
                                                       monkeypatch):
    import excyl.cli

    seen = []
    solve = excyl.cli.picard_solve

    def recording(*args, **kwargs):
        seen.append(kwargs)
        return solve(*args, **kwargs)

    monkeypatch.setattr(excyl.cli, "picard_solve", recording)
    cfg = tmp_path / "run.ini"
    cfg.write_text(CALIBRATE_RUN + "relaxation = 0.7\nmax_iters = 40\n"
                   "tol_picard = 1e-9\n")
    rc = main(["calibrate", str(cfg), "--output", str(tmp_path / "cal"),
               "--start", "20", "--steps", "3"])
    assert rc in (EXIT_OK, EXIT_CONVERGENCE)
    assert seen == [{"tol": 1e-9, "max_iters": 40, "relaxation": 0.7}] * 3


@pytest.mark.parametrize("extra, name", [
    (("--steps", "0"), "--steps"), (("--steps", "-1"), "--steps"),
    (("--start", "0"), "--start"), (("--start=-0.5",), "--start"),
    (("--start", "nan"), "--start"), (("--start", "inf"), "--start")])
def test_calibrate_bad_arguments_are_config_errors(tmp_path, capsys, extra,
                                                   name):
    assert _calibrate(tmp_path, *extra) == EXIT_CONFIG
    assert name in capsys.readouterr().err
    assert not (tmp_path / "cal").exists()
