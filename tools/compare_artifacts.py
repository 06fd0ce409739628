#!/usr/bin/env python3
"""Compare the `excyl solve`, `excyl verify`, `excyl nonunique`, `excyl
calibrate`, `excyl bessel` and `excyl oracle` artifacts of two source trees.

Usage:

    python tools/compare_artifacts.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are directories that hold the `excyl` package (the
`src` directory of a checkout).  The script makes twelve runs under each
tree.  It runs `excyl solve` on six small built-in configurations: nu = -1
with a forcing that gives a nonzero 1/r tail coefficient sigma, the same at
nu = -2, the edge of the range -2 <= nu < 0 that carries sigma, nu = -3,
nu = -1 at K = 40 with boundary data up to mode 40, whose exp-weighted
suffixes run at rates up to 2K = 80, nu = -3 at K = 24 with data on
mode 1 only, whose iterates never reach past mode 8 (modes 1, 2, 4, 8, 8,
...), and nu = -1 forced on every forcing path: the zero swirl, vertical
and radial modes (the last absorbed into the pressure), a nonzero mode,
and a power_exp_decay forcing given only at k = -1.  After each solve, `excyl verify` re-audits its output directory,
which writes residuals_verify.csv; its stdout is saved as verify.txt.
Three more runs are `excyl nonunique --delta-mu 0.06` on the nu = -3
configuration, on the narrow nu = -3 one and on the nu = -3 one with
relaxation = 0.7; they step the two problems of a non-uniqueness pair in
lockstep on one grid and write separation.csv.  Their stdout, which holds
the fitted limit, the distance of the pair and the residual maxima of both
audits, is saved as nonunique.txt, with the run's output directory (named
by its `wrote` line) replaced by OUTPUT_DIR.  On the narrow one the steps
run below the full band and the first problem retires before the second;
the relaxed one blends each problem's iterates.  One run is `excyl
calibrate --steps 3` on the nu = -3 configuration, which writes
calibration.txt.  The last two write nothing, so their stdout is the
artifact: `excyl bessel` at the orders 0, 1.5 and 2.5 and at x = 1e-3, 2
and 50, plain and --scaled, saved as bessel.txt, and `excyl oracle`, the
finite-difference oracle cases, saved as oracle.txt.  For every run it
compares the exit status (the largest of a run's commands).  For every
artifact it prints "identical" when the bytes agree, "same numbers,
different text" when only the spelling differs (such as -0 against 0), or
else the largest deviation of the file's numbers relative to the largest
magnitude in the base file.  For the text reports summary.txt, bessel.txt,
oracle.txt, verify.txt and nonunique.txt it then prints how many lines differ and the
labels of the first five, such as "decay fit r,11" (the text before " = "
or ": ", or the first two fields of a CSV row: the order and x of a bessel
row, the case and n of an oracle one).

Exit status: 0 when every run exits alike and every artifact is
byte-identical, 1 otherwise.
A change to the numerics legitimately moves the artifacts, so the exit
status reports, it does not judge.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path
from typing import Optional

CONFIGS = {
    "nu-1-sigma": """\
[params]
nu = -1.0
mu = 1.0
k_max = 3
n_radial = 256
r_max = 60.0

[boundary]
theta,1 = 1e-3
z,2 = 5e-4

[forcing]
theta,0 = power_decay(1e-3, 10.0)
""",
    "nu-3": """\
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
""",
    "nu-1-wide": """\
[params]
nu = -1.0
mu = 1.0
k_max = 40
n_radial = 256
r_max = 60.0

[boundary]
theta,1 = 1e-3
z,2 = 5e-4
theta,17 = 2e-5
r,33 = 1e-5
theta,40 = 1e-5
""",
    "nu-3-narrow": """\
[params]
nu = -3.0
mu = 1.0
k_max = 24
n_radial = 256
r_max = 60.0

[boundary]
theta,1 = 1e-3
z,1 = 5e-4
""",
    "nu-1-forced": """\
[params]
nu = -1.0
mu = 1.0
k_max = 3
n_radial = 256
r_max = 60.0

[boundary]
theta,1 = 1e-3

[forcing]
theta,0 = power_decay(1e-4, 10.0)
z,0 = power_decay(-5e-5, 10.0)
r,0 = power_decay(2e-4, 6.0)
r,-1 = power_exp_decay(1e-6, 2.0, 3.0)
z,2 = power_decay(3e-5, 12.0)
""",
}
# nu = -3 again, under-relaxed: the blended iterates of a lockstep pair
CONFIGS["nu-3-relaxed"] = CONFIGS["nu-3"].replace(
    "r_max = 60.0\n", "r_max = 60.0\nrelaxation = 0.7\n")
# nu-1-sigma at nu = -2, the last nu whose zero swirl mode carries sigma
CONFIGS["nu-2-edge"] = CONFIGS["nu-1-sigma"].replace("nu = -1.0\n",
                                                     "nu = -2.0\n")

# (label, configuration, excyl command lines: subcommand and options); a
# run without a configuration writes no files, so the stdout of its
# commands is saved as its artifact; verify reads the directory the solve
# before it wrote, and the stdout of verify and nonunique is saved too
RUNS = [(name, name, [["solve"], ["verify"]])
        for name in ("nu-1-sigma", "nu-2-edge", "nu-3", "nu-1-wide",
                     "nu-3-narrow", "nu-1-forced")] + [
    (f"{name}-nonunique", name, [["nonunique", "--delta-mu", "0.06"]])
    for name in ("nu-3", "nu-3-narrow", "nu-3-relaxed")] + [
    ("nu-3-calibrate", "nu-3", [["calibrate", "--steps", "3"]]),
    ("bessel", None, [["bessel", "--order", order, "--x", x, *scaled]
                      for order in ("0", "1.5", "2.5")
                      for x in ("1e-3", "2", "50")
                      for scaled in ([], ["--scaled"])]),
    ("oracle", None, [["oracle"]])]

_NUMBER = re.compile(
    r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)")

# artifacts whose differing lines are also listed by label
TEXT_REPORTS = ("summary.txt", "bessel.txt", "oracle.txt", "verify.txt",
                "nonunique.txt")
# subcommands whose stdout is saved as <subcommand>.txt in the output
# directory, with the directory's own path replaced by this placeholder
SAVED_STDOUT = ("verify", "nonunique")
OUTPUT_PLACEHOLDER = "OUTPUT_DIR"


def _run(src: Path, commands: list, config: Optional[Path], out: Path) -> int:
    """Run the command lines in turn and return the largest exit status.

    `verify` re-audits out; its stdout and nonunique's are saved there as
    verify.txt and nonunique.txt."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    status, stdout = 0, ""
    for command in commands:
        if command[0] == "verify":
            args = [str(out)]
        elif config is None:
            args = command[1:]
        else:
            args = [str(config), *command[1:], "--output", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "excyl.cli", command[0], *args],
            env=env, capture_output=True, text=True)
        if proc.returncode not in (0, 3):  # 3: wrote artifacts, not converged
            sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        if command[0] in SAVED_STDOUT:
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{command[0]}.txt").write_text(
                proc.stdout.replace(str(out), OUTPUT_PLACEHOLDER))
        else:
            stdout += proc.stdout
    if config is None:
        out.mkdir(parents=True)
        (out / f"{commands[0][0]}.txt").write_text(stdout)
    return status


def _deviation(base: str, head: str) -> str:
    """'identical', the relative deviation of the numbers, or why the files
    cannot be compared number by number."""
    if base == head:
        return "identical"
    if _NUMBER.split(base) != _NUMBER.split(head):
        return "differs in its text, not only in its numbers"
    a = [float(t) for t in _NUMBER.findall(base)]
    b = [float(t) for t in _NUMBER.findall(head)]
    scale = max((abs(x) for x in a if math.isfinite(x)), default=0.0)
    worst = 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            return f"differs: {x!r} -> {y!r}"
        worst = max(worst, abs(x - y))
    if worst == 0.0:
        return "same numbers, different text"
    rel = worst / scale if scale > 0.0 else math.inf
    return f"max deviation {rel:.3e} of the file's max ({worst:.3e} absolute)"


def _label(line: str) -> str:
    """What a report line states: the text before " = " or ": ", else the
    first two comma-separated fields (a CSV row of bessel.txt: order and x,
    or of oracle.txt: case and n)."""
    for sep in (" = ", ": "):
        if sep in line:
            return line.split(sep, 1)[0].strip()
    return ",".join(line.split(",")[:2])


def _differing_lines(base: str, head: str) -> str:
    """How many lines differ, and the labels of the first five."""
    pairs = list(zip_longest(base.splitlines(), head.splitlines()))
    labels = [_label(a if a is not None else b) for a, b in pairs if a != b]
    more = "; ..." if len(labels) > 5 else ""
    return (f"{len(labels)} of {len(pairs)} lines differ: "
            f"{'; '.join(labels[:5])}{more}")


def compare(base_src: Path, head_src: Path, work: Path) -> bool:
    same = True
    for name, text in CONFIGS.items():
        (work / f"{name}.ini").write_text(text)
    for name, config_name, commands in RUNS:
        config = None if config_name is None else work / f"{config_name}.ini"
        outs, codes = [], []
        for side, src in (("base", base_src), ("head", head_src)):
            out = work / side / name
            codes.append(_run(src, commands, config, out))
            outs.append(out)
        print(f"[{name}] exit status base {codes[0]}, head {codes[1]}")
        same &= codes[0] == codes[1]
        files = sorted({p.name for out in outs if out.is_dir()
                        for p in out.iterdir()})
        for fname in files:
            paths = [out / fname for out in outs]
            missing = [side for side, p in zip(("base", "head"), paths)
                       if not p.is_file()]
            if missing:
                verdict = f"missing in {' and '.join(missing)}"
            else:
                texts = [p.read_text() for p in paths]
                verdict = _deviation(*texts)
            same &= verdict == "identical"
            print(f"  {fname}: {verdict}")
            if fname in TEXT_REPORTS and not missing and verdict != "identical":
                print(f"    {_differing_lines(*texts)}")
    return same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base_src", type=Path)
    ap.add_argument("head_src", type=Path)
    args = ap.parse_args(argv)
    for src in (args.base_src, args.head_src):
        if not (src / "excyl" / "__init__.py").is_file():
            ap.error(f"{src} holds no excyl package")
    with tempfile.TemporaryDirectory(prefix="excyl-compare-") as tmp:
        same = compare(args.base_src, args.head_src, Path(tmp))
    print("all artifacts identical" if same else "artifacts differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
