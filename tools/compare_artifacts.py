#!/usr/bin/env python3
"""Compare the `excyl solve`, `excyl nonunique` and `excyl oracle` artifacts
of two source trees.

Usage:

    python tools/compare_artifacts.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are directories that hold the `excyl` package (the
`src` directory of a checkout).  The script makes eight runs under each
tree.  It runs `excyl solve` on four small built-in configurations: nu = -1
with a forcing that gives a nonzero 1/r tail coefficient sigma, nu = -3,
nu = -1 at K = 40 with boundary data up to mode 40, whose exp-weighted
suffixes run at rates up to 2K = 80, and nu = -3 at K = 24 with data on
mode 1 only, whose iterates never reach past mode 8 (modes 1, 2, 4, 8, 8,
...).  Three more runs are `excyl nonunique --delta-mu 0.06` on the nu = -3
configuration, on the narrow nu = -3 one and on the nu = -3 one with
relaxation = 0.7; they step the two problems of a non-uniqueness pair in
lockstep on one grid and write separation.csv.  On the narrow one the steps
run below the full band and the first problem retires before the second;
the relaxed one blends each problem's iterates.  The last run is `excyl
oracle`, the finite-difference oracle cases, whose stdout is saved as
oracle.txt.  For every run it compares the exit status.  For every
artifact it prints "identical" when the bytes agree, "same numbers,
different text" when only the spelling differs (such as -0 against 0), or
else the largest deviation of the file's numbers relative to the largest
magnitude in the base file.  For the text reports summary.txt and
oracle.txt it then prints how many lines differ and the labels of the
first five, such as "decay fit r,11" (the text before " = " or ": ", or
the case and n of an oracle CSV row).

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
}
# nu = -3 again, under-relaxed: the blended iterates of a lockstep pair
CONFIGS["nu-3-relaxed"] = CONFIGS["nu-3"].replace(
    "r_max = 60.0\n", "r_max = 60.0\nrelaxation = 0.7\n")

# (label, configuration, excyl subcommand and its options); a run without
# a configuration writes no files, so its stdout is saved as its artifact
RUNS = [(name, name, ["solve"])
        for name in ("nu-1-sigma", "nu-3", "nu-1-wide", "nu-3-narrow")] + [
    (f"{name}-nonunique", name, ["nonunique", "--delta-mu", "0.06"])
    for name in ("nu-3", "nu-3-narrow", "nu-3-relaxed")] + [
    ("oracle", None, ["oracle"])]

_NUMBER = re.compile(
    r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)")

# artifacts whose differing lines are also listed by label
TEXT_REPORTS = ("summary.txt", "oracle.txt")


def _run(src: Path, command: list, config: Optional[Path], out: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    args = [] if config is None else [str(config), *command[1:], "--output",
                                      str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "excyl.cli", command[0], *args],
        env=env, capture_output=True, text=True)
    if config is None:
        out.mkdir(parents=True)
        (out / f"{command[0]}.txt").write_text(proc.stdout)
    if proc.returncode not in (0, 3):  # 3: wrote artifacts, not converged
        sys.stderr.write(proc.stderr)
    return proc.returncode


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
    first two comma-separated fields (an oracle CSV row: case and n)."""
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
    for name, config_name, command in RUNS:
        config = None if config_name is None else work / f"{config_name}.ini"
        outs, codes = [], []
        for side, src in (("base", base_src), ("head", head_src)):
            out = work / side / name
            codes.append(_run(src, command, config, out))
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
