#!/usr/bin/env python3
"""Compare the `excyl solve` artifacts of two source trees.

Usage:

    python tools/compare_artifacts.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are directories that hold the `excyl` package (the
`src` directory of a checkout).  The script runs `excyl solve` on two small
built-in configurations under each tree: nu = -1 with a forcing that gives
a nonzero 1/r tail coefficient sigma, and nu = -3.  For every artifact it
prints "identical" when the bytes agree, or else the largest deviation of
the file's numbers relative to the largest magnitude in the base file.

Exit status: 0 when every artifact is byte-identical, 1 when some differ.
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
from pathlib import Path

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
}

_NUMBER = re.compile(
    r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)")


def _solve(src: Path, config: Path, out: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    proc = subprocess.run(
        [sys.executable, "-m", "excyl.cli", "solve", str(config),
         "--output", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
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


def compare(base_src: Path, head_src: Path, work: Path) -> bool:
    same = True
    for name, text in CONFIGS.items():
        config = work / f"{name}.ini"
        config.write_text(text)
        outs, codes = [], []
        for side, src in (("base", base_src), ("head", head_src)):
            out = work / side / name
            codes.append(_solve(src, config, out))
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
                verdict = _deviation(*(p.read_text() for p in paths))
            same &= verdict == "identical"
            print(f"  {fname}: {verdict}")
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
