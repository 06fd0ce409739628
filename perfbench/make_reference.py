#!/usr/bin/env python3
"""Write perfbench/reference.json: iteration counts, B_tau and residuals per
input class of every workload.

    python3 perfbench/make_reference.py

Each class (pair-warm: mu and delta_mu; wide-k: one; ladder-cold: r_max) is
solved once with zero axial shift.  Run this only on the commit that defines
the reference; the benchmark fails any operation that departs from it.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins threads and locates the solver source)


def main() -> int:
    run._pin_threads()
    run._import_solver()
    from workloads import (REFERENCE_PATH, WORKLOADS, OpInput, Runner,
                           ref_key, render_input)
    ref = {}
    for name, w in WORKLOADS.items():
        runner = Runner(w, run.WORK / f"reference-{name}", None)
        entries = {}
        for mu, delta_mu, r_max in itertools.product(w.mus, w.delta_mus,
                                                     w.r_maxes):
            key = ref_key(w, mu, delta_mu, r_max)
            res = runner.run(OpInput(render_input(w, mu, r_max, 0), delta_mu,
                                     key))
            if not res.ok:
                print(f"{name} {key}: {res.reason}", file=sys.stderr)
                return 1
            entries[key] = {"iterations": list(res.iterations),
                            "B_tau": list(res.b_tau),
                            "momentum": res.momentum,
                            "divergence": res.divergence}
            print(f"{name} {key}: {entries[key]} ({res.seconds:.2f} s)")
        ref[name] = entries
        shutil.rmtree(runner.work_dir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
