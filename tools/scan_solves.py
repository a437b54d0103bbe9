"""Scan numeric_solve over case studies and Emax draws, dose grids and p.

    PYTHONPATH=src python3 tools/scan_solves.py

The scan solves the 4 case studies and 24 Emax draws (`draw_spec` of
bench/workloads.py with numpy's default_rng(7), one draw per family in each
of 6 rounds) on every grid size in GRIDS at every p in PS, with the
block-identity contrast: 924 solves.  It prints the counts by stop reason and
verdict and the total Newton steps (the sum of `iterations`), and names every
solve that is not certified and optimal.  A change to the polish that should
not change its path shows the same total: 4,345 since the polish starts from
the exact sensitivity peaks (6,080 with the grid basins before).

Each returned design is verified again at grid_size 2 and 512.  The verdict
and the maximum violation must not depend on the grid: they must agree, the
violation to within 1e-12 max(1, |v|).  Every disagreement is named.

The whole scan runs once for each OpenBLAS thread count in THREADS, each time
in a subprocess, because the thread count must be set before numpy loads and
outcomes near the solver's 1e-9 stop have depended on it.  Exits 1 unless
every solve in every run is certified and optimal and its verification does
not depend on the grid.
"""

import argparse
import collections
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GRIDS = (5, 7, 9, 11, 13, 17, 21, 25, 33, 41, 65)
PS = (0.0, -0.5, -1.0)
THREADS = (1, 2)


def models():
    """(name, drug, control) of the case studies, then of the Emax draws."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import FAMILIES, draw_spec, program_models

    from acdesign.reproduce import gouty_models, migraine_models

    for fam in ("normal", "negative_binomial"):
        yield (f"gouty-{fam}", *gouty_models(fam))
    for fam in ("normal", "binomial"):
        yield (f"migraine-{fam}", *migraine_models(fam))
    rng = np.random.default_rng(7)
    for k in range(6):
        for fam in FAMILIES:
            yield (f"emax-{fam}-{k}", *program_models(draw_spec(rng, "emax", fam)))


def scan() -> int:
    from acdesign import CriterionSpec, numeric_solve, verify
    from acdesign.solvers import SolveOptions

    counts, steps, grid_dependent = collections.Counter(), 0, 0
    start = time.perf_counter()
    for name, drug, control in models():
        for grid in GRIDS:
            for p in PS:
                spec = CriterionSpec("phi_p", p)
                res = numeric_solve(drug, control, spec, SolveOptions(grid_size=grid))
                outcome = (res.stop_reason, res.report.verdict)
                counts[outcome] += 1
                steps += res.iterations
                if outcome != ("certified", "optimal"):
                    print(f"  {name} grid {grid} p {p:g}: {outcome[0]}/{outcome[1]}, "
                          f"violation {res.max_violation:.3g}")
                coarse, fine = (verify(res.design, drug, control, spec, grid_size=g)
                                for g in (2, 512))
                v = fine.max_violation
                if (coarse.verdict != fine.verdict
                        or abs(coarse.max_violation - v) > 1e-12 * max(1.0, abs(v))):
                    grid_dependent += 1
                    print(f"  {name} grid {grid} p {p:g}: verify at grid 2 gives "
                          f"{coarse.verdict} {coarse.max_violation:.3g}, at 512 "
                          f"{fine.verdict} {v:.3g}")
    for (reason, verdict), n in sorted(counts.items()):
        print(f"  {reason}/{verdict}: {n}")
    print(f"  {sum(counts.values())} solves, {steps} Newton steps, "
          f"{grid_dependent} verified differently at grids 2 and 512, "
          f"in {time.perf_counter() - start:.1f} s")
    return 0 if set(counts) == {("certified", "optimal")} and not grid_dependent else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--threads", type=int, help="scan in this process (set by the parent)")
    args = ap.parse_args()
    if args.threads is not None:
        return scan()
    status = 0
    for threads in THREADS:
        print(f"OPENBLAS_NUM_THREADS={threads}", flush=True)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, __file__, "--threads", str(threads)], env=env)
        status = max(status, run.returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
