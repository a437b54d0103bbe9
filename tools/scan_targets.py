"""Scan the one-point certificate of c_opt_numeric on target-dose problems.

    PYTHONPATH=src python3 tools/scan_targets.py

The scan runs `ac_optimal` on the 4 case studies and on 60 Emax draws per
family (`draw_spec` of bench/workloads.py with numpy's default_rng(3) and
control means 5-95 % of the way up the curve, one draw per family in each
of 60 rounds).  Each design is compared with the one the Elfving LP route
returns when the certificate is declined, and verified at grid 512.  It
prints how many `c_opt_numeric` calls the certificate settled and how many
took the LP, and names every problem whose two designs differ or whose
verdict is not optimal.  Exits 1 if any does.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DRAWS = 60


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
    rng = np.random.default_rng(3)
    for k in range(DRAWS):
        for fam in FAMILIES:
            spec = draw_spec(rng, "emax", fam, u=(0.05, 0.95))
            yield (f"emax-{fam}-{k}", *program_models(spec))


def main() -> int:
    from acdesign import CriterionSpec, ac_optimal, solvers, verify

    certify = solvers._one_point_certified
    outcomes = []

    def recorded(*args):
        outcomes.append(certify(*args))
        return outcomes[-1]

    problems = bad = 0
    start = time.perf_counter()
    for name, drug, control in models():
        solvers._one_point_certified = recorded
        design = ac_optimal(drug, control)
        solvers._one_point_certified = lambda *args: False
        lp_design = ac_optimal(drug, control)
        verdict = verify(design, drug, control, CriterionSpec("ac"), grid_size=512).verdict
        problems += 1
        if design != lp_design or verdict != "optimal":
            bad += 1
            print(f"  {name}: {'same' if design == lp_design else 'differs from the LP'}, "
                  f"{verdict}")
    solvers._one_point_certified = certify
    # each problem makes one c_opt_numeric call
    print(f"  {problems} problems: {sum(outcomes)} certified, "
          f"{problems - sum(outcomes)} took the LP, {bad} differ or not optimal")
    print(f"  {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
