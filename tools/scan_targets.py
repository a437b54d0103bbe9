"""Scan the c-optimal routes of the target-dose problems.

    PYTHONPATH=src python3 tools/scan_targets.py

The scan runs `ac_optimal` on the 4 case studies and on 60 Emax draws per
family (`draw_spec` of bench/workloads.py with numpy's default_rng(3) and
control means 5-95 % of the way up the curve, one draw per family in each
of 60 rounds).  Each design is compared with the one the Elfving LP route
returns when the one-point certificate of `c_opt_numeric` is declined, and
verified at grid 512.  It prints how many `c_opt_numeric` calls the
certificate settled and how many took the LP.

It then runs 60 Michaelis-Menten draws per family (default_rng(4), same
shares) through the closed forms of `c_opt_elfving_2d`: each variance bound
must be within 1e-6 (relative) of `c_opt_numeric`'s, and the `ac_optimal`
design must verify optimal at grid 512.  It prints the count of each
support pattern.

For every problem of both scans, `numeric_solve` with the AC criterion must
return the `ac_optimal` design, and that design must verify optimal at
grid 2: the null-adjusted witness is fitted on a grid of its own.

Every problem that misses a check is named; the scan exits 1 if any does.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DRAWS = 60


def draws(curve: str, seed: int):
    """(name, drug, control) of DRAWS rounds of one draw per family."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import FAMILIES, draw_spec, program_models

    rng = np.random.default_rng(seed)
    for k in range(DRAWS):
        for fam in FAMILIES:
            spec = draw_spec(rng, curve, fam, u=(0.05, 0.95))
            yield (f"{curve}-{fam}-{k}", *program_models(spec))


def models():
    """(name, drug, control) of the case studies, then of the Emax draws."""
    from acdesign.reproduce import gouty_models, migraine_models

    for fam in ("normal", "negative_binomial"):
        yield (f"gouty-{fam}", *gouty_models(fam))
    for fam in ("normal", "binomial"):
        yield (f"migraine-{fam}", *migraine_models(fam))
    yield from draws("emax", 3)


def route_misses(drug, control, design) -> list[str]:
    """The shared one-column route's checks that a problem misses."""
    from acdesign import CriterionSpec, numeric_solve, verify

    spec = CriterionSpec("ac")
    misses = []
    if numeric_solve(drug, control, spec).design != design:
        misses.append("numeric_solve differs")
    verdict = verify(design, drug, control, spec, grid_size=2).verdict
    if verdict != "optimal":
        misses.append(f"{verdict} at grid 2")
    return misses


def scan_closed_forms() -> int:
    """Check the Michaelis-Menten closed forms against the LP; the misses."""
    from collections import Counter

    from acdesign import (CriterionSpec, ac_optimal, c_opt_elfving_2d, c_opt_numeric,
                          response_gradient, target_dose, verify)

    spec = CriterionSpec("ac")

    tags, bad = Counter(), 0
    for name, drug, control in draws("mm", 4):
        c = response_gradient(drug, target_dose(drug, control))[: drug.n_mean_params]
        closed, lp = c_opt_elfving_2d(drug, c), c_opt_numeric(drug, c)
        design = ac_optimal(drug, control)
        verdict = verify(design, drug, control, spec, grid_size=512).verdict
        misses = route_misses(drug, control, design)
        tags[closed.case_tag] += 1
        if abs(closed.delta - lp.delta) > 1e-6 * lp.delta or verdict != "optimal" or misses:
            bad += 1
            print(f"  {name}: delta {closed.delta:.10g} against the LP's {lp.delta:.10g}, "
                  f"{', '.join([verdict] + misses)}")
    patterns = ", ".join(f"{n} {tag}" for tag, n in sorted(tags.items()))
    print(f"  {sum(tags.values())} Michaelis-Menten draws: {patterns}; "
          f"{bad} differ from the LP or not optimal")
    return bad


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
        solvers._one_point_certified = certify
        verdict = verify(design, drug, control, CriterionSpec("ac"), grid_size=512).verdict
        misses = route_misses(drug, control, design)
        problems += 1
        if design != lp_design or verdict != "optimal" or misses:
            bad += 1
            print(f"  {name}: {'same' if design == lp_design else 'differs from the LP'}, "
                  f"{', '.join([verdict] + misses)}")
    # each problem makes one c_opt_numeric call
    print(f"  {problems} problems: {sum(outcomes)} certified, "
          f"{problems - sum(outcomes)} took the LP, {bad} differ or not optimal")
    bad += scan_closed_forms()
    print(f"  {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
