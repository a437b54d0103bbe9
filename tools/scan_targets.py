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

Every variance bound that the LP route returns from `_polish_support` must
be at most 1 + 1e-12 times the bound 1/gamma^2 of a dense Elfving LP on
20,001 doses, which is never polished.  The scan prints the number of such
bounds and the total time spent in `_polish_support`.

Every problem that misses a check is named; the scan exits 1 if any does.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DRAWS = 60
DENSE_GRID = 20001  # doses of the unpolished Elfving LP that bounds every polished bound


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


class PolishLog:
    """Stands in for `solvers._polish_support`: records each call and its time."""

    def __init__(self):
        from acdesign import solvers

        self.calls, self.seconds, self.name = {}, 0.0, None
        self._polish = solvers._polish_support
        solvers._polish_support = self

    def __call__(self, drug, c, doses):
        start = time.perf_counter()
        result = self._polish(drug, c, doses)
        self.seconds += time.perf_counter() - start
        self.calls[(self.name, tuple(c))] = (drug, c, result[1])
        return result

    def dense_misses(self) -> int:
        """Polished bounds above the bound of a dense LP's support; the misses."""
        import numpy as np

        from acdesign import solvers

        bad = 0
        for (name, _), (drug, c, delta) in self.calls.items():
            grid = np.linspace(*drug.dose_range, DENSE_GRID)
            F = drug.regression_rows(grid)
            # gamma c = F^T z for the LP's signed mass z, and the bound is 1/gamma^2
            gamma = float(c @ (F.T @ solvers._copt_lp(F, c))) / float(c @ c)
            dense = 1.0 / gamma**2
            if not delta <= dense * (1.0 + 1e-12):
                bad += 1
                print(f"  {name}: polished bound {delta:.12g} above the dense LP's {dense:.12g}")
        print(f"  {len(self.calls)} polished LP-route bounds, {bad} above the dense LP's; "
              f"{1e3 * self.seconds:.1f} ms in _polish_support")
        return bad


def scan_closed_forms(log: PolishLog) -> int:
    """Check the Michaelis-Menten closed forms against the LP; the misses."""
    from collections import Counter

    from acdesign import (CriterionSpec, ac_optimal, c_opt_elfving_2d, c_opt_numeric,
                          response_gradient, target_dose, verify)

    spec = CriterionSpec("ac")

    tags, bad = Counter(), 0
    for name, drug, control in draws("mm", 4):
        log.name = name
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
    log = PolishLog()
    for name, drug, control in models():
        log.name = name
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
    bad += scan_closed_forms(log)
    bad += log.dense_misses()
    print(f"  {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
