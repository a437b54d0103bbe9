"""Equivalence-theorem verification of candidate designs.

A design maximizes a phi_p criterion exactly when a generalized inverse G of
its information matrix makes the sensitivity function nonpositive over the
whole design space, with equality on the support.  `verify` and
`sensitivity` take W and the threshold from `_Criterion.analyze`, the
analysis on which the solver's loop stops, with G the Moore-Penrose
inverse.  The drug-arm sensitivity is evaluated in batches, one call of
`_Information.rows` on stacked regression rows for the dose grid and one
for each refinement pass of `grid_peak`.  For rank-deficient information
with a one-column contrast the null-space family of generalized inverses
is searched, since the pseudo inverse alone can fail to witness optimality
of singular designs; that search is one discrete Chebyshev fit on a fixed
dose grid, which `scalar_opt.minimax` solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
# unused: bench/tracing.py counts calls through this name (ROADMAP item 1)
from scipy.optimize import linprog  # noqa: F401

from .criteria import CriterionSpec, KMatrix, phi_p_analysis, phi_p_parts, resolve_spec
from .designs import ARM_CONTROL, ARM_DRUG, Design, _Information
from .exceptions import EstimabilityError, UnsupportedCaseError
from .models import ControlModel, DrugModel
from .scalar_opt import minimax

# grid_peak's refinement passes; each evaluates its doses in one batch
_PASSES = 3
VERIFY_GRID = 512  # doses of verify's default grid and of the null-adjusted witness's fit


class _Criterion(_Information):
    """phi_p of K^T theta on the joint design space, shared with the solver.

    `analyze` gives the value, the sensitivity matrix W, the threshold, the
    eigenpairs of B = K^T G K, G = M^+ and an orthonormal basis of the null
    space of M from `phi_p_analysis`, the route `phi_p` also takes.
    """

    def __init__(self, drug: DrugModel, control: ControlModel, K: KMatrix, p: float):
        super().__init__(drug, control)
        self.K = K.matrix
        self.p = p
        self.identity = np.array_equal(self.K, np.eye(self.size))

    def analyze(self, M: np.ndarray):
        """(value, W, threshold, lam, V, G, null) or None when K is inestimable."""
        return phi_p_analysis(M, self.K, self.p, self.identity)

    def analyze_design(self, design: Design):
        """`analyze` of a design's information, which must give a unique W."""
        res = self.analyze(
            self.matrix(design.drug_doses, design.drug_weights, design.control_weight)
        )
        if res is None:
            raise EstimabilityError("contrast not estimable; sensitivity undefined")
        if res[1] is None:
            raise UnsupportedCaseError(
                "smallest-eigenvalue multiplicity > 1; E-optimal sensitivity undefined"
            )
        return res

    def normalized(self, W: np.ndarray, threshold: float, point: tuple[float, int]) -> float:
        """The sensitivity at a design-space point, on the scale verify reports."""
        dose, arm = point
        if arm == ARM_DRUG:
            value = float(self.rows(W, self.drug.regression_rows([dose]))[0])
        elif arm == ARM_CONTROL:
            value = self.at_control(W)
        else:
            raise UnsupportedCaseError(f"unknown arm {arm}")
        return (value - threshold) / abs(threshold)


def grid_peak(f, doses: np.ndarray, values: np.ndarray, tol: float) -> tuple[float, float]:
    """(dose, value) of the peak of f, whose values at the sorted doses are given.

    f maps an array of doses to their values.  The search starts from the
    bracket between the neighbours of the grid argmax; each pass evaluates
    k evenly spaced interior doses in one call of f and narrows the bracket
    to the two neighbours of the best point seen so far.  k is chosen so
    that _PASSES passes shrink the bracket below tol, so for a unimodal f
    the argmax is found within tol.  The grid point is kept unless a
    sampled dose is strictly higher.
    """
    i = int(np.argmax(values))
    best, v_best = float(doses[i]), float(values[i])
    a, b = float(doses[max(i - 1, 0)]), float(doses[min(i + 1, doses.size - 1)])
    # each pass leaves at most 2 / (k + 1) of the bracket
    k = math.ceil(2.0 * ((b - a) / tol) ** (1.0 / _PASSES))
    for _ in range(_PASSES):
        if b - a <= tol:
            break
        h = (b - a) / (k + 1)
        x = a + h * np.arange(1, k + 1)
        y = f(x)
        j = int(np.argmax(y))
        if y[j] > v_best:
            best, v_best = float(x[j]), float(y[j])
        a, b = float(x[x < best].max(initial=a)), float(x[x > best].min(initial=b))
    return best, v_best


def sensitivity(
    point: tuple[float, int],
    design: Design,
    drug: DrugModel,
    control: ControlModel,
    K: KMatrix,
    p: float,
) -> float:
    """Equivalence-theorem directional derivative at one design-space point.

    Nonpositive everywhere exactly at an optimal design, zero on its
    support.  The value is normalized by the threshold, as verify reports
    it.  G is the Moore-Penrose inverse of the information.
    """
    criterion = _Criterion(drug, control, K, p)
    _, W, threshold, *_ = criterion.analyze_design(design)
    return criterion.normalized(W, threshold, point)


@dataclass
class SensitivityReport:
    grid_doses: np.ndarray
    grid_values: np.ndarray
    control_value: float
    support_points: list[tuple[float, int]]
    support_residuals: list[float]
    max_violation: float
    argmax_dose: float
    verdict: str
    tol: float
    ginv_strategy: str = "pseudoinverse"

    def csv_text(self) -> str:
        """(dose, sensitivity) rows for the drug arm, for external plotting."""
        rows = "".join(f"{d:.9g},{v:.9g}\n"
                       for d, v in zip(self.grid_doses.tolist(), self.grid_values.tolist()))
        return "dose,sensitivity\n" + rows

    def to_csv(self, path) -> None:
        """Write csv_text() to path."""
        with open(path, "w") as fh:
            fh.write(self.csv_text())


def verify(
    design: Design,
    drug: DrugModel,
    control: ControlModel,
    spec: CriterionSpec,
    grid_size: int = VERIFY_GRID,
    tol: float = 1e-5,
) -> SensitivityReport:
    """Check local optimality of a design against its criterion.

    The normalized sensitivity is evaluated on a uniform dose grid plus the
    design support and the control point; `grid_peak` refines the grid
    maximum in batched passes, and the support residuals are read off the
    grid.  When that shows a violation for a one-column contrast and a
    singular information matrix, the one generalized inverse that
    `_null_adjusted` fits on its fixed grid is tried, and its report kept
    if it violates less.  Verdict 'optimal' needs the maximum violation and
    every support residual within tol.
    """
    if grid_size < 2:
        raise UnsupportedCaseError("grid_size must be at least 2")
    if not 0.0 <= tol < np.inf:
        raise UnsupportedCaseError(f"tolerance must be finite and nonnegative, not {tol}")
    K, p = resolve_spec(spec, drug, control)
    criterion = _Criterion(drug, control, K, p)
    _, W, threshold, _, _, G, null = criterion.analyze_design(design)
    strategy = "pseudoinverse"
    report = _evaluate(criterion, design, W, threshold, grid_size, tol)
    singular = null.shape[1] > 0
    if report.max_violation > tol and singular and K.t == 1:
        # another generalized inverse can witness what the pseudo inverse does not
        z = _null_adjusted(criterion, design, G, null)
        if z is not None:
            _, W, threshold, *_ = phi_p_parts(z, criterion.K, p)
            candidate = _evaluate(criterion, design, W, threshold, grid_size, tol)
            if candidate.max_violation < report.max_violation:
                report, strategy = candidate, "null-adjusted"
    if report.max_violation > tol and singular and K.t > 1:
        verdict = "inconclusive"  # some other generalized inverse could witness
    elif report.max_violation > tol:
        verdict = "not-optimal"
    elif max(report.support_residuals, default=0.0) > tol:
        verdict = "inconclusive"
    else:
        verdict = "optimal"
    report.verdict = verdict
    report.ginv_strategy = strategy
    return report


def _evaluate(
    criterion: _Criterion, design: Design, W: np.ndarray, threshold: float,
    grid_size: int, tol: float,
) -> SensitivityReport:
    L, R = criterion.drug.dose_range
    doses = np.unique(
        np.concatenate([np.linspace(L, R, grid_size), [L, R], design.drug_doses])
    )

    def drug_values(d: np.ndarray) -> np.ndarray:
        return (criterion.rows(W, criterion.drug.regression_rows(d)) - threshold) / abs(threshold)

    values = drug_values(doses)
    # the joint design space always contains the control point
    control_value = criterion.normalized(W, threshold, (0.0, ARM_CONTROL))
    argmax_dose, max_drug = grid_peak(drug_values, doses, values, 1e-8 * (R - L))
    max_violation = max(max_drug, control_value)
    # np.unique keeps each support dose exactly, so its value is on the grid
    support_points = list(design.points)
    support_residuals = [
        abs(control_value if arm == ARM_CONTROL else float(values[doses.searchsorted(d)]))
        for d, arm in support_points
    ]
    return SensitivityReport(
        grid_doses=doses,
        grid_values=values,
        control_value=control_value,
        support_points=support_points,
        support_residuals=support_residuals,
        max_violation=float(max_violation),
        argmax_dose=float(argmax_dose),
        verdict="",
        tol=tol,
    )


def _null_adjusted(
    criterion: _Criterion, design: Design, G: np.ndarray, null_basis: np.ndarray
) -> Optional[np.ndarray]:
    """Search the generalized inverses of a singular M for a witness z = G c.

    For a one-column contrast the sensitivity depends on G only through
    z = G c with M z = c, i.e. z = M^+ c + N alpha over the null space of M.
    Minimizing the maximal |f(x)^T z| over the dose grid is a discrete
    Chebyshev fit in alpha, which `minimax` solves.  Its grid is fixed,
    VERIFY_GRID doses whatever grid the caller evaluates on, plus each
    support dose and two doses 1/100 of a grid step either side of it, so
    |f(x)^T z| peaks at the support rather than between grid points.
    G = M^+ + (z - M^+ c) c^T / (c^T c) is a generalized inverse with
    G c = z, so the optimal z is the G K of the new witness.
    """
    z0 = G @ criterion.K[:, 0]
    drug = criterion.drug
    L, R = drug.dose_range
    step = 0.01 * (R - L) / (VERIFY_GRID - 1)
    support = design.drug_doses
    near = np.clip(np.concatenate([support - step, support + step]), L, R)
    doses = np.unique(np.concatenate([np.linspace(L, R, VERIFY_GRID), support, near]))
    m = drug.n_mean_params
    F = drug.regression_rows(doses)
    try:
        alpha, _, _ = minimax(F @ null_basis[:m], F @ z0[:m])
    except EstimabilityError:
        return None
    return (z0 + null_basis @ alpha).reshape(-1, 1)
