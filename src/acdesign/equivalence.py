"""Equivalence-theorem verification of candidate designs.

A design maximizes a phi_p criterion exactly when a generalized inverse G of
its information matrix makes the sensitivity function nonpositive over the
whole design space, with equality on the support.  `verify` and
`sensitivity` take W and the threshold from `_Criterion.analyze`, the
analysis on which the solver's loop stops, with G the Moore-Penrose
inverse.  The drug-arm sensitivity is a ratio of polynomials in
d/(ed50 + d), so `stationary_doses` finds its peaks exactly; `verify`
evaluates them together with its dose grid in one call of
`_Information.rows` on stacked regression rows.  For rank-deficient
information with a one-column contrast the null-space family of
generalized inverses is searched, since the pseudo inverse alone can fail
to witness optimality of singular designs; that search is one discrete
Chebyshev fit on a fixed dose grid, which `scalar_opt.minimax` solves.
"""

from __future__ import annotations

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


def stationary_doses(drug: DrugModel, W: np.ndarray) -> np.ndarray:
    """The range ends and the stationary doses of the drug-arm sensitivity,
    sorted (`_Information.stationary_doses`, which verify and the solver
    call on their criterion)."""
    return _Information(drug).stationary_doses(W)


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
    design support, the control point and the exact stationary doses of
    `stationary_doses`, so the maximum violation, and with it the verdict,
    does not depend on grid_size, which sets only the doses reported in
    grid_doses and grid_values.  The support residuals are read off the
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
    drug = criterion.drug
    L, R = drug.dose_range
    doses = np.unique(np.concatenate([np.linspace(L, R, grid_size), design.drug_doses]))
    # the stationary doses ride in the grid's batch; only the grid is reported
    candidates = np.concatenate([doses, criterion.stationary_doses(W)])
    all_values = (criterion.rows(W, drug.regression_rows(candidates)) - threshold) / abs(threshold)
    values = all_values[: doses.size]
    # the joint design space always contains the control point
    control_value = criterion.normalized(W, threshold, (0.0, ARM_CONTROL))
    top = int(np.argmax(all_values))  # a grid dose wins a tie
    argmax_dose = candidates[top]
    max_violation = max(float(all_values[top]), control_value)
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
