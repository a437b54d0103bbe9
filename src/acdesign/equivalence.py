"""Equivalence-theorem verification of candidate designs.

A design maximizes a phi_p criterion exactly when a generalized inverse G of
its information matrix makes the sensitivity function nonpositive over the
whole design space, with equality on the support.  The Moore-Penrose inverse
is used first; for rank-deficient information with a one-column contrast the
null-space family of generalized inverses is searched, since the pseudo
inverse alone can fail to witness optimality of singular designs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .criteria import CriterionSpec, KMatrix, phi_p_parts, resolve_spec
from .designs import (
    ARM_CONTROL, ARM_DRUG, Design, _in_range, _Information, _spectrum, pinv_contrast,
)
from .exceptions import EstimabilityError, UnsupportedCaseError
from .models import ControlModel, DrugModel
from .scalar_opt import golden_max


class _Criterion(_Information):
    """phi_p of K^T theta on the joint design space, shared with the solver.

    `analyze` gives the value, the sensitivity matrix W, the threshold, the
    eigenpairs of B = K^T G K and G = M^+ from one eigendecomposition of M
    and one of B.
    """

    def __init__(self, drug: DrugModel, control: ControlModel, K: KMatrix, p: float):
        super().__init__(drug, control)
        self.K = K.matrix
        self.p = p
        self.identity = np.array_equal(self.K, np.eye(self.size))

    def analyze(self, M: np.ndarray):
        """(value, W, threshold, lam, V, G) or None when K is inestimable."""
        lam, V, k = _spectrum(M)
        if not _in_range(V[:, :k], self.K):
            return None
        G = (V[:, k:] / lam[k:]) @ V[:, k:].T
        # for K = I, B = G has M's eigenvectors and inverted eigenvalues
        eig = (1.0 / lam[::-1], V[:, ::-1]) if self.identity else None
        try:
            return (*phi_p_parts(G @ self.K, self.K, self.p, eig), G)
        except EstimabilityError:
            return None


def grid_peak(f, doses: np.ndarray, values: np.ndarray, tol: float) -> tuple[float, float]:
    """(dose, value) of the peak of f, whose values at the sorted doses are given.

    Golden-section search between the neighbours of the grid argmax catches
    an off-grid peak; the grid point is kept only when it is strictly higher.
    """
    i = int(np.argmax(values))
    d, v = golden_max(f, doses[max(i - 1, 0)], doses[min(i + 1, doses.size - 1)], tol)
    if values[i] > v:
        return float(doses[i]), float(values[i])
    return float(d), float(v)


class _SensitivityEngine(_Criterion):
    """The design-level factors W and threshold of the equivalence inequality.

    One eigendecomposition of the design's information gives G K for the
    Moore-Penrose G, the estimability check and the null space of M.
    """

    def __init__(
        self,
        design: Design,
        drug: DrugModel,
        control: ControlModel,
        K: KMatrix,
        p: float,
        ginv: Optional[np.ndarray] = None,
    ):
        super().__init__(drug, control, K, p)
        self.design = design
        M = self.matrix(design.drug_doses, design.drug_weights, design.control_weight)
        message = "contrast not estimable; sensitivity undefined"
        self.GK, self.null = pinv_contrast(M, self.K, message)
        self.witness(self.GK if ginv is None else ginv @ self.K)

    def witness(self, GK: np.ndarray) -> "_SensitivityEngine":
        """Take W and the threshold from G K for a generalized inverse G."""
        _, self.W, self.threshold, *_ = phi_p_parts(GK, self.K, self.p)
        if self.W is None:
            raise UnsupportedCaseError(
                "smallest-eigenvalue multiplicity > 1; E-optimal sensitivity undefined"
            )
        return self

    def normalized(self, point: tuple[float, int]) -> float:
        dose, arm = point
        if arm == ARM_DRUG:
            value = self.at_dose(self.W, dose)
        elif arm == ARM_CONTROL:
            value = self.at_control(self.W)
        else:
            raise UnsupportedCaseError(f"unknown arm {arm}")
        return (value - self.threshold) / abs(self.threshold)

    def normalized_drug(self, doses: np.ndarray) -> np.ndarray:
        """normalized((d, ARM_DRUG)) at every dose, in one pass."""
        raw = self.rows(self.W, self.drug.regression_rows(doses))
        return (raw - self.threshold) / abs(self.threshold)


def sensitivity(
    point: tuple[float, int],
    design: Design,
    drug: DrugModel,
    control: ControlModel,
    K: KMatrix,
    p: float,
    ginv: Optional[np.ndarray] = None,
) -> float:
    """Equivalence-theorem directional derivative at one design-space point.

    Nonpositive everywhere exactly at an optimal design, zero on its
    support.  The value is normalized by the threshold, as verify reports
    it.  G defaults to the Moore-Penrose inverse of the information.
    """
    return _SensitivityEngine(design, drug, control, K, p, ginv).normalized(point)


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

    def to_csv(self, path) -> None:
        """(dose, sensitivity) rows for the drug arm, for external plotting."""
        with open(path, "w") as fh:
            fh.write("dose,sensitivity\n")
            for d, v in zip(self.grid_doses, self.grid_values):
                fh.write(f"{d:.9g},{v:.9g}\n")


def verify(
    design: Design,
    drug: DrugModel,
    control: ControlModel,
    spec: CriterionSpec,
    grid_size: int = 512,
    tol: float = 1e-5,
) -> SensitivityReport:
    """Check local optimality of a design against its criterion.

    The normalized sensitivity is evaluated on a uniform dose grid plus the
    design support and the control point; the grid maximum is refined by
    golden-section search.  Verdict 'optimal' needs the maximum violation
    and every support residual within tol.
    """
    if grid_size < 2:
        raise UnsupportedCaseError("grid_size must be at least 2")
    if not 0.0 <= tol < np.inf:
        raise UnsupportedCaseError(f"tolerance must be finite and nonnegative, not {tol}")
    K, p = resolve_spec(spec, drug, control)
    engine = _SensitivityEngine(design, drug, control, K, p)
    strategy = "pseudoinverse"
    report = _evaluate(engine, grid_size, tol)
    singular = engine.null.shape[1] > 0
    if report.max_violation > tol and singular and K.t == 1:
        # cutting-plane search over the generalized inverses: the grid
        # minimax witness can leak between grid points near a tangency, so
        # each refined violation point is added and the witness re-solved
        extra: list[float] = []
        for _ in range(6):
            adjusted = _null_adjusted_engine(engine, grid_size, extra)
            if adjusted is None:
                break
            candidate = _evaluate(adjusted, grid_size, tol)
            if candidate.max_violation < report.max_violation:
                report = candidate
                strategy = "null-adjusted"
            if candidate.max_violation <= tol:
                break
            extra.append(candidate.argmax_dose)
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


def _evaluate(engine: _SensitivityEngine, grid_size: int, tol: float) -> SensitivityReport:
    design = engine.design
    L, R = engine.drug.dose_range
    doses = np.unique(
        np.concatenate([np.linspace(L, R, grid_size), [L, R], design.drug_doses])
    )
    values = engine.normalized_drug(doses)
    # the joint design space always contains the control point
    control_value = engine.normalized((0.0, ARM_CONTROL))
    argmax_dose, max_drug = grid_peak(
        lambda d: engine.normalized((d, ARM_DRUG)), doses, values, 1e-8 * (R - L)
    )
    max_violation = max(max_drug, control_value)
    support_points = list(design.points)
    support_residuals = [abs(engine.normalized(pt)) for pt in support_points]
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


def _null_adjusted_engine(
    engine: _SensitivityEngine, grid_size: int, extra_doses: Optional[list] = None
) -> Optional[_SensitivityEngine]:
    """Search the generalized inverses of a singular M for a witness.

    For a one-column contrast the sensitivity depends on G only through
    z = G c with M z = c, i.e. z = M^+ c + N alpha over the null space of M.
    Minimizing the maximal |f(x)^T z| over the dose grid is a linear
    program in alpha.  G = M^+ + (z - M^+ c) c^T / (c^T c) is a generalized
    inverse with G c = z, so the optimal z is the G K of the new witness.
    """
    null_basis = engine.null
    z0 = engine.GK[:, 0]
    drug = engine.drug
    L, R = drug.dose_range
    parts = [np.linspace(L, R, grid_size), engine.design.drug_doses]
    if extra_doses:
        parts.append(np.asarray(extra_doses, float))
    doses = np.unique(np.concatenate(parts))
    m = drug.n_mean_params
    F = drug.regression_rows(doses)
    b = F @ z0[:m]
    A = F @ null_basis[:m]
    k = null_basis.shape[1]
    # the least tau with -tau <= b + A alpha <= tau
    cost = np.concatenate([np.zeros(k), [1.0]])
    A_ub = np.block([[A, -np.ones((A.shape[0], 1))], [-A, -np.ones((A.shape[0], 1))]])
    b_ub = np.concatenate([-b, b])
    bounds = [(None, None)] * k + [(0, None)]
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        return None
    z = z0 + null_basis @ res.x[:k]
    return copy.copy(engine).witness(z.reshape(-1, 1))
