"""Equivalence-theorem verification of candidate designs.

A design maximizes a phi_p criterion exactly when a generalized inverse G of
its information matrix makes the sensitivity function nonpositive over the
whole design space, with equality on the support.  The Moore-Penrose inverse
is used first; for rank-deficient information with a one-column contrast the
null-space family of generalized inverses is searched, since the pseudo
inverse alone can fail to witness optimality of singular designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .criteria import CriterionSpec, KMatrix, phi_p_parts, resolve_spec
from .designs import ARM_CONTROL, ARM_DRUG, Design, info_matrix, pseudo_inverse, estimable
from .exceptions import EstimabilityError, UnsupportedCaseError
from .models import ControlModel, DrugModel
from .scalar_opt import golden_max


class _Sensitivity:
    """trace(I(x) W) over the joint design space, for any sensitivity matrix W.

    At a drug dose it reduces to f(d)^T W11 f(d) plus, for normal
    responses, the family's variance information times W[m, m]; at the
    control point it is trace(I2 W22).
    """

    def __init__(self, drug: DrugModel, control: ControlModel):
        self.drug = drug
        self.m = drug.n_mean_params
        self.s1 = drug.n_params
        self.ctrl_info = control.fisher()
        self.var_entry = drug.family.variance_info

    def rows(self, W: np.ndarray, F: np.ndarray) -> np.ndarray:
        """The drug-arm value at each dose whose regression row is in F."""
        vals = np.einsum("ij,jk,ik->i", F, W[: self.m, : self.m], F)
        if self.var_entry:
            vals = vals + self.var_entry * W[self.m, self.m]
        return vals

    def at_dose(self, W: np.ndarray, d: float) -> float:
        f = self.drug.regression_vector(d)
        val = float(f @ W[: self.m, : self.m] @ f)
        if self.var_entry:
            val += self.var_entry * W[self.m, self.m]
        return val

    def at_control(self, W: np.ndarray) -> float:
        return float(np.trace(self.ctrl_info @ W[self.s1 :, self.s1 :]))


class _SensitivityEngine(_Sensitivity):
    """The design-level factors W and threshold of the equivalence inequality."""

    def __init__(
        self,
        design: Design,
        drug: DrugModel,
        control: ControlModel,
        K: KMatrix,
        p: float,
        ginv: Optional[np.ndarray] = None,
    ):
        super().__init__(drug, control)
        self.design = design
        self.control = control
        self.K = K.matrix
        self.p = p
        self.M = info_matrix(design, drug, control)
        if not estimable(self.K, self.M):
            raise EstimabilityError("contrast not estimable; sensitivity undefined")
        G = pseudo_inverse(self.M) if ginv is None else ginv
        _, self.W, self.threshold = phi_p_parts(G @ self.K, self.K, p)
        if self.W is None:
            raise UnsupportedCaseError(
                "smallest-eigenvalue multiplicity > 1; E-optimal sensitivity undefined"
            )

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
    if report.max_violation > tol and engine.M.rank < engine.M.dim and K.t == 1:
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
    if report.max_violation > tol and engine.M.rank < engine.M.dim and K.t > 1:
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
    # refine around the grid maximum to catch an off-grid peak
    i = int(np.argmax(values))
    lo = doses[max(i - 1, 0)]
    hi = doses[min(i + 1, doses.size - 1)]
    d_ref, v_ref = golden_max(
        lambda d: engine.normalized((d, ARM_DRUG)), lo, hi, 1e-8 * (R - L)
    )
    max_drug = max(float(values[i]), v_ref)
    argmax_dose = d_ref if v_ref >= values[i] else float(doses[i])
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
    program in alpha; the optimizer is turned back into an explicit
    generalized inverse so the standard formulas apply.
    """
    M = engine.M.matrix
    lam, V = np.linalg.eigh(M)
    tolr = engine.M.rank_tol
    null_basis = V[:, np.abs(lam) <= tolr]
    if null_basis.shape[1] == 0:
        return None
    c = engine.K[:, 0]
    z0 = pseudo_inverse(engine.M) @ c
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
    # minimize tau subject to -tau <= b + A alpha <= tau
    cost = np.concatenate([np.zeros(k), [1.0]])
    A_ub = np.block([[A, -np.ones((A.shape[0], 1))], [-A, -np.ones((A.shape[0], 1))]])
    b_ub = np.concatenate([-b, b])
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * k + [(0, None)], method="highs")
    if res.status != 0:
        return None
    alpha = res.x[:k]
    z = z0 + null_basis @ alpha
    # G' = M^+ + (z - M^+ c) c^T / (c^T c) is still a generalized inverse
    correction = np.outer(z - z0, c) / float(c @ c)
    G = pseudo_inverse(engine.M) + correction
    return _SensitivityEngine(engine.design, drug, engine.control, KMatrix(engine.K), engine.p, ginv=G)
