"""Optimality criteria: the phi_p family, the target-dose variance psi, and
design efficiencies."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .designs import (
    Design, InducedDesign, _in_range, _spectrum, drug_info_matrix, info_matrix, pinv_contrast,
)
from .exceptions import DesignError, EstimabilityError, UnsupportedCaseError
from .models import ControlModel, DrugModel, target_dose_grad


@dataclass(frozen=True)
class KMatrix:
    """Contrast matrix K of full column rank, optionally block-diagonal.

    A block K separates drug and control parameters; Theorem-style
    composition of optimal designs is only available for block K (any p)
    or for stacked K at p = -1.
    """

    matrix: np.ndarray
    k11: Optional[np.ndarray] = None
    k22: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(self.matrix, float)))
        m = self.matrix
        if not np.all(np.isfinite(m)):
            raise DesignError("contrast matrix entries must be finite")
        if np.linalg.matrix_rank(m) < m.shape[1]:
            raise DesignError("contrast matrix must have full column rank")

    @classmethod
    def block(cls, k11: np.ndarray, k22: np.ndarray) -> "KMatrix":
        k11 = np.atleast_2d(np.asarray(k11, float))
        k22 = np.atleast_2d(np.asarray(k22, float))
        s1, t1 = k11.shape
        s2, t2 = k22.shape
        full = np.zeros((s1 + s2, t1 + t2))
        full[:s1, :t1] = k11
        full[s1:, t1:] = k22
        return cls(full, k11, k22)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def block_identity(cls, s1: int, s2: int) -> "KMatrix":
        """Full-parameter contrast, kept in block form so composition applies.

        Built once per (s1, s2) and shared, so its arrays are read-only.
        """
        K = cls.block(np.eye(s1), np.eye(s2))
        for a in (K.matrix, K.k11, K.k22):
            a.flags.writeable = False
        return K

    @classmethod
    def stacked(cls, k11: np.ndarray, k22: np.ndarray) -> "KMatrix":
        """K^T = (K11^T, K22^T): shared columns across both parameter groups."""
        k11 = np.atleast_2d(np.asarray(k11, float))
        k22 = np.atleast_2d(np.asarray(k22, float))
        if k11.shape[1] != k22.shape[1]:
            raise DesignError("stacked blocks must share the column count")
        return cls(np.vstack([k11, k22]), k11, k22)

    @property
    def is_block(self) -> bool:
        if self.k11 is None or self.k22 is None:
            return False
        return self.t == self.k11.shape[1] + self.k22.shape[1]

    @property
    def t(self) -> int:
        return self.matrix.shape[1]

    @property
    def t1(self) -> int:
        if self.k11 is None:
            raise UnsupportedCaseError("contrast has no drug block")
        return self.k11.shape[1]

    @property
    def t2(self) -> int:
        if self.k22 is None:
            raise UnsupportedCaseError("contrast has no control block")
        return self.k22.shape[1]


@dataclass(frozen=True)
class CriterionSpec:
    """What to optimize: a phi_p criterion for K^T theta, or the AC criterion."""

    kind: str  # "phi_p" or "ac"
    p: float = 0.0
    K: Optional[KMatrix] = None

    def __post_init__(self):
        if self.kind not in ("phi_p", "ac"):
            raise DesignError(f"unknown criterion kind {self.kind!r}")
        if self.kind == "phi_p" and not self.p < 1:
            raise DesignError("phi_p needs p < 1")


# ---------------------------------------------------------------------------
# phi_p evaluation
# ---------------------------------------------------------------------------

def phi_p_parts(GK: np.ndarray, K: np.ndarray, p: float, eig=None) -> tuple:
    """phi_p value, sensitivity matrix W, threshold and B's eigenpairs from GK = G K.

    G is a generalized inverse of the information matrix and B = K^T G K
    the contrast information; one eigendecomposition of B gives all three,
    and its ascending eigenvalues and eigenvectors come last.  A caller
    that knows them passes them as `eig`.
    W and the threshold share the factor lam_max^(1+p) (lam_max^2 at
    p = -inf), which keeps them finite for strongly negative p and cancels
    in the normalized sensitivity.  At p = -inf, W is None when the largest
    eigenvalue of B is repeated, since the E-optimal W is then not unique.
    Scalars are Python floats, but numpy takes each power, so that an
    overflow gives inf rather than raising.
    """
    if eig is None:
        B = K.T @ GK
        eig = np.linalg.eigh(0.5 * (B + B.T))
    lam, V = eig
    top = lam[-1].item()
    if lam[0].item() <= 0:
        raise EstimabilityError("contrast information is singular")
    if p == -math.inf:
        u = GK @ V[:, -1]
        repeated = lam.size > 1 and (top - lam[-2].item()) <= 1e-8 * max(top, 1.0)
        W = None if repeated else np.outer(u, u)
        return 1.0 / top, W, top, lam, V
    ratio = lam / top
    if p == 0.0:
        # every ratio ** 0 is 1
        value, total = float(np.exp(-(np.log(lam).sum() / lam.size))), lam.size
    else:
        total = (ratio ** (-p)).sum()
        value = float((total / lam.size) ** (1.0 / p) / top)
    W = GK @ ((V * ratio ** (-p - 1.0)) @ V.T) @ GK.T
    return value, W, float(top * total), lam, V


def phi_p_analysis(M: np.ndarray, K: np.ndarray, p: float, identity: bool):
    """(value, W, threshold, lam, V, G, null) of phi_p for K^T theta at information M.

    One eigendecomposition of M gives G = M^+ and an orthonormal basis
    `null` of its null space; B = K^T G K takes one more unless K is the
    identity (`identity`), when B = G has M's eigenvectors and inverted
    eigenvalues.  None when K^T theta is not estimable.
    """
    lam, V, k = _spectrum(M)
    if not _in_range(V[:, :k], K):
        return None
    G = (V[:, k:] / lam[k:]) @ V[:, k:].T
    eig = (1.0 / lam[::-1], V[:, ::-1]) if identity else None
    try:
        return (*phi_p_parts(G @ K, K, p, eig), G, V[:, :k])
    except EstimabilityError:
        return None


def phi_p_from_info(M: np.ndarray, K: np.ndarray, p: float) -> float:
    """Kiefer information functional of K^T M^- K; larger is better.

    p = 0 is the determinant (D) criterion, p = -1 the average-variance
    criterion, p = -inf the smallest eigenvalue of (K^T M^- K)^{-1}.
    """
    res = phi_p_analysis(M, K, p, np.array_equal(K, np.eye(K.shape[0])))
    if res is None:
        raise EstimabilityError("K^T theta is not estimable under this design")
    return res[0]


def phi_p(design: Design, drug: DrugModel, control: ControlModel, K: KMatrix, p: float) -> float:
    """phi_p value of a joint design."""
    return phi_p_from_info(info_matrix(design, drug, control), K.matrix, p)


def phi_p_reduced(induced: InducedDesign, drug: DrugModel, k11: np.ndarray, p: float) -> float:
    """Drug-only criterion on the induced design (the placebo-style problem)."""
    M1 = drug_info_matrix(induced, drug)
    return phi_p_from_info(M1, np.atleast_2d(np.asarray(k11, float)), p)


def rho_p(
    induced_opt: InducedDesign,
    drug: DrugModel,
    control: ControlModel,
    K: KMatrix,
    p: float,
) -> float:
    """Drug-to-control allocation odds for composing the joint optimal design.

    The p = 0 value is the dimension ratio t1/t2 and the p = -inf limit the
    ratio lam_max(B1)/lam_max(B2) of the blocks' largest contrast variances.
    """
    if K.k11 is None or K.k22 is None:
        raise UnsupportedCaseError("rho_p needs a contrast split into drug/control parts")
    if p == 0.0:
        return K.t1 / K.t2
    M1 = drug_info_matrix(induced_opt, drug)
    B1 = K.k11.T @ pinv_contrast(M1, K.k11, "drug block of the contrast is not estimable")[0]
    B2 = K.k22.T @ pinv_contrast(control.fisher(), K.k22, "control block is not estimable")[0]
    lam1 = np.linalg.eigvalsh(0.5 * (B1 + B1.T))
    lam2 = np.linalg.eigvalsh(0.5 * (B2 + B2.T))
    if lam1[0] <= 0 or lam2[0] <= 0:
        raise EstimabilityError("contrast information is singular")
    if p == -math.inf:
        return float(lam1[-1] / lam2[-1])
    log_num = _log_sum_exp(-p * np.log(lam2)) / (p - 1.0)
    log_den = _log_sum_exp(-p * np.log(lam1)) / (p - 1.0)
    return float(np.exp(log_num - log_den))


def _log_sum_exp(x: np.ndarray) -> float:
    top = float(np.max(x))
    return top + math.log(float(np.sum(np.exp(x - top))))


# ---------------------------------------------------------------------------
# the AC criterion
# ---------------------------------------------------------------------------

def ac_contrast(drug: DrugModel, control: ControlModel) -> KMatrix:
    """Stacked target-dose gradient; the AC criterion is phi_{-1} for it."""
    g1, g2 = target_dose_grad(drug, control)
    return KMatrix.stacked(g1.reshape(-1, 1), g2.reshape(-1, 1))


def resolve_spec(
    spec: CriterionSpec, drug: DrugModel, control: ControlModel
) -> tuple[KMatrix, float]:
    """(K, p) of a criterion: AC is phi_{-1} for ac_contrast; K defaults to the block identity.

    A K with a row count other than s1 + s2, or a k11 without s1 rows,
    raises DesignError.
    """
    if spec.kind == "ac":
        return ac_contrast(drug, control), -1.0
    s1, s2 = drug.n_params, control.n_params
    K = spec.K if spec.K is not None else KMatrix.block_identity(s1, s2)
    if K.matrix.shape[0] != s1 + s2 or (K.k11 is not None and K.k11.shape[0] != s1):
        raise DesignError(f"the contrast needs {s1} drug rows and {s2} control rows")
    return K, spec.p


def psi_ac(design: Design, drug: DrugModel, control: ControlModel) -> float:
    """Scaled asymptotic variance of the plug-in target-dose estimate.

    Infinite variance (an inestimable gradient) raises EstimabilityError
    naming the failing arm; solvers treat that as an infeasible design.
    """
    g1, g2 = target_dose_grad(drug, control)
    wc = design.control_weight
    if wc <= 0 or wc >= 1:
        raise DesignError("AC criterion needs weight on both arms")
    M1 = drug_info_matrix(design.induced(), drug)
    h1, _ = pinv_contrast(M1, g1, "target-dose gradient not estimable on the drug arm")
    I2 = control.fisher()
    h2, _ = pinv_contrast(I2, g2, "target-dose gradient not estimable on the control arm")
    return float(g1 @ h1) / (1.0 - wc) + float(g2 @ h2) / wc


# ---------------------------------------------------------------------------
# efficiencies
# ---------------------------------------------------------------------------

def _clamp_efficiency(value: float) -> float:
    if value > 1.0 + 1e-8:
        raise DesignError(
            f"efficiency {value:.9g} exceeds 1; the reference design is not optimal"
        )
    return min(max(value, 0.0), 1.0)


def phi_p_efficiency(
    design: Design,
    optimum: Design,
    drug: DrugModel,
    control: ControlModel,
    K: Optional[KMatrix] = None,
    p: float = 0.0,
) -> float:
    """phi_p ratio of a candidate design to the phi_p-optimal design."""
    if K is None:
        K = KMatrix.block_identity(drug.n_params, control.n_params)
    val = phi_p(design, drug, control, K, p)
    ref = phi_p(optimum, drug, control, K, p)
    return _clamp_efficiency(val / ref)


d_efficiency = phi_p_efficiency  # p = 0: the ratio to the D-optimal design


def ac_efficiency(
    design: Design, optimum: Design, drug: DrugModel, control: ControlModel
) -> float:
    """psi ratio of the AC-optimal design to a candidate design."""
    val = psi_ac(design, drug, control)
    ref = psi_ac(optimum, drug, control)
    return _clamp_efficiency(ref / val)
