"""Approximate designs on the joint (dose, arm) space and their information."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DesignError, EstimabilityError
from .models import ControlModel, DrugModel

ARM_DRUG = 0
ARM_CONTROL = 1

WEIGHT_SUM_TOL = 1e-12
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Design:
    """Probability measure on (dose, arm) pairs; at most one control point."""

    points: tuple[tuple[float, int], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(self.weights):
            raise DesignError("points and weights differ in length")
        if not self.points:
            raise DesignError("empty design")
        w = np.asarray(self.weights, float)
        if not all(math.isfinite(d) for d, _ in self.points):
            raise DesignError("doses must be finite")
        if not np.all(w > 0):  # a NaN weight fails here, an infinite one the sum
            raise DesignError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-9:
            raise DesignError(f"weights sum to {w.sum()!r}, not 1")
        arms = [a for _, a in self.points]
        if arms.count(ARM_CONTROL) > 1:
            raise DesignError("more than one control point")
        if any(a not in (ARM_DRUG, ARM_CONTROL) for a in arms):
            raise DesignError("arm must be 0 (drug) or 1 (control)")
        doses = [d for d, a in self.points if a == ARM_DRUG]
        if len(set(doses)) != len(doses):
            raise DesignError("drug doses must be pairwise distinct")

    @classmethod
    def from_points(
        cls,
        points: list[tuple[float, int]],
        weights: list[float],
        merge_tol: float = 0.0,
    ) -> "Design":
        """Build a design, merging drug doses closer than merge_tol.

        Numeric solvers produce near-duplicate support points; merging sums
        their weights at the weight-averaged dose.  Points of weight 0 are
        dropped; a negative or non-finite weight raises DesignError, and so
        do, through the design's own checks, an arm other than 0 and 1 and
        a second control point.  Weights are renormalized unless they sum to
        1 within WEIGHT_SUM_TOL already, so a design read back from the file
        it was written to is the same to the last bit.
        """
        if not all(0.0 <= w < math.inf for w in weights):
            raise DesignError("weights must be finite and nonnegative")
        drug = [(d, w) for (d, a), w in zip(points, weights) if a == ARM_DRUG and w > 0]
        # the control's dose column means nothing; other arms stay to be rejected
        other = [((0.0, a), w) for (_, a), w in zip(points, weights) if a != ARM_DRUG and w > 0]
        merged = merge_support(drug, merge_tol)
        pts = [(d, ARM_DRUG) for d, _ in merged] + [pt for pt, _ in other]
        wts = [w for _, w in merged] + [w for _, w in other]
        total = sum(wts)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            wts = [w / total for w in wts]
        return cls(tuple(pts), tuple(wts))

    # -- accessors -----------------------------------------------------------

    @property
    def drug_doses(self) -> np.ndarray:
        return np.array([d for d, a in self.points if a == ARM_DRUG])

    @property
    def drug_weights(self) -> np.ndarray:
        return np.array([w for (_, a), w in zip(self.points, self.weights) if a == ARM_DRUG])

    @property
    def control_weight(self) -> float:
        return sum(w for (_, a), w in zip(self.points, self.weights) if a == ARM_CONTROL)

    def induced(self) -> "InducedDesign":
        """Drug-arm restriction with renormalized weights (order preserved)."""
        wd = self.drug_weights
        if wd.size == 0:
            raise DesignError("design has no drug points; induced design undefined")
        return InducedDesign(tuple(self.drug_doses), tuple(wd / wd.sum()))


@dataclass(frozen=True)
class InducedDesign:
    """Design on the dose range only."""

    doses: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, float)
        if np.any(w <= 0):
            raise DesignError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-9:
            raise DesignError("induced weights must sum to 1")
        if len(self.doses) != len(self.weights):
            raise DesignError("doses and weights differ in length")

    def as_design(self, control_weight: float = 0.0, merge_tol: float = 0.0) -> Design:
        """Joint design allocating control_weight to the active control."""
        drug_weights = [(1.0 - control_weight) * w for w in self.weights]
        return joint_design(self.doses, drug_weights, control_weight, merge_tol)


def merge_support(pairs, merge_tol: float) -> list[tuple[float, float]]:
    """(dose, weight) pairs sorted by dose, runs of neighbours merged.

    A run is a chain of doses each within merge_tol of the one before; it
    becomes one pair at the weight-averaged dose with the summed weight.
    Nothing merges at merge_tol = 0, so repeated doses stay repeated.
    """
    merged: list[tuple[float, float]] = []
    last = -math.inf
    for d, w in sorted(pairs, key=lambda t: t[0]):
        if merged and merge_tol > 0 and d - last <= merge_tol:
            d0, w0 = merged[-1]
            merged[-1] = ((d0 * w0 + d * w) / (w0 + w), w0 + w)
        else:
            merged.append((d, w))
        last = d
    return merged


def joint_design(doses, drug_weights, control_weight: float, merge_tol: float = 0.0) -> Design:
    """Drug doses at their joint weights plus the active control, if it has weight."""
    pts = [(float(d), ARM_DRUG) for d in doses] + [(0.0, ARM_CONTROL)]
    wts = [float(w) for w in drug_weights] + [float(control_weight)]
    return Design.from_points(pts, wts, merge_tol)


# ---------------------------------------------------------------------------
# information matrices
# ---------------------------------------------------------------------------

class _Information:
    """Block-diagonal information of (drug, control) designs, and its dual.

    `matrix` assembles F^T diag(w) F from the doses' regression rows F, the
    normal variance entry and the control block.  The dual trace(I(x) W) is
    f(d)^T W11 f(d) plus the variance entry times W[m, m] at a drug dose and
    trace(I2 W22) at the control.  The models are read once, here.
    """

    def __init__(self, drug: DrugModel, control: ControlModel | None = None):
        self.drug = drug
        self.m = drug.n_mean_params
        self.s1 = drug.n_params
        self.var_entry = drug.family.variance_info
        self.ctrl_info = control.fisher() if control is not None else np.zeros((0, 0))
        self.size = self.s1 + self.ctrl_info.shape[0]

    def matrix(self, doses, wd, wc: float = 0.0, F=None) -> np.ndarray:
        """Information of doses at weights wd and the control at wc; F: their rows."""
        M = np.zeros((self.size, self.size))
        if F is None:
            F = self.drug.regression_rows(doses)
        if len(doses):
            M[: self.m, : self.m] = (F * np.asarray(wd)[:, None]).T @ F
        if self.var_entry:
            M[self.m, self.m] = self.var_entry * float(np.sum(wd))
        if wc > 0:
            M[self.s1 :, self.s1 :] = wc * self.ctrl_info
        return M

    def rows(self, W: np.ndarray, F: np.ndarray) -> np.ndarray:
        """The drug-arm value at each dose whose regression row is in F."""
        vals = np.einsum("ij,jk,ik->i", F, W[: self.m, : self.m], F)
        if self.var_entry:
            vals = vals + self.var_entry * W[self.m, self.m]
        return vals

    def at_control(self, W: np.ndarray) -> float:
        return float(np.trace(self.ctrl_info @ W[self.s1 :, self.s1 :]))


def drug_info_matrix(induced: InducedDesign, drug: DrugModel) -> np.ndarray:
    """M1: the induced design's information on theta_1."""
    return _Information(drug).matrix(induced.doses, induced.weights)


def info_matrix(design: Design, drug: DrugModel, control: ControlModel) -> np.ndarray:
    """Block-diagonal joint information; cross blocks are identically zero."""
    return _Information(drug, control).matrix(
        design.drug_doses, design.drug_weights, design.control_weight
    )


def _spectrum(M):
    """Ascending eigenvalues and eigenvectors of a PSD matrix, and its nullity k.

    The k eigenvalues at or below dim * eps * max|lambda| are treated as
    exact zeros, which keeps one-point designs (rank-deficient M) usable;
    V[:, :k] spans the null space.
    """
    A = np.asarray(M, float)
    lam, V = np.linalg.eigh(0.5 * (A + A.T))
    cut = A.shape[0] * _EPS * max(abs(lam[0]), abs(lam[-1]), 1e-300)
    return lam, V, int(lam.searchsorted(cut, "right"))


def _in_range(null: np.ndarray, K: np.ndarray, tol: float = 1e-8) -> bool:
    """Whether K is orthogonal to the null space with orthonormal basis `null`.

    The residual (I - M M^+) K comes from the null-space eigenvectors; M M^+
    would inflate rounding error by the condition number of M.
    """
    if null.shape[1] == 0:
        return True
    resid = null @ (null.T @ K)
    return float(np.max(np.abs(resid))) <= tol * (1.0 + float(np.max(np.abs(K))))


def pseudo_inverse(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a PSD matrix via its eigendecomposition."""
    lam, V, k = _spectrum(M)
    Vp = V[:, k:]
    out = (Vp / lam[k:]) @ Vp.T
    return 0.5 * (out + out.T)


def estimable(K: np.ndarray, M: np.ndarray, tol: float = 1e-8) -> bool:
    """Whether every column of K lies in the range of M."""
    lam, V, k = _spectrum(M)
    K = np.atleast_2d(np.asarray(K, float))
    if K.shape[0] != lam.size:
        if K.shape[1] == lam.size:  # accept a row vector for a single contrast
            K = K.T
        else:
            raise DesignError(
                f"contrast has {K.shape[0]} rows, information matrix is {lam.size}x{lam.size}"
            )
    return _in_range(V[:, :k], K, tol)


def pinv_contrast(M: np.ndarray, K: np.ndarray, message: str) -> tuple[np.ndarray, np.ndarray]:
    """(M^+ K, an orthonormal basis of the null space of M) from one eigh.

    Raises EstimabilityError(message) when a column of K (or the vector K)
    leaves the range of M.
    """
    lam, V, k = _spectrum(M)
    if not _in_range(V[:, :k], K):
        raise EstimabilityError(message)
    Vp = V[:, k:]
    return (Vp / lam[k:]) @ (Vp.T @ K), V[:, :k]


def round_design(design: Design, n: int) -> tuple[int, ...]:
    """Integer allocations for n subjects by multiplier-method apportionment.

    Start from n_i = ceil((n - l/2) * w_i) for l support points, then move
    single subjects between points by the efficiency quotients n_i / w_i
    (to add) and (n_i - 1) / w_i (to remove) until the total is n.  Ties
    break at the lowest index, so the result is deterministic.
    """
    w = np.asarray(design.weights, float)
    ell = w.size
    if n < ell:
        raise DesignError(f"cannot allocate {n} subjects to {ell} support points")
    alloc = np.array([math.ceil((n - ell / 2.0) * wi) for wi in w], dtype=int)
    alloc = np.maximum(alloc, 1)
    while alloc.sum() < n:
        q = alloc / w
        alloc[int(np.argmin(q))] += 1
    while alloc.sum() > n:
        q = np.where(alloc > 1, (alloc - 1) / w, np.inf)
        # remove from the point with the largest quotient; lowest index on ties
        i = int(np.argmax(np.where(np.isinf(q), -np.inf, q)))
        if alloc[i] <= 1:
            raise DesignError("cannot reduce allocation below one subject per point")
        alloc[i] -= 1
    return tuple(int(a) for a in alloc)
