"""Approximate designs on the joint (dose, arm) space and their information."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DesignError
from .models import ControlModel, DrugModel

ARM_DRUG = 0
ARM_CONTROL = 1

WEIGHT_SUM_TOL = 1e-12


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
        if np.any(w <= 0):
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
        their weights at the weight-averaged dose.  Weights are renormalized.
        """
        drug = [(d, w) for (d, a), w in zip(points, weights) if a == ARM_DRUG and w > 0]
        wc = sum(w for (_, a), w in zip(points, weights) if a == ARM_CONTROL)
        merged = merge_support(drug, merge_tol)
        pts = [(d, ARM_DRUG) for d, _ in merged]
        wts = [w for _, w in merged]
        if wc > 0:
            pts.append((0.0, ARM_CONTROL))
            wts.append(wc)
        total = sum(wts)
        return cls(tuple(pts), tuple(w / total for w in wts))

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

@dataclass(frozen=True)
class InfoMatrix:
    """Symmetric PSD information matrix with its numerical rank."""

    matrix: np.ndarray
    rank: int
    rank_tol: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _wrap_info(M: np.ndarray) -> InfoMatrix:
    M = 0.5 * (M + M.T)
    eig = np.linalg.eigvalsh(M)
    lam_max = max(float(eig[-1]), 0.0)
    tol = M.shape[0] * np.finfo(float).eps * max(lam_max, 1e-300)
    rank = int(np.sum(eig > tol))
    return InfoMatrix(M, rank, tol)


def drug_info_matrix(induced: InducedDesign, drug: DrugModel) -> InfoMatrix:
    """M1 = sum of induced weights times per-dose information."""
    s = drug.n_params
    M = np.zeros((s, s))
    for d, w in zip(induced.doses, induced.weights):
        M += w * drug.fisher(d)
    return _wrap_info(M)


def info_matrix(design: Design, drug: DrugModel, control: ControlModel) -> InfoMatrix:
    """Block-diagonal joint information; cross blocks are identically zero."""
    s1, s2 = drug.n_params, control.n_params
    M = np.zeros((s1 + s2, s1 + s2))
    wc = design.control_weight
    if design.drug_doses.size:
        ind = design.induced()
        M[:s1, :s1] = (1.0 - wc) * drug_info_matrix(ind, drug).matrix
    if wc > 0:
        M[s1:, s1:] = wc * control.fisher()
    return _wrap_info(M)


def pseudo_inverse(M: InfoMatrix | np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse via symmetric eigendecomposition.

    Eigenvalues below dim * eps * lambda_max are treated as exact zeros,
    which keeps one-point designs (rank-deficient M) usable.
    """
    A = M.matrix if isinstance(M, InfoMatrix) else np.asarray(M, float)
    A = 0.5 * (A + A.T)
    lam, V = np.linalg.eigh(A)
    tol = A.shape[0] * np.finfo(float).eps * max(abs(lam[0]), abs(lam[-1]), 1e-300)
    inv = np.where(np.abs(lam) > tol, 1.0 / np.where(np.abs(lam) > tol, lam, 1.0), 0.0)
    out = (V * inv) @ V.T
    return 0.5 * (out + out.T)


def estimable(K: np.ndarray, M: InfoMatrix | np.ndarray, tol: float = 1e-8) -> bool:
    """Whether every column of K lies in the range of M.

    The residual (I - M M^+) K is assembled from the null-space eigenvectors
    rather than by multiplying M with its pseudoinverse, which would inflate
    rounding error by the condition number on near-singular matrices.
    """
    A = M.matrix if isinstance(M, InfoMatrix) else np.asarray(M, float)
    A = 0.5 * (A + A.T)
    K = np.atleast_2d(np.asarray(K, float))
    if K.shape[0] != A.shape[0]:
        if K.shape[1] == A.shape[0]:  # accept a row vector for a single contrast
            K = K.T
        else:
            raise DesignError(
                f"contrast has {K.shape[0]} rows, information matrix is {A.shape[0]}x{A.shape[0]}"
            )
    lam, V = np.linalg.eigh(A)
    cut = A.shape[0] * np.finfo(float).eps * max(abs(lam[0]), abs(lam[-1]), 1e-300)
    null = V[:, np.abs(lam) <= cut]
    if null.shape[1] == 0:
        return True
    resid = null @ (null.T @ K)
    return float(np.max(np.abs(resid))) <= tol * (1.0 + float(np.max(np.abs(K))))


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
