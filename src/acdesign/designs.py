"""Approximate designs on the joint (dose, arm) space and their information."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DesignError, EstimabilityError
from .models import ControlModel, DrugModel

ARM_DRUG = 0
ARM_CONTROL = 1

WEIGHT_SUM_TOL = 1e-12
_EPS = float(np.finfo(float).eps)
# stationary_doses' Chebyshev nodes on [-1, 1], the map from a quartic's values
# there to its power-series coefficients, and the exponents that differentiate them
_NODES = np.cos((np.arange(5) + 0.5) * np.pi / 5)
_POWER_FIT = np.linalg.inv(np.vander(_NODES, 5, increasing=True))
_POWERS = np.arange(1.0, 5.0)


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
    trace(I2 W22) at the control.  The models are read once, here, and the
    W-independent part of `stationary_doses` and `extrema` once per object,
    on first use.
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

    @functools.cached_property
    def _peak_basis(self):
        """lo and hi - lo of the saturation, the mean gradient at the nodes'
        doses, and the power series of Q and Q' (`stationary_doses`, `extrema`)."""
        drug = self.drug
        L, R = drug.dose_range
        ed50 = drug.mean.ed50
        lo, hi = L / (ed50 + L), R / (ed50 + R)
        u = lo + 0.5 * (_NODES + 1.0) * (hi - lo)
        d = ed50 * u / (1.0 - u)
        q = _POWER_FIT @ np.broadcast_to(1.0 / drug.family.weight(drug.mean.value(d)), u.shape)
        return lo, hi - lo, drug.mean.gradient(d), q, q[1:] * _POWERS

    def stationary_doses(self, W: np.ndarray) -> np.ndarray:
        """The range ends and the stationary doses of the drug-arm sensitivity, sorted.

        In the saturation u = d/(ed50 + d), which increases with d, eta is
        linear and the mean gradient g quadratic, so for all four families the
        sensitivity is A/Q plus a constant, with A = g^T W11 g a quartic and
        Q = 1/w(eta) of degree at most 3.  Both are fitted as power series at
        five Chebyshev nodes of the range of u, Q once per object; the doses
        are the real roots of A'Q - AQ' there (`_real_roots`), whose top
        coefficients are rounding when Q has lower degree than A.  The
        sensitivity is monotone between neighbouring doses of the result, so
        its peak is at one of them.
        """
        lo, span, g, q, dq = self._peak_basis
        m = self.m
        a = _POWER_FIT @ np.einsum("in,ij,jn->n", g, W[:m, :m], g)
        L, R = self.drug.dose_range
        ed50 = self.drug.mean.ed50
        doses = {L, R}
        for r in _real_roots(np.convolve(a[1:] * _POWERS, q) - np.convolve(a, dq)):
            u = lo + 0.5 * (r + 1.0) * span
            # u = 1 is the dose at infinity
            doses.add(R if u == 1.0 else min(max(ed50 * u / (1.0 - u), L), R))
        return np.array(sorted(doses), float)

    def extrema(self, v) -> np.ndarray:
        """The range ends and the doses where v.f(d) is stationary, sorted, for v
        of mean-parameter length; v.f is monotone between neighbouring ones."""
        return self._extrema(_POWER_FIT @ (np.asarray(v, float) @ self._peak_basis[2]))

    def _extrema(self, p: np.ndarray) -> np.ndarray:
        """The range ends and the stationary doses of P/sqrt(Q), sorted, for P
        given by its power series p in the nodes' variable t.

        For v.f, P = v.g is quadratic in the saturation u, so the slope's sign,
        that of 2P'Q - PQ', has degree at most 4.  A root in the range takes one
        Newton step: next to the far larger roots of a narrow saturation range,
        the companion matrix finds it only to their rounding.  Its dose, at
        u = (1 - s) u_L + s u_R with s = (t + 1)/2, is a ratio of sums of
        positive terms, without the rounding of 1 - u near u = 1.
        """
        q, dq = self._peak_basis[3:]
        slope = 2.0 * np.convolve(p[1:] * _POWERS[: len(p) - 1], q) - np.convolve(p, dq)
        L, R = self.drug.dose_range
        kL, kR = self.drug.mean.ed50 + L, self.drug.mean.ed50 + R
        doses = {L, R}
        for r in _real_roots(slope):
            if -1.0 <= r <= 1.0:
                value = deriv = 0.0
                for c in reversed(slope.tolist()):  # Horner's rule for both
                    value, deriv = value * r + c, deriv * r + value
                step = value / deriv if deriv else 0.0
                r -= step if abs(step) <= 1e-6 else 0.0
            s = min(max(0.5 * (r + 1.0), 0.0), 1.0)
            doses.add(min(max(((1 - s) * L * kR + s * R * kL) / ((1 - s) * kR + s * kL), L), R))
        return np.array(sorted(doses), float)


def _real_roots(slope: np.ndarray) -> list[float]:
    """The real parts of the real roots of the power series `slope`.

    The roots are the eigenvalues of numpy's companion matrix once the top
    coefficients within 1e-13 of the largest are trimmed, as `polytrim`
    trims them: rounding in a top coefficient that should be zero would put
    a huge root in the companion matrix, at the others' expense.  A root
    counts as real with a generous cut on its imaginary part, as a spurious
    root costs one evaluation.  A slope that is zero or not finite has no
    roots.
    """
    c = slope.tolist()
    roots = []
    if all(map(math.isfinite, c)):
        tol = 1e-13 * max(map(abs, c))
        while c and abs(c[-1]) <= tol:
            c.pop()
        n = len(c) - 1
        if n == 1:
            roots = [-c[0] / c[1]]
        elif n > 1:
            # as numpy.polynomial.polynomial.polycompanion builds it
            companion = np.zeros((n, n))
            companion.reshape(-1)[n :: n + 1] = 1
            companion[:, -1] -= slope[:n] / slope[n]
            roots = np.linalg.eigvals(companion).tolist()
    return [r.real for r in roots if abs(r.imag) <= 1e-2]


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
    cut = A.shape[0] * _EPS * max(abs(lam[0].item()), abs(lam[-1].item()), 1e-300)
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
