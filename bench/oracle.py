"""The benchmark's own evaluator of designs, written apart from acdesign.

Everything here starts from a `Spec` (mean curve, response family, dose
range, control mean) and the textbook formulas: the mean curve and its
gradient, the family weight of the Fisher information, the block-diagonal
joint information, the Kiefer phi_p functional, the target dose by curve
inversion, the target-dose variance psi, the equivalence-theorem
sensitivity and an Elfving linear program for the best achievable psi.
None of it imports acdesign, so a check built on it is independent of the
code under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

SIGMA2 = 0.05**2


@dataclass(frozen=True)
class Spec:
    """One drug/control model pair in plain numbers."""

    curve: str  # "mm" or "emax"
    e0: float  # ignored for "mm"
    emax: float
    ed50: float
    R: float  # dose range is [0, R]
    family: str  # normal | negative_binomial | binomial | poisson
    mu: float  # control mean (probability for binomial and negative binomial)
    sigma2: float = SIGMA2
    r: int = 10

    @property
    def m(self) -> int:
        """Number of mean-curve parameters."""
        return 2 if self.curve == "mm" else 3

    @property
    def s1(self) -> int:
        return self.m + (1 if self.family == "normal" else 0)

    @property
    def s2(self) -> int:
        return 2 if self.family == "normal" else 1

    @property
    def dim(self) -> int:
        return self.s1 + self.s2


# ---------------------------------------------------------------------------
# mean curve, regression vectors and information
# ---------------------------------------------------------------------------

def mean(spec: Spec, d):
    d = np.asarray(d, float)
    base = spec.emax * d / (spec.ed50 + d)
    return base if spec.curve == "mm" else spec.e0 + base


def mean_slope(spec: Spec, d):
    d = np.asarray(d, float)
    return spec.emax * spec.ed50 / (spec.ed50 + d) ** 2


def gradient(spec: Spec, d) -> np.ndarray:
    """Rows of d(mean)/d(theta_mean), shape (n, m)."""
    d = np.atleast_1d(np.asarray(d, float))
    s = spec.ed50 + d
    cols = [d / s, -spec.emax * d / s**2]
    if spec.curve == "emax":
        cols.insert(0, np.ones_like(d))
    return np.column_stack(cols)


def regression_rows(spec: Spec, d) -> np.ndarray:
    """Rows f(d) with f f^T the mean-parameter block of the information."""
    d = np.atleast_1d(np.asarray(d, float))
    eta = mean(spec, d)
    fam = spec.family
    if fam == "normal":
        return gradient(spec, d) / math.sqrt(spec.sigma2)
    if spec.curve == "mm":
        # g / eta = (1/emax, -1/(ed50+d)) stays finite at the origin
        h = np.column_stack([np.full_like(d, 1.0 / spec.emax), -1.0 / (spec.ed50 + d)])
        if fam == "negative_binomial":
            return h * np.sqrt(spec.r / (1.0 - eta))[:, None]
        if fam == "binomial":
            return h * np.sqrt(eta / (1.0 - eta))[:, None]
        return h * np.sqrt(eta)[:, None]
    g = gradient(spec, d)
    if fam == "negative_binomial":
        return g * np.sqrt(spec.r / (eta**2 * (1.0 - eta)))[:, None]
    if fam == "binomial":
        return g / np.sqrt(eta * (1.0 - eta))[:, None]
    return g / np.sqrt(eta)[:, None]


def control_info(spec: Spec) -> np.ndarray:
    mu, fam = spec.mu, spec.family
    if fam == "normal":
        return np.diag([1.0 / spec.sigma2, 1.0 / (2.0 * spec.sigma2**2)])
    if fam == "negative_binomial":
        return np.array([[spec.r / (mu**2 * (1.0 - mu))]])
    if fam == "binomial":
        return np.array([[1.0 / (mu * (1.0 - mu))]])
    return np.array([[1.0 / mu]])


def variance_entry(spec: Spec) -> float:
    """Information on sigma2 per drug observation (normal family only)."""
    return 1.0 / (2.0 * spec.sigma2**2) if spec.family == "normal" else 0.0


def design_info(spec: Spec, design) -> np.ndarray:
    """Block-diagonal information of `design` = (doses, drug weights, control
    weight), with weights on the joint (dose, arm) space."""
    doses, wd, wc = design
    F = regression_rows(spec, doses)
    w = np.asarray(wd, float)
    M = np.zeros((spec.dim, spec.dim))
    M[: spec.m, : spec.m] = (F * w[:, None]).T @ F
    if spec.family == "normal":
        M[spec.m, spec.m] = variance_entry(spec) * w.sum()
    M[spec.s1 :, spec.s1 :] = wc * control_info(spec)
    return M


def block_identity(spec: Spec) -> np.ndarray:
    return np.eye(spec.dim)


# ---------------------------------------------------------------------------
# phi_p and its sensitivity (nonsingular information)
# ---------------------------------------------------------------------------

def _sym_power(B: np.ndarray, power: float) -> np.ndarray:
    lam, V = np.linalg.eigh(0.5 * (B + B.T))
    return (V * lam**power) @ V.T


def phi_p(M: np.ndarray, K: np.ndarray, p: float) -> float:
    """Kiefer phi_p of (K^T M^-1 K)^-1; larger is better; -inf if singular."""
    lam_M = np.linalg.eigvalsh(M)
    if lam_M[0] <= 1e-12 * lam_M[-1]:
        return -math.inf
    B = K.T @ np.linalg.solve(M, K)
    lam = 1.0 / np.linalg.eigvalsh(0.5 * (B + B.T))  # eigenvalues of C = B^-1
    if p == 0.0:
        return float(np.exp(np.mean(np.log(lam))))
    if math.isinf(p):
        return float(lam.min())
    scale = lam.min()
    return float(scale * np.mean((lam / scale) ** p) ** (1.0 / p))


def sensitivity(spec: Spec, M: np.ndarray, K: np.ndarray, p: float, doses):
    """Normalized equivalence-theorem derivative at drug doses and the control.

    Returns (drug values, control value); all are <= 0 at a phi_p-optimal
    design (finite p, nonsingular M) and > 0 points in a direction of ascent.
    """
    G = np.linalg.inv(M)
    B = K.T @ G @ K
    GK = G @ K
    W = GK @ _sym_power(B, -p - 1.0) @ GK.T
    threshold = float(np.trace(_sym_power(B, -p)))
    F = regression_rows(spec, doses)
    vals = np.einsum("ij,jk,ik->i", F, W[: spec.m, : spec.m], F)
    if spec.family == "normal":
        vals = vals + variance_entry(spec) * W[spec.m, spec.m]
    ctrl = float(np.trace(control_info(spec) @ W[spec.s1 :, spec.s1 :]))
    return (vals - threshold) / threshold, (ctrl - threshold) / threshold


def max_violation(spec: Spec, M: np.ndarray, K: np.ndarray, p: float,
                  support=(), grid: int = 4001) -> tuple[float, float]:
    """Largest normalized sensitivity over [0, R] and the control point.

    A dense grid (plus the support doses) is searched, then the best drug
    dose is refined on a fine local grid.  Returns (violation, argmax dose).
    """
    doses = np.unique(np.concatenate([np.linspace(0.0, spec.R, grid), np.asarray(support, float)]))
    vals, ctrl = sensitivity(spec, M, K, p, doses)
    for _ in range(2):
        i = int(np.argmax(vals))
        lo, hi = doses[max(i - 1, 0)], doses[min(i + 1, doses.size - 1)]
        doses = np.linspace(lo, hi, 2001)
        vals, _ = sensitivity(spec, M, K, p, doses)
    i = int(np.argmax(vals))
    return max(float(vals[i]), ctrl), float(doses[i])


# ---------------------------------------------------------------------------
# target dose and psi
# ---------------------------------------------------------------------------

def target_dose(spec: Spec) -> float:
    """Dose whose drug mean matches the control.  For the negative binomial
    the counts r (1-p)/p and r (1-mu)/mu match, which with equal shapes r is
    again p = mu."""
    y = spec.mu - (spec.e0 if spec.curve == "emax" else 0.0)
    return spec.ed50 * y / (spec.emax - y)


def target_gradients(spec: Spec) -> tuple[np.ndarray, np.ndarray]:
    """(d d*/d theta_1, d d*/d theta_2) by implicit differentiation."""
    dstar = target_dose(spec)
    slope = float(mean_slope(spec, dstar))
    g1 = np.zeros(spec.s1)
    g1[: spec.m] = -gradient(spec, dstar)[0] / slope
    g2 = np.zeros(spec.s2)
    g2[0] = 1.0 / slope  # d level / d mu = 1 on the matched scale
    return g1, g2


def drug_term(spec: Spec, doses, weights) -> float:
    """c' M1^- c for the induced design, c the drug part of the target-dose gradient.

    Raises ValueError when c leaves the range of M1 (the target dose is not
    estimable under the design).
    """
    w = np.asarray(weights, float)
    F = regression_rows(spec, doses)
    M1 = (F * (w / w.sum())[:, None]).T @ F
    c = target_gradients(spec)[0][: spec.m]
    lam, V = np.linalg.eigh(M1)
    keep = lam > spec.m * 1e-12 * lam[-1]
    coef = V.T @ c
    if np.max(np.abs(coef[~keep]), initial=0.0) > 1e-7 * np.abs(c).max():
        raise ValueError("target dose not estimable under this design")
    return float(np.sum(coef[keep] ** 2 / lam[keep]))


def control_term(spec: Spec) -> float:
    g2 = target_gradients(spec)[1]
    return float(g2 @ np.linalg.solve(control_info(spec), g2))


def psi(spec: Spec, doses, drug_weights, control_weight: float) -> float:
    """Target-dose variance g1' M1^- g1 / (1-wc) + g2' I2^-1 g2 / wc."""
    wc = float(control_weight)
    return drug_term(spec, doses, drug_weights) / (1.0 - wc) + control_term(spec) / wc


def elfving_drug_term(spec: Spec, extra_doses=(), grid: int = 2001) -> float:
    """Smallest c' M1^- c over induced designs on a dense grid plus extra doses.

    By Elfving's theorem it is 1/gamma^2, gamma the largest multiple of c in
    the convex hull of +-f(x), which is a linear program.
    """
    dstar = target_dose(spec)
    doses = np.unique(np.concatenate([
        np.linspace(0.0, spec.R, grid),
        np.clip(dstar + np.linspace(-0.01, 0.01, 201) * spec.R, 0.0, spec.R),
        np.asarray(extra_doses, float),
    ]))
    F = regression_rows(spec, doses)
    c = target_gradients(spec)[0][: spec.m]
    n = doses.size
    A_eq = np.zeros((spec.m + 1, 2 * n + 1))
    A_eq[: spec.m, :n] = F.T
    A_eq[: spec.m, n : 2 * n] = -F.T
    A_eq[: spec.m, 2 * n] = -c
    A_eq[spec.m, : 2 * n] = 1.0
    b_eq = np.zeros(spec.m + 1)
    b_eq[spec.m] = 1.0
    cost = np.zeros(2 * n + 1)
    cost[-1] = -1.0
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"Elfving LP failed: {res.message}")
    return 1.0 / float(res.x[-1]) ** 2


def psi_bound(spec: Spec, extra_doses=(), grid: int = 2001) -> float:
    """Smallest psi over designs on the grid: the best drug term, then the
    arm split minimizing a/(1-w) + b/w, which gives (sqrt(a) + sqrt(b))^2."""
    a = elfving_drug_term(spec, extra_doses, grid)
    return (math.sqrt(a) + math.sqrt(control_term(spec))) ** 2


def one_point_optimal(spec: Spec, grid: int = 401) -> bool:
    """Whether the design on the target dose alone is the best drug design."""
    dstar = target_dose(spec)
    return drug_term(spec, [dstar], [1.0]) <= elfving_drug_term(spec, [dstar], grid) * (1.0 + 1e-6)
