"""Search utilities: the discrete Chebyshev (minimax) fit, and golden-section
maximization, which the package itself does not call."""

from __future__ import annotations

import math

import numpy as np

from .exceptions import EstimabilityError

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = float(np.finfo(float).eps)
# singular values of a minimax A below this share of max(|A|_2, |b|_inf) count as zero
_RANK_RTOL = 1e-12


# unused: bench/tracing.py counts calls through this name (ROADMAP item 1)
def golden_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal f on [a, b].

    Returns (argmax, max). The bracket shrinks below tol before evaluating
    the midpoint winner, so the argmax is located within tol.
    """
    a, b = (a, b) if a <= b else (b, a)
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = f(c), f(d)
    for _ in range(n - 1):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = f(d)
    return (c, yc) if yc > yd else (d, yd)


def minimax(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Discrete Chebyshev fit: alpha minimizing max_i |b_i + a_i . alpha|.

    A has one row a_i per b_i.  Returns (alpha, tau, lam): tau is that
    minimum and lam the dual weights, with A^T lam = 0, sum |lam| = 1 and
    lam . b = tau; at most rank(A) + 1 rows carry weight.  A is first
    replaced by an orthonormal basis U of its column space, so zero or
    dependent columns drop out and alpha is the least-norm minimizer.  A
    dense revised simplex then runs on the dual, whose r + 1 rows (r the
    rank) hold U^T lam = 0 and the unit mass (Barrodale & Phillips, ACM
    TOMS 1975): each step prices every row with one product, inverts one
    (r + 1)-square basis and swaps out one reference row by a ratio test.
    The step tolerance grows with the basis condition number, since the
    prices carry that much rounding, and Bland's rule takes over after
    r + 1 steps that gain nothing, so a degenerate vertex cannot cycle.
    Non-finite input, rank(A) >= len(b) and a failed pivot raise
    EstimabilityError.
    """
    b = np.asarray(b, float).reshape(-1)
    n = b.size
    A = np.asarray(A, float).reshape(n, -1) if np.size(A) else np.zeros((n, 0))
    if n == 0 or not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise EstimabilityError("minimax fit needs finite rows")
    bmax = float(np.max(np.abs(b)))
    r = 0
    if A.shape[1]:
        U, S, Vt = np.linalg.svd(A, full_matrices=False)
        r = int(np.count_nonzero(S > _RANK_RTOL * max(S[0], bmax)))
        U = U[:, :r]
    if r >= n:
        raise EstimabilityError("minimax fit needs more rows than independent columns")
    lam = np.zeros(n)
    if r == 0:
        i = int(np.argmax(np.abs(b)))
        lam[i] = 1.0 if b[i] >= 0 else -1.0
        return np.zeros(A.shape[1]), bmax, lam
    rows = _reference(U, b)
    # the null vector of the reference rows gives a feasible dual basis
    null = np.append(np.linalg.solve(U[rows[:r]].T, -U[rows[r]]), 1.0)
    if null @ b[rows] < 0:
        null = -null
    signs = np.where(null < 0, -1.0, 1.0)
    basis = np.ones((r + 1, r + 1))
    basis[:r] = U[rows].T * signs
    degenerate = 0
    for _ in range(10 * n + 100):
        try:
            inv = np.linalg.inv(basis)
        except np.linalg.LinAlgError:
            break
        y = (signs * b[rows]) @ inv
        tau = float(y[r])
        resid = b - U @ y[:r]
        excess = np.abs(resid)
        excess -= tau
        excess[rows] = 0.0
        slack = 1e-12 * tau + 16.0 * _EPS * np.abs(inv).sum() * (bmax + np.abs(y).max())
        bland = degenerate > r
        i = int(np.argmax(excess > slack) if bland else np.argmax(excess))
        mass = np.maximum(inv[:, r], 0.0)
        if excess[i] <= slack:
            lam[rows] = signs * mass / mass.sum()
            return Vt[:r].T @ (-y[:r] / S[:r]), float(np.max(np.abs(resid))), lam
        s = 1.0 if resid[i] > 0 else -1.0
        d = (inv[:, :r] @ (s * U[i]) + inv[:, r]).tolist()
        floor = 1e-11 * max(map(abs, d))
        ratio = [m / dj if dj > floor else math.inf for m, dj in zip(mass.tolist(), d)]
        least = min(ratio)
        if bland:  # the smallest ratio, then the lowest variable index
            leave = min((j for j in range(r + 1) if ratio[j] <= least),
                        key=lambda j: 2 * rows[j] + (signs[j] < 0))
        else:
            leave = ratio.index(least)
        degenerate = degenerate + 1 if least * excess[i] <= slack else 0
        rows[leave], signs[leave] = i, s
        basis[:r, leave] = s * U[i]
    raise EstimabilityError("minimax fit did not converge")


def _reference(U: np.ndarray, b: np.ndarray) -> np.ndarray:
    """r + 1 starting rows of an orthonormal n x r U, the first r independent.

    The first r come from pivoted Gram-Schmidt on the rows; the last is the
    largest residual of the fit that interpolates b there.
    """
    n, r = U.shape
    P = U.copy()
    rows = []
    for _ in range(r):
        i = int(np.argmax(np.einsum("ij,ij->i", P, P)))
        rows.append(i)
        v = P[i] / np.linalg.norm(P[i])
        P -= np.outer(P @ v, v)
    resid = np.abs(b + U @ np.linalg.solve(U[rows], -b[rows]))
    resid[rows] = -1.0
    rows.append(int(np.argmax(resid)))
    return np.array(rows)
