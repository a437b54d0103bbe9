"""Construction of locally optimal designs.

Closed forms cover the D-optimal designs for both mean curves under all four
families and the supports of the Elfving-geometry c-optimal designs for the
Michaelis-Menten curve.  A general c-optimal problem whose contrast lies on
the gradient ray of an interior dose d* first tries the one-point design at
d*, certified by an exact tangent-line test of Elfving's theorem; otherwise
it takes one Elfving LP, solved as a discrete Chebyshev fit by
`scalar_opt.minimax`, for its support.  Every c-optimal support then takes
its weights, signs and gamma from one least-squares solve
(`_finish_elfving`).  Arbitrary contrasts and p take one weight solve on a
dose grid, then Newton steps on doses and weights together.
Joint designs are assembled from drug-only solutions by the allocation rule
w_control = 1/(1+rho_p).  The information matrix is block diagonal, so this
holds for any pairing of drug and control families.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
# unused: bench/tracing.py counts calls through this name (ROADMAP item 1)
from scipy.optimize import linprog  # noqa: F401

from .criteria import (
    CriterionSpec,
    KMatrix,
    phi_p,
    resolve_spec,
    rho_p,
)
from .designs import (
    Design,
    InducedDesign,
    _Information,
    drug_info_matrix,
    joint_design,
    merge_support,
    pinv_contrast,
    pseudo_inverse,
)
from .equivalence import VERIFY_GRID, SensitivityReport, _Criterion, grid_peak, verify
from .exceptions import (
    EstimabilityError,
    InfeasibleGeometryError,
    UnsupportedCaseError,
)
from .models import (
    Binomial,
    ControlModel,
    DrugModel,
    Emax,
    MichaelisMenten,
    NegativeBinomial,
    Normal,
    Poisson,
    target_dose_grad,
)
from .scalar_opt import bracketed_root, minimax

_log = logging.getLogger("acdesign")

MERGE_FRACTION = 1e-6  # support doses closer than this fraction of R-L merge
GAP_STOP = 1.3  # the grid sweeps stop at phi_p efficiency >= 1/GAP_STOP
WEIGHT_TOLERANCE = 1e-4  # least grid weight of a sensitivity peak's basin that starts the polish
FALLBACK_DOSES = 16  # start doses when the sensitivity peaks do not estimate
ROUNDING = 1e-10  # relative margin above the ~1e-11 rounding of criterion values
STATIONARY = 1e-11  # weight gradient residual at which the Newton polish stops
SLOPE_STATIONARY = 1e-7  # the same for the sensitivity slope at a support dose
# Newton steps in one polish round; a round that needs more is stuck on a
# support that the worst point of the equivalence check can change
ROUND_STEPS = 50
LP_GRID_SIZE = 401  # doses in the Elfving LP of c_opt_numeric
POLISH_STEPS = 30  # cap on the Newton steps of _polish_support
POLISH_REACH = 0.02  # _polish_support's largest dose move, as a share of R-L
POLISH_ROUNDING = 1e-13  # a bound rise below this share is rounding, not a worse support
REDUCE_STEPS = 8  # Gauss-Newton steps of _reduced_support on each shorter support
NEG_INF_SURROGATE = -50.0  # the smooth p on which numeric_solve chases p = -inf


@dataclass(frozen=True)
class SolveOptions:
    """Settings of numeric_solve.

    grid_size is the dose grid of the first weight solve and of the
    violation search, and max_iterations caps the Newton steps of all polish
    rounds.
    multistart_count and seed are accepted and ignored: the solver has one
    deterministic start.
    """

    grid_size: int = 257
    max_iterations: int = 400
    multistart_count: int = 4
    seed: int = 0

    def __post_init__(self):
        if min(self.grid_size, self.max_iterations, self.multistart_count) <= 0:
            raise UnsupportedCaseError("solver options must be positive")
        if self.grid_size < 2:
            raise UnsupportedCaseError("the solver's dose grid needs at least 2 points")


@dataclass(frozen=True)
class ElfvingSolution:
    """Boundary representation gamma*c = sum eps_i w_i f(d_i) of a c-optimal design."""

    doses: tuple[float, ...]
    weights: tuple[float, ...]
    gamma: float
    signs: tuple[int, ...]
    case_tag: str
    delta: float  # c^T M1^- c at the optimal induced design

    def induced(self) -> InducedDesign:
        return InducedDesign(self.doses, self.weights)


@dataclass
class SolveResult:
    design: Design
    criterion_value: float
    max_violation: float
    converged: bool
    iterations: int
    method: str
    report: Optional[SensitivityReport] = None
    stop_reason: Optional[str] = None  # "certified", "stalled", "capped"; None on the LP route


# ---------------------------------------------------------------------------
# closed-form D-optimal designs
# ---------------------------------------------------------------------------

def d_opt_mm(drug: DrugModel, control: ControlModel) -> Design:
    """Locally D-optimal design for a Michaelis-Menten mean curve.

    Two drug doses: a family-specific interior dose (clipped at L) and the
    right endpoint.  The control share follows the parameter dimensions
    (`compose_active_control` at p = 0).
    """
    if not isinstance(drug.mean, MichaelisMenten):
        raise UnsupportedCaseError("d_opt_mm needs a Michaelis-Menten mean")
    L, R = drug.dose_range
    ed50 = drug.mean.ed50
    emax = drug.mean.emax
    fam = drug.family
    if isinstance(fam, Normal):
        inner = ed50 * R / (2.0 * ed50 + R)
    elif isinstance(fam, NegativeBinomial):
        inner = L
    elif isinstance(fam, Binomial):
        disc = (
            9.0 * R**2
            - 8.0 * R**2 * emax
            + 18.0 * R * ed50
            - 8.0 * R * emax * ed50
            + 9.0 * ed50**2
        )
        num = ed50 * R + 3.0 * ed50**2 - ed50 * math.sqrt(disc)
        den = 4.0 * emax * ed50 - 4.0 * R + 4.0 * R * emax - 6.0 * ed50
        inner = num / den
    elif isinstance(fam, Poisson):
        inner = ed50 * R / (3.0 * ed50 + 2.0 * R)
    else:
        raise UnsupportedCaseError(f"unknown family {fam!r}")
    lo = max(L, inner)
    if lo >= R:
        raise InfeasibleGeometryError("interior dose collapses onto the right endpoint")
    K = KMatrix.block_identity(drug.n_params, control.n_params)
    return compose_active_control(InducedDesign((lo, R), (0.5, 0.5)), drug, control, K, 0.0)


def d_opt_emax(drug: DrugModel, control: ControlModel) -> Design:
    """Locally D-optimal design for an Emax mean curve.

    Three drug doses {L, d, R}; the interior dose is a closed form for the
    normal and Poisson families and the root of a rational stationarity
    equation for the binomial and negative binomial ones.
    """
    if not isinstance(drug.mean, Emax):
        raise UnsupportedCaseError("d_opt_emax needs an Emax mean")
    L, R = drug.dose_range
    e0, em, ed50 = drug.mean.e0, drug.mean.emax, drug.mean.ed50
    fam = drug.family
    if isinstance(fam, Normal):
        inner = (R * (L + ed50) + L * (R + ed50)) / ((L + ed50) + (R + ed50))
    elif isinstance(fam, (NegativeBinomial, Binomial)):
        a = e0 + em - 1.0

        def stationarity(d: float) -> float:
            common = (
                2.0 / (d - L)
                + 2.0 / (d - R)
                - a / (d * a + (e0 - 1.0) * ed50)
            )
            if isinstance(fam, NegativeBinomial):
                return common - 2.0 * (e0 + em) / (e0 * (ed50 + d) + em * d) - 1.0 / (ed50 + d)
            return common - (e0 + em) / (e0 * (ed50 + d) + em * d) - 2.0 / (ed50 + d)

        eps = 1e-9 * (R - L)
        inner = bracketed_root(stationarity, L + eps, R - eps, 1e-13 * (R - L))
    elif isinstance(fam, Poisson):
        m = lambda d: e0 * ed50 + em * d + e0 * d
        kappa = ((ed50 + L) * m(R) + (ed50 + R) * m(L)) ** 2 + 12.0 * (ed50 + L) * (
            ed50 + R
        ) * m(R) * m(L)
        root = math.sqrt(kappa)
        num = ed50 * (4.0 * m(L) * m(R) - em * (L * m(R) + R * m(L)) - e0 * root)
        den = -4.0 * m(L) * m(R) - em * ed50 * (m(R) + m(L)) + (em + e0) * root
        inner = num / den
    else:
        raise UnsupportedCaseError(f"unknown family {fam!r}")
    if not (L < inner < R):
        raise InfeasibleGeometryError(
            f"interior dose {inner:.6g} falls outside ({L}, {R})"
        )
    third = 1.0 / 3.0
    K = KMatrix.block_identity(drug.n_params, control.n_params)
    return compose_active_control(
        InducedDesign((L, inner, R), (third, third, third)), drug, control, K, 0.0
    )


def solve_d_optimal(drug: DrugModel, control: ControlModel) -> Design:
    """Closed-form D-optimal design, dispatching on the mean curve."""
    if isinstance(drug.mean, MichaelisMenten):
        return d_opt_mm(drug, control)
    return d_opt_emax(drug, control)


# ---------------------------------------------------------------------------
# composition: drug-only optimum -> joint optimum
# ---------------------------------------------------------------------------

def compose_active_control(
    induced_opt: InducedDesign,
    drug: DrugModel,
    control: ControlModel,
    K: KMatrix,
    p: float,
) -> Design:
    """Attach the active control to an optimal induced design.

    Valid for block contrasts at any p and for shared-column (stacked)
    contrasts at p = -1; other combinations must be solved jointly, which
    numeric_solve does.
    """
    if K.k11 is None or K.k22 is None:
        raise UnsupportedCaseError("composition needs drug/control contrast blocks")
    if not K.is_block and p != -1.0:
        raise UnsupportedCaseError(
            "composition requires a block contrast unless p = -1"
        )
    rho = rho_p(induced_opt, drug, control, K, p)
    L, R = drug.dose_range
    return induced_opt.as_design(1.0 / (1.0 + rho), MERGE_FRACTION * (R - L))


# ---------------------------------------------------------------------------
# c-optimal designs: Michaelis-Menten geometry
# ---------------------------------------------------------------------------

def c_opt_elfving_2d(drug: DrugModel, c_vector: np.ndarray) -> ElfvingSolution:
    """c-optimal induced design for a Michaelis-Menten curve.

    The contrast must lie on the gradient ray of some dose d* in the range
    (`_one_point_candidate`), which covers every target-dose problem.  The
    support follows the family's Elfving-set geometry: d* alone when the ray
    meets the set's curved boundary, otherwise a tangency threshold and R,
    or both range ends.  `_finish_elfving` takes the weights from it.
    """
    if not isinstance(drug.mean, MichaelisMenten):
        raise UnsupportedCaseError("Elfving closed forms cover the MM curve only")
    c = np.asarray(c_vector, float).reshape(-1)
    if c.size != 2:
        raise UnsupportedCaseError("MM c-optimal problems are two-dimensional")
    dstar = _one_point_candidate(drug, c)
    if dstar is None:
        raise UnsupportedCaseError("contrast is not the gradient ray of a dose in the range")
    L, R = drug.dose_range
    ed50, emax = drug.mean.ed50, drug.mean.emax
    fam = drug.family
    # d* outside [lo, hi] takes the support {lo, R} or {hi, R}
    if isinstance(fam, Normal):
        raw = (math.sqrt(2.0) * R**2 * ed50 + (math.sqrt(2.0) - 1.0) * R * ed50**2) / (
            2.0 * R**2 + 4.0 * R * ed50 + ed50**2
        )
        lo, hi = max(L, raw), R
    elif isinstance(fam, NegativeBinomial):
        return _finish_elfving(drug, c, [L, R], "two-endpoint")
    elif isinstance(fam, Binomial):
        s = math.sqrt(1.0 - drug.mean.value(R))
        lo = max(L, ed50 * (1.0 - s) / (2.0 * emax - 1.0 + s))
        den2 = 2.0 * emax - 1.0 - s
        hi = R if den2 <= 0 else min(R, ed50 * (1.0 + s) / den2)
        if lo >= R:
            raise InfeasibleGeometryError("lower tangency threshold beyond the dose range")
    elif isinstance(fam, Poisson):
        lo, hi = max(L, R * ed50 / (3.0 * R + 4.0 * ed50)), R
    else:
        raise UnsupportedCaseError(f"unknown family {fam!r}")
    if dstar < lo:
        return _finish_elfving(drug, c, [lo, R], "left-threshold")
    if dstar > hi:
        return _finish_elfving(drug, c, [hi, R], "right-threshold")
    return _finish_elfving(drug, c, [dstar], "one-point")


def _finish_elfving(drug: DrugModel, c: np.ndarray, doses, tag: str) -> ElfvingSolution:
    """The c-optimal design on the support `doses` in Elfving's representation.

    One least-squares solve of F^T a = c (`_support_delta`) gives the
    weights |a|/sum|a|, the signs sign(a), gamma = 1/sum|a| and the
    variance bound (sum|a|)^2; doses whose weight vanishes are dropped.
    The bound must match c^T M1^+ c of the design it describes.
    """
    F = drug.regression_rows(doses)
    delta, a = _support_delta(F, c)
    keep = np.abs(a) > 1e-12 * math.sqrt(delta)  # sqrt(delta) = sum|a|; inf keeps none
    doses, F, a = np.asarray(doses, float)[keep], F[keep], a[keep]
    total = float(np.abs(a).sum())
    weights = np.abs(a) / total
    M1 = _Information(drug).matrix(doses, weights, F=F)[: c.size, : c.size]
    if not (np.isfinite(delta) and abs(float(c @ pseudo_inverse(M1) @ c) / total**2 - 1.0) <= 1e-6):
        raise InfeasibleGeometryError(
            "Elfving representation inconsistent with the variance bound"
        )
    return ElfvingSolution(
        tuple(float(d) for d in doses),
        tuple(float(w) for w in weights),
        1.0 / total,
        tuple(int(e) for e in np.sign(a)),
        tag,
        total**2,
    )


# ---------------------------------------------------------------------------
# c-optimal designs: one Elfving LP for the support
# ---------------------------------------------------------------------------

def _copt_lp(F: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Maximize gamma with gamma*c in the convex hull of +-f rows of F.

    Returns the signed mass on each row.  This is the dual of Elfving's
    minimax problem: u = c/|c|^2 + N alpha, with N an orthonormal basis of
    the complement of c, minimizes max_i |f_i . u| at gamma, and the dual
    weights of that fit are the mass, on at most len(c) rows.
    """
    cc = float(c @ c)
    if not (0.0 < cc < np.inf):
        raise EstimabilityError("c-optimal problem needs a nonzero finite contrast")
    N = np.linalg.svd(c.reshape(1, -1))[2][1:].T
    _, gamma, mass = minimax(F @ N, F @ (c / cc))
    if not gamma > 0.0:
        raise EstimabilityError("contrast lies outside the span of the regression rows")
    return mass


def c_opt_numeric(drug: DrugModel, c_vector: np.ndarray) -> ElfvingSolution:
    """c-optimal induced design: a one-point certificate, or one Elfving LP.

    When the contrast lies on the gradient ray of an interior dose d*,
    `_one_point_certified` tests the one-point design at d* on the LP's
    dose grid and, if it holds, returns it without the LP.  Otherwise the
    LP runs once on that grid; `_copt_lp` solves it as a minimax fit.  Its
    basic solution has at most n_mean_params support points (Elfving
    1952); Newton steps on Elfving's condition then move the interior doses
    onto the extrema of u.f, which lowers the variance bound of the support
    (`_polish_support`, `_support_delta`).  d* stays off the
    grid: with it, the LP can return the declined one-point design when the
    better support lies between grid doses, and one dose cannot be polished.
    The one-point design at d* is still preferred whenever it attains the
    bound, since the LP can return an equivalent spread representation of a
    flat boundary face.  `_finish_elfving` weights the support it keeps.
    """
    c = np.asarray(c_vector, float).reshape(-1)
    if c.size != drug.n_mean_params:
        raise UnsupportedCaseError("contrast length must match the mean parameters")
    L, R = drug.dose_range
    doses = np.linspace(L, R, LP_GRID_SIZE)
    dstar = _one_point_candidate(drug, c)
    if dstar is not None and _one_point_certified(drug, doses, dstar):
        return _finish_elfving(drug, c, [dstar], "one-point")
    z = _copt_lp(drug.regression_rows(doses), c)
    supp = np.abs(z) > 1e-10 * np.max(np.abs(z))
    sd, delta = _polish_support(drug, c, doses[supp])
    if dstar is not None:
        if _support_delta(drug.regression_rows([dstar]), c)[0] <= delta * (1.0 + 1e-6):
            return _finish_elfving(drug, c, [dstar], "one-point")
    return _finish_elfving(drug, c, sd, "numeric")


def _support_delta(F: np.ndarray, c: np.ndarray) -> tuple[float, np.ndarray]:
    """Least c^T M^- c over designs on the support with regression rows F, and a.

    For k <= m linearly independent rows with F^T a = c the optimum is
    (sum |a|)^2 at weights |a| / sum |a|, and gamma c = sum sign(a_i) w_i f_i
    with gamma = 1/sum |a| is its Elfving representation (Elfving 1952;
    Pukelsheim 1993, ch. 2).  Supports that lose rank or leave c outside
    their span (which happens when a dose of a short support moves) count
    as infinitely bad, with a = 0.
    """
    a, _, rank, _ = np.linalg.lstsq(F.T, c, rcond=None)
    if rank < F.shape[0] or np.max(np.abs(F.T @ a - c)) > 1e-9 * np.max(np.abs(c)):
        return np.inf, np.zeros(F.shape[0])
    return float(np.abs(a).sum()) ** 2, a


def _polish_support(drug: DrugModel, c: np.ndarray, doses):
    """Move interior support doses onto the extrema of u.f by Newton steps.

    By Elfving's theorem each interior dose of a c-optimal support is a local
    extremum of u.f(d), where F u = sign(a) for the support's rows F and
    coefficients a (`_support_delta`).  Each step moves every interior dose
    by one Newton step on the slope of sign(a_i) u.f, with u from the
    current support; slope and curvature are central differences at
    1e-6 (R - L) and 1e-4 (R - L), from one `regression_rows` call, on
    stencils shifted inside the range.  A dose where the curvature is not
    negative moves POLISH_REACH (R - L) up the slope; none moves past a
    range end.  The step is halved until the bound falls (to within
    POLISH_ROUNDING), which keeps two inner doses that converge on one
    extremum from making the support singular, and the steps stop once they
    are at most 1e-10 (R - L).  Only full supports, one dose per entry of c,
    move.  A full step that raises the bound has met a kink, where a
    coefficient vanishes, or two merging doses: the optimum may have fewer
    points, and `_reduced_support` looks for them once.

    Returns the doses, those within 1e-9 (R - L) of a range end moved onto
    it, and the bound.
    """
    L, R = drug.dose_range
    width = R - L
    doses = np.sort(np.asarray(doses, float))
    F = drug.regression_rows(doses)
    delta, a = _support_delta(F, c)
    h1, h2, reach, tol = 1e-6 * width, 1e-4 * width, POLISH_REACH * width, 1e-10 * width
    tried = False  # whether _reduced_support ran
    # only full supports keep the representation feasible while a dose moves
    for _ in range(POLISH_STEPS if len(doses) == c.size and np.isfinite(delta) else 0):
        inner = (doses > L + 1e-12 * width) & (doses < R - 1e-12 * width)
        if not inner.any():
            break
        sign, x = np.sign(a), doses[inner]
        x1, x2 = np.clip(x, L + h1, R - h1), np.clip(x, L + h2, R - h2)
        stencil = np.concatenate([x1 - h1, x1 + h1, x2 - h2, x2, x2 + h2])
        # sign(a_i) u.f on each stencil, which peaks at an optimal dose
        g = sign[inner] * (drug.regression_rows(stencil) @ np.linalg.solve(F, sign)).reshape(5, -1)
        slope = (g[1] - g[0]) / (2.0 * h1)
        curv = (g[2] - 2.0 * g[3] + g[4]) / (h2 * h2)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(curv < 0.0, x1 - slope / curv - x, np.sign(slope) * reach)
        step = np.clip(step, np.maximum(-reach, L - x), np.minimum(reach, R - x))
        size = float(np.max(np.abs(step)))
        t = 1.0
        while t * size > tol:
            trial = doses.copy()
            trial[inner] = np.clip(x + t * step, L, R)
            rows = drug.regression_rows(trial)
            delta_t, a_t = _support_delta(rows, c)
            if delta_t <= delta * (1.0 + POLISH_ROUNDING):
                doses, F, delta, a = trial, rows, delta_t, a_t
                break
            if not tried:
                # a full Newton step that raises the bound has met a kink
                tried, shorter = True, _reduced_support(drug, c, doses, a, delta)
                if shorter is not None:
                    doses, delta = shorter
                    break
            t *= 0.5
        else:
            break  # converged, or no step lowers the bound
        if len(doses) < c.size:
            break
    snap = 1e-9 * width
    return [L if d - L <= snap else (R if R - d <= snap else float(d)) for d in doses], delta


def _reduced_support(drug: DrugModel, c: np.ndarray, doses: np.ndarray, a: np.ndarray,
                     delta: float):
    """A shorter support whose bound is within 1e-12 (relative) of delta, or None.

    The doses with the largest |a| are kept, one fewer each round, and
    Gauss-Newton steps on their interior doses bring c into their span: the
    residual r = (I - P) c, with P the projection on the rows, moves with
    dose i as -(I - P) f'(d_i) a_i (Kaufman's variable-projection step).
    Returns the doses and bound of the best support found.
    """
    L, R = drug.dose_range
    width = R - L
    h = 1e-6 * width
    best = None
    order = np.argsort(-np.abs(a), kind="stable")
    for k in range(len(doses) - 1, 0, -1):
        y = np.sort(doses[order[:k]])
        for _ in range(REDUCE_STEPS):
            F = drug.regression_rows(y)
            coef = np.linalg.lstsq(F.T, c, rcond=None)[0]
            r = c - F.T @ coef
            inner = (y > L + 1e-12 * width) & (y < R - 1e-12 * width)
            if np.max(np.abs(r)) <= 1e-14 * np.max(np.abs(c)) or not inner.any():
                break
            z = np.clip(y[inner], L + h, R - h)
            slopes = (drug.regression_rows(z + h) - drug.regression_rows(z - h)) / (2.0 * h)
            Q = np.linalg.qr(F.T)[0]
            J = slopes.T * coef[inner]
            J -= Q @ (Q.T @ J)
            y[inner] = np.clip(y[inner] + np.linalg.lstsq(J, r, rcond=None)[0], L, R)
        delta_k = _support_delta(drug.regression_rows(y), c)[0]
        if delta_k <= (delta if best is None else best[1]) * (1.0 + 1e-12):
            best = (y, delta_k)
    return best


def _one_point_candidate(drug: DrugModel, c: np.ndarray) -> Optional[float]:
    """Dose in [L, R] whose regression vector is collinear with c, if one exists.

    The mean-curve gradient rays are inverted analytically (the gradient
    direction pins the dose through the saturation ratio); maximizing the
    alignment angle instead would locate the dose only to sqrt(eps).  A dose
    within 1e-9 (R - L) outside the range is moved onto its end.
    """
    L, R = drug.dose_range
    mean = drug.mean
    if isinstance(mean, MichaelisMenten):
        u, w = c[0], c[1]
        if u == 0.0:
            return None
        d = -mean.emax * u / w - mean.ed50 if w != 0.0 else None
    else:
        if c[0] == 0.0:
            return None
        ratio = c[1] / c[0]  # equals d/(ed50+d) on a gradient ray
        if not 0.0 < ratio < 1.0:
            return None
        d = mean.ed50 * ratio / (1.0 - ratio)
    slack = 1e-9 * (R - L)
    if d is None or not (L - slack <= d <= R + slack):
        return None
    g = mean.gradient(d)
    scale = float(c @ g) / float(g @ g)
    if float(np.max(np.abs(c - scale * g))) > 1e-9 * (1.0 + float(np.max(np.abs(c)))):
        return None
    return min(max(d, L), R)


def _one_point_certified(drug: DrugModel, grid: np.ndarray, dstar: float) -> bool:
    """Whether the one-point design at an interior d* is c-optimal on grid.

    Elfving's theorem asks for u with u.f(d*) = 1 and |u.f(d)| <= 1 at every
    dose, so u.f'(d*) = 0 (f' a central difference): u = u0 + t v, with v
    spanning the null space of [f(d*); f'(d*)], a line for Emax and a point
    for Michaelis-Menten.  Each dose bounds t to an interval; they must meet.
    """
    L, R = drug.dose_range
    h = 1e-6 * (R - L)
    if not L + h < dstar < R - h:
        return False
    F = drug.regression_rows(np.concatenate([[dstar, dstar - h, dstar + h], grid]))
    U, S, Vt = np.linalg.svd(np.stack([F[0], (F[2] - F[1]) * ((R - L) / (2 * h))]))
    a = F[3:] @ (Vt[:2].T @ (U[0] / S))  # u0 . f for the least-norm u0
    b = F[3:] @ Vt[2:].sum(axis=0)  # v . f; v = 0 when the null space is a point
    top, flat = 1.0 + 1e-12, b == 0.0
    if not np.all(np.abs(a[flat]) <= top):
        return False
    lo, hi = np.sort([(-top - a[~flat]) / b[~flat], (top - a[~flat]) / b[~flat]], axis=0)
    return bool(lo.max(initial=-np.inf) <= hi.min(initial=np.inf))


# ---------------------------------------------------------------------------
# AC-optimal designs
# ---------------------------------------------------------------------------

def ac_optimal(drug: DrugModel, control: ControlModel) -> Design:
    """Locally AC-optimal design: best design for estimating the target dose.

    The AC criterion is the c-criterion of the target-dose gradient
    (`target_dose_grad`), so this is `_c_optimal_design` of that contrast,
    whose rho_{-1} control split reproduces the published family-specific
    allocation formulas.
    """
    return _c_optimal_design(drug, control, *target_dose_grad(drug, control))


def _c_optimal_design(drug: DrugModel, control: ControlModel, c1, c2) -> Design:
    """Joint c-optimal design for the one-column contrast c = (c1, c2).

    The drug part's mean entries set an induced c-optimal problem: the
    Elfving geometry of `c_opt_elfving_2d` when the drug is Michaelis-Menten
    and the contrast lies on the gradient ray of a dose in the range,
    `c_opt_numeric` otherwise.  `_attach_c_control` then adds the control.
    """
    c = c1[: drug.n_mean_params]
    if isinstance(drug.mean, MichaelisMenten) and _one_point_candidate(drug, c) is not None:
        sol = c_opt_elfving_2d(drug, c)
    else:
        sol = c_opt_numeric(drug, c)
    return _attach_c_control(sol.induced(), drug, control, c1, c2)


def _attach_c_control(
    induced: InducedDesign, drug: DrugModel, control: ControlModel, c1, c2
) -> Design:
    """Joint c-optimal design for c = (c1, c2) from a c1-optimal induced design.

    The control weight is 1/(1 + sqrt(c1' M1^- c1 / c2' I2^- c2)), the
    rho_{-1} split: `compose_active_control` for K = stacked(c1, c2) at
    p = -1, in the closed form of a rank-one contrast, which skips the
    eigendecompositions of rho_p.  A contrast without a control part gets
    no control weight.
    """
    den = float(c2 @ pinv_contrast(control.fisher(), c2, "control part not estimable")[0])
    wc = 0.0
    if den > 0.0:
        M1 = drug_info_matrix(induced, drug)
        h1, _ = pinv_contrast(M1, c1, "c-optimal solution lost estimability; please report")
        wc = 1.0 / (1.0 + math.sqrt(float(c1 @ h1) / den))
    L, R = drug.dose_range
    return induced.as_design(wc, MERGE_FRACTION * (R - L))


# ---------------------------------------------------------------------------
# general numeric solver
# ---------------------------------------------------------------------------

def _certified(design, drug, control, spec, value, iterations, method, stop_reason=None):
    """SolveResult of a returned design, with verify's report on its default grid."""
    report = verify(design, drug, control, spec, grid_size=VERIFY_GRID, tol=1e-5)
    converged = report.max_violation <= 1e-5
    return SolveResult(
        design, value, report.max_violation, converged, iterations, method, report, stop_reason
    )


def _solve_rank_one(
    drug: DrugModel, control: ControlModel, K: KMatrix, p: float, spec: CriterionSpec
) -> Optional[SolveResult]:
    """Route a one-column contrast through the c-optimal machinery."""
    c = K.matrix[:, 0]
    s1 = drug.n_params
    m = drug.n_mean_params
    c1, c2 = c[:s1], c[s1:]
    scale = 1.0 + float(np.max(np.abs(c)))
    if np.any(np.abs(c1[m:]) > 1e-12 * scale):
        return None  # contrast touches the drug variance; no reduction applies
    try:
        design = _c_optimal_design(drug, control, c1, c2)
    except (EstimabilityError, InfeasibleGeometryError, UnsupportedCaseError):
        return None
    value = phi_p(design, drug, control, K, p)
    return _certified(design, drug, control, spec, value, 0, "numeric/c-optimal-lp")


def numeric_solve(
    drug: DrugModel,
    control: ControlModel,
    spec: CriterionSpec,
    opts: SolveOptions = SolveOptions(),
) -> SolveResult:
    """Grid-then-Newton solver for arbitrary contrasts and p.

    Multiplicative weight sweeps on a uniform dose grid run until the grid
    design has phi_p efficiency at least 1/GAP_STOP there; each peak of
    its sensitivity then becomes one support dose (`_peak_start`).  Newton
    steps on log phi_p polish doses and weights together (`_polish`), at
    most ROUND_STEPS in a round; while the equivalence inequality is
    violated, the worst point joins the support and the polish runs again
    (Yang, Biedermann & Tang, JASA 108, 2013).  The returned design is
    certified with the equivalence theorem.

    The loop stops for one of three reasons, reported as ``stop_reason``:
    ``"certified"`` when the equivalence violation falls to 1e-9,
    ``"capped"`` once the Newton steps, which ``iterations`` counts, reach
    ``max_iterations`` (also logged as a warning on the ``acdesign``
    logger), and ``"stalled"`` when a polish round raises the criterion by
    no more than its rounding (the best state so far is kept).
    """
    K, p = resolve_spec(spec, drug, control)
    if K.t == 1:
        # for a one-column contrast every phi_p is the same c-criterion, and
        # the Elfving linear program handles its singular optima far better
        # than a polish does
        delegated = _solve_rank_one(drug, control, K, p, spec)
        if delegated is not None:
            return delegated
    # the minimum-eigenvalue criterion is optimized through a smooth
    # surrogate; the returned design is verified at the true p
    problem = _Criterion(drug, control, K, NEG_INF_SURROGATE if p == -math.inf else p)
    L, R = drug.dose_range
    grid = np.linspace(L, R, opts.grid_size)
    Fgrid = drug.regression_rows(grid)
    # the control carries weight exactly when the contrast reaches it
    with_control = bool(np.any(K.matrix[problem.s1 :]))
    share = 1.0 / (grid.size + with_control)
    sweep = _weight_sweeps(
        problem, grid, np.full(grid.size, share), share * with_control, Fgrid, GAP_STOP
    )
    if sweep is None:
        raise EstimabilityError("the uniform grid design does not estimate the contrast")
    wd, wc, (_, W, *_) = sweep
    state = _peak_start(problem.rows(W, Fgrid), grid, wd, wc)
    res = problem.analyze(problem.matrix(*state))
    if res is None:
        # on a coarse grid, or where the sweeps stop at once (p > 0), two
        # support doses can share one basin; then each of FALLBACK_DOSES
        # equal runs of grid doses starts as one dose
        runs = np.arange(grid.size) * min(FALLBACK_DOSES, grid.size) // grid.size
        mass = np.bincount(runs, wd)
        state = _normalized(np.bincount(runs, wd * grid) / mass, mass, wc)
        res = problem.analyze(problem.matrix(*state))
        if res is None:
            raise EstimabilityError("the grid weights do not estimate the contrast")
    best, iterations, stop_reason = (state, res), 0, None
    while stop_reason is None:
        state, res, steps = _polish(
            problem, state, res, with_control, min(ROUND_STEPS, opts.max_iterations - iterations)
        )
        iterations += steps
        violation, d_top = _worst_point(problem, *res[1:3], grid, Fgrid)
        improved = res[0] > best[1][0] * (1.0 + ROUNDING)
        if res[0] >= best[1][0] * (1.0 - ROUNDING) or violation <= 1e-9:
            best = (state, res)
        if violation <= 1e-9:
            stop_reason = "certified"
        elif iterations >= opts.max_iterations:
            stop_reason = "capped"
            _log.warning("numeric_solve ran to the %d-iteration cap", opts.max_iterations)
        elif not improved:
            stop_reason = "stalled"
        else:
            doses, wd, wc = state
            if d_top is None:
                state = _normalized(doses, wd, wc + 0.01)
            else:
                state = _normalized(np.append(doses, d_top), np.append(wd, 0.01), wc)
            res = problem.analyze(problem.matrix(*state))
            if res is None:  # the information lost rank to rounding
                stop_reason = "stalled"
    state, res = best
    design = joint_design(*state, MERGE_FRACTION * (R - L))
    value = res[0]
    if problem.p != p:
        # the loop compared through the surrogate; report the true p
        value = phi_p(design, drug, control, K, p)
    return _certified(
        design, drug, control, spec, value, iterations, "numeric/grid-polish", stop_reason
    )


def _normalized(doses, wd, wc):
    """(doses, drug weights, control weight) with the weights summing to 1."""
    wd = np.asarray(wd, float)
    total = wd.sum() + wc
    return np.asarray(doses, float), wd / total, wc / total


def _weight_sweeps(problem: _Criterion, doses, wd, wc, F, gap):
    """Multiplicative reweighting on a fixed support until no point exceeds gap.

    Each weight is multiplied by its normalized sensitivity raised to
    1/(2(1-p)).  The factor 1/(1-p) is the classical damping that keeps the
    update stable for strongly negative p; the extra 1/2 stops the
    two-state oscillation that contrasts sharing columns across the arms
    show at p = 0.  The sweeps stop once no dose and not the control has a
    normalized sensitivity above gap: by the equivalence theorem's
    efficiency bound (Pukelsheim, 1993) the state then has phi_p efficiency
    at least 1/gap on these doses.  At the sweep cap the last state is
    kept; the polish and its certificate decide from there.  Returns (wd,
    wc, analysis of that state), or None when the starting weights do not
    estimate the contrast.  A later state that loses estimability raises
    EstimabilityError naming its sweep.
    """
    exponent = 0.5 / (1.0 - problem.p)
    # the smaller steps of strongly negative p get proportionally more sweeps,
    # a count that stays finite however negative p is
    sweeps = 100 if exponent > 0.2 else int(min(25 / exponent, np.finfo(float).max))
    for sweep in range(sweeps + 1):
        res = problem.analyze(problem.matrix(doses, wd, wc, F))
        if res is None:
            if sweep:
                raise EstimabilityError(f"weight sweep {sweep} lost estimability of the contrast")
            return None
        _, W, threshold = res[:3]
        rd = problem.rows(W, F) / threshold
        rc = problem.at_control(W) / threshold
        if max(float(rd.max()), rc) <= gap or sweep == sweeps:
            return wd, wc, res
        wd = wd * np.maximum(rd, 0.0) ** exponent
        wc = wc * max(rc, 0.0) ** exponent
        total = wd.sum() + wc
        wd, wc = wd / total, wc / total


def _peak_start(s, grid, wd, wc):
    """One support dose per local maximum of the grid sensitivity s.

    Each grid dose climbs to its higher neighbour until it reaches a local
    maximum; the doses that reach the same one form its basin, which spans
    the grid up to the neighbouring local minima.  A basin's grid weight
    goes to its weight-averaged dose.  Basins lighter than WEIGHT_TOLERANCE
    are dropped, unless every basin is.
    """
    padded = np.concatenate([[-np.inf], s, [-np.inf]])
    window = np.stack([padded[:-2], padded[1:-1], padded[2:]])
    up = np.arange(s.size) - 1 + np.argmax(window, axis=0)
    while True:  # pointer jumping: each pass doubles the climbed distance
        top = up[up]
        if np.array_equal(top, up):
            break
        up = top
    _, basin = np.unique(up, return_inverse=True)
    mass = np.bincount(basin, wd)
    keep = mass >= min(WEIGHT_TOLERANCE, float(mass.max()))
    doses = np.bincount(basin, wd * grid)[keep] / mass[keep]
    return _normalized(doses, mass[keep], wc)


def _polish(problem: _Criterion, state, res, with_control: bool, budget: int):
    """Newton steps on log phi_p over the support doses and all weights.

    Each step takes one analysis; a step that lowers the criterion by more
    than its rounding is halved until it does not.  The polish ends when
    the state is stationary (`_newton_step`), when no halving helps or when
    the budget of steps is spent.  Returns the state, its analysis and the
    steps taken.
    """
    L, R = problem.drug.dose_range
    steps = 0
    while steps < budget:
        doses, wd, wc = state
        n = doses.size
        x = np.concatenate([(doses - L) / (R - L), wd, [wc]])
        delta = _newton_step(*_derivatives(problem, doses, wd, wc, res), x, with_control)
        if delta is None:
            return state, res, steps
        for _ in range(40):
            y = (x + delta).tolist()
            # a weight at 0 leaves with its dose; doses that meet merge
            pairs = [(L + min(max(u, 0.0), 1.0) * (R - L), w)
                     for u, w in zip(y[:n], y[n:]) if w > 0]
            merged = merge_support(pairs, MERGE_FRACTION * (R - L))
            trial_state = _normalized([d for d, _ in merged], [w for _, w in merged],
                                      max(y[-1], 0.0))
            trial = problem.analyze(problem.matrix(*trial_state))
            if trial is not None and trial[0] >= res[0] * (1.0 - ROUNDING):
                break
            delta = 0.5 * delta
        else:
            return state, res, steps
        state, res, steps = trial_state, trial, steps + 1
    return state, res, steps


def _derivatives(problem: _Criterion, doses, wd, wc, res):
    """Gradient and Hessian of log phi_p in (dose fractions, drug weights, wc).

    Each variable a moves the information in a direction E_a.  The gradient
    is g_a = tr(E_a W)/threshold, and the Hessian entry of a and b is

        (-2 tr(E_a G E_b W) - sum_jk D_jk X^a_jk X^b_jk)/threshold - p g_a g_b

    with X^a = U^T E_a U for U = G K V on the eigenpairs (lam, V) of
    B = K^T G K and D the divided differences of (lam/lam_max)^(-p-1)
    (Daleckii-Krein).  A dose also moves its own direction, which adds the
    sensitivity's slope and curvature there.  Derivatives in the dose are
    central differences.
    """
    _, W, threshold, lam, V, G, _ = res
    drug, m, n = problem.drug, problem.m, doses.size
    L, R = drug.dose_range
    h = 1e-6 * (R - L)
    c = np.clip(doses, L + h, R - h)
    F = drug.regression_rows(np.concatenate([doses, c - h, c, c + h]))
    f, f1 = F[:n], (F[3 * n :] - F[n : 2 * n]) * ((R - L) / (2 * h))
    s = problem.rows(W, F[n:]).reshape(3, n) / threshold  # at c - h, c and c + h
    E = np.zeros((2 * n + 1, problem.size, problem.size))
    E[:n, :m, :m] = wd[:, None, None] * f1[:, :, None] * f[:, None, :]
    E[:n] += E[:n].transpose(0, 2, 1)
    E[n : 2 * n, :m, :m] = f[:, :, None] * f[:, None, :]
    if problem.var_entry:
        E[n : 2 * n, m, m] = problem.var_entry
    E[2 * n, problem.s1 :, problem.s1 :] = problem.ctrl_info
    N = 2 * n + 1
    g = E.reshape(N, -1) @ W.reshape(-1) / threshold
    H = -2.0 * (E @ G).reshape(N, -1) @ (W @ E).reshape(N, -1).T
    U = G @ problem.K @ V
    X = (U.T @ E @ U).reshape(N, -1)
    # each divided difference is taken from its pair's larger eigenvalue,
    # so that no power overflows
    a, top = -problem.p - 1.0, np.maximum.outer(lam, lam)
    lnq = np.log(np.minimum.outer(lam, lam) / top)
    tie = np.abs(lnq) < 1e-8
    lnq[tie] = -1.0
    D = (top / lam[-1]) ** a / top * np.where(tie, a, np.expm1(a * lnq) / np.expm1(lnq))
    H = (H - (X * D.reshape(-1)) @ X.T) / threshold - problem.p * np.outer(g, g)
    # H's entries (i, i), (i, n + i) and (n + i, i) for i < n, as strided views
    flat, end, slope = H.reshape(-1), n * (N + 1), (s[2] - s[0]) * ((R - L) / (2 * h))
    flat[: end : N + 1] += wd * (s[2] - 2.0 * s[1] + s[0]) * ((R - L) / h) ** 2
    flat[n : end : N + 1] = flat[n * N : n * N + end : N + 1] = flat[n : end : N + 1] + slope
    return g, H


def _newton_step(g, H, x, with_control: bool):
    """Active-set Newton step from x = (u, wd, wc) on sum(weights) = 1, or None.

    On the constraint's tangent space the Hessian's eigenvalues are
    reflected to -max(|mu|, 1e-6 max|mu|), so that every step ascends.
    Doses at a range end whose gradient points outwards stay, as does a
    zero control weight or the control of a contrast that does not reach
    it.  When the step drives a weight below 0 or a dose out of the range,
    the first such variable is pinned to its bound (a weight together with
    its dose) and the step is solved again on the smaller face.  Pinning
    can turn the step downhill; then the first step, stopped at its first
    bound, is taken instead, which still ascends.  None means the state is
    stationary: each free weight's gradient is 1 (the weights' gradients
    average to 1) to within STATIONARY and each free dose's sensitivity
    slope is 0 to within SLOPE_STATIONARY.  This bookkeeping runs on Python
    floats; numpy only solves each face (`_face_step`).
    """
    n = (x.size - 1) // 2
    gl, xl = g.tolist(), x.tolist()
    free = [i for i in range(n) if not (xl[i] <= 0 and gl[i] < 0 or xl[i] >= 1 and gl[i] > 0)]
    free += range(n, 2 * n + (with_control and xl[-1] > 0))
    # a dose's slope is a central difference, which rounds at about 1e-10
    if all(abs(gl[i] - 1.0) <= STATIONARY if i >= n
           else xl[n + i] != 0 and abs(gl[i] / xl[n + i]) <= SLOPE_STATIONARY for i in free):
        return None
    delta, cut = [0.0] * x.size, None  # delta holds the pinned variables' moves
    while True:
        step = _face_step(g, H, free, tuple(i >= n for i in free), delta).tolist()
        moved = dict(zip(free, step))
        full = [moved.get(i, d) for i, d in enumerate(delta)]
        # the fraction of the step at which the first free variable meets its bound
        t, j = min((((-xl[k] if s < 0 else 1.0 - xl[k]) / s, i)
                    for i, (k, s) in enumerate(zip(free, step)) if s < 0 or s > 0 and k < n),
                   default=(1.0, 0))
        if t >= 1.0:
            full = np.array(full)
            return full if cut is None or g @ full > 0 else cut
        if cut is None:
            cut = t * np.array(full)
        k = free.pop(j)
        delta[k] = -xl[k] if step[j] < 0 else 1.0 - xl[k]
        if n <= k < 2 * n:
            delta[k - n], free = 0.0, [i for i in free if i != k - n]


@functools.lru_cache(maxsize=None)
def _tangent_basis(weights: tuple):
    """(Z, a, k): a flags k weights; Z's orthonormal columns span {v : a.v = 0}."""
    a, k = np.array(weights, float), weights.count(True)
    if not k:
        return np.eye(a.size), a, k
    # a Householder reflection takes e_j to the constraint's unit normal;
    # its other columns span the tangent space
    j, r = weights.index(True), a / math.sqrt(k)
    r[j] -= 1.0
    Z = np.eye(a.size) if k == 1 else np.eye(a.size) - np.outer(r, r) / -r[j]
    return np.delete(Z, j, axis=1), a, k


def _face_step(g, H, free, weights, delta):
    """Newton step of the variables in free, the others moving by delta (0 where
    free); weights flags the free weights and keys the cached `_tangent_basis`."""
    Z, a, k = _tangent_basis(weights)
    Hf, delta = H[free], np.array(delta)
    gf = g[free] + Hf @ delta
    Hf = Hf[:, free]
    d0 = np.zeros(len(free))
    if k:
        d0 = a * (-delta[delta.size // 2 :].sum() / k)
        gf = gf + Hf @ d0
    mu, Q = np.linalg.eigh(Z.T @ Hf @ Z)
    if not mu.size:
        return d0
    curvature = np.maximum(np.abs(mu), 1e-6 * np.abs(mu).max())
    return d0 + Z @ (Q @ (Q.T @ (Z.T @ gf) / curvature))


def _worst_point(problem: _Criterion, W, threshold, grid, Fgrid):
    """Normalized equivalence violation and its point (None: the control).

    `grid_peak` refines the grid maximum in batched passes between its
    neighbours; the control point is compared last.
    """
    L, R = problem.drug.dose_range
    d_best, v_best = grid_peak(
        lambda ds: problem.rows(W, problem.drug.regression_rows(ds)), grid,
        problem.rows(W, Fgrid), 1e-9 * (R - L),
    )
    v_top, d_top = max([(v_best, d_best), (problem.at_control(W), None)], key=lambda t: t[0])
    return (v_top - threshold) / abs(threshold), d_top
