"""Construction of locally optimal designs.

Closed forms cover the D-optimal designs for both mean curves under all four
families and the Elfving-geometry c-optimal designs for the Michaelis-Menten
curve.  General c-optimal problems take one Elfving LP, then closed-form
support weights.  Arbitrary contrasts and p take one weight solve on a
dose grid, then an SLSQP polish of doses and weights together.
Joint designs are assembled from drug-only solutions by the allocation rule
w_control = 1/(1+rho_p).  The information matrix is block diagonal, so this
holds for any pairing of drug and control families.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog, minimize

from .criteria import (
    CriterionSpec,
    KMatrix,
    phi_p,
    phi_p_parts,
    resolve_spec,
    rho_p,
)
from .designs import (
    Design,
    InducedDesign,
    drug_info_matrix,
    estimable,
    joint_design,
    merge_support,
    pseudo_inverse,
)
from .equivalence import SensitivityReport, _Sensitivity, verify
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
    response_gradient,
    target_dose,
    target_dose_grad,
)
from .scalar_opt import bracketed_root, golden_max

_log = logging.getLogger("acdesign")

MERGE_FRACTION = 1e-6  # support doses closer than this fraction of R-L merge
LP_GRID_SIZE = 401  # doses in the Elfving LP of c_opt_numeric


@dataclass(frozen=True)
class SolveOptions:
    """Settings of numeric_solve.

    grid_size is the dose grid of the first weight solve and of the
    violation search, max_iterations caps the summed SLSQP iterations and
    weight_tolerance is the least grid weight that enters the support.
    multistart_count and seed are accepted and ignored: the solver has one
    deterministic start.
    """

    grid_size: int = 257
    max_iterations: int = 400
    weight_tolerance: float = 1e-4
    multistart_count: int = 4
    seed: int = 0

    def __post_init__(self):
        if min(self.grid_size, self.max_iterations, self.multistart_count) <= 0:
            raise UnsupportedCaseError("solver options must be positive")
        if self.grid_size < 2:
            raise UnsupportedCaseError("the solver's dose grid needs at least 2 points")
        if not self.weight_tolerance > 0:
            raise UnsupportedCaseError("weight tolerance must be positive")


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

def _dimension_share(drug: DrugModel, control: ControlModel) -> float:
    """Control weight t2/(t1+t2) of a D-optimal joint design."""
    return control.n_params / (drug.n_params + control.n_params)


def d_opt_mm(drug: DrugModel, control: ControlModel) -> Design:
    """Locally D-optimal design for a Michaelis-Menten mean curve.

    Two drug doses: a family-specific interior dose (clipped at L) and the
    right endpoint.  The control share follows the parameter dimensions.
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
    return InducedDesign((lo, R), (0.5, 0.5)).as_design(_dimension_share(drug, control))


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
        inner = bracketed_root(stationarity, L + eps, R - eps, scan=64, tol=1e-13 * (R - L))
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
    return InducedDesign((L, inner, R), (third, third, third)).as_design(
        _dimension_share(drug, control)
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

def _two_point_weight(drug: DrugModel, x: float, dstar: float, upper_gap: float) -> float:
    """Shared form of the two-point weight at the inner dose x (pair {x, R}).

    upper_gap is |x - dstar| with the sign convention of the active case;
    both published variants reduce to this expression.
    """
    _, R = drug.dose_range
    ed50 = drug.mean.ed50
    # with f(d) = v(d) grad(d), v(d) d = f_1(d) (ed50 + d), finite at d = 0
    n1 = drug.regression_vector(R)[0] * (ed50 + R) * (R - dstar) * (ed50 + x) ** 2
    n2 = drug.regression_vector(x)[0] * (ed50 + x) * upper_gap * (ed50 + R) ** 2
    return n1 / (n1 + n2)


def _mm_dose_from_ray(drug: DrugModel, c: np.ndarray) -> float:
    """Recover the dose whose gradient ray carries c (MM curve only)."""
    mm = drug.mean
    if abs(c[1]) < 1e-300:
        raise UnsupportedCaseError("contrast has no ed50 component; not a gradient ray")
    d = -mm.emax * c[0] / c[1] - mm.ed50
    if d <= 0:
        raise InfeasibleGeometryError(f"implied target dose {d:.6g} is not positive")
    g = mm.gradient(d)
    scale = c[0] / g[0]
    if np.max(np.abs(c - scale * g)) > 1e-8 * (1.0 + np.max(np.abs(c))):
        raise UnsupportedCaseError("contrast is not a scalar multiple of a gradient")
    return d


def c_opt_elfving_2d(drug: DrugModel, c_vector: np.ndarray) -> ElfvingSolution:
    """c-optimal induced design for a Michaelis-Menten curve.

    The contrast must lie on the gradient ray of some dose d*, which covers
    every target-dose problem.  The support pattern follows the family's
    Elfving-set geometry: a one-point design at d* when the ray meets the
    set's curved boundary, otherwise two support points involving a
    tangency threshold or the range endpoints.
    """
    if not isinstance(drug.mean, MichaelisMenten):
        raise UnsupportedCaseError("Elfving closed forms cover the MM curve only")
    c = np.asarray(c_vector, float).reshape(-1)
    if c.size != 2:
        raise UnsupportedCaseError("MM c-optimal problems are two-dimensional")
    L, R = drug.dose_range
    ed50, emax = drug.mean.ed50, drug.mean.emax
    dstar = _mm_dose_from_ray(drug, c)
    if not (L - 1e-9 * (R - L) <= dstar <= R + 1e-9 * (R - L)):
        raise InfeasibleGeometryError(f"implied target dose {dstar:.6g} outside [{L}, {R}]")
    dstar = min(max(dstar, L), R)
    fam = drug.family

    if isinstance(fam, Normal):
        raw = (math.sqrt(2.0) * R**2 * ed50 + (math.sqrt(2.0) - 1.0) * R * ed50**2) / (
            2.0 * R**2 + 4.0 * R * ed50 + ed50**2
        )
        xstar = max(L, raw)
        if xstar <= dstar:
            doses, weights, tag = [dstar], [1.0], "one-point"
        else:
            w1 = _two_point_weight(drug, xstar, dstar, xstar - dstar)
            doses, weights, tag = [xstar, R], [w1, 1.0 - w1], "left-threshold"
    elif isinstance(fam, NegativeBinomial):
        w1 = _two_point_weight(drug, L, dstar, dstar - L)
        doses, weights, tag = [L, R], [w1, 1.0 - w1], "two-endpoint"
    elif isinstance(fam, Binomial):
        s = math.sqrt(1.0 - drug.mean_value(R))
        x1 = max(L, ed50 * (1.0 - s) / (2.0 * emax - 1.0 + s))
        den2 = 2.0 * emax - 1.0 - s
        x2 = R if den2 <= 0 else min(R, ed50 * (1.0 + s) / den2)
        if x1 >= R:
            raise InfeasibleGeometryError("lower tangency threshold beyond the dose range")
        if dstar < x1:
            w1 = _two_point_weight(drug, x1, dstar, x1 - dstar)
            doses, weights, tag = [x1, R], [w1, 1.0 - w1], "left-threshold"
        elif dstar > x2:
            w1 = _two_point_weight(drug, x2, dstar, dstar - x2)
            doses, weights, tag = [x2, R], [w1, 1.0 - w1], "right-threshold"
        else:
            doses, weights, tag = [dstar], [1.0], "one-point"
    elif isinstance(fam, Poisson):
        xstar = max(L, R * ed50 / (3.0 * R + 4.0 * ed50))
        if xstar <= dstar:
            doses, weights, tag = [dstar], [1.0], "one-point"
        else:
            w1 = _two_point_weight(drug, xstar, dstar, xstar - dstar)
            doses, weights, tag = [xstar, R], [w1, 1.0 - w1], "left-threshold"
    else:
        raise UnsupportedCaseError(f"unknown family {fam!r}")

    # drop degenerate zero weights (d* at a support point)
    keep = [i for i, w in enumerate(weights) if w > 1e-14]
    doses = [doses[i] for i in keep]
    weights = [weights[i] for i in keep]
    total = sum(weights)
    weights = [w / total for w in weights]
    return _finish_elfving(drug, c, doses, weights, tag)


def _finish_elfving(
    drug: DrugModel,
    c: np.ndarray,
    doses: list[float],
    weights: list[float],
    tag: str,
) -> ElfvingSolution:
    """Attach gamma, signs and delta, enforcing the boundary representation."""
    F = np.array([drug.regression_vector(d) for d in doses]).T  # (m, k)
    target = np.zeros(F.shape[0])
    target[: c.size] = c
    gamma, signs = _representation(F, target, weights)
    M1 = sum(w * np.outer(f, f) for f, w in zip(F.T, weights))
    delta = float(target @ pseudo_inverse(M1) @ target)
    if abs(delta * gamma**2 - 1.0) > 1e-6:
        raise InfeasibleGeometryError(
            "Elfving representation inconsistent with the variance bound"
        )
    return ElfvingSolution(
        tuple(float(d) for d in doses),
        tuple(float(w) for w in weights),
        gamma,
        signs,
        tag,
        delta,
    )


def _representation(F: np.ndarray, c: np.ndarray, weights: list[float]) -> tuple[float, tuple[int, ...]]:
    """Solve gamma * c = sum eps_i w_i f_i for gamma > 0 and signs."""
    k = F.shape[1]
    best = None
    for mask in range(1 << k):
        signs = [1 if (mask >> i) & 1 == 0 else -1 for i in range(k)]
        combo = sum(s * w * F[:, i] for i, (s, w) in enumerate(zip(signs, weights)))
        denom = float(c @ c)
        gamma = float(combo @ c) / denom
        if gamma <= 0:
            continue
        resid = float(np.max(np.abs(gamma * c - combo)))
        if resid <= 1e-8 * (1.0 + float(np.max(np.abs(combo)))):
            if best is None or resid < best[2]:
                best = (gamma, tuple(signs), resid)
    if best is None:
        raise InfeasibleGeometryError("no sign pattern satisfies the Elfving identity")
    return best[0], best[1]


# ---------------------------------------------------------------------------
# c-optimal designs: one Elfving LP, then closed-form support weights
# ---------------------------------------------------------------------------

def _copt_lp(F: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Maximize gamma with gamma*c in the convex hull of +-f rows of F.

    Returns the signed mass on each row; the solution is basic, so at most
    len(c) rows carry mass.
    """
    n, s = F.shape
    A_eq = np.zeros((s + 1, 2 * n + 1))
    A_eq[:s, :n] = F.T
    A_eq[:s, n : 2 * n] = -F.T
    A_eq[:s, 2 * n] = -c
    A_eq[s, : 2 * n] = 1.0
    b_eq = np.zeros(s + 1)
    b_eq[s] = 1.0
    cost = np.zeros(2 * n + 1)
    cost[2 * n] = -1.0
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, method="highs")  # default bounds x >= 0
    if res.status != 0:
        raise EstimabilityError(f"c-optimal linear program failed: {res.message}")
    return res.x[:n] - res.x[n : 2 * n]


def c_opt_numeric(drug: DrugModel, c_vector: np.ndarray) -> ElfvingSolution:
    """c-optimal induced design: one Elfving LP, then closed-form support weights.

    The LP runs once on a fixed dose grid, with the one-point dose d* added
    when the contrast lies on a gradient ray.  Its basic solution has at
    most n_mean_params support points (Elfving 1952); golden-section moves
    of the interior doses then minimize the variance bound, with the
    optimal weights on each trial support in closed form.  The one-point
    design at d* is preferred whenever it attains the bound, since the LP
    can return an equivalent spread representation of a flat boundary face.
    """
    c = np.asarray(c_vector, float).reshape(-1)
    if c.size != drug.n_mean_params:
        raise UnsupportedCaseError("contrast length must match the mean parameters")
    L, R = drug.dose_range
    doses = np.linspace(L, R, LP_GRID_SIZE)
    one_point = _one_point_candidate(drug, c)
    if one_point is not None:
        doses = np.unique(np.append(doses, one_point[0]))
    z = _copt_lp(np.array([drug.regression_vector(d) for d in doses]), c)
    supp = np.abs(z) > 1e-10 * np.max(np.abs(z))
    sd, weights, delta = _polish_support(drug, c, doses[supp])
    if one_point is not None:
        d1, delta1 = one_point
        if delta1 <= delta * (1.0 + 1e-6):
            return _finish_elfving(drug, c, [d1], [1.0], "one-point")
    return _finish_elfving(drug, c, sd, list(weights), "numeric")


def _support_delta(F: np.ndarray, c: np.ndarray) -> tuple[float, np.ndarray]:
    """Least c^T M^- c over designs on the support with regression rows F.

    For k <= m linearly independent rows with F^T a = c the optimum is
    (sum |a|)^2 at weights |a| / sum |a| (Elfving 1952; Pukelsheim 1993).
    Supports that lose rank or leave c outside their span (which happens
    when a dose of a short support moves) count as infinitely bad.
    """
    a, _, rank, _ = np.linalg.lstsq(F.T, c, rcond=None)
    if rank < F.shape[0] or np.max(np.abs(F.T @ a - c)) > 1e-9 * np.max(np.abs(c)):
        return np.inf, np.zeros(F.shape[0])
    total = float(np.abs(a).sum())
    return total**2, np.abs(a) / total


def _polish_support(drug: DrugModel, c: np.ndarray, doses):
    """Refine interior support doses by golden-section on the variance bound."""
    L, R = drug.dose_range
    doses = sorted(float(d) for d in doses)
    F = np.array([drug.regression_vector(d) for d in doses])
    delta, weights = _support_delta(F, c)
    # only full supports keep the representation feasible while a dose moves
    if len(doses) >= c.size and np.isfinite(delta):
        span = 0.02 * (R - L)
        for _ in range(3):
            for i, d in enumerate(doses):
                if d <= L + 1e-12 * (R - L) or d >= R - 1e-12 * (R - L):
                    continue
                trial = F.copy()

                def merit(x: float) -> float:
                    trial[i] = drug.regression_vector(x)
                    dval, _ = _support_delta(trial, c)
                    return -dval if np.isfinite(dval) else -1e300

                x_new, m_new = golden_max(
                    merit, max(L, d - span), min(R, d + span), 1e-10 * (R - L)
                )
                if np.isfinite(m_new) and -m_new < delta:
                    doses[i] = x_new
                    F[i] = drug.regression_vector(x_new)
                    delta = -m_new
            span *= 0.1
        delta, weights = _support_delta(F, c)
    snap = 1e-9 * (R - L)
    doses = [L if d - L <= snap else (R if R - d <= snap else d) for d in doses]
    keep = weights > 1e-12
    doses = [d for d, k in zip(doses, keep) if k]
    weights = weights[keep] / weights[keep].sum()
    return doses, weights, delta


def _one_point_candidate(drug: DrugModel, c: np.ndarray) -> Optional[tuple[float, float]]:
    """Dose whose regression vector is collinear with c, if one exists.

    The mean-curve gradient rays are inverted analytically (the gradient
    direction pins the dose through the saturation ratio); maximizing the
    alignment angle instead would locate the dose only to sqrt(eps).
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
    if d is None or not (L <= d <= R):
        return None
    g = mean.gradient(d)
    scale = float(c @ g) / float(g @ g)
    if float(np.max(np.abs(c - scale * g))) > 1e-9 * (1.0 + float(np.max(np.abs(c)))):
        return None
    f = drug.regression_vector(d)
    # c parallel to f, so c^T (f f^T)^+ c reduces to |c|^2 / |f|^2
    delta = float(c @ c) / float(f @ f)
    return d, delta


# ---------------------------------------------------------------------------
# AC-optimal designs
# ---------------------------------------------------------------------------

def ac_optimal(drug: DrugModel, control: ControlModel) -> Design:
    """Locally AC-optimal design: best design for estimating the target dose.

    Solves the induced c-optimal problem for the mean-curve gradient at the
    target dose (closed Elfving geometry for MM; otherwise one Elfving LP,
    then closed-form support weights), then splits mass between arms by
    the general rho_{-1} ratio, which reproduces the published
    family-specific allocation formulas.
    """
    dstar = target_dose(drug, control)
    ctil = response_gradient(drug, dstar)
    if isinstance(drug.mean, MichaelisMenten):
        sol = c_opt_elfving_2d(drug, ctil)
    else:
        sol = c_opt_numeric(drug, ctil)
    g1, g2 = target_dose_grad(drug, control)
    return _attach_c_control(sol.induced(), drug, control, g1, g2)


def _attach_c_control(
    induced: InducedDesign, drug: DrugModel, control: ControlModel, c1, c2
) -> Design:
    """Joint c-optimal design for c = (c1, c2) from a c1-optimal induced design.

    The control weight is 1/(1 + sqrt(c1' M1^- c1 / c2' I2^- c2)), the
    rho_{-1} split; a contrast without a control part gets none.
    """
    den = float(c2 @ pseudo_inverse(control.fisher()) @ c2) if c2.size else 0.0
    wc = 0.0
    if den > 0.0:
        M1 = drug_info_matrix(induced, drug)
        if not estimable(c1.reshape(-1, 1), M1):
            raise EstimabilityError("c-optimal solution lost estimability; please report")
        wc = 1.0 / (1.0 + math.sqrt(float(c1 @ pseudo_inverse(M1) @ c1) / den))
    L, R = drug.dose_range
    return induced.as_design(wc, MERGE_FRACTION * (R - L))


# ---------------------------------------------------------------------------
# general numeric solver
# ---------------------------------------------------------------------------

class _JointProblem(_Sensitivity):
    """Criterion and sensitivity plumbing over the joint design space.

    A state is a list of drug doses, their weights and the control weight.
    Everything flows through one symmetric eigendecomposition of the
    information matrix per evaluation.
    """

    def __init__(self, drug: DrugModel, control: ControlModel, K: KMatrix, p: float):
        super().__init__(drug, control)
        self.K = K.matrix
        self.p = p
        self.dim = self.s1 + control.n_params
        self._k_absmax = float(np.max(np.abs(self.K)))

    def p_eff(self) -> float:
        # the minimum-eigenvalue criterion is optimized through a smooth
        # surrogate; verification happens at the true p
        if math.isinf(self.p) and self.p < 0:
            return -50.0
        return self.p

    def info(self, doses, wd, wc, F=None) -> np.ndarray:
        M = np.zeros((self.dim, self.dim))
        if F is None:
            F = self.drug.regression_rows(doses)
        if len(doses):
            M[: self.m, : self.m] = (F * np.asarray(wd)[:, None]).T @ F
        if self.var_entry:
            M[self.m, self.m] = self.var_entry * float(np.sum(wd))
        if wc > 0:
            M[self.s1 :, self.s1 :] = wc * self.ctrl_info
        return M

    def analyze(self, M: np.ndarray):
        """(criterion value, W, threshold) or None when K is inestimable."""
        lam, V = np.linalg.eigh(0.5 * (M + M.T))
        tol = self.dim * np.finfo(float).eps * max(float(lam[-1]), 1e-300)
        pos = lam > tol
        if not pos.all():
            null = V[:, ~pos]
            if float(np.max(np.abs(null.T @ self.K))) > 1e-8 * (1.0 + self._k_absmax):
                return None
        Vp = V[:, pos]
        try:
            return phi_p_parts((Vp / lam[pos]) @ (Vp.T @ self.K), self.K, self.p_eff())
        except EstimabilityError:
            return None


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
        sol = c_opt_numeric(drug, c1[:m])
    except (EstimabilityError, InfeasibleGeometryError, UnsupportedCaseError):
        return None
    design = _attach_c_control(sol.induced(), drug, control, c1, c2)
    report = verify(design, drug, control, spec, grid_size=512, tol=1e-5)
    return SolveResult(
        design=design,
        criterion_value=phi_p(design, drug, control, K, p),
        max_violation=report.max_violation,
        converged=report.max_violation <= 1e-5,
        iterations=0,
        method="numeric/c-optimal-lp",
        report=report,
    )


def numeric_solve(
    drug: DrugModel,
    control: ControlModel,
    spec: CriterionSpec,
    opts: SolveOptions = SolveOptions(),
) -> SolveResult:
    """Grid-then-polish solver for arbitrary contrasts and p.

    Multiplicative weight sweeps solve the weights once on a uniform dose
    grid, and each run of neighbouring weighted grid doses becomes one
    support dose.  SLSQP then polishes doses and weights together; while
    the equivalence inequality is violated, the worst point joins the
    support and the polish runs again (Yang, Biedermann & Tang, JASA 108,
    2013).  The returned design is certified with the equivalence theorem.

    The loop stops for one of three reasons, reported as ``stop_reason``:
    ``"certified"`` when the equivalence violation falls to 1e-9,
    ``"stalled"`` when a polish round does not raise the criterion (the
    best state so far is kept), and ``"capped"`` once the SLSQP
    iterations, which ``iterations`` counts, reach ``max_iterations``;
    that is also logged as a warning on the ``acdesign`` logger.
    """
    K, p = resolve_spec(spec, drug, control)
    if K.t == 1:
        # for a one-column contrast every phi_p is the same c-criterion, and
        # the Elfving linear program handles its singular optima far better
        # than a polish does
        delegated = _solve_rank_one(drug, control, K, p, spec)
        if delegated is not None:
            return delegated
    problem = _JointProblem(drug, control, K, p)
    L, R = drug.dose_range
    grid = np.linspace(L, R, opts.grid_size)
    Fgrid = drug.regression_rows(grid)
    # the control carries weight exactly when the contrast reaches it
    with_control = bool(np.any(K.matrix[problem.s1 :]))
    share = 1.0 / (grid.size + with_control)
    sweep = _weight_sweeps(problem, grid, np.full(grid.size, share), share * with_control, Fgrid)
    if sweep is None:
        raise EstimabilityError("the uniform grid design does not estimate the contrast")
    wd, wc, _ = sweep
    keep = wd >= min(opts.weight_tolerance, float(wd.max()))
    merged = merge_support(zip(grid[keep], wd[keep]), 1.5 * (grid[1] - grid[0]))
    state = _normalized([d for d, _ in merged], [w for _, w in merged], wc)
    res = problem.analyze(problem.info(*state))
    if res is None:
        # on a coarse grid two support doses can be neighbours
        state = _normalized(grid[keep], wd[keep], wc)
        res = problem.analyze(problem.info(*state))
        if res is None:
            raise EstimabilityError("the grid weights do not estimate the contrast")
    value = res[0]
    start, iterations, stop_reason = state, 0, None
    while stop_reason is None:
        (doses, wd, wc), nit = _polish(problem, start, with_control, opts.max_iterations - iterations)
        iterations += nit
        # SLSQP judges steps by the criterion, which resolves weights only
        # to about sqrt(eps); the sweeps take them to the 1e-9 tolerance
        F = drug.regression_rows(doses)
        sweep = _weight_sweeps(problem, doses, wd, wc, F)
        polished = (doses, *sweep[:2]) if sweep is not None else (doses, wd, wc)
        trial = problem.analyze(problem.info(*polished, F))
        improved = trial is not None and trial[0] > value
        if improved:
            state, res = polished, trial
        value, W, threshold = res
        violation, d_top = _worst_point(problem, W, threshold, grid, Fgrid)
        if violation <= 1e-9:
            stop_reason = "certified"
        elif not improved:
            stop_reason = "stalled"
        elif iterations >= opts.max_iterations:
            stop_reason = "capped"
            _log.warning("numeric_solve ran to the %d-iteration cap", opts.max_iterations)
        else:
            doses, wd, wc = state
            if d_top is None:
                start = _normalized(doses, wd, wc + 0.01)
            else:
                start = _normalized(np.append(doses, d_top), np.append(wd, 0.01), wc)
    design = joint_design(*state, MERGE_FRACTION * (R - L))
    if problem.p_eff() != p:
        # the loop compared through the surrogate; report the true p
        value = phi_p(design, drug, control, K, p)
    report = verify(design, drug, control, spec, grid_size=512, tol=1e-5)
    return SolveResult(
        design=design,
        criterion_value=value,
        max_violation=report.max_violation,
        converged=report.max_violation <= 1e-5,
        iterations=iterations,
        method="numeric/grid-polish",
        report=report,
        stop_reason=stop_reason,
    )


def _normalized(doses, wd, wc):
    """(doses, drug weights, control weight) with the weights summing to 1."""
    wd = np.asarray(wd, float)
    total = wd.sum() + wc
    return np.asarray(doses, float), wd / total, wc / total


def _weight_sweeps(problem: _JointProblem, doses, wd, wc, F):
    """Multiplicative reweighting to the fixed point on a fixed support.

    Each weight is multiplied by its sensitivity ratio raised to
    1/(2(1-p)).  The factor 1/(1-p) is the classical damping that keeps the
    update stable for strongly negative p; the extra 1/2 stops the
    two-state oscillation that contrasts sharing columns across the arms
    show at p = 0.  A sweep that reaches the fixed point returns it;
    otherwise the best state seen is kept, which makes the sweep safe even
    where the update is not provably monotone.
    """
    exponent = 0.5 / (1.0 - problem.p_eff())
    # the smaller steps of strongly negative p get proportionally more sweeps
    sweeps = 100 if exponent > 0.2 else int(25 / exponent)
    best = None
    for _ in range(sweeps):
        res = problem.analyze(problem.info(doses, wd, wc, F))
        if res is None:
            return None
        value, W, threshold = res
        if best is None or value > best[0]:
            best = (value, wd.copy(), wc)
        rd = problem.rows(W, F) / threshold
        rc = problem.at_control(W) / threshold if wc > 0 else 0.0
        dev = float(np.max(np.abs(rd - 1.0))) if rd.size else 0.0
        if wc > 0:
            dev = max(dev, abs(rc - 1.0))
        if dev <= 1e-10:
            return wd, wc, value
        wd = wd * np.maximum(rd, 0.0) ** exponent
        wc = wc * max(rc, 0.0) ** exponent
        total = wd.sum() + wc
        if total <= 0:
            break
        wd, wc = wd / total, wc / total
    res = problem.analyze(problem.info(doses, wd, wc, F))
    if res is not None and res[0] >= best[0]:
        return wd, wc, res[0]
    return best[1], best[2], best[0]


def _polish(problem: _JointProblem, state, with_control: bool, maxiter: int):
    """SLSQP on -log phi over the support doses and all weights at once.

    Doses enter as fractions of the dose range, so that all variables share
    the unit scale.  Both gradient parts come from one analysis: a weight's
    is its sensitivity, a dose's its weight times the central difference of
    the sensitivity there, each divided by the threshold.  Returns the
    polished state, without weights of 1e-9 or less, and the iterations.
    """
    L, R = problem.drug.dose_range
    doses, wd, wc = state
    n = doses.size
    h = 1e-6 * (R - L)

    def objective(x):
        d, w, c = L + x[:n] * (R - L), x[n : 2 * n], x[2 * n] if with_control else 0.0
        up, down = np.minimum(d + h, R), np.maximum(d - h, L)
        F = problem.drug.regression_rows(np.concatenate([d, up, down]))
        res = problem.analyze(problem.info(d, w, c, F[:n]))
        if res is None:
            return 1e10, np.zeros_like(x)
        value, W, threshold = res
        s = problem.rows(W, F)
        grad = [w * (s[n : 2 * n] - s[2 * n :]) / (up - down) * (R - L), s[:n]]
        if with_control:
            grad.append([problem.at_control(W)])
        return -math.log(value), -np.concatenate(grad) / threshold

    x0 = np.concatenate([(doses - L) / (R - L), wd, [wc] if with_control else []])
    total = np.concatenate([np.zeros(n), np.ones(x0.size - n)])
    out = minimize(
        objective, x0, jac=True, method="SLSQP", bounds=[(0.0, 1.0)] * x0.size,
        constraints={"type": "eq", "fun": lambda x: x @ total - 1.0, "jac": lambda x: total},
        options={"maxiter": maxiter, "ftol": 1e-16},
    )
    x = np.clip(out.x, 0.0, 1.0)
    live = x[n : 2 * n] > 1e-9
    wc = x[2 * n] if with_control and x[2 * n] > 1e-9 else 0.0
    return _normalized(L + x[:n][live] * (R - L), x[n : 2 * n][live], wc), int(out.nit)


def _worst_point(problem: _JointProblem, W, threshold, grid, Fgrid):
    """Normalized equivalence violation and its point (None: the control).

    The grid maximum is refined by golden-section search within one grid
    spacing; the control point is compared last.
    """
    L, R = problem.drug.dose_range
    spacing = grid[1] - grid[0]
    grid_vals = problem.rows(W, Fgrid)
    i = int(np.argmax(grid_vals))
    d_best, v_best = golden_max(
        lambda d: problem.at_dose(W, d),
        max(L, grid[i] - spacing),
        min(R, grid[i] + spacing),
        1e-9 * (R - L),
    )
    if grid_vals[i] > v_best:
        d_best, v_best = float(grid[i]), float(grid_vals[i])
    v_top, d_top = max([(v_best, d_best), (problem.at_control(W), None)], key=lambda t: t[0])
    return (v_top - threshold) / abs(threshold), d_top
