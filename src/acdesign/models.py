"""Dose-response models, Fisher information and target-dose machinery.

Two treatment arms are modelled: a new compound whose mean response follows
a Michaelis-Menten or Emax curve over a dose range, and an active control
administered at a fixed dose.  Four response families are supported (normal
with unknown variance, negative binomial with known shape, binomial,
Poisson).  Every operation here is a pure function of frozen dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .exceptions import (
    DegenerateGradientError,
    DoseRangeError,
    ModelError,
    NoTargetDoseError,
    SingularInformationError,
)

_VALIDATION_GRID = 1000


# ---------------------------------------------------------------------------
# mean curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MichaelisMenten:
    """Saturating curve emax*d/(ed50+d) through the origin."""

    emax: float
    ed50: float

    n_params = 2

    def __post_init__(self):
        if not self.ed50 > 0:
            raise ModelError("ed50 must be positive")
        if not self.emax > 0:
            raise ModelError("emax must be positive (increasing mean curve)")

    def value(self, d: float) -> float:
        return self.emax * d / (self.ed50 + d)

    def gradient(self, d: float) -> np.ndarray:
        s = self.ed50 + d
        return np.array([d / s, -self.emax * d / s**2])

    def derivative(self, d: float) -> float:
        return self.emax * self.ed50 / (self.ed50 + d) ** 2

    def inverse(self, y: float) -> float:
        if not 0 <= y < self.emax:
            raise NoTargetDoseError(f"value {y} outside curve range [0, {self.emax})")
        return self.ed50 * y / (self.emax - y)


@dataclass(frozen=True)
class Emax:
    """Shifted saturating curve e0 + emax*d/(ed50+d)."""

    e0: float
    emax: float
    ed50: float

    n_params = 3

    def __post_init__(self):
        if not self.ed50 > 0:
            raise ModelError("ed50 must be positive")
        if not self.emax > 0:
            raise ModelError("emax must be positive (increasing mean curve)")

    def value(self, d: float) -> float:
        return self.e0 + self.emax * d / (self.ed50 + d)

    def gradient(self, d: float) -> np.ndarray:
        s = self.ed50 + d
        # 1.0 + 0.0 * d takes the shape of d, so an array of doses works too
        return np.array([1.0 + 0.0 * d, d / s, -self.emax * d / s**2])

    def derivative(self, d: float) -> float:
        return self.emax * self.ed50 / (self.ed50 + d) ** 2

    def inverse(self, y: float) -> float:
        if not self.e0 <= y < self.e0 + self.emax:
            raise NoTargetDoseError(
                f"value {y} outside curve range [{self.e0}, {self.e0 + self.emax})"
            )
        return self.ed50 * (y - self.e0) / (self.emax - (y - self.e0))


MeanFunction = Union[MichaelisMenten, Emax]


# ---------------------------------------------------------------------------
# response families
# ---------------------------------------------------------------------------

class _Family:
    """A family enters the information only through its weight w(eta) on g g^T.

    `info(g, eta)` is the Fisher form and `row(g, eta)` the regression row f
    with f f^T = w g g^T (also for stacked gradients and a column of means).
    Each keeps its own arithmetic; the two differ in the last bits.
    """

    variance_info = 0.0  # information on the nuisance variance (normal only)
    # lim eta^2 w(eta) at a zero mean; None where w does not depend on the mean
    zero_limit = None
    probability = False  # the mean is a success probability, below 1

    def response(self, mean):
        """Expected response on the comparison scale at a given mean."""
        return mean

    def response_slope(self, mean):
        """d response / d mean."""
        return 1.0

    def mean_at(self, response):
        """Mean whose expected response is the given one (inverse of response)."""
        return response


@dataclass(frozen=True)
class Normal(_Family):
    """Normal responses; the variance is a nuisance parameter to estimate."""

    sigma2: float

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ModelError("sigma2 must be positive")

    @property
    def variance_info(self) -> float:
        return 1.0 / (2.0 * self.sigma2**2)

    def info(self, g, eta):
        out = np.zeros((g.size + 1, g.size + 1))
        out[:-1, :-1] = np.outer(g, g) / self.sigma2
        out[-1, -1] = self.variance_info
        return out

    def row(self, g, eta):
        return g / np.sqrt(self.sigma2)


@dataclass(frozen=True)
class NegativeBinomial(_Family):
    """Failure counts before the r-th success; r known, success probability modelled."""

    r: int

    probability = True

    def __post_init__(self):
        if not (isinstance(self.r, int) and self.r >= 1):
            raise ModelError("r must be a positive integer")

    @property
    def zero_limit(self) -> int:
        return self.r

    def info(self, g, eta):
        return self.r * np.outer(g, g) / (eta**2 * (1.0 - eta))

    def row(self, g, eta):
        return np.sqrt(self.r / (eta**2 * (1.0 - eta))) * g

    def response(self, mean):
        """Count mean r(1-p)/p at success probability p."""
        if mean <= 0.0:
            raise SingularInformationError("count mean undefined at success probability 0")
        return self.r * (1.0 - mean) / mean

    def response_slope(self, mean):
        return -self.r / mean**2

    def mean_at(self, response):
        # r (1-p)/p = y solved for p; no success probability below 1 has y <= 0
        if response <= 0.0:
            raise NoTargetDoseError(f"count mean {response:.6g} is not positive")
        return self.r / (self.r + response)


@dataclass(frozen=True)
class Binomial(_Family):
    zero_limit = 0
    probability = True

    def info(self, g, eta):
        return np.outer(g, g) / (eta * (1.0 - eta))

    def row(self, g, eta):
        return g / np.sqrt(eta * (1.0 - eta))


@dataclass(frozen=True)
class Poisson(_Family):
    zero_limit = 0

    def info(self, g, eta):
        return np.outer(g, g) / eta

    def row(self, g, eta):
        return g / np.sqrt(eta)


Family = Union[Normal, NegativeBinomial, Binomial, Poisson]


# ---------------------------------------------------------------------------
# drug model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DrugModel:
    """New-compound arm: response family + mean curve + dose range [L, R]."""

    family: Family
    mean: MeanFunction
    dose_range: tuple[float, float]

    def __post_init__(self):
        L, R = self.dose_range
        if not (0 <= L < R):
            raise ModelError(f"dose range must satisfy 0 <= L < R, got [{L}, {R}]")
        self._validate_mean_values()

    def _validate_mean_values(self):
        # Monotone curves make endpoint checks sufficient; the grid guards
        # future non-monotone mean functions.
        L, R = self.dose_range
        doses = np.linspace(L, R, _VALIDATION_GRID)
        doses = np.append(doses, [L, R])
        vals = np.array([self.mean.value(d) for d in doses])
        fam = self.family
        if fam.probability:
            if vals.max() >= 1.0:
                raise ModelError(
                    "success probability must stay below 1 on the dose range "
                    f"(max {vals.max():.6g}); require emax*R/(ed50+R) < 1"
                )
            if vals.min() < 0.0:
                raise ModelError("success probability negative on the dose range")
            interior = vals[(doses > L) & (doses < R)]
            if interior.size and interior.min() <= 0.0:
                raise ModelError("success probability vanishes at an interior dose")
        elif isinstance(fam, Poisson):
            if vals.min() < 0.0:
                raise ModelError("Poisson rate negative on the dose range")
        # a binomial probability or Poisson rate of zero at L is only
        # integrable for the Michaelis-Menten origin; for an Emax curve the
        # information there is unbounded while the row at L is zero
        if (
            isinstance(fam, (Binomial, Poisson))
            and self.mean.value(L) == 0.0
            and not isinstance(self.mean, MichaelisMenten)
        ):
            raise ModelError(
                f"{type(fam).__name__} with an Emax curve needs a positive mean at L (e0 > 0)"
            )

    # -- dimensions ---------------------------------------------------------

    @property
    def n_mean_params(self) -> int:
        return self.mean.n_params

    @property
    def n_params(self) -> int:
        """Length of theta_1 (mean parameters plus sigma2 for normal)."""
        return self.n_mean_params + (1 if isinstance(self.family, Normal) else 0)

    # -- mean and gradient ---------------------------------------------------

    def _check_dose(self, d: float):
        L, R = self.dose_range
        if not (L - 1e-12 <= d <= R + 1e-12):
            raise DoseRangeError(f"dose {d} outside range [{L}, {R}]")

    def mean_value(self, d: float) -> float:
        """eta(d, theta_1): probability for binomial/negative binomial, rate for Poisson."""
        self._check_dose(d)
        return self.mean.value(d)

    def mean_grad(self, d: float) -> np.ndarray:
        """Gradient of the mean curve in the mean parameters (length 2 or 3)."""
        self._check_dose(d)
        return self.mean.gradient(d)

    # -- Fisher information ---------------------------------------------------

    def fisher(self, d: float) -> np.ndarray:
        """Per-observation information for theta_1 at dose d, shape (s1, s1)."""
        self._check_dose(d)
        fam = self.family
        eta = self.mean.value(d)
        if eta == 0.0 and fam.zero_limit is not None:
            if not fam.zero_limit:
                return np.zeros((self.n_params, self.n_params))
            v = self._origin_direction()
            return fam.zero_limit * np.outer(v, v)
        if eta >= 1.0 and fam.probability:
            raise SingularInformationError(f"success probability {eta} at dose {d}")
        return fam.info(self.mean.gradient(d), eta)

    def _origin_direction(self) -> np.ndarray:
        # limit of grad / eta as d -> 0 for the MM curve:
        # grad ~ (d/ed50) * (1, -emax/ed50), eta ~ emax*d/ed50.
        if not isinstance(self.mean, MichaelisMenten):
            raise SingularInformationError(
                "negative binomial needs a positive success probability"
            )
        return np.array([1.0 / self.mean.emax, -1.0 / self.mean.ed50])

    def _zero_mean_row(self) -> np.ndarray:
        """Regression row where the mean vanishes: the limit of the family's row."""
        if not self.family.zero_limit:
            return np.zeros(self.n_mean_params)
        return np.sqrt(self.family.zero_limit) * self._origin_direction()

    def regression_vector(self, d: float) -> np.ndarray:
        """Vector f with f f^T equal to the mean-parameter block of fisher(d)."""
        self._check_dose(d)
        eta = self.mean.value(d)
        if eta == 0.0 and self.family.zero_limit is not None:
            return self._zero_mean_row()
        return self.family.row(self.mean.gradient(d), eta)

    def regression_rows(self, doses) -> np.ndarray:
        """regression_vector at each dose of an array, stacked to shape (n, m)."""
        d = np.asarray(doses, float)
        L, R = self.dose_range
        outside = ~((L - 1e-12 <= d) & (d <= R + 1e-12))
        if outside.any():
            raise DoseRangeError(f"dose {d[outside][0]} outside range [{L}, {R}]")
        G = self.mean.gradient(d).T
        eta = self.mean.value(d)
        zero = eta == 0.0
        if self.family.zero_limit is None or not zero.any():
            return self.family.row(G, eta[:, None])
        rows = self.family.row(G, np.where(zero, 0.5, eta)[:, None])
        rows[zero] = self._zero_mean_row()
        return rows


# ---------------------------------------------------------------------------
# control model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlModel:
    """Active-control arm: its own response family, constant parameter mu.

    The family need not match the drug arm's: the information matrix is
    block diagonal, so each arm enters through its own family alone.
    """

    family: Family
    mu: float

    def __post_init__(self):
        fam = self.family
        if fam.probability:
            if not 0.0 < self.mu < 1.0:
                raise ModelError("mu must lie in (0, 1)")
        elif isinstance(fam, Poisson):
            if not self.mu > 0:
                raise ModelError("Poisson control mean must be positive")
        # Normal: any real mu; sigma2 validated by the family dataclass

    @property
    def n_params(self) -> int:
        return 2 if isinstance(self.family, Normal) else 1

    def fisher(self) -> np.ndarray:
        """Per-observation information for theta_2, shape (s2, s2)."""
        # the control mean is mu itself, so its gradient is 1
        return self.family.info(np.ones(1), self.mu)

    def expected_response(self) -> float:
        """Expected control response on its family's comparison scale.

        This is mu itself, except for the negative binomial, whose response
        is the count mean r(1-mu)/mu.
        """
        return self.family.response(self.mu)

    def response_derivative(self) -> float:
        """d expected_response / d mu, used by the implicit target-dose gradient."""
        return self.family.response_slope(self.mu)


# ---------------------------------------------------------------------------
# target dose
# ---------------------------------------------------------------------------

def drug_response(drug: DrugModel, d: float) -> float:
    """Drug-arm expected response at dose d on its family's comparison scale."""
    return drug.family.response(drug.mean_value(d))


def target_dose(drug: DrugModel, control: ControlModel) -> float:
    """Smallest dose whose expected response matches the active control.

    Each arm's response is on its own family's comparison scale: the count
    mean for the negative binomial, the mean itself otherwise.  The drug
    mean to reach is the one whose response equals the control's.  Closed-form
    rational inversion of the mean curve; a bisection fallback guards
    against floating-point corner cases near the range endpoints.
    """
    L, R = drug.dose_range
    level = drug.family.mean_at(control.expected_response())
    lo, hi = drug.mean_value(L), drug.mean_value(R)
    if not (min(lo, hi) - 1e-12 <= level <= max(lo, hi) + 1e-12):
        raise NoTargetDoseError(
            f"control response {level:.6g} outside attained range [{lo:.6g}, {hi:.6g}]"
        )
    try:
        d = drug.mean.inverse(level)
    except NoTargetDoseError:
        d = _bisect_mean(drug, level)
    if d < L - 1e-9 * (R - L) or d > R + 1e-9 * (R - L):
        raise NoTargetDoseError(f"target dose {d:.6g} outside [{L}, {R}]")
    return min(max(d, L), R)


def _bisect_mean(drug: DrugModel, level: float) -> float:
    L, R = drug.dose_range
    tol = 1e-10 * (R - L)
    lo, hi = L, R
    flo = drug.mean_value(lo) - level
    fhi = drug.mean_value(hi) - level
    if flo * fhi > 0:
        raise NoTargetDoseError("level not bracketed by the dose range")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (drug.mean_value(mid) - level) * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = drug.mean_value(lo) - level
    return 0.5 * (lo + hi)


def response_gradient(drug: DrugModel, d: float) -> np.ndarray:
    """Gradient of the comparison-scale response in the mean parameters."""
    return drug.family.response_slope(drug.mean_value(d)) * drug.mean_grad(d)


def response_dose_derivative(drug: DrugModel, d: float) -> float:
    """d/dd of the comparison-scale response."""
    return drug.family.response_slope(drug.mean_value(d)) * drug.mean.derivative(d)


def target_dose_grad(drug: DrugModel, control: ControlModel) -> tuple[np.ndarray, np.ndarray]:
    """Implicit-function gradients (d d*/d theta_1, d d*/d theta_2).

    Each arm's response is differentiated on its own family's scale.
    Nuisance variance components carry an exact zero so the vectors keep the
    full parameter dimensions s1 and s2.
    """
    dstar = target_dose(drug, control)
    etap = response_dose_derivative(drug, dstar)
    if abs(etap) < 1e-14:
        raise DegenerateGradientError("mean curve is flat at the target dose")
    g_mean = -(1.0 / etap) * response_gradient(drug, dstar)
    g1 = np.zeros(drug.n_params)
    g1[: drug.n_mean_params] = g_mean
    g2 = np.zeros(control.n_params)
    g2[0] = control.response_derivative() / etap
    return g1, g2
