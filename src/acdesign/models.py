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


def _require_finite(**values) -> None:
    """ModelError naming the first parameter that is nan or infinite."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise ModelError(f"{name} must be finite, got {value}")


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
        _require_finite(emax=self.emax, ed50=self.ed50)
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
        _require_finite(e0=self.e0, emax=self.emax, ed50=self.ed50)
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

    `weight(eta)` is that scalar, the one formula each family defines.  The
    control arm uses it directly; `row(g, eta)` derives from it the regression
    row f = sqrt(w) g with f f^T = w g g^T, from which the drug arm's
    information is built (also for stacked gradients and a column of means).
    """

    variance_info = 0.0  # information on the nuisance variance (normal only)
    # lim eta^2 w(eta) at a zero mean; None where w does not depend on the mean
    zero_limit = None
    probability = False  # the mean is a success probability, below 1

    def row(self, g, eta):
        """Regression row sqrt(w(eta)) g; eta broadcasts against g."""
        return np.sqrt(self.weight(eta)) * g

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
        _require_finite(sigma2=self.sigma2)
        if not self.sigma2 > 0:
            raise ModelError("sigma2 must be positive")

    @property
    def variance_info(self) -> float:
        return 1.0 / (2.0 * self.sigma2**2)

    def weight(self, eta):
        return 1.0 / self.sigma2


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

    def weight(self, eta):
        return self.r / (eta**2 * (1.0 - eta))

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

    def weight(self, eta):
        return 1.0 / (eta * (1.0 - eta))


@dataclass(frozen=True)
class Poisson(_Family):
    zero_limit = 0

    def weight(self, eta):
        return 1.0 / eta


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
        if not (0 <= L < R < np.inf):
            raise ModelError(f"dose range must be finite with 0 <= L < R, got [{L}, {R}]")
        # both curves strictly increase for d >= 0, so the mean is smallest
        # at L and largest at R
        lo, hi = self.mean.value(L), self.mean.value(R)
        fam = self.family
        if fam.probability:
            if hi >= 1.0:
                raise ModelError(
                    "success probability must stay below 1 on the dose range "
                    f"(max {hi:.6g}); require emax*R/(ed50+R) < 1"
                )
            if lo < 0.0:
                raise ModelError("success probability negative on the dose range")
        elif isinstance(fam, Poisson) and lo < 0.0:
            raise ModelError("Poisson rate negative on the dose range")
        # a binomial probability or Poisson rate of zero at L is only
        # integrable for the Michaelis-Menten origin; for an Emax curve the
        # information there is unbounded while the row at L is zero
        if isinstance(fam, (Binomial, Poisson)) and lo == 0.0 and isinstance(self.mean, Emax):
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

    # -- Fisher information ---------------------------------------------------

    def _check_dose(self, d: float):
        L, R = self.dose_range
        if not (L - 1e-12 <= d <= R + 1e-12):
            raise DoseRangeError(f"dose {d} outside range [{L}, {R}]")

    def fisher(self, d: float) -> np.ndarray:
        """Per-observation information for theta_1 at dose d: f f^T plus the variance entry."""
        f = self.regression_vector(d)
        out = np.zeros((self.n_params, self.n_params))
        out[: f.size, : f.size] = np.outer(f, f)
        out[f.size :, f.size :] = self.family.variance_info
        return out

    def _zero_mean_row(self) -> np.ndarray:
        """Regression row where the mean vanishes: the limit of the family's row."""
        if not self.family.zero_limit:
            return np.zeros(self.n_mean_params)
        if not isinstance(self.mean, MichaelisMenten):
            raise SingularInformationError("negative binomial needs a positive success probability")
        # on the MM curve grad / eta -> (1/emax, -1/ed50) as d -> 0
        origin = np.array([1.0 / self.mean.emax, -1.0 / self.mean.ed50])
        return np.sqrt(self.family.zero_limit) * origin

    def regression_vector(self, d: float) -> np.ndarray:
        """Vector f with f f^T equal to the mean-parameter block of fisher(d)."""
        return self.regression_rows([d])[0]

    def regression_rows(self, doses) -> np.ndarray:
        """Regression vectors at each dose of an array, stacked to shape (n, m)."""
        d = np.asarray(doses, float)
        L, R = self.dose_range
        outside = ~((L - 1e-12 <= d) & (d <= R + 1e-12))
        if outside.any():
            raise DoseRangeError(f"dose {d[outside][0]} outside range [{L}, {R}]")
        G = self.mean.gradient(d).T
        eta = self.mean.value(d)
        if self.family.probability and (eta >= 1.0).any():
            raise SingularInformationError(f"success probability {eta.max()} on the doses")
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
        _require_finite(mu=self.mu)
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
        """Per-observation information for theta_2: the family's weight at mu
        (the mean is mu itself, with gradient 1) plus the variance entry."""
        fam = self.family
        return np.diag([fam.weight(self.mu), fam.variance_info][: self.n_params])

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

def target_dose(drug: DrugModel, control: ControlModel) -> float:
    """Smallest dose whose expected response matches the active control.

    Each arm's response is on its own family's comparison scale: the count
    mean for the negative binomial, the mean itself otherwise.  The drug
    mean to reach is the one whose response equals the control's, found by
    closed-form rational inversion of the mean curve.  A level within 1e-12
    of the attained range but off the curve's own range raises
    NoTargetDoseError, as any other unattained level does.
    """
    L, R = drug.dose_range
    level = drug.family.mean_at(control.expected_response())
    lo, hi = drug.mean.value(L), drug.mean.value(R)
    if not (min(lo, hi) - 1e-12 <= level <= max(lo, hi) + 1e-12):
        raise NoTargetDoseError(
            f"control response {level:.6g} outside attained range [{lo:.6g}, {hi:.6g}]"
        )
    d = drug.mean.inverse(level)
    if d < L - 1e-9 * (R - L) or d > R + 1e-9 * (R - L):
        raise NoTargetDoseError(f"target dose {d:.6g} outside [{L}, {R}]")
    return min(max(d, L), R)


def response_gradient(drug: DrugModel, d: float) -> np.ndarray:
    """Gradient of the comparison-scale response in the mean parameters."""
    drug._check_dose(d)
    return drug.family.response_slope(drug.mean.value(d)) * drug.mean.gradient(d)


def target_dose_grad(drug: DrugModel, control: ControlModel) -> tuple[np.ndarray, np.ndarray]:
    """Implicit-function gradients (d d*/d theta_1, d d*/d theta_2).

    Each arm's response is differentiated on its own family's scale.
    Nuisance variance components carry an exact zero so the vectors keep the
    full parameter dimensions s1 and s2.
    """
    dstar = target_dose(drug, control)
    etap = drug.family.response_slope(drug.mean.value(dstar)) * drug.mean.derivative(dstar)
    if abs(etap) < 1e-14:
        raise DegenerateGradientError("mean curve is flat at the target dose")
    g_mean = -(1.0 / etap) * response_gradient(drug, dstar)
    g1 = np.zeros(drug.n_params)
    g1[: drug.n_mean_params] = g_mean
    g2 = np.zeros(control.n_params)
    g2[0] = control.response_derivative() / etap
    return g1, g2
