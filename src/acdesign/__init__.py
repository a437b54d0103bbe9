"""Locally optimal experimental designs for dose-finding studies with an
active control.

The package computes, certifies and compares designs for two-arm trials in
which a new compound is dosed over a range and a marketed comparator is
given at a fixed dose.  Michaelis-Menten and Emax mean curves are combined
with normal, negative binomial, binomial and Poisson response families.
"""

from .criteria import (
    CriterionSpec,
    KMatrix,
    ac_contrast,
    ac_efficiency,
    d_efficiency,
    phi_p,
    phi_p_from_info,
    phi_p_reduced,
    psi_ac,
    rho_p,
)
from .designs import (
    ARM_CONTROL,
    ARM_DRUG,
    Design,
    InducedDesign,
    drug_info_matrix,
    estimable,
    info_matrix,
    pseudo_inverse,
    round_design,
)
from .equivalence import sensitivity, verify
from .exceptions import (
    AcdesignError,
    DegenerateGradientError,
    DesignError,
    DoseRangeError,
    EstimabilityError,
    InfeasibleGeometryError,
    ModelError,
    NoTargetDoseError,
    ScenarioError,
    SingularInformationError,
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
from .solvers import (
    SolveOptions,
    SolveResult,
    ac_optimal,
    c_opt_elfving_2d,
    c_opt_numeric,
    compose_active_control,
    d_opt_emax,
    d_opt_mm,
    numeric_solve,
    solve_d_optimal,
)

__version__ = "0.1.0"

__all__ = [
    "ARM_CONTROL",
    "ARM_DRUG",
    "AcdesignError",
    "Binomial",
    "ControlModel",
    "CriterionSpec",
    "DegenerateGradientError",
    "Design",
    "DesignError",
    "DoseRangeError",
    "DrugModel",
    "Emax",
    "EstimabilityError",
    "InducedDesign",
    "InfeasibleGeometryError",
    "KMatrix",
    "MichaelisMenten",
    "ModelError",
    "NegativeBinomial",
    "NoTargetDoseError",
    "Normal",
    "Poisson",
    "ScenarioError",
    "SingularInformationError",
    "SolveOptions",
    "SolveResult",
    "UnsupportedCaseError",
    "ac_contrast",
    "ac_efficiency",
    "ac_optimal",
    "c_opt_elfving_2d",
    "c_opt_numeric",
    "compose_active_control",
    "d_efficiency",
    "d_opt_emax",
    "d_opt_mm",
    "drug_info_matrix",
    "estimable",
    "info_matrix",
    "numeric_solve",
    "phi_p",
    "phi_p_from_info",
    "phi_p_reduced",
    "pseudo_inverse",
    "psi_ac",
    "response_gradient",
    "rho_p",
    "round_design",
    "sensitivity",
    "solve_d_optimal",
    "target_dose",
    "target_dose_grad",
    "verify",
]
