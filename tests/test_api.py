import importlib
from pathlib import Path

import numpy as np

import acdesign
from acdesign import criteria, designs, equivalence, models, solvers

PUBLIC = [
    "ARM_CONTROL", "ARM_DRUG", "AcdesignError", "Binomial", "ControlModel", "CriterionSpec",
    "DegenerateGradientError", "Design", "DesignError", "DoseRangeError", "DrugModel", "Emax",
    "EstimabilityError", "InducedDesign", "InfeasibleGeometryError", "KMatrix",
    "MichaelisMenten", "ModelError", "NegativeBinomial", "NoTargetDoseError", "Normal",
    "Poisson", "ScenarioError", "SingularInformationError", "SolveOptions", "SolveResult",
    "UnsupportedCaseError", "ac_contrast", "ac_efficiency", "ac_optimal", "c_opt_elfving_2d",
    "c_opt_numeric", "compose_active_control", "d_efficiency", "d_opt_emax", "d_opt_mm",
    "drug_info_matrix", "estimable", "info_matrix", "numeric_solve", "phi_p",
    "phi_p_from_info", "phi_p_reduced", "pseudo_inverse", "psi_ac", "response_gradient",
    "rho_p", "round_design", "sensitivity", "solve_d_optimal", "target_dose",
    "target_dose_grad", "verify",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(acdesign.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(acdesign, name) is not None, name


def test_benchmark_tracer_finds_every_hooked_name(monkeypatch):
    # the benchmark's per-layer counts wrap these names from outside; a
    # refactor that removes one must fail here rather than in the benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracer = importlib.import_module("tracing").Tracer()
    def hooked():
        return (models.DrugModel.fisher, models.DrugModel.regression_vector,
                designs.info_matrix, designs.drug_info_matrix, designs.pseudo_inverse,
                designs.estimable, np.linalg.eigh, np.linalg.eigvalsh,
                criteria.phi_p_reduced, equivalence.verify, solvers.linprog)

    originals = hooked()
    try:
        tracer.install()
        assert all(now is not then for now, then in zip(hooked(), originals))
    finally:
        tracer.uninstall()
    assert hooked() == originals


def test_package_lines_fit_in_100_characters():
    src = Path(acdesign.__file__).resolve().parent
    long = [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), start=1) if len(line) > 100]
    assert long == []
