import numpy as np
import pytest

from acdesign import equivalence
from acdesign import (
    ARM_CONTROL,
    ARM_DRUG,
    Binomial,
    ControlModel,
    CriterionSpec,
    Design,
    DrugModel,
    Emax,
    KMatrix,
    MichaelisMenten,
    NegativeBinomial,
    Normal,
    Poisson,
    UnsupportedCaseError,
    ac_optimal,
    sensitivity,
    solve_d_optimal,
    verify,
)

D_SPEC = CriterionSpec("phi_p", 0.0)


def _poisson_mm():
    drug = DrugModel(Poisson(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    ctrl = ControlModel(Poisson(), 0.4)
    return drug, ctrl


def test_theorem_design_verifies_poisson_mm():
    drug, ctrl = _poisson_mm()
    # two drug doses {ed50 R/(3 ed50 + 2R), R} at thirds plus the control
    inner = 2.0 * 50.0 / (3 * 2.0 + 2 * 50.0)
    des = Design(
        ((inner, ARM_DRUG), (50.0, ARM_DRUG), (0.0, ARM_CONTROL)),
        (1 / 3, 1 / 3, 1 / 3),
    )
    rep = verify(des, drug, ctrl, D_SPEC)
    assert rep.verdict == "optimal"
    assert rep.max_violation <= 1e-8
    assert max(rep.support_residuals) <= 1e-6


def test_theorem_design_verifies_gouty_normal():
    drug = DrugModel(Normal(0.0025), Emax(0.26, 0.73, 10.5), (0.0, 300.0))
    ctrl = ControlModel(Normal(0.0025), 0.9206)
    des = solve_d_optimal(drug, ctrl)
    rep = verify(des, drug, ctrl, D_SPEC)
    assert rep.verdict == "optimal"
    assert des.drug_doses[1] == pytest.approx(9.813, abs=1e-3)


def test_equal_weight_design_not_optimal():
    drug, ctrl = _poisson_mm()
    des = Design(
        ((0.0, ARM_DRUG), (25.0, ARM_DRUG), (50.0, ARM_DRUG), (0.0, ARM_CONTROL)),
        (0.25, 0.25, 0.25, 0.25),
    )
    rep = verify(des, drug, ctrl, D_SPEC)
    assert rep.verdict == "not-optimal"
    assert rep.max_violation > 1e-3


def test_perturbed_optimal_design_flags_violation():
    drug, ctrl = _poisson_mm()
    des = solve_d_optimal(drug, ctrl)
    doses = list(des.drug_doses)
    # move 10% of the control mass onto the first drug dose
    wts = [des.drug_weights[0] + 0.1, des.drug_weights[1], des.control_weight - 0.1]
    bad = Design(
        ((doses[0], ARM_DRUG), (doses[1], ARM_DRUG), (0.0, ARM_CONTROL)),
        tuple(wts),
    )
    rep = verify(bad, drug, ctrl, D_SPEC)
    assert rep.verdict == "not-optimal"
    assert rep.max_violation > 0


def test_support_points_have_zero_sensitivity():
    drug, ctrl = _poisson_mm()
    des = solve_d_optimal(drug, ctrl)
    rep = verify(des, drug, ctrl, D_SPEC)
    assert all(r <= 1e-6 for r in rep.support_residuals)


def test_control_sensitivity_identically_zero_for_block_d():
    # Corollary-1 structure: the control weight is exactly optimal, so the
    # control-arm sensitivity vanishes
    for family, ctrl_mu in [(Poisson(), 0.4), (Binomial(), 0.4)]:
        drug = DrugModel(family, MichaelisMenten(0.5, 2.0), (0.0, 50.0))
        ctrl = ControlModel(family, ctrl_mu)
        des = solve_d_optimal(drug, ctrl)
        rep = verify(des, drug, ctrl, D_SPEC)
        assert abs(rep.control_value) <= 1e-10


def test_verdict_stable_across_grid_sizes():
    drug = DrugModel(NegativeBinomial(10), Emax(0.26, 0.73, 10.5), (0.0, 300.0))
    ctrl = ControlModel(NegativeBinomial(10), 0.9206)
    des = solve_d_optimal(drug, ctrl)
    reports = [verify(des, drug, ctrl, D_SPEC, grid_size=g) for g in (200, 512, 1201)]
    assert all(r.verdict == "optimal" for r in reports)
    spread = max(r.max_violation for r in reports) - min(r.max_violation for r in reports)
    assert spread <= 1e-6


def test_sensitivity_point_evaluation_signs():
    drug, ctrl = _poisson_mm()
    des = solve_d_optimal(drug, ctrl)
    K = KMatrix.block_identity(drug.n_params, ctrl.n_params)
    for d in np.linspace(0.0, 50.0, 40):
        assert sensitivity((d, ARM_DRUG), des, drug, ctrl, K, 0.0) <= 1e-8
    assert sensitivity((0.0, ARM_CONTROL), des, drug, ctrl, K, 0.0) == pytest.approx(0.0, abs=1e-10)


def test_e_optimal_sensitivity_paths():
    drug, ctrl = _poisson_mm()
    des = solve_d_optimal(drug, ctrl)
    K = KMatrix.block_identity(drug.n_params, ctrl.n_params)
    # generic matrices have a simple top eigenvalue; the call must work
    val = sensitivity((25.0, ARM_DRUG), des, drug, ctrl, K, -np.inf)
    assert np.isfinite(val)
    # a doubly-degenerate eigenvalue leaves the E weighting matrix undefined
    drug2 = DrugModel(Normal(1.0), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    ctrl2 = ControlModel(Normal(1.0), 0.3)
    deg = Design(
        ((1.85, ARM_DRUG), (50.0, ARM_DRUG), (0.0, ARM_CONTROL)),
        (0.3, 0.3, 0.4),
    )
    from acdesign.designs import info_matrix

    M = info_matrix(deg, drug2, ctrl2)
    lam = np.linalg.eigvalsh(M)
    # construct a K that equalizes the two largest eigenvalues of K^T M^- K
    V = np.linalg.eigh(M)[1]
    K_deg = KMatrix(V[:, :2] * np.sqrt(lam[:2]))
    with pytest.raises(UnsupportedCaseError):
        sensitivity((25.0, ARM_DRUG), deg, drug2, ctrl2, K_deg, -np.inf)


def test_report_csv_round_trip(tmp_path):
    drug, ctrl = _poisson_mm()
    des = solve_d_optimal(drug, ctrl)
    rep = verify(des, drug, ctrl, D_SPEC)
    path = tmp_path / "sens.csv"
    rep.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "dose,sensitivity"
    assert len(rows) == rep.grid_doses.size + 1
    dose0, val0 = rows[1].split(",")
    assert float(dose0) == pytest.approx(rep.grid_doses[0])
    assert float(val0) == pytest.approx(rep.grid_values[0], rel=1e-6)


def _verify_with_witness(monkeypatch, design, drug, ctrl, spec):
    """verify, plus the W and threshold behind the evaluation it reports."""
    seen = []
    evaluate = equivalence._evaluate

    def spy(criterion, design, W, threshold, *args):
        report = evaluate(criterion, design, W, threshold, *args)
        seen.append((W, threshold, report))
        return report

    monkeypatch.setattr(equivalence, "_evaluate", spy)
    rep = verify(design, drug, ctrl, spec)
    ((W, threshold),) = [(W, t) for W, t, r in seen if r is rep]
    return rep, W, threshold


def _gouty_normal_d():
    drug = DrugModel(Normal(0.0025), Emax(0.26, 0.73, 10.5), (0.0, 300.0))
    ctrl = ControlModel(Normal(0.0025), 0.9206)
    return solve_d_optimal(drug, ctrl), drug, ctrl, D_SPEC, "pseudoinverse"


def _migraine_binomial_d():
    drug = DrugModel(Binomial(), Emax(0.098, 0.2052, 12.3), (0.0, 200.0))
    ctrl = ControlModel(Binomial(), 0.2505)
    return solve_d_optimal(drug, ctrl), drug, ctrl, D_SPEC, "pseudoinverse"


def _poisson_mm_one_point_ac():
    drug, ctrl = _poisson_mm()
    return ac_optimal(drug, ctrl), drug, ctrl, CriterionSpec("ac"), "null-adjusted"


def _poisson_mm_e():
    drug, ctrl = _poisson_mm()
    return solve_d_optimal(drug, ctrl), drug, ctrl, CriterionSpec("phi_p", -np.inf), "pseudoinverse"


@pytest.mark.parametrize("case", [_gouty_normal_d, _migraine_binomial_d,
                                  _poisson_mm_one_point_ac, _poisson_mm_e])
def test_grid_values_match_joint_information_trace(monkeypatch, case):
    design, drug, ctrl, spec, strategy = case()
    rep, W, thr = _verify_with_witness(monkeypatch, design, drug, ctrl, spec)
    assert rep.ginv_strategy == strategy
    s1 = drug.n_params

    def joint_trace(block, fisher):
        info = np.zeros_like(W)
        info[block, block] = fisher
        return np.trace(info @ W)

    expected = [joint_trace(slice(0, s1), drug.fisher(d)) for d in rep.grid_doses]
    np.testing.assert_allclose(rep.grid_values * abs(thr) + thr, expected,
                               rtol=1e-12, atol=1e-12 * abs(thr))
    control = joint_trace(slice(s1, None), ctrl.fisher())
    assert rep.control_value * abs(thr) + thr == pytest.approx(control, rel=1e-12, abs=1e-12 * abs(thr))


@pytest.mark.parametrize("case", [_gouty_normal_d, _poisson_mm_one_point_ac])
def test_verify_builds_no_fisher_matrix_per_grid_dose(monkeypatch, case):
    design, drug, ctrl, spec, _ = case()
    fisher = DrugModel.fisher
    calls = []

    def counted(self, d):
        calls.append(d)
        return fisher(self, d)

    monkeypatch.setattr(DrugModel, "fisher", counted)
    rep = verify(design, drug, ctrl, spec, grid_size=512)
    assert rep.grid_doses.size >= 512
    assert len(calls) < 50


@pytest.mark.parametrize("case", [_gouty_normal_d, _migraine_binomial_d])
def test_verify_takes_one_eigendecomposition(monkeypatch, case):
    # for the block-identity contrast B = M^+ shares M's eigenvectors, so
    # the one analysis behind the report decomposes M alone
    design, drug, ctrl, spec, _ = case()
    eigh = np.linalg.eigh
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rep = verify(design, drug, ctrl, spec)
    assert rep.verdict == "optimal"
    assert len(calls) == 1
