import numpy as np
import pytest

from acdesign import equivalence, solvers
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
from acdesign.designs import joint_design
from acdesign.reproduce import gouty_models, migraine_models

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


def _one_point_ac_optima():
    cases = []
    for family in (Normal(0.25), Binomial(), Poisson()):
        drug = DrugModel(family, MichaelisMenten(0.5, 2.0), (0.0, 50.0))
        cases.append((drug, ControlModel(family, 0.3)))  # target dose 3
    cases += [gouty_models("normal"), migraine_models("normal"), migraine_models("binomial")]
    return cases


@pytest.mark.parametrize("drug, ctrl", _one_point_ac_optima())
def test_one_point_ac_optima_take_the_null_adjusted_witness(monkeypatch, drug, ctrl):
    # the Elfving design and the witness are discrete Chebyshev fits; no
    # linear-program solver runs
    def forbidden(*args, **kwargs):
        raise AssertionError("linprog called")

    monkeypatch.setattr(solvers, "linprog", forbidden)
    monkeypatch.setattr(equivalence, "linprog", forbidden)
    design = ac_optimal(drug, ctrl)
    assert len(design.drug_doses) == 1
    rep = verify(design, drug, ctrl, CriterionSpec("ac"))
    assert rep.verdict == "optimal"
    assert rep.ginv_strategy == "null-adjusted"
    # a witness whose peak falls between grid doses near the support leaves
    # a violation of the order of the squared grid step, up to 1e-5 here
    assert rep.max_violation <= 1e-6


def test_null_adjusted_witness_does_not_depend_on_the_grid():
    # the witness is fitted on its own fixed grid; fitted on a 2-dose grid it
    # used to leave 1.16e-4 at dose 9.52 on this one-point optimum
    drug = DrugModel(Poisson(), MichaelisMenten(0.6542850597838175, 22.430181152089908),
                     (0.0, 300.0))
    ctrl = ControlModel(Poisson(), 0.19253747867109927)
    design = ac_optimal(drug, ctrl)
    assert len(design.drug_doses) == 1
    for grid in (2, 3, 5, 512):
        rep = verify(design, drug, ctrl, CriterionSpec("ac"), grid_size=grid)
        assert (rep.verdict, rep.ginv_strategy) == ("optimal", "null-adjusted"), grid


def _normal_mm():
    drug = DrugModel(Normal(1.0), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    return drug, ControlModel(Normal(1.0), 0.25)


def test_singular_information_with_a_many_column_contrast_is_inconclusive():
    # one drug dose cannot tell the two mean parameters apart, yet K asks
    # only for their combination on the gradient ray there; a generalized
    # inverse other than the pseudo inverse could witness optimality, and
    # verify searches them only for one-column contrasts
    drug, ctrl = _normal_mm()
    k11 = np.append(drug.mean.gradient(0.5), 0.0).reshape(-1, 1)
    K = KMatrix.block(k11, np.array([[1.0], [0.0]]))
    design = Design(((0.5, ARM_DRUG), (0.0, ARM_CONTROL)), (0.5, 0.5))
    rep = verify(design, drug, ctrl, CriterionSpec("phi_p", 0.0, K))
    assert rep.verdict == "inconclusive"
    assert rep.ginv_strategy == "pseudoinverse"
    assert rep.max_violation == pytest.approx(20.45, abs=0.01)


def test_support_residual_above_tol_is_inconclusive():
    # a negligible weight at a dose off the optimum's support leaves the
    # violation within tol, but its sensitivity there is far from zero
    drug, ctrl = _normal_mm()
    optimum = solve_d_optimal(drug, ctrl)
    weights = np.append(optimum.weights, 1e-9)
    design = Design(optimum.points + ((25.0, ARM_DRUG),), tuple(weights / weights.sum()))
    rep = verify(design, drug, ctrl, D_SPEC)
    assert rep.verdict == "inconclusive"
    assert rep.max_violation <= rep.tol
    assert rep.max_violation == pytest.approx(1.0e-9, rel=1e-3)
    assert rep.support_residuals[-1] == pytest.approx(0.123, abs=1e-3)


# -- grid_peak against a golden-section oracle ---------------------------------

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_oracle(f, doses, values, tol):
    """Golden-section search, one scalar dose at a time, between the
    neighbours of the grid argmax; the grid point wins only when strictly
    higher.  f maps an array of doses to their values."""
    i = int(np.argmax(values))
    a, b = float(doses[max(i - 1, 0)]), float(doses[min(i + 1, doses.size - 1)])

    def g(x):
        return float(f(np.array([x]))[0])

    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    yc, yd = g(c), g(d)
    while b - a > tol:
        if yc > yd:
            b, d, yd = d, c, yc
            c = b - _INV_PHI * (b - a)
            yc = g(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * (b - a)
            yd = g(d)
    x, v = (c, yc) if yc > yd else (d, yd)
    if values[i] > v:
        return float(doses[i]), float(values[i])
    return x, v


def _counted(f):
    calls = []

    def wrapped(x):
        x = np.asarray(x, float)
        calls.append(x.size)
        return f(x)

    return wrapped, calls


def _check_against_oracle(f, doses, tol, peak=None):
    """grid_peak calls f at most once per pass and is no lower than the
    oracle, which is meaningful once tol leaves value errors below 1e-12;
    given the true peak, it is within tol of it."""
    values = f(doses)
    counted, calls = _counted(f)
    d, v = equivalence.grid_peak(counted, doses, values, tol)
    _, v_ref = _golden_oracle(f, doses, values, tol)
    scale = max(1.0, float(np.max(np.abs(values))))
    assert len(calls) <= equivalence._PASSES
    assert doses[0] <= d <= doses[-1]
    assert v == pytest.approx(float(f(np.array([d]))[0]), rel=0.0, abs=1e-12 * scale)
    if tol <= 1e-8 * (doses[-1] - doses[0]):
        assert v >= v_ref - 1e-12 * scale
    if peak is not None:
        assert abs(d - peak) <= tol
    return d, v, calls


_SMOOTH = [
    (lambda x: -(x - 0.3137) ** 2, 0.3137),
    (lambda x: np.exp(-((x - 0.71) / 0.05) ** 2), 0.71),
    (lambda x: 2.5 * x * np.exp(-4.0 * x), 0.25),
    (lambda x: np.cos(3.0 * (x - 0.52)), 0.52),
    (lambda x: x**3 * (1.0 - x), 0.75),
    (lambda x: 1.0 / (1.0 + ((x - 0.123456) / 0.1) ** 2), 0.123456),
]


@pytest.mark.parametrize("f, peak", _SMOOTH)
@pytest.mark.parametrize("grid", [9, 64, 512])
def test_grid_peak_matches_golden_oracle_on_smooth_functions(f, peak, grid):
    doses = np.unique(np.concatenate([np.linspace(0.0, 1.0, grid), [0.05, 0.4]]))
    # the argmax is checked where tol is wider than the span over which f
    # is flat to rounding, the value at the tolerance verify uses
    for tol in (1e-3, 1e-6):
        _check_against_oracle(f, doses, tol, peak)
    _check_against_oracle(f, doses, 1e-8)


def test_grid_peak_at_the_ends_and_on_two_point_grids():
    doses = np.linspace(2.0, 7.0, 40)
    d, v, calls = _check_against_oracle(lambda x: -x, doses, 1e-8, peak=2.0)
    assert (d, v) == (2.0, -2.0) and calls
    d, v, _ = _check_against_oracle(lambda x: np.log(x), doses, 1e-8, peak=7.0)
    assert (d, v) == (7.0, float(np.log(7.0)))
    two = np.array([0.0, 1.0])
    _check_against_oracle(lambda x: -(x - 0.6) ** 2, two, 1e-9, peak=0.6)
    d, _, _ = _check_against_oracle(lambda x: x, two, 1e-9, peak=1.0)
    assert d == 1.0


def test_grid_peak_keeps_the_grid_point_of_a_narrow_bracket():
    doses = np.array([0.0, 0.5, 0.5 + 1e-10, 0.5 + 2e-10, 1.0])
    f = lambda x: -(x - 0.5 - 1.3e-10) ** 2  # noqa: E731
    d, v, calls = _check_against_oracle(f, doses, 1e-9, peak=0.5 + 1.3e-10)
    assert d == doses[2] and calls == []


def test_grid_peak_keeps_a_grid_point_no_sample_beats():
    doses = np.linspace(0.0, 1.0, 11)
    f = lambda x: -np.abs(x - doses[4])  # noqa: E731
    d, v, calls = _check_against_oracle(f, doses, 1e-8, peak=doses[4])
    assert (d, v) == (doses[4], 0.0) and len(calls) == equivalence._PASSES
    # a tie with a sampled dose keeps the grid point as well
    d, v, _ = _check_against_oracle(lambda x: np.zeros_like(x), doses, 1e-8)
    assert (d, v) == (0.0, 0.0)


def _case_study_sensitivities():
    """(drug, f, perturbed design) with f the batched normalized sensitivity."""
    out = []
    for drug, ctrl in (gouty_models("normal"), gouty_models("negative_binomial"),
                       migraine_models("binomial"), migraine_models("normal")):
        opt = solve_d_optimal(drug, ctrl)
        wd = opt.drug_weights
        # moving weight off the middle dose opens an interior violation
        moved = joint_design(opt.drug_doses, wd * [1.3, 0.4, 1.3], opt.control_weight)
        for des in (opt, moved):
            criterion = equivalence._Criterion(drug, ctrl, KMatrix.block_identity(
                drug.n_params, ctrl.n_params), 0.0)
            _, W, thr, *_ = criterion.analyze_design(des)

            def f(x, criterion=criterion, W=W, thr=thr):
                return (criterion.rows(W, criterion.drug.regression_rows(x)) - thr) / abs(thr)

            out.append((drug, f))
    return out


@pytest.mark.parametrize("drug, f", _case_study_sensitivities())
def test_grid_peak_matches_golden_oracle_on_case_study_sensitivities(drug, f):
    L, R = drug.dose_range
    doses = np.linspace(L, R, 512)
    tol = 1e-8 * (R - L)
    # the true peak to a thousandth of tol, by the oracle on a finer bracket
    peak, _ = _golden_oracle(f, doses, f(doses), 1e-3 * tol)
    d, _, _ = _check_against_oracle(f, doses, tol)
    # the sensitivity is flat to rounding within sqrt(eps) of a support dose
    assert abs(d - peak) <= tol + 1e-7 * (R - L)


# -- support residuals and the batched evaluation --------------------------------

def _residual_designs():
    drug, ctrl = gouty_models("normal")
    L, R = drug.dose_range
    opt = solve_d_optimal(drug, ctrl)
    control_first = Design(
        ((0.0, ARM_CONTROL), (L, ARM_DRUG), (40.0, ARM_DRUG), (R, ARM_DRUG)),
        (0.3, 0.2, 0.25, 0.25),
    )
    mdrug, mctrl = migraine_models("binomial")
    mopt = solve_d_optimal(mdrug, mctrl)
    return [(opt, drug, ctrl), (control_first, drug, ctrl), (mopt, mdrug, mctrl),
            (joint_design(mopt.drug_doses, [0.2, 0.15, 0.25], 0.4), mdrug, mctrl),
            (solve_d_optimal(*_poisson_mm()),) + _poisson_mm()]


@pytest.mark.parametrize("design, drug, ctrl", _residual_designs())
def test_support_residuals_match_point_sensitivity(design, drug, ctrl):
    rep = verify(design, drug, ctrl, D_SPEC)
    assert rep.ginv_strategy == "pseudoinverse"
    assert rep.support_points == list(design.points)
    K = KMatrix.block_identity(drug.n_params, ctrl.n_params)
    for point, resid in zip(rep.support_points, rep.support_residuals):
        assert isinstance(resid, float)
        assert resid == pytest.approx(abs(sensitivity(point, design, drug, ctrl, K, 0.0)),
                                      rel=0.0, abs=1e-12)


def test_verify_evaluates_the_drug_arm_in_batches(monkeypatch):
    design, drug, ctrl, spec, _ = _gouty_normal_d()
    counts = {"regression_rows": 0, "regression_vector": 0}
    for name in counts:
        original = getattr(DrugModel, name)

        def counted(self, *args, name=name, original=original):
            counts[name] += 1
            return original(self, *args)

        monkeypatch.setattr(DrugModel, name, counted)
    rep = verify(design, drug, ctrl, spec, grid_size=512)
    assert rep.verdict == "optimal"
    # the design's information, the grid and one call per grid_peak pass
    assert counts["regression_rows"] <= 2 + equivalence._PASSES
    assert counts["regression_vector"] == 0
