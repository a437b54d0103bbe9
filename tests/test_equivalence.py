import numpy as np
import pytest
from numpy.polynomial import polynomial

from acdesign import designs, equivalence, solvers
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


# -- stationary_doses against a dense-grid and golden-section oracle ------------

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden(f, a, b, tol):
    """(dose, value) of the maximum of a scalar f on [a, b] by golden-section
    search, one dose at a time, down to a bracket of tol."""
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    yc, yd = f(c), f(d)
    while b - a > tol:
        if yc > yd:
            b, d, yd = d, c, yc
            c = b - _INV_PHI * (b - a)
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * (b - a)
            yd = f(d)
    return (c, yc) if yc > yd else (d, yd)


def _oracle_peaks(f, L, R, n=2001):
    """(dose, value) of each local maximum of f on [L, R]: every local maximum
    of a dense grid, the ends included, refined by golden-section search
    between its grid neighbours; the grid dose stays unless beaten."""
    doses = np.linspace(L, R, n)
    values = f(doses)
    padded = np.concatenate([[-np.inf], values, [-np.inf]])
    peaks = []
    for i in np.flatnonzero((values >= padded[:-2]) & (values >= padded[2:])):
        a, b = doses[max(i - 1, 0)], doses[min(i + 1, n - 1)]
        d, v = _golden(lambda x: float(f(np.array([x]))[0]), a, b, 1e-12 * (R - L))
        peaks.append((d, v) if v > values[i] else (doses[i], values[i]))
    return peaks, float(np.max(np.abs(values)))


def _check_stationary_doses(drug, W):
    """The ends and the stationary doses split the range into stretches on
    which the sensitivity is monotone, so their peak is the oracle's within
    1e-12 of the sensitivity's scale, and every oracle peak has one of them
    within 1e-6 (R - L).  Returns the oracle's peaks."""
    L, R = drug.dose_range
    m = drug.n_mean_params

    def f(x):
        F = drug.regression_rows(x)
        return np.einsum("ij,jk,ik->i", F, W[:m, :m], F)

    doses = equivalence.stationary_doses(drug, W)
    oracle, scale = _oracle_peaks(f, L, R)
    assert doses[0] == L and doses[-1] == R and np.all(np.diff(doses) > 0)
    values = f(doses)
    assert float(values.max()) >= max(v for _, v in oracle) - 1e-12 * scale
    for d, v in oracle:
        near = np.abs(doses - d) <= 1e-6 * (R - L)
        assert near.any() and float(values[near].max()) >= v - 1e-12 * scale, (d, v, doses)
    dense = np.linspace(L, R, 20001)
    i = np.clip(doses.searchsorted(dense, "right"), 1, doses.size - 1)
    assert np.all(f(dense) <= np.maximum(values[i - 1], values[i]) + 1e-12 * scale)
    return oracle


def _check_peak_start(drug, W, oracle):
    """solvers._peak_start puts each of its doses on a local maximum of the
    sensitivity and keeps the whole drug weight."""
    L, R = drug.dose_range
    ctrl = ControlModel(Poisson(), 0.5)
    problem = equivalence._Criterion(drug, ctrl, KMatrix.block_identity(
        drug.n_params, ctrl.n_params), 0.0)
    k = drug.n_params
    Wfull = np.zeros((problem.size, problem.size))
    Wfull[:k, :k] = W[:k, :k]
    grid = np.linspace(L, R, 257)
    doses, wd, wc = solvers._peak_start(problem, Wfull, grid, np.full(257, 0.8 / 257), 0.2)
    peaks = np.array([d for d, _ in oracle])
    assert np.all(np.abs(doses[:, None] - peaks).min(axis=1) <= 1e-6 * (R - L)), (doses, peaks)
    assert wd.sum() == pytest.approx(0.8, rel=1e-12) and wc == pytest.approx(0.2, rel=1e-12)


def _family(name):
    return {"normal": Normal(0.0025), "negative_binomial": NegativeBinomial(10),
            "binomial": Binomial(), "poisson": Poisson()}[name]


def _random_drug(rng, family, curve, inner):
    """A random model of the family and curve on [0, R], or on [R/10, R]."""
    R = float(rng.choice([100.0, 200.0, 300.0]))
    ed50 = float(rng.uniform(0.03, 0.15)) * R
    if curve == "mm":
        mean = MichaelisMenten(float(rng.uniform(0.4, 0.85)), ed50)
    else:
        mean = Emax(float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.3, 0.6)), ed50)
    return DrugModel(_family(family), mean, (0.1 * R if inner else 0.0, R))


@pytest.mark.parametrize("inner", [False, True])
@pytest.mark.parametrize("curve", ["mm", "emax"])
@pytest.mark.parametrize("family", ["normal", "negative_binomial", "binomial", "poisson"])
def test_stationary_doses_on_random_sensitivities(family, curve, inner):
    # Michaelis-Menten on [0, R] with a count or probability family is the
    # case where A and Q share the factor u, so the slope's numerator has a
    # multiple root at 0; a rank-one W, as for a c-optimal design, gives A a
    # double root where its sensitivity touches 0
    rng = np.random.default_rng(sum(map(ord, family + curve)) + inner)
    for _ in range(3):
        drug = _random_drug(rng, family, curve, inner)
        m = drug.n_mean_params
        for rank in (m, 1):
            B = rng.normal(size=(drug.n_params, rank))
            W = B @ B.T
            _check_peak_start(drug, W, _check_stationary_doses(drug, W))


def _case_study_sensitivities():
    """(drug, W) of each case study's D optimum and of a perturbed design,
    and of a perturbed Michaelis-Menten design."""
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
            out.append((drug, criterion.analyze_design(des)[1]))
    # a Michaelis-Menten binomial D optimum with weight moved off its inner
    # dose: Q = eta (1 - eta) has degree 2, so the top coefficient of
    # A'Q - AQ' is rounding, and a huge root from it in the companion matrix
    # moves the peak's root by 1e-4 in dose
    drug = DrugModel(Binomial(), MichaelisMenten(0.6019319403388996, 14.744034994201222),
                     (0.0, 100.0))
    ctrl = ControlModel(Binomial(), 0.23774919255858115)
    design = joint_design([10.314918318014737, 100.0], [0.85 / 3, 1.15 / 3], 1 / 3)
    criterion = equivalence._Criterion(drug, ctrl, KMatrix.block_identity(2, 1), 0.0)
    out.append((drug, criterion.analyze_design(design)[1]))
    return out


@pytest.mark.parametrize("drug, W", _case_study_sensitivities())
def test_stationary_doses_on_case_study_sensitivities(drug, W):
    _check_peak_start(drug, W, _check_stationary_doses(drug, W))


def _polyroots_stationary_doses(drug, W):
    """The doses stationary_doses returned when numpy.polynomial found the
    roots: the reference its companion eigensolve must match bit for bit."""
    nodes = np.cos((np.arange(5) + 0.5) * np.pi / 5)
    power_fit = np.linalg.inv(np.vander(nodes, 5, increasing=True))
    powers = np.arange(1.0, 5.0)
    L, R = drug.dose_range
    m, ed50 = drug.n_mean_params, drug.mean.ed50
    lo, hi = L / (ed50 + L), R / (ed50 + R)
    u = lo + 0.5 * (nodes + 1.0) * (hi - lo)
    d = ed50 * u / (1.0 - u)
    g = drug.mean.gradient(d)
    a = power_fit @ np.einsum("in,ij,jn->n", g, W[:m, :m], g)
    q = power_fit @ np.broadcast_to(1.0 / drug.family.weight(drug.mean.value(d)), u.shape)
    slope = np.convolve(a[1:] * powers, q) - np.convolve(a, q[1:] * powers)
    roots = polynomial.polyroots(polynomial.polytrim(slope, 1e-13 * np.abs(slope).max()))
    u = lo + 0.5 * (roots[np.abs(roots.imag) <= 1e-2].real + 1.0) * (hi - lo)
    return np.unique(np.clip(np.concatenate([[L, R], ed50 * u / (1.0 - u)]), L, R))


def _oracle_sensitivities():
    """(drug, W): each family and curve on [0, R] and [R/10, R] with a
    full-rank, a rank-one and a zero W, then the case-study W."""
    out = []
    for family in ("normal", "negative_binomial", "binomial", "poisson"):
        for curve in ("mm", "emax"):
            for inner in (False, True):
                rng = np.random.default_rng(sum(map(ord, family + curve)) + 2 + inner)
                drug = _random_drug(rng, family, curve, inner)
                B = rng.normal(size=(drug.n_params, drug.n_params))
                for W in (B @ B.T, np.outer(B[0], B[0]), np.zeros_like(B)):
                    out.append((drug, W))
    # with a constant Q and A = (1 - u/u0)^2 in the saturation u, the slope
    # is linear, with its root at u0 = 0.1 inside the range
    drug = DrugModel(Normal(0.0025), Emax(0.26, 0.73, 10.5), (0.0, 300.0))
    v = np.array([1.0, -10.0, 0.0, 0.0])
    out.append((drug, np.outer(v, v)))
    return out + _case_study_sensitivities()


@pytest.mark.parametrize("drug, W", _oracle_sensitivities())
def test_stationary_doses_match_the_polyroots_reference(drug, W):
    doses = equivalence.stationary_doses(drug, W)
    assert np.array_equal(doses, _polyroots_stationary_doses(drug, W))
    assert doses.dtype == np.float64


@pytest.mark.parametrize("entries", ["nan", "inf", "one-nan"])
def test_a_slope_that_is_not_finite_gives_the_range_ends(entries):
    drug, _ = gouty_models("negative_binomial")
    W = {"nan": np.full((4, 4), np.nan), "inf": np.full((4, 4), np.inf), "one-nan": np.eye(4)}[entries]
    if entries == "one-nan":
        W[1, 2] = np.nan
    doses = equivalence.stationary_doses(drug, W)
    assert doses.tolist() == [0.0, 300.0]
    assert np.array_equal(doses, _polyroots_stationary_doses(drug, W))


def test_stationary_doses_take_one_companion_eigensolve(monkeypatch):
    # W first: building the negative binomial D optimum takes an eigensolve too
    drug, W = _case_study_sensitivities()[1]

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.polynomial or np.unique called")

    for name in ("polyroots", "polytrim", "polycompanion"):
        monkeypatch.setattr(polynomial, name, forbidden)
    monkeypatch.setattr(np, "unique", forbidden)
    eigvals = np.linalg.eigvals
    calls = []

    def counted(a):
        calls.append(a)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    doses = equivalence.stationary_doses(drug, W)
    assert doses.size > 2 and len(calls) == 1


def _count_peak_basis(monkeypatch):
    """The objects whose W-independent stationary-dose part gets built."""
    basis = designs._Information.__dict__["_peak_basis"]
    build, built = basis.func, []

    def counted(self):
        built.append(self)
        return build(self)

    monkeypatch.setattr(basis, "func", counted)
    return built


def test_numeric_solve_builds_the_peak_basis_once_per_criterion(monkeypatch):
    drug, ctrl = gouty_models("normal")
    built = _count_peak_basis(monkeypatch)
    res = solvers.numeric_solve(drug, ctrl, D_SPEC)
    assert res.stop_reason == "certified" and res.report.verdict == "optimal"
    # the solver's criterion and verify's
    assert 1 <= len(built) <= 2 and len(set(map(id, built))) == len(built)


def test_null_adjusted_verify_builds_the_peak_basis_once(monkeypatch):
    drug, ctrl = _poisson_mm()
    design = ac_optimal(drug, ctrl)
    built = _count_peak_basis(monkeypatch)
    rep = verify(design, drug, ctrl, CriterionSpec("ac"))
    assert rep.ginv_strategy == "null-adjusted"
    assert len(built) == 1


def test_point_sensitivity_builds_no_peak_basis(monkeypatch):
    design, drug, ctrl, *_ = _gouty_normal_d()
    built = _count_peak_basis(monkeypatch)
    sensitivity((50.0, ARM_DRUG), design, drug, ctrl, KMatrix.block_identity(4, 2), 0.0)
    assert built == []


@pytest.mark.parametrize("grid", [2, 512])
def test_a_nearly_flat_sensitivity_keeps_its_exact_peak(grid):
    # the null-adjusted witness of this one-point target-dose optimum keeps
    # the sensitivity within 1e-8 of its threshold over the whole range, and
    # its peak is a bump 9e-11 above the value at dose 0.  A slope whose
    # scale spans (ed50 + R)^8 / ed50^8, as interpolation in the dose gives,
    # rounds that bump away near dose 0
    drug = DrugModel(Normal(0.0025000000000000005),
                     Emax(0.27544991502359695, 0.5266570210011167, 31.93079029643184),
                     (0.0, 300.0))
    ctrl = ControlModel(Normal(0.0025000000000000005), 0.4893579782659378)
    design = ac_optimal(drug, ctrl)
    dense = verify(design, drug, ctrl, CriterionSpec("ac"), grid_size=30001)
    rep = verify(design, drug, ctrl, CriterionSpec("ac"), grid_size=grid)
    assert rep.ginv_strategy == "null-adjusted" and rep.verdict == "optimal"
    assert rep.max_violation >= float(dense.grid_values.max()) - 1e-15
    assert rep.argmax_dose == pytest.approx(3.25, abs=0.01)


def _found_design():
    """The 5th Emax draw of the bench's default_rng(3) models, a normal Emax
    model on [0, 200], with its D optimum's interior dose moved up by 2."""
    drug = DrugModel(Normal(0.0025000000000000005),
                     Emax(0.050372520877209045, 0.5920380824299238, 13.02529797629969),
                     (0.0, 200.0))
    ctrl = ControlModel(Normal(0.0025000000000000005), 0.300055418814892)
    opt = solve_d_optimal(drug, ctrl)
    assert opt.drug_doses[1] == pytest.approx(11.5242, abs=1e-4)
    doses = opt.drug_doses + [0.0, 2.0, 0.0]
    return joint_design(doses, opt.drug_weights, opt.control_weight), drug, ctrl


@pytest.mark.parametrize("grid", [2, 3, 5, 9, 17, 512])
def test_saturated_design_off_its_optimum_is_not_optimal_on_any_grid(grid):
    # the saturated design ties the grid's sensitivity at 0 on its support,
    # and a search of only the grid argmax's bracket takes dose 200 and
    # misses the interior peak on grids 2 to 9
    design, drug, ctrl = _found_design()
    rep = verify(design, drug, ctrl, D_SPEC, grid_size=grid)
    assert rep.verdict == "not-optimal"
    assert rep.max_violation == pytest.approx(0.014664260719651748, rel=1e-9)
    assert rep.argmax_dose == pytest.approx(10.935912, abs=1e-5)
    assert rep.grid_doses.size == np.unique(
        np.concatenate([np.linspace(0.0, 200.0, grid), design.drug_doses])).size


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
    calls = []
    original = DrugModel.regression_rows

    def counted(self, doses):
        calls.append(np.asarray(doses, float))
        return original(self, doses)

    monkeypatch.setattr(DrugModel, "regression_rows", counted)
    rep = verify(design, drug, ctrl, spec, grid_size=512)
    assert rep.verdict == "optimal"
    # the design's information, then the grid and the stationary doses
    assert len(calls) == 2
    assert calls[0].tolist() == design.drug_doses.tolist()
    criterion = equivalence._Criterion(drug, ctrl, KMatrix.block_identity(4, 2), 0.0)
    stationary = equivalence.stationary_doses(drug, criterion.analyze_design(design)[1])
    assert calls[1].tolist() == rep.grid_doses.tolist() + stationary.tolist()
