import math

import numpy as np
import pytest

from acdesign import (
    ARM_CONTROL,
    ARM_DRUG,
    Binomial,
    ControlModel,
    Design,
    DesignError,
    DrugModel,
    Emax,
    EstimabilityError,
    InducedDesign,
    KMatrix,
    MichaelisMenten,
    NegativeBinomial,
    Normal,
    Poisson,
    UnsupportedCaseError,
    ac_efficiency,
    d_efficiency,
    drug_info_matrix,
    estimable,
    phi_p,
    phi_p_from_info,
    phi_p_reduced,
    pseudo_inverse,
    psi_ac,
    response_gradient,
    rho_p,
    solve_d_optimal,
    target_dose,
)
from acdesign.reproduce import gouty_models, migraine_models

GOUTY = Emax(0.26, 0.73, 10.5)


def psi_ac_scalar_form(design: Design, drug: DrugModel, control: ControlModel) -> float:
    """Alternative representation of psi for a scalar control parameter.

    Written in terms of the mean-curve gradient at the target dose rather
    than the implicit target-dose gradients; agreement with psi_ac checks
    the implicit-function differentiation.
    """
    if control.n_params != 1:
        raise UnsupportedCaseError("scalar-form psi needs a one-parameter control")
    dstar = target_dose(drug, control)
    etap = drug.family.response_slope(drug.mean.value(dstar)) * drug.mean.derivative(dstar)
    kprime = control.response_derivative()
    ddstar_dtheta2 = kprime / etap
    ctil = response_gradient(drug, dstar)
    c_full = np.zeros(drug.n_params)
    c_full[: drug.n_mean_params] = ctil
    wc = design.control_weight
    M1 = drug_info_matrix(design.induced(), drug)
    if not estimable(c_full.reshape(-1, 1), M1):
        raise EstimabilityError("target-dose gradient not estimable on the drug arm")
    quad = float(c_full @ pseudo_inverse(M1) @ c_full)
    i2_inv = float(pseudo_inverse(control.fisher())[0, 0])
    return (ddstar_dtheta2**2 / kprime**2) * (
        quad / (1.0 - wc) + kprime**2 * i2_inv / wc
    )


def joint_design(doses, wd, wc):
    pts = tuple((float(d), ARM_DRUG) for d in doses) + ((0.0, ARM_CONTROL),)
    return Design(pts, tuple(list(wd) + [wc]))


# ---------------------------------------------------------------------------
# phi_p on explicit matrices
# ---------------------------------------------------------------------------

def test_phi_p_identity_contrast():
    M = np.eye(2)
    K = np.eye(2)
    for p in (0.0, -0.5, -1.0, -3.0, -math.inf):
        assert phi_p_from_info(M, K, p) == pytest.approx(1.0)


def test_phi_p_diag_examples():
    # K^T M^- K = diag(1, 4) realized with M = diag(1, 1/4), K = I
    M = np.diag([1.0, 0.25])
    K = np.eye(2)
    assert phi_p_from_info(M, K, 0.0) == pytest.approx(0.5)
    assert phi_p_from_info(M, K, -1.0) == pytest.approx(0.4)
    assert phi_p_from_info(M, K, -math.inf) == pytest.approx(0.25)
    # numeric cross-check of the p = -1 value from the generic formula
    assert phi_p_from_info(M, K, -1.0 + 1e-12) == pytest.approx(0.4, rel=1e-9)


def test_phi_p_limits_match():
    rng = np.random.default_rng(1)
    t = 3
    for _ in range(8):
        B = rng.normal(size=(t, t))
        M = B @ B.T + 0.1 * np.eye(t)
        M /= np.trace(M) / t  # normalized scale
        K = np.eye(t)
        p0 = phi_p_from_info(M, K, 0.0)
        for eps in (1e-6, -1e-6):
            assert abs(phi_p_from_info(M, K, eps) - p0) <= 1e-4
        # at p = -50 the criterion equals the minimum eigenvalue up to the
        # dimension factor t^(1/50), which is removed before comparing
        pinf = phi_p_from_info(M, K, -math.inf)
        corrected = phi_p_from_info(M, K, -50.0) * t ** (-1.0 / 50.0)
        assert abs(corrected - pinf) <= 1e-3


def test_phi_p_homogeneity():
    rng = np.random.default_rng(2)
    B = rng.normal(size=(4, 4))
    M = B @ B.T + 0.2 * np.eye(4)
    K = rng.normal(size=(4, 2))
    for p in (0.0, -1.0, -2.5, -math.inf):
        base = phi_p_from_info(M, K, p)
        for lam in (0.3, 2.0, 7.5):
            assert phi_p_from_info(lam * M, K, p) == pytest.approx(lam * base, rel=1e-10)


def test_phi_p_estimability_error():
    M = np.diag([1.0, 0.0])
    K = np.array([[0.0], [1.0]])
    with pytest.raises(EstimabilityError):
        phi_p_from_info(M, K, 0.0)


def test_phi_p_reduced_maximized_by_d_optimal_mm():
    drug = DrugModel(Normal(0.0025), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    k11 = np.eye(3)
    star = InducedDesign((100.0 / 54.0, 50.0), (0.5, 0.5))
    best = phi_p_reduced(star, drug, k11, 0.0)
    rng = np.random.default_rng(3)
    for _ in range(25):
        doses = np.sort(rng.uniform(0.0, 50.0, size=2))
        if doses[1] - doses[0] < 1e-3:
            continue
        w = rng.uniform(0.2, 0.8)
        other = phi_p_reduced(InducedDesign(tuple(doses), (w, 1 - w)), drug, k11, 0.0)
        assert other <= best * (1 + 1e-9)


def test_phi_p_reduced_unsupported_direction():
    drug = DrugModel(Binomial(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    one = InducedDesign((5.0,), (1.0,))
    f = drug.regression_vector(5.0)
    perp = np.array([-f[1], f[0]]).reshape(-1, 1)
    with pytest.raises(EstimabilityError):
        phi_p_reduced(one, drug, perp, -1.0)


# ---------------------------------------------------------------------------
# rho_p
# ---------------------------------------------------------------------------

def test_rho_p_dimension_ratio_at_zero():
    drug = DrugModel(Normal(0.0025), GOUTY, (0.0, 300.0))
    ctrl = ControlModel(Normal(0.0025), 0.9206)
    ind = InducedDesign((0.0, 9.813, 300.0), (1/3, 1/3, 1/3))
    K = KMatrix.block_identity(4, 2)
    assert rho_p(ind, drug, ctrl, K, 0.0) == pytest.approx(2.0)
    # p -> 0 limit of the generic expression
    for p in (1e-6, -1e-6):
        assert abs(rho_p(ind, drug, ctrl, K, p) - 2.0) <= 1e-4


def test_rho_p_poisson_allocation_formula():
    # one-point c-optimal design: rho_{-1} odds give drug share
    # sqrt(delta)/(sqrt(delta)+sqrt(mu)) with delta the rate at the target
    drug = DrugModel(Poisson(), MichaelisMenten(2.5, 1.5), (0.02, 10.0))
    mu = 1.25
    ctrl = ControlModel(Poisson(), mu)
    dstar = 1.5 * mu / (2.5 - mu)
    g1 = drug.mean.gradient(dstar)
    g2 = np.array([[1.0]])
    K = KMatrix.stacked(g1.reshape(-1, 1), g2)
    ind = InducedDesign((dstar,), (1.0,))
    rho = rho_p(ind, drug, ctrl, K, -1.0)
    delta = drug.mean.value(dstar)
    share = rho / (1 + rho)
    assert share == pytest.approx(
        math.sqrt(delta) / (math.sqrt(delta) + math.sqrt(mu)), rel=1e-10
    )


@pytest.mark.parametrize("models,family", [
    (gouty_models, "normal"), (gouty_models, "negative_binomial"),
    (migraine_models, "normal"), (migraine_models, "binomial"),
], ids=["gouty-normal", "gouty-negbin", "migraine-normal", "migraine-binomial"])
def test_rho_p_e_limit_is_the_ratio_of_largest_variances(models, family):
    # the p -> -inf limit of rho_p on the D-optimal induced design, against
    # the largest eigenvalue of each block's pseudo-inverse information
    drug, ctrl = models(family)
    ind = solve_d_optimal(drug, ctrl).induced()
    M1 = sum(w * drug.fisher(d) for d, w in zip(ind.doses, ind.weights))
    oracle = (np.linalg.eigvalsh(np.linalg.pinv(M1))[-1]
              / np.linalg.eigvalsh(np.linalg.pinv(ctrl.fisher()))[-1])
    K = KMatrix.block_identity(drug.n_params, ctrl.n_params)
    assert rho_p(ind, drug, ctrl, K, -math.inf) == pytest.approx(oracle, rel=1e-9)


# ---------------------------------------------------------------------------
# the AC criterion
# ---------------------------------------------------------------------------

def _binom_setup():
    drug = DrugModel(Binomial(), Emax(0.098, 0.2052, 12.3), (0.0, 200.0))
    ctrl = ControlModel(Binomial(), 0.2505)
    return drug, ctrl


def test_psi_scalar_form_identity():
    rng = np.random.default_rng(4)
    cases = []
    cases.append(_binom_setup())
    cases.append((
        DrugModel(NegativeBinomial(10), GOUTY, (0.0, 300.0)),
        ControlModel(NegativeBinomial(10), 0.9206),
    ))
    cases.append((
        DrugModel(Poisson(), MichaelisMenten(2.5, 1.5), (0.02, 10.0)),
        ControlModel(Poisson(), 1.1),
    ))
    checked = 0
    for drug, ctrl in cases:
        L, R = drug.dose_range
        while checked < 7 * (cases.index((drug, ctrl)) + 1):
            doses = np.sort(rng.uniform(L, R, size=3))
            if np.min(np.diff(doses)) < 0.05 * (R - L):
                continue
            w = rng.dirichlet(np.ones(3)) * 0.7
            wc = 1.0 - w.sum()
            des = joint_design(doses, w, wc)
            a = psi_ac(des, drug, ctrl)
            b = psi_ac_scalar_form(des, drug, ctrl)
            assert a == pytest.approx(b, rel=1e-10)
            checked += 1
    assert checked >= 21


def test_psi_blows_up_as_control_weight_grows():
    drug, ctrl = _binom_setup()
    vals = [
        psi_ac(joint_design((5.0, 100.0, 200.0), [(1 - wc) / 3] * 3, wc), drug, ctrl)
        for wc in (0.5, 0.9, 0.99)
    ]
    # heavier and heavier control starves the drug arm
    assert vals[2] > vals[1] > vals[0]


def test_psi_estimability_error_names_arm():
    drug, ctrl = _binom_setup()
    two = joint_design((0.0, 200.0), (0.2, 0.3), 0.5)
    with pytest.raises(EstimabilityError, match="drug arm"):
        psi_ac(two, drug, ctrl)


def test_psi_argmin_matches_phi_minus1_argmax():
    from acdesign import ac_contrast

    drug, ctrl = _binom_setup()
    K = ac_contrast(drug, ctrl)
    candidates = []
    for doses in [(10.0, 50.0, 200.0), (5.0, 35.0, 150.0), (20.0, 100.0, 180.0)]:
        for wc in (0.3, 0.5, 0.7):
            candidates.append(joint_design(doses, [(1 - wc) / 3] * 3, wc))
    psis = [psi_ac(des, drug, ctrl) for des in candidates]
    phis = [phi_p(des, drug, ctrl, K, -1.0) for des in candidates]
    assert int(np.argmin(psis)) == int(np.argmax(phis))
    for a, b in zip(psis, phis):
        assert a * b == pytest.approx(1.0, rel=1e-9)


def test_phi_p_increases_with_reduced_criterion():
    # with a block contrast and fixed control weight, the joint criterion is
    # a monotone function of the drug-only criterion
    drug = DrugModel(Normal(0.0025), GOUTY, (0.0, 300.0))
    ctrl = ControlModel(Normal(0.0025), 0.9206)
    K = KMatrix.block_identity(4, 2)
    k11 = np.eye(4)
    rng = np.random.default_rng(9)
    designs = []
    for _ in range(12):
        doses = np.sort(rng.uniform(0.0, 300.0, size=3))
        if np.min(np.diff(doses)) < 15.0:
            continue
        w = rng.dirichlet(np.ones(3))
        designs.append(InducedDesign(tuple(doses), tuple(w)))
    wc = 0.4
    pairs = []
    for ind in designs:
        reduced = phi_p_reduced(ind, drug, k11, -1.0)
        joint = phi_p(ind.as_design(wc), drug, ctrl, K, -1.0)
        pairs.append((reduced, joint))
    pairs.sort()
    joint_sorted = [j for _, j in pairs]
    assert all(b >= a - 1e-12 for a, b in zip(joint_sorted, joint_sorted[1:]))


# ---------------------------------------------------------------------------
# efficiencies
# ---------------------------------------------------------------------------

def test_efficiency_of_optimum_is_one():
    from acdesign import ac_optimal, solve_d_optimal

    drug = DrugModel(NegativeBinomial(10), GOUTY, (0.0, 300.0))
    ctrl = ControlModel(NegativeBinomial(10), 0.9206)
    dopt = solve_d_optimal(drug, ctrl)
    assert d_efficiency(dopt, dopt, drug, ctrl) == pytest.approx(1.0)
    aopt = ac_optimal(drug, ctrl)
    assert ac_efficiency(aopt, aopt, drug, ctrl) == pytest.approx(1.0)


def test_efficiency_above_one_raises():
    from acdesign import solve_d_optimal

    drug = DrugModel(NegativeBinomial(10), GOUTY, (0.0, 300.0))
    ctrl = ControlModel(NegativeBinomial(10), 0.9206)
    dopt = solve_d_optimal(drug, ctrl)
    bad_reference = joint_design((10.0, 100.0, 250.0), (0.2, 0.2, 0.2), 0.4)
    with pytest.raises(DesignError):
        d_efficiency(dopt, bad_reference, drug, ctrl)


def test_d_efficiency_takes_one_eigendecomposition_per_design(monkeypatch):
    # for the block-identity contrast B = M^+ shares M's eigenvectors, so
    # each phi_p value decomposes M alone
    drug, ctrl = gouty_models("normal")
    opt = solve_d_optimal(drug, ctrl)
    eigh = np.linalg.eigh
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert d_efficiency(opt, opt, drug, ctrl) == 1.0
    assert len(calls) == 2


def test_block_identity_is_built_once_and_read_only():
    K = KMatrix.block_identity(4, 2)
    assert KMatrix.block_identity(4, 2) is K
    assert K.is_block and np.array_equal(K.matrix, np.eye(6))
    for a in (K.matrix, K.k11, K.k22):
        with pytest.raises(ValueError):
            a[0, 0] = 2.0
    assert KMatrix.block_identity(3, 2).matrix.shape == (5, 5)


@pytest.mark.parametrize("K", [
    np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]),
    np.zeros((3, 1)),
    np.eye(3)[:, [0, 0]],
])
def test_rank_deficient_contrast_raises(K):
    with pytest.raises(DesignError):
        KMatrix(K)
    with pytest.raises(DesignError):
        KMatrix.block(K, np.eye(2))


def test_non_finite_contrast_raises():
    for bad in (np.nan, np.inf):
        with pytest.raises(DesignError, match="finite"):
            KMatrix.block(np.array([[1.0, bad], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]), np.eye(2))


@pytest.mark.parametrize("K", [
    KMatrix.block(np.eye(3)[:, :1], np.eye(2)[:, :1]),  # 5 rows for 4 + 2 parameters
    KMatrix.block(np.eye(5)[:, :1], np.ones((1, 1))),  # 6 rows, 5 of them for the drug
    KMatrix(np.eye(7)[:, :2]),
], ids=["five-rows", "five-drug-rows", "seven-rows"])
def test_contrast_of_the_wrong_shape_raises(K):
    from acdesign.criteria import CriterionSpec, resolve_spec

    drug, ctrl = gouty_models("normal")
    with pytest.raises(DesignError, match="4 drug rows and 2 control rows"):
        resolve_spec(CriterionSpec("phi_p", 0.0, K), drug, ctrl)


# -- phi_p_parts against the expressions it replaced ------------------------------

def _numpy_phi_p_parts(GK, K, p, eig=None):
    """phi_p_parts as written on numpy scalars, with np.mean and one power
    per use: the reference its float version must match bit for bit."""
    if eig is None:
        B = K.T @ GK
        eig = np.linalg.eigh(0.5 * (B + B.T))
    lam, V = eig
    if p == -math.inf:
        u = GK @ V[:, -1]
        repeated = lam.size > 1 and (lam[-1] - lam[-2]) <= 1e-8 * max(lam[-1], 1.0)
        W = None if repeated else np.outer(u, u)
        return float(1.0 / lam[-1]), W, float(lam[-1]), lam, V
    ratio = lam / lam[-1]
    if p == 0.0:
        value = float(np.exp(-np.mean(np.log(lam))))
    else:
        value = float(np.mean(ratio ** (-p)) ** (1.0 / p) / lam[-1])
    W = GK @ ((V * ratio ** (-p - 1.0)) @ V.T) @ GK.T
    return value, W, float(lam[-1] * np.sum(ratio ** (-p))), lam, V


def _contrast_analyses(spread):
    """(GK, K, eig) with B's eigenvalues spread over `spread`: once with B's
    eigenpairs given, once for phi_p_parts to find."""
    rng = np.random.default_rng(int(math.log10(spread)))
    V, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    G = (V * np.geomspace(0.3, 0.3 * spread, 6)) @ V.T
    K = rng.normal(size=(6, 3))
    lam = np.geomspace(2.0, 2.0 * spread, 3)
    U, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return [(G @ K, K, (lam, U)), (G @ K, K, None)]


@pytest.mark.parametrize("spread", [1.0, 1e3, 1e6, 1e12])
@pytest.mark.parametrize("p", [0.0, 0.5, -0.5, -1.0, -50.0, -1e300, -math.inf])
def test_phi_p_parts_matches_the_numpy_scalar_expressions(p, spread):
    from acdesign.criteria import phi_p_parts

    for GK, K, eig in _contrast_analyses(spread):
        value, W, threshold, lam, V = phi_p_parts(GK, K, p, eig)
        ref = _numpy_phi_p_parts(GK, K, p, eig)
        assert type(value) is float and type(threshold) is float
        assert (value, threshold) == (ref[0], ref[2]) and value > 0 and threshold > 0
        assert (W is None and ref[1] is None) or np.array_equal(W, ref[1])
        assert np.array_equal(lam, ref[3]) and np.array_equal(V, ref[4])


def test_phi_p_parts_at_extreme_p_warns_and_raises_nothing():
    import warnings

    from acdesign.criteria import phi_p_parts

    for spread in (1.0, 1e12):
        for GK, K, eig in _contrast_analyses(spread):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value, W, threshold, *_ = phi_p_parts(GK, K, -1e308, eig)
            assert math.isfinite(value) and math.isfinite(threshold) and np.all(np.isfinite(W))
