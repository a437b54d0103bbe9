import functools
import logging
import math

import numpy as np
import pytest

from acdesign import (
    ARM_CONTROL,
    ARM_DRUG,
    Binomial,
    ControlModel,
    CriterionSpec,
    Design,
    DrugModel,
    Emax,
    EstimabilityError,
    InducedDesign,
    KMatrix,
    MichaelisMenten,
    NegativeBinomial,
    NoTargetDoseError,
    Normal,
    Poisson,
    UnsupportedCaseError,
    ac_optimal,
    c_opt_elfving_2d,
    c_opt_numeric,
    compose_active_control,
    d_opt_emax,
    d_opt_mm,
    numeric_solve,
    phi_p,
    psi_ac,
    response_gradient,
    solve_d_optimal,
    target_dose,
    verify,
)
from acdesign.designs import _Information, drug_info_matrix
from acdesign.models import target_dose_grad
from acdesign.reproduce import gouty_models, migraine_models
from acdesign.solvers import SolveOptions

GOUTY = Emax(0.26, 0.73, 10.5)
MIGRAINE = Emax(0.098, 0.2052, 12.3)


def _grid_two_point_d_oracle(drug, n=4000):
    """Brute-force interior dose of the two-point {d, R} equal-weight D design."""
    L, R = drug.dose_range
    best_d, best_det = None, -np.inf
    for d in np.linspace(L + 1e-6 * (R - L), R * 0.9, n):
        M = 0.5 * drug.fisher(d) + 0.5 * drug.fisher(R)
        det = np.linalg.det(M)
        if det > best_det:
            best_d, best_det = d, det
    return best_d


def _grid_three_point_d_oracle(drug, n=4000):
    """Brute-force interior dose of the {L, d, R} equal-weight D design."""
    L, R = drug.dose_range
    best_d, best_det = None, -np.inf
    for d in np.linspace(L + 1e-3, R * 0.5, n):
        M = (drug.fisher(L) + drug.fisher(d) + drug.fisher(R)) / 3.0
        det = np.linalg.det(M)
        if det > best_det:
            best_d, best_det = d, det
    return best_d


# ---------------------------------------------------------------------------
# closed-form D-optimal designs
# ---------------------------------------------------------------------------

def test_d_opt_mm_poisson():
    drug = DrugModel(Poisson(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    ctrl = ControlModel(Poisson(), 0.4)
    des = d_opt_mm(drug, ctrl)
    assert des.drug_doses == pytest.approx([100.0 / 106.0, 50.0], rel=1e-12)
    assert des.drug_weights == pytest.approx([1 / 3, 1 / 3])
    assert des.control_weight == pytest.approx(1 / 3)
    assert des.drug_doses[0] == pytest.approx(_grid_two_point_d_oracle(drug), abs=0.01)


def test_d_opt_mm_binomial():
    drug = DrugModel(Binomial(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    ctrl = ControlModel(Binomial(), 0.4)
    des = d_opt_mm(drug, ctrl)
    assert des.drug_doses[0] == pytest.approx(1.149, abs=0.001)
    assert des.drug_doses[0] == pytest.approx(_grid_two_point_d_oracle(drug), abs=0.01)


def test_d_opt_mm_normal():
    drug = DrugModel(Normal(0.04), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    ctrl = ControlModel(Normal(0.04), 0.25)
    des = d_opt_mm(drug, ctrl)
    assert des.drug_doses[0] == pytest.approx(100.0 / 54.0, rel=1e-12)
    assert des.drug_weights == pytest.approx([0.3, 0.3])
    assert des.control_weight == pytest.approx(0.4)


def test_d_opt_mm_negbin_endpoints():
    drug = DrugModel(NegativeBinomial(10), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    ctrl = ControlModel(NegativeBinomial(10), 0.4)
    des = d_opt_mm(drug, ctrl)
    assert des.drug_doses == pytest.approx([0.0, 50.0])
    assert des.drug_weights == pytest.approx([1 / 3, 1 / 3])


def test_d_opt_mm_left_boundary_collapse():
    # when L exceeds the interior closed form, the design collapses onto L
    drug = DrugModel(Poisson(), MichaelisMenten(0.5, 2.0), (5.0, 50.0))
    ctrl = ControlModel(Poisson(), 0.4)
    des = d_opt_mm(drug, ctrl)
    assert des.drug_doses == pytest.approx([5.0, 50.0])
    rep = verify(des, drug, ctrl, CriterionSpec("phi_p", 0.0))
    assert rep.verdict == "optimal"


def test_d_opt_mm_requires_mm():
    drug = DrugModel(Poisson(), GOUTY, (0.0, 300.0))
    ctrl = ControlModel(Poisson(), 0.9)
    with pytest.raises(UnsupportedCaseError):
        d_opt_mm(drug, ctrl)


_FAMILIES = {
    "normal": Normal(0.0025),
    "negbin": NegativeBinomial(10),
    "binomial": Binomial(),
    "poisson": Poisson(),
}
# (mean curve, dose range, control mu); the matched-family AC violation of
# each sits well below the 1e-5 tolerance (MM: at most 6.5e-7)
_PAIR_MODELS = {
    "emax": (GOUTY, (0.0, 300.0), 0.9206),
    "mm": (MichaelisMenten(0.6, 5.0), (0.0, 100.0), 0.45),
}


@pytest.mark.parametrize("curve", sorted(_PAIR_MODELS))
@pytest.mark.parametrize("control_family", sorted(_FAMILIES))
@pytest.mark.parametrize("drug_family", sorted(_FAMILIES))
def test_closed_forms_certify_every_family_pair(curve, drug_family, control_family):
    # the information matrix is block diagonal, so the closed forms need no
    # family in common between the arms
    mean, dose_range, mu = _PAIR_MODELS[curve]
    drug = DrugModel(_FAMILIES[drug_family], mean, dose_range)
    ctrl = ControlModel(_FAMILIES[control_family], mu)
    d_design = solve_d_optimal(drug, ctrl)
    assert verify(d_design, drug, ctrl, CriterionSpec("phi_p", 0.0)).verdict == "optimal"

    try:
        ac_design = ac_optimal(drug, ctrl)
    except NoTargetDoseError:
        # a count-mean control response lies outside every other drug curve,
        # and the MM count-mean drug curve misses every other control
        assert control_family == "negbin" or (drug_family == "negbin" and curve == "mm")
        return
    assert verify(ac_design, drug, ctrl, CriterionSpec("ac")).verdict == "optimal"


def test_d_opt_emax_normal_and_poisson():
    drug = DrugModel(Normal(0.0025), GOUTY, (0.0, 300.0))
    ctrl = ControlModel(Normal(0.0025), 0.9206)
    des = d_opt_emax(drug, ctrl)
    assert des.drug_doses == pytest.approx([0.0, 3150.0 / 321.0, 300.0], rel=1e-12)
    assert des.drug_weights == pytest.approx([2 / 9] * 3)
    assert des.control_weight == pytest.approx(1 / 3)

    poi = DrugModel(Poisson(), GOUTY, (0.0, 300.0))
    ctrl_p = ControlModel(Poisson(), 0.9206)
    des_p = d_opt_emax(poi, ctrl_p)
    # the closed form must satisfy the determinant stationarity condition
    d = des_p.drug_doses[1]
    e0, em, ed50 = 0.26, 0.73, 10.5
    mprime_over_m = (em + e0) / (e0 * ed50 + (em + e0) * d)
    resid = 2 / d + 2 / (d - 300.0) - 3 / (ed50 + d) - mprime_over_m
    assert abs(resid) <= 1e-9
    assert d == pytest.approx(_grid_three_point_d_oracle(poi), abs=0.05)
    assert des_p.drug_weights == pytest.approx([0.25] * 3)


def test_d_opt_emax_root_cases():
    nb = DrugModel(NegativeBinomial(10), GOUTY, (0.0, 300.0))
    des_nb = d_opt_emax(nb, ControlModel(NegativeBinomial(10), 0.9206))
    assert des_nb.drug_doses[1] == pytest.approx(8.1783, abs=1e-3)
    assert des_nb.drug_doses[1] == pytest.approx(_grid_three_point_d_oracle(nb), abs=0.05)

    bi = DrugModel(Binomial(), MIGRAINE, (0.0, 200.0))
    des_bi = d_opt_emax(bi, ControlModel(Binomial(), 0.2505))
    assert des_bi.drug_doses[1] == pytest.approx(9.0522, abs=1e-3)
    assert des_bi.drug_doses[1] == pytest.approx(_grid_three_point_d_oracle(bi), abs=0.05)


def test_d_opt_designs_verify():
    cases = [
        (DrugModel(Normal(0.0025), GOUTY, (0.0, 300.0)), ControlModel(Normal(0.0025), 0.9206)),
        (DrugModel(NegativeBinomial(10), GOUTY, (0.0, 300.0)), ControlModel(NegativeBinomial(10), 0.9206)),
        (DrugModel(Binomial(), MIGRAINE, (0.0, 200.0)), ControlModel(Binomial(), 0.2505)),
        (DrugModel(Poisson(), MichaelisMenten(0.5, 2.0), (0.0, 50.0)), ControlModel(Poisson(), 0.4)),
    ]
    for drug, ctrl in cases:
        des = solve_d_optimal(drug, ctrl)
        rep = verify(des, drug, ctrl, CriterionSpec("phi_p", 0.0))
        assert rep.verdict == "optimal", (drug.family, rep.max_violation)


def _bracketed_root(f, lo, hi, tol, scan=64):
    """Root of f on (lo, hi): a sign-change scan over `scan` subintervals, which
    must find exactly one, bisection to tol, then one Newton step from a
    central difference."""
    xs = np.linspace(lo, hi, scan + 1)
    vals = [f(x) for x in xs]
    changes = [i for i in range(scan) if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0]
    assert len(changes) == 1, changes
    a, b = float(xs[changes[0]]), float(xs[changes[0] + 1])
    fa = f(a)
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0:
            b = m
        else:
            a, fa = m, fm
    x = 0.5 * (a + b)
    h = max(1e-7 * (hi - lo), 1e-12)
    deriv = (f(x + h) - f(x - h)) / (2.0 * h)
    if deriv != 0.0:
        step = f(x) / deriv
        if abs(step) < (b - a) + h:
            x -= step
    return min(max(x, lo), hi)


def _stationarity_dose(drug):
    """The binomial or negative binomial Emax D-optimal interior dose as the
    root of the hand-derived stationarity equation of log det M({L, d, R})."""
    L, R = drug.dose_range
    e0, em, ed50 = drug.mean.e0, drug.mean.emax, drug.mean.ed50
    a = e0 + em - 1.0
    negbin = isinstance(drug.family, NegativeBinomial)

    def stationarity(d):
        common = 2.0 / (d - L) + 2.0 / (d - R) - a / (d * a + (e0 - 1.0) * ed50)
        if negbin:
            return common - 2.0 * (e0 + em) / (e0 * (ed50 + d) + em * d) - 1.0 / (ed50 + d)
        return common - (e0 + em) / (e0 * (ed50 + d) + em * d) - 2.0 / (ed50 + d)

    eps = 1e-9 * (R - L)
    return _bracketed_root(stationarity, L + eps, R - eps, 1e-13 * (R - L))


def _discrete_emax_draws(count=240):
    """Binomial and negative binomial Emax models: half on [0, R], half on
    [L, R] with L up to R/2 and ed50 down to 0.01, where the saturation
    d/(ed50 + d) spans as little as 6e-5 of the range."""
    rng = np.random.default_rng(29)
    for k in range(count):
        family = Binomial() if k % 2 == 0 else NegativeBinomial(int(rng.choice([1, 5, 10])))
        e0 = rng.uniform(0.02, 0.5)
        emax = rng.uniform(0.1, 0.97 - e0)
        R = rng.uniform(20.0, 400.0)
        if k % 4 < 2:
            L, ed50 = 0.0, math.exp(rng.uniform(math.log(0.5), math.log(100.0)))
        else:
            L, ed50 = R * rng.uniform(0.02, 0.5), math.exp(rng.uniform(math.log(0.01), math.log(2.0)))
        yield DrugModel(family, Emax(e0, emax, ed50), (L, R))


def test_d_opt_emax_matches_the_stationarity_root():
    drugs = [gouty_models("negative_binomial")[0], migraine_models("binomial")[0]]
    count = 0
    for drug in drugs + list(_discrete_emax_draws()):
        L, R = drug.dose_range
        inner = d_opt_emax(drug, ControlModel(drug.family, 0.5)).drug_doses[1]
        assert abs(inner - _stationarity_dose(drug)) <= 1e-13 * (R - L), drug
        count += 1
    assert count == 242


def _closed_form_draws(seed):
    """(drug, control) of each family under Michaelis-Menten and of the normal
    and Poisson families under Emax, on [0, R] and on [L, R] with L > 0."""
    rng = np.random.default_rng(seed)
    for inner in (False, True):
        for family in (Normal(0.01), NegativeBinomial(5), Binomial(), Poisson()):
            R = rng.uniform(20.0, 400.0)
            L = R * rng.uniform(0.02, 0.3) if inner else 0.0
            ed50 = math.exp(rng.uniform(math.log(0.1), math.log(1.0))) * (L if inner else R)
            e0 = rng.uniform(0.05, 0.4)
            emax = rng.uniform(0.1, 0.95 - e0)
            yield DrugModel(family, MichaelisMenten(emax, ed50), (L, R)), ControlModel(family, 0.5)
            if isinstance(family, (Normal, Poisson)):
                yield DrugModel(family, Emax(e0, emax, ed50), (L, R)), ControlModel(family, 0.5)


def _d_optimal_dose(drug):
    """The dose that maximizes |det F| of the equal-weight D design on
    {d, R} (Michaelis-Menten) or {L, d, R} (Emax), among the extrema the
    weights of models.py give."""
    L, R = drug.dose_range
    f_L, f_R = drug.regression_rows([L, R])
    info = _Information(drug)
    if isinstance(drug.mean, MichaelisMenten):
        # n.f(d) = det [f(d); f(R)]
        n = np.array([f_R[1], -f_R[0]])
        doses = info.extrema(n)
        return doses[np.argmax(np.abs(drug.regression_rows(doses) @ n))]
    # n.f(d) with n = f(L) x f(R) would round to eps / (u_R - u_L)^2 in the
    # saturation u, so the Emax candidates come from det F's own quadratic
    # (u - u_L)(u_R - u) = 1 - t^2 in the nodes' variable t
    doses = info._extrema(np.array([1.0, 0.0, -1.0]))
    dets = [np.linalg.det(np.stack([f_L, f, f_R])) for f in drug.regression_rows(doses)]
    return doses[np.argmax(np.abs(dets))]


def test_d_closed_forms_maximize_the_determinant_of_the_models_weights():
    count = 0
    for seed in range(12):
        for drug, ctrl in _closed_form_draws(seed):
            L, R = drug.dose_range
            if isinstance(drug.mean, MichaelisMenten):
                got = d_opt_mm(drug, ctrl).drug_doses[0]
            else:
                got = d_opt_emax(drug, ctrl).drug_doses[1]
            assert abs(got - _d_optimal_dose(drug)) <= 1e-13 * (R - L), drug
            count += 1
    assert count == 144


@pytest.mark.xfail(strict=True, reason="the published Poisson Emax form cancels when "
                   "the saturation range is narrow")
def test_poisson_emax_closed_form_on_a_narrow_saturation_range():
    # u = d/(ed50 + d) spans 6.3e-4 on this range.  Against the maximizer found
    # with mpmath at 40 digits, the extrema's is 7e-18 (R - L) off and the
    # closed form 7.5e-13 (R - L)
    drug = DrugModel(Poisson(), Emax(0.2, 0.5, 0.05), (60.0, 250.0))
    L, R = drug.dose_range
    got = d_opt_emax(drug, ControlModel(Poisson(), 0.5)).drug_doses[1]
    assert abs(got - _d_optimal_dose(drug)) <= 1e-13 * (R - L)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_control_weights_match_dimensions():
    # MM normal: t1=3, t2=2 -> 40% control; MM negbin: t1=2, t2=1 -> thirds;
    # Emax normal: t1=4, t2=2 -> one third control
    drug = DrugModel(Normal(0.04), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    ctrl = ControlModel(Normal(0.04), 0.25)
    ind = InducedDesign((100.0 / 54.0, 50.0), (0.5, 0.5))
    des = compose_active_control(ind, drug, ctrl, KMatrix.block_identity(3, 2), 0.0)
    assert des.control_weight == pytest.approx(0.4)
    assert des.drug_weights == pytest.approx([0.3, 0.3])

    nb = DrugModel(NegativeBinomial(10), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    ctrl_nb = ControlModel(NegativeBinomial(10), 0.4)
    des_nb = compose_active_control(
        InducedDesign((0.0, 50.0), (0.5, 0.5)), nb, ctrl_nb, KMatrix.block_identity(2, 1), 0.0
    )
    assert des_nb.control_weight == pytest.approx(1 / 3)

    emax = DrugModel(Normal(0.0025), GOUTY, (0.0, 300.0))
    ctrl_e = ControlModel(Normal(0.0025), 0.9206)
    des_e = compose_active_control(
        InducedDesign((0.0, 9.813, 300.0), (1 / 3, 1 / 3, 1 / 3)),
        emax, ctrl_e, KMatrix.block_identity(4, 2), 0.0,
    )
    assert des_e.control_weight == pytest.approx(1 / 3)
    assert des_e.drug_weights == pytest.approx([2 / 9] * 3)


def test_compose_rejects_general_contrast():
    drug = DrugModel(Binomial(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    ctrl = ControlModel(Binomial(), 0.4)
    K = KMatrix.stacked(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 1.0]]))
    with pytest.raises(UnsupportedCaseError):
        compose_active_control(InducedDesign((1.0, 50.0), (0.5, 0.5)), drug, ctrl, K, 0.0)


# ---------------------------------------------------------------------------
# Elfving machinery
# ---------------------------------------------------------------------------

def _c_for(drug, dstar):
    return response_gradient(drug, dstar)[: drug.n_mean_params]


def test_elfving_poisson_threshold_and_cases():
    drug = DrugModel(Poisson(), MichaelisMenten(2.5, 1.5), (0.02, 10.0))
    xstar = 10.0 * 1.5 / (3 * 10.0 + 4 * 1.5)
    assert xstar == pytest.approx(15.0 / 36.0)
    # below the threshold: two-point design at {x*, R}
    sol_lo = c_opt_elfving_2d(drug, _c_for(drug, 0.2))
    assert sol_lo.case_tag == "left-threshold"
    assert sol_lo.doses == pytest.approx([xstar, 10.0], rel=1e-9)
    # above: one-point design at the implied dose
    sol_hi = c_opt_elfving_2d(drug, _c_for(drug, 2.0))
    assert sol_hi.case_tag == "one-point"
    assert sol_hi.doses == pytest.approx([2.0], rel=1e-9)
    assert sol_hi.delta == pytest.approx(drug.mean.value(2.0), rel=1e-9)


def test_elfving_negbin_always_endpoints():
    drug = DrugModel(NegativeBinomial(4), MichaelisMenten(1.0, 0.5), (0.0, 10.0))
    dstar = 0.5 * 0.6 / (1.0 - 0.6)  # success probability 0.6
    sol = c_opt_elfving_2d(drug, response_gradient(drug, dstar)[:2])
    assert sol.case_tag == "two-endpoint"
    assert sol.doses == pytest.approx([0.0, 10.0])
    # weight at L frozen from the published two-point formula
    assert sol.weights[0] == pytest.approx(0.7290966931016116, rel=1e-9)


def test_elfving_matches_lp_oracle():
    cases = [
        DrugModel(Poisson(), MichaelisMenten(2.5, 1.5), (0.02, 10.0)),
        DrugModel(Normal(1.0), MichaelisMenten(2.0, 2.0), (0.1, 50.0)),
        DrugModel(Binomial(), MichaelisMenten(0.5, 2.0), (0.0, 50.0)),
        DrugModel(NegativeBinomial(4), MichaelisMenten(1.0, 0.5), (0.0, 10.0)),
    ]
    rng = np.random.default_rng(12)
    for drug in cases:
        L, R = drug.dose_range
        for _ in range(3):
            dstar = rng.uniform(L + 0.02 * (R - L), 0.9 * R)
            c = response_gradient(drug, dstar)[: drug.n_mean_params]
            closed = c_opt_elfving_2d(drug, c)
            lp = c_opt_numeric(drug, c)
            assert closed.delta == pytest.approx(lp.delta, rel=1e-6)
            if len(closed.doses) == len(lp.doses):
                assert np.asarray(closed.doses) == pytest.approx(
                    np.asarray(lp.doses), abs=2e-3 * (R - L)
                )


def test_elfving_identity_certificate():
    # gamma c = sum eps_i w_i f(d_i), and the variance bound is
    # delta = 1/gamma^2 = c' M1^+ c, on every branch of both routes
    drug = DrugModel(Binomial(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    steep = DrugModel(Binomial(), MichaelisMenten(0.95, 2.0), (0.0, 50.0))
    cases = [(model, _c_for(model, dstar), c_opt_elfving_2d)
             for model, dstar in ((drug, 0.5), (drug, 3.0), (drug, 20.0), (steep, 0.5),
                                  (steep, 2.0), (steep, 10.0))]
    cases.append((gouty_models("negative_binomial")[0], np.array([0.0, 0.0, 1.0]), c_opt_numeric))
    for model, c, solve in cases:
        sol = solve(model, c)
        combo = sum(
            s * w * model.regression_vector(d)
            for s, w, d in zip(sol.signs, sol.weights, sol.doses)
        )
        assert np.max(np.abs(sol.gamma * c - combo)) <= 1e-8 * (1 + np.max(np.abs(combo)))
        M1 = drug_info_matrix(sol.induced(), model)[: c.size, : c.size]
        assert sol.gamma**2 * sol.delta == pytest.approx(1.0, rel=1e-12)
        assert sol.delta == pytest.approx(float(c @ np.linalg.pinv(M1) @ c), rel=1e-8)


def test_elfving_binomial_three_cases_vs_lp():
    # a steep curve puts both tangency thresholds inside the range, so all
    # three support patterns occur; each must match the grid-LP oracle
    drug = DrugModel(Binomial(), MichaelisMenten(0.95, 2.0), (0.0, 50.0))
    s = math.sqrt(1.0 - drug.mean.value(50.0))
    x1 = 2.0 * (1 - s) / (2 * 0.95 - 1 + s)
    x2 = 2.0 * (1 + s) / (2 * 0.95 - 1 - s)
    expected = [(0.5, "left-threshold", [x1, 50.0]),
                (2.0, "one-point", [2.0]),
                (10.0, "right-threshold", [x2, 50.0]),
                (30.0, "right-threshold", [x2, 50.0])]
    for dstar, tag, doses in expected:
        c = _c_for(drug, dstar)
        closed = c_opt_elfving_2d(drug, c)
        assert closed.case_tag == tag
        assert np.asarray(closed.doses) == pytest.approx(doses, rel=1e-9)
        lp = c_opt_numeric(drug, c)
        assert closed.delta == pytest.approx(lp.delta, rel=1e-7)


def test_elfving_threshold_transition_continuous():
    # psi of the composed design must be continuous as d* crosses x*
    drug = DrugModel(Poisson(), MichaelisMenten(2.5, 1.5), (0.02, 10.0))
    xstar = 15.0 / 36.0
    lam_at = lambda d: drug.mean.value(d)
    deltas = []
    for eps in (-1e-7, 0.0, 1e-7):
        sol = c_opt_elfving_2d(drug, _c_for(drug, xstar + eps))
        deltas.append(sol.delta)
    assert deltas[0] == pytest.approx(deltas[1], rel=1e-5)
    assert deltas[2] == pytest.approx(deltas[1], rel=1e-5)


def test_elfving_rejects_non_gradient_contrast():
    from acdesign import InfeasibleGeometryError

    drug = DrugModel(Poisson(), MichaelisMenten(2.5, 1.5), (0.02, 10.0))
    with pytest.raises((UnsupportedCaseError, InfeasibleGeometryError)):
        c_opt_elfving_2d(drug, np.array([1.0, 1.0]))  # positive ed50 slot


def _published_two_point_weight(drug, x, dstar, gap):
    """Weight at the inner dose x of the two-point c-optimal design {x, R}.

    The published formula for the Michaelis-Menten curve; gap is |x - d*|.
    With f(d) = v(d) grad(d), v(d) d = f_1(d) (ed50 + d) stays finite at d = 0.
    """
    _, R = drug.dose_range
    ed50 = drug.mean.ed50
    n1 = drug.regression_vector(R)[0] * (ed50 + R) * (R - dstar) * (ed50 + x) ** 2
    n2 = drug.regression_vector(x)[0] * (ed50 + x) * gap * (ed50 + R) ** 2
    return n1 / (n1 + n2)


@pytest.mark.parametrize("drug, dstar, tag", [
    (DrugModel(Normal(1.0), MichaelisMenten(2.0, 2.0), (0.1, 50.0)), 0.5, "left-threshold"),
    (DrugModel(Poisson(), MichaelisMenten(2.5, 1.5), (0.02, 10.0)), 0.2, "left-threshold"),
    (DrugModel(Binomial(), MichaelisMenten(0.95, 2.0), (0.0, 50.0)), 0.5, "left-threshold"),
    (DrugModel(Binomial(), MichaelisMenten(0.95, 2.0), (0.0, 50.0)), 10.0, "right-threshold"),
    (DrugModel(Binomial(), MichaelisMenten(0.95, 2.0), (0.0, 50.0)), 30.0, "right-threshold"),
    (DrugModel(NegativeBinomial(4), MichaelisMenten(1.0, 0.5), (0.0, 10.0)), 0.75, "two-endpoint"),
    (DrugModel(NegativeBinomial(10), MichaelisMenten(0.6, 5.0), (0.0, 100.0)), 40.0,
     "two-endpoint"),
])
def test_two_point_elfving_weights_match_the_published_formula(drug, dstar, tag):
    # the closed forms give only the support; its weights come from the
    # least-squares Elfving finish and must equal the published formula
    sol = c_opt_elfving_2d(drug, _c_for(drug, dstar))
    assert sol.case_tag == tag and len(sol.doses) == 2
    x = sol.doses[0]
    expected = _published_two_point_weight(drug, x, dstar, abs(x - dstar))
    assert abs(sol.weights[0] - expected) <= 1e-12


def test_one_point_candidate_moves_a_dose_just_outside_the_range_onto_it():
    from acdesign import solvers

    drug = DrugModel(Poisson(), MichaelisMenten(2.5, 1.5), (0.02, 10.0))
    L, R = drug.dose_range
    for d, end in ((L - 5e-10 * (R - L), L), (R + 5e-10 * (R - L), R)):
        assert solvers._one_point_candidate(drug, drug.mean.gradient(d)) == end
    assert c_opt_elfving_2d(drug, drug.mean.gradient(R + 5e-10 * (R - L))).doses == (R,)
    with pytest.raises(UnsupportedCaseError):
        c_opt_elfving_2d(drug, drug.mean.gradient(R + 1e-6 * (R - L)))


def _rank_one_controls():
    """(induced design, drug, control, c1, c2) of the target-dose problems and of draws."""
    problems = [gouty_models("normal"), gouty_models("negative_binomial"),
                migraine_models("normal"), migraine_models("binomial")]
    problems += _emax_ac_problems()[3:] + [m for seed in (11, 12) for m in _mm_draws(seed)]
    rng = np.random.default_rng(7)
    for drug, ctrl in problems:
        g1, g2 = target_dose_grad(drug, ctrl)
        induced = ac_optimal(drug, ctrl).induced()
        yield induced, drug, ctrl, g1, g2
        # a random contrast on a spread design
        L, R = drug.dose_range
        spread = InducedDesign(tuple(np.linspace(L, R, 5)), (0.2,) * 5)
        c1 = np.zeros(drug.n_params)
        c1[: drug.n_mean_params] = rng.normal(size=drug.n_mean_params)
        yield spread, drug, ctrl, c1, rng.normal(size=ctrl.n_params)


def test_attach_c_control_is_compose_at_p_minus_one():
    # _attach_c_control is compose_active_control's rank-one p = -1 case in
    # closed form; both must give the same design
    from acdesign import solvers

    count = 0
    for induced, drug, ctrl, c1, c2 in _rank_one_controls():
        attached = solvers._attach_c_control(induced, drug, ctrl, c1, c2)
        K = KMatrix.stacked(c1.reshape(-1, 1), c2.reshape(-1, 1))
        composed = compose_active_control(induced, drug, ctrl, K, -1.0)
        assert attached.points == composed.points
        assert np.asarray(attached.weights) == pytest.approx(composed.weights, rel=2e-15)
        count += 1
    assert count >= 100
    # a contrast without a control part puts no weight on the control
    drug, ctrl = gouty_models("normal")
    induced = ac_optimal(drug, ctrl).induced()
    c1 = target_dose_grad(drug, ctrl)[0]
    design = solvers._attach_c_control(induced, drug, ctrl, c1, np.zeros(ctrl.n_params))
    assert design.control_weight == 0.0


def _highs_c_opt(drug, c):
    """c_opt_numeric with its Elfving LP solved by HiGHS: (support doses, delta)."""
    from scipy.optimize import linprog

    from acdesign import solvers

    L, R = drug.dose_range
    doses = np.linspace(L, R, solvers.LP_GRID_SIZE)
    dstar = solvers._one_point_candidate(drug, c)
    F = drug.regression_rows(doses)
    n, s = F.shape
    # maximize gamma with gamma * c = F^T (x+ - x-), sum(x+ + x-) = 1, x >= 0
    A_eq = np.zeros((s + 1, 2 * n + 1))
    A_eq[:s, :n], A_eq[:s, n:2 * n], A_eq[:s, 2 * n] = F.T, -F.T, -c
    A_eq[s, :2 * n] = 1.0
    res = linprog(np.r_[np.zeros(2 * n), -1.0], A_eq=A_eq, b_eq=np.eye(s + 1)[s], method="highs")
    assert res.status == 0
    z = res.x[:n] - res.x[n:2 * n]
    supp = np.abs(z) > 1e-10 * np.max(np.abs(z))
    support, delta = solvers._polish_support(drug, c, doses[supp])
    if dstar is not None:
        f = drug.regression_rows([dstar])[0]
        delta1 = float(c @ c) / float(f @ f)  # c^T (f f^T)^+ c for c parallel to f
        if delta1 <= delta * (1.0 + 1e-6):
            return [dstar], delta1
    return support, delta


def _elfving_cases():
    cases = []
    for drug, ctrl in (gouty_models("normal"), migraine_models("normal"),
                       migraine_models("binomial")):
        cases.append((drug, response_gradient(drug, target_dose(drug, ctrl))[:3]))
    rng = np.random.default_rng(18)
    for family in (Normal(0.01), Binomial(), Poisson(), NegativeBinomial(5)):
        e0, emax, ed50 = rng.uniform(0.1, 0.3), rng.uniform(0.3, 0.6), rng.uniform(5.0, 30.0)
        drug = DrugModel(family, Emax(e0, emax, ed50), (0.0, 100.0))
        ctrl = ControlModel(family, e0 + emax * rng.uniform(0.3, 0.7))
        cases.append((drug, response_gradient(drug, target_dose(drug, ctrl))[:3]))
        cases.append((drug, np.array([0.0, 0.0, 1.0])))  # the ED50: a three-point optimum
    return cases


@pytest.mark.parametrize("drug, c", _elfving_cases())
def test_c_opt_numeric_matches_a_highs_elfving_lp(drug, c):
    doses, delta = _highs_c_opt(drug, c)
    sol = c_opt_numeric(drug, c)
    assert np.asarray(sol.doses) == pytest.approx(np.asarray(doses), rel=1e-9, abs=1e-12)
    assert sol.delta == pytest.approx(delta, rel=1e-9)


def _reference_polish_support(drug, c, doses):
    """The golden-section support polish that Newton steps on Elfving's condition replaced.

    Three passes move each interior dose to the best variance bound within
    2 %, 0.2 % and 0.02 % of the range, to 1e-10 (R - L).
    """
    from acdesign import solvers
    from acdesign.scalar_opt import golden_max

    L, R = drug.dose_range
    doses = sorted(float(d) for d in doses)
    F = drug.regression_rows(doses)
    delta, _ = solvers._support_delta(F, c)
    if len(doses) >= c.size and np.isfinite(delta):
        span = 0.02 * (R - L)
        for _ in range(3):
            for i, d in enumerate(doses):
                if d <= L + 1e-12 * (R - L) or d >= R - 1e-12 * (R - L):
                    continue
                trial = F.copy()

                def merit(x: float) -> float:
                    trial[i] = drug.regression_vector(x)
                    dval, _ = solvers._support_delta(trial, c)
                    return -dval if np.isfinite(dval) else -1e300

                x_new, m_new = golden_max(
                    merit, max(L, d - span), min(R, d + span), 1e-10 * (R - L)
                )
                if np.isfinite(m_new) and -m_new < delta:
                    doses[i] = x_new
                    F[i] = drug.regression_vector(x_new)
                    delta = -m_new
            span *= 0.1
    snap = 1e-9 * (R - L)
    return [L if d - L <= snap else (R if R - d <= snap else d) for d in doses], delta


def _lp_support(drug, c):
    """The support of c_opt_numeric's Elfving LP, before the polish."""
    from acdesign import solvers

    L, R = drug.dose_range
    doses = np.linspace(L, R, solvers.LP_GRID_SIZE)
    z = solvers._copt_lp(drug.regression_rows(doses), c)
    return doses[np.abs(z) > 1e-10 * np.max(np.abs(z))]


_GOUTY_CONTRASTS = np.random.default_rng(7).normal(size=(20, 3))


def _polish_inputs():
    """(drug, c) of the gouty negative binomial AC problem, the Elfving cases
    and 20 random contrasts on each gouty model."""
    drug, ctrl = gouty_models("negative_binomial")
    yield drug, target_dose_grad(drug, ctrl)[0][:3]
    yield from _elfving_cases()
    for family in ("normal", "negative_binomial"):
        drug, _ = gouty_models(family)
        for c in _GOUTY_CONTRASTS:
            yield drug, c


def test_newton_polish_is_no_worse_than_the_golden_section_reference():
    from acdesign import solvers

    count = 0
    for drug, c in _polish_inputs():
        support = _lp_support(drug, c)
        doses, delta = solvers._polish_support(drug, c, support)
        reference = _reference_polish_support(drug, c, support)[1]
        assert delta <= reference * (1.0 + 1e-10), (drug, c)
        # the support is never singular, and its bound is the one returned
        F = drug.regression_rows(doses)
        assert np.linalg.matrix_rank(F) == len(doses)
        assert solvers._support_delta(F, c)[0] == pytest.approx(delta, rel=1e-12)
        count += 1
    assert count == 52


def test_two_inner_doses_that_converge_leave_one_dose():
    # the 5th contrast's LP support is {7.5, 8.25, 300}, and its optimum has
    # two points: golden-section steps end with the inner doses at 8.185058
    # and 8.185097, where the Newton steps meet the kink at which the
    # coefficient of one inner dose vanishes, and keep the other alone
    from acdesign import solvers

    c = _GOUTY_CONTRASTS[4]
    for family in ("normal", "negative_binomial"):
        drug, _ = gouty_models(family)
        support = _lp_support(drug, c)
        assert support.tolist() == [7.5, 8.25, 300.0]
        doses, delta = solvers._polish_support(drug, c, support)
        reference_doses, reference = _reference_polish_support(drug, c, support)
        assert reference_doses[0] == pytest.approx(8.185058, abs=1e-6)
        assert len(doses) == 2 and doses[1] == 300.0
        assert doses[0] == pytest.approx(reference_doses[0], abs=1e-7)
        assert delta == pytest.approx(reference, rel=1e-12)
        sol = c_opt_numeric(drug, c)
        assert sol.doses == tuple(doses) and sol.delta == pytest.approx(delta, rel=1e-12)


def test_gouty_negative_binomial_ac_support_sits_on_the_exact_extremum():
    # 21.0826213235614 minimizes the variance bound of the support {0, d, 300}
    # over d, found with mpmath at 40 digits; Newton steps on central
    # differences of u.f stop 3.7e-9 from it
    drug, ctrl = gouty_models("negative_binomial")
    doses = ac_optimal(drug, ctrl).drug_doses
    assert doses[0] == 0.0 and doses[2] == 300.0
    assert abs(doses[1] - 21.0826213235614) <= 1e-9


def _left_threshold_cases():
    """(drug, c) whose Michaelis-Menten closed form has a left tangency threshold."""
    cases = [(DrugModel(Normal(1.0), MichaelisMenten(2.0, 2.0), (0.1, 50.0)), 0.5),
             (DrugModel(Poisson(), MichaelisMenten(2.5, 1.5), (0.02, 10.0)), 0.2),
             (DrugModel(Binomial(), MichaelisMenten(0.95, 2.0), (0.0, 50.0)), 0.5)]
    for seed in range(20, 30):
        for drug, _ in _mm_draws(seed):
            cases += [(drug, share * drug.dose_range[1]) for share in (0.002, 0.01, 0.03)]
    for drug, dstar in cases:
        c = _c_for(drug, dstar)
        if c_opt_elfving_2d(drug, c).case_tag == "left-threshold":
            yield drug, c


def test_lp_route_finds_the_left_tangency_threshold():
    count = 0
    for drug, c in _left_threshold_cases():
        closed, lp = c_opt_elfving_2d(drug, c), c_opt_numeric(drug, c)
        L, R = drug.dose_range
        assert len(lp.doses) == 2 and lp.doses[1] == closed.doses[1] == R
        assert abs(lp.doses[0] - closed.doses[0]) <= 2.5e-9 * (R - L)
        assert lp.delta == pytest.approx(closed.delta, rel=1e-12)
        count += 1
    assert count == 81


def test_c_opt_numeric_rejects_a_zero_contrast():
    drug, _ = gouty_models("normal")
    with pytest.raises(EstimabilityError):
        c_opt_numeric(drug, np.zeros(3))


def _emax_ac_problems():
    """The Emax case studies with a one-point AC optimum, then 10 Emax draws per family."""
    problems = [gouty_models("normal"), migraine_models("normal"), migraine_models("binomial")]
    rng = np.random.default_rng(3)
    for _ in range(10):
        for family in _FAMILIES.values():
            R = float(rng.choice([100.0, 200.0, 300.0]))
            mean = Emax(float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.3, 0.6)),
                        float(rng.uniform(0.03, 0.15)) * R)
            mu = mean.e0 + float(rng.uniform(0.05, 0.95)) * mean.emax * R / (mean.ed50 + R)
            problems.append((DrugModel(family, mean, (0.0, R)), ControlModel(family, mu)))
    return problems


def test_one_point_certificate_returns_what_the_lp_returns(monkeypatch):
    # the certificate only skips the LP: with it declined, the LP route must
    # return the same solution to the last bit
    from acdesign import solvers

    problems = _emax_ac_problems()
    contrasts = [response_gradient(drug, target_dose(drug, ctrl))[:3] for drug, ctrl in problems]
    certified = [c_opt_numeric(drug, c) for (drug, _), c in zip(problems, contrasts)]
    monkeypatch.setattr(solvers, "_one_point_certified", lambda *args: False)
    assert certified == [c_opt_numeric(drug, c) for (drug, _), c in zip(problems, contrasts)]
    assert {sol.case_tag for sol in certified} == {"one-point"}


def test_certified_ac_optima_run_no_lp_and_verify_optimal(monkeypatch):
    from acdesign import solvers

    def fail(*args):
        raise AssertionError("the Elfving LP ran")

    monkeypatch.setattr(solvers, "minimax", fail)
    for drug, ctrl in _emax_ac_problems():
        design = ac_optimal(drug, ctrl)
        assert len(design.drug_doses) == 1
        assert verify(design, drug, ctrl, CriterionSpec("ac"), grid_size=512).verdict == "optimal"


def test_one_point_certificate_declines_range_ends_and_spread_optima(monkeypatch):
    from acdesign import solvers

    calls = []
    minimax = solvers.minimax

    def counted(*args):
        calls.append(args)
        return minimax(*args)

    monkeypatch.setattr(solvers, "minimax", counted)
    drug, ctrl = gouty_models("normal")
    L, R = drug.dose_range
    grid = np.linspace(L, R, solvers.LP_GRID_SIZE)
    h = 1e-6 * (R - L)
    for d in (L + 0.5 * h, R - 0.5 * h):
        assert not solvers._one_point_certified(drug, grid, d)
        c_opt_numeric(drug, drug.mean.gradient(d))
    assert len(calls) == 2
    # the gouty negative binomial target-dose optimum is not a one-point design
    drug, ctrl = gouty_models("negative_binomial")
    c = response_gradient(drug, target_dose(drug, ctrl))[:3]
    assert not solvers._one_point_certified(drug, grid, solvers._one_point_candidate(drug, c))
    assert len(c_opt_numeric(drug, c).doses) > 1
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# AC-optimal designs
# ---------------------------------------------------------------------------

def test_ac_optimal_poisson_share():
    drug = DrugModel(Poisson(), MichaelisMenten(2.5, 1.5), (0.02, 10.0))
    mu = 1.25
    ctrl = ControlModel(Poisson(), mu)
    des = ac_optimal(drug, ctrl)
    dstar = target_dose(drug, ctrl)
    assert des.drug_doses == pytest.approx([dstar], rel=1e-9)
    delta = drug.mean.value(dstar)
    share = math.sqrt(delta) / (math.sqrt(delta) + math.sqrt(mu))
    assert 1.0 - des.control_weight == pytest.approx(share, rel=1e-9)


def test_ac_optimal_normal_mm_equal_sigmas():
    # one-point regime with equal variances gives the 50/50 allocation
    drug = DrugModel(Normal(0.0025), MichaelisMenten(2.0, 2.0), (0.1, 50.0))
    xstar = (math.sqrt(2) * 50**2 * 2 + (math.sqrt(2) - 1) * 50 * 4) / (
        2 * 50**2 + 4 * 50 * 2 + 4
    )
    mu = drug.mean.value(2.0 * xstar)  # target dose safely above x*
    ctrl = ControlModel(Normal(0.0025), mu)
    des = ac_optimal(drug, ctrl)
    assert des.drug_doses == pytest.approx([2.0 * xstar], rel=1e-9)
    assert des.control_weight == pytest.approx(0.5, abs=1e-9)


def test_ac_optimal_is_psi_minimal_on_candidates():
    drug = DrugModel(NegativeBinomial(10), GOUTY, (0.0, 300.0))
    ctrl = ControlModel(NegativeBinomial(10), 0.9206)
    des = ac_optimal(drug, ctrl)
    best = psi_ac(des, drug, ctrl)
    rng = np.random.default_rng(21)
    for _ in range(40):
        doses = np.sort(rng.uniform(0.0, 300.0, size=3))
        if np.min(np.diff(doses)) < 5.0:
            continue
        w = rng.dirichlet(np.ones(3)) * rng.uniform(0.3, 0.7)
        wc = 1.0 - w.sum()
        cand = Design(
            tuple((float(d), ARM_DRUG) for d in doses) + ((0.0, ARM_CONTROL),),
            tuple(list(w) + [wc]),
        )
        assert psi_ac(cand, drug, ctrl) >= best * (1 - 1e-9)


def test_ac_optimal_verifies_all_benchmarks():
    cases = [
        (DrugModel(Normal(0.0025), GOUTY, (0.0, 300.0)), ControlModel(Normal(0.0025), 0.9206)),
        (DrugModel(NegativeBinomial(10), GOUTY, (0.0, 300.0)), ControlModel(NegativeBinomial(10), 0.9206)),
        (DrugModel(Normal(0.0025), MIGRAINE, (0.0, 200.0)), ControlModel(Normal(0.0025), 0.2505)),
        (DrugModel(Binomial(), MIGRAINE, (0.0, 200.0)), ControlModel(Binomial(), 0.2505)),
    ]
    for drug, ctrl in cases:
        des = ac_optimal(drug, ctrl)
        rep = verify(des, drug, ctrl, CriterionSpec("ac"))
        assert rep.verdict == "optimal", (drug.family, rep.max_violation)


def _published_drug_share(control: ControlModel, delta: float) -> float:
    """Published allocation fractions, written per family in terms of delta."""
    fam = control.family
    if isinstance(fam, Normal):
        return math.sqrt(delta) / (math.sqrt(delta) + math.sqrt(fam.sigma2))
    if isinstance(fam, NegativeBinomial):
        mu, r2 = control.mu, fam.r
        a = mu * math.sqrt(delta)
        return a / (a + math.sqrt((1.0 - mu) * r2))
    if isinstance(fam, Binomial):
        mu = control.mu
        return math.sqrt(delta) / (math.sqrt(delta) + math.sqrt(mu * (1.0 - mu)))
    mu = control.mu
    return math.sqrt(delta) / (math.sqrt(delta) + math.sqrt(mu))


def _mm_draws(seed: int):
    """One Michaelis-Menten model per family, control mean inside the curve's range."""
    rng = np.random.default_rng(seed)
    for family in (Normal(0.0025), NegativeBinomial(10), Binomial(), Poisson()):
        R = float(rng.choice([100.0, 200.0, 300.0]))
        mean = MichaelisMenten(float(rng.uniform(0.4, 0.85)), float(rng.uniform(0.03, 0.15)) * R)
        mu = float(rng.uniform(0.1, 0.9)) * mean.emax * R / (mean.ed50 + R)
        yield DrugModel(family, mean, (0.0, R)), ControlModel(family, mu)


def test_numeric_solve_of_the_ac_criterion_is_ac_optimal():
    # both take the one route from a one-column contrast to its design,
    # the Michaelis-Menten closed forms included
    problems = [gouty_models("normal"), gouty_models("negative_binomial"),
                migraine_models("normal"), migraine_models("binomial")]
    problems += _emax_ac_problems()[3:] + [m for seed in (11, 12) for m in _mm_draws(seed)]
    for drug, ctrl in problems:
        res = numeric_solve(drug, ctrl, CriterionSpec("ac"))
        assert res.design == ac_optimal(drug, ctrl), (drug, ctrl)
        assert res.report.verdict == "optimal"


def test_ac_optimal_share_matches_published_formula():
    # the general rho_{-1} split must reproduce the family-specific formula,
    # with delta = c' M1^- c at the c-optimal induced design
    case_studies = [gouty_models("normal"), gouty_models("negative_binomial"),
                    migraine_models("normal"), migraine_models("binomial")]
    for drug, ctrl in case_studies + list(_mm_draws(11)):
        des = ac_optimal(drug, ctrl)
        c = response_gradient(drug, target_dose(drug, ctrl))
        solve = c_opt_elfving_2d if isinstance(drug.mean, MichaelisMenten) else c_opt_numeric
        share = _published_drug_share(ctrl, solve(drug, c).delta)
        assert abs((1.0 - des.control_weight) - share) <= 1e-8, (drug, ctrl)


# ---------------------------------------------------------------------------
# numeric solver
# ---------------------------------------------------------------------------

def _remark1_models():
    drug = DrugModel(Binomial(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    ctrl = ControlModel(Binomial(), 0.4)
    return drug, ctrl


def test_numeric_solve_general_contrast():
    drug, ctrl = _remark1_models()
    g0 = drug.mean.gradient(5.0)
    K = KMatrix.stacked(np.column_stack([-g0, [-1.0, 0.0]]), np.array([[1.0, 1.0]]))
    res = numeric_solve(drug, ctrl, CriterionSpec("phi_p", 0.0, K),
                        SolveOptions(multistart_count=2, seed=1))
    assert res.converged
    assert res.design.drug_doses == pytest.approx([0.93, 50.0], abs=0.02)
    assert res.design.drug_weights == pytest.approx([0.36, 0.32], abs=0.01)
    assert res.design.control_weight == pytest.approx(0.32, abs=0.01)


def test_numeric_solve_prediction_one_point():
    drug, ctrl = _remark1_models()
    g0 = drug.mean.gradient(5.0)
    K = KMatrix.stacked(g0.reshape(-1, 1), np.zeros((1, 1)))
    res = numeric_solve(drug, ctrl, CriterionSpec("phi_p", 0.0, K))
    assert res.design.points == ((5.0, ARM_DRUG),)
    assert res.design.weights == (1.0,)


def test_numeric_solve_theta1_d_two_point():
    drug, ctrl = _remark1_models()
    K = KMatrix.stacked(np.eye(2), np.zeros((1, 2)))
    res = numeric_solve(drug, ctrl, CriterionSpec("phi_p", 0.0, K),
                        SolveOptions(multistart_count=2, seed=1))
    assert res.converged
    assert res.design.drug_doses == pytest.approx([1.149, 50.0], abs=0.01)
    assert res.design.drug_weights == pytest.approx([0.5, 0.5], abs=1e-6)
    assert res.design.control_weight == 0.0


def test_numeric_solve_matches_closed_form_spot():
    drug = DrugModel(Poisson(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    ctrl = ControlModel(Poisson(), 0.4)
    res = numeric_solve(drug, ctrl, CriterionSpec("phi_p", 0.0),
                        SolveOptions(multistart_count=1))
    closed = d_opt_mm(drug, ctrl)
    assert res.design.drug_doses == pytest.approx(closed.drug_doses, abs=1e-3 * 50)
    K = KMatrix.block_identity(drug.n_params, ctrl.n_params)
    assert phi_p(res.design, drug, ctrl, K, 0.0) == pytest.approx(
        phi_p(closed, drug, ctrl, K, 0.0), rel=1e-8
    )


def test_numeric_solve_non_convergence_reported(caplog):
    drug = DrugModel(Normal(0.0025), GOUTY, (0.0, 300.0))
    ctrl = ControlModel(Normal(0.0025), 0.9206)
    with caplog.at_level(logging.WARNING, logger="acdesign"):
        res = numeric_solve(drug, ctrl, CriterionSpec("phi_p", 0.0),
                            SolveOptions(max_iterations=1, multistart_count=1, grid_size=33))
    assert res.design is not None
    assert res.max_violation > 0
    if not res.converged:
        assert res.max_violation > 1e-5
    assert res.stop_reason == "capped"
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "1-iteration cap" in caplog.records[0].getMessage()


# a coarse grid and 150 iterations keep these solves short
_STALL_OPTS = dict(grid_size=129, max_iterations=150, multistart_count=1)


def test_numeric_solve_phi_minus_one_beats_composition():
    # phi_{-1} on gouty normal: the joint solve is certified and does not
    # fall below the composed drug-only optimum
    drug = DrugModel(Normal(0.0025), GOUTY, (0.0, 300.0))
    ctrl = ControlModel(Normal(0.0025), 0.9206)
    K = KMatrix.block_identity(drug.n_params, ctrl.n_params)
    res = numeric_solve(drug, ctrl, CriterionSpec("phi_p", -1.0), SolveOptions(**_STALL_OPTS))
    assert res.report.verdict == "optimal"
    composed = compose_active_control(res.design.induced(), drug, ctrl, K, -1.0)
    assert phi_p(res.design, drug, ctrl, K, -1.0) >= phi_p(composed, drug, ctrl, K, -1.0) * (1 - 1e-9)


def test_numeric_solve_certified_stop_logs_nothing(caplog):
    # the D optimum of gouty normal has a closed form, which the solver reaches
    drug = DrugModel(Normal(0.0025), GOUTY, (0.0, 300.0))
    ctrl = ControlModel(Normal(0.0025), 0.9206)
    with caplog.at_level(logging.WARNING, logger="acdesign"):
        res = numeric_solve(drug, ctrl, CriterionSpec("phi_p", 0.0), SolveOptions(**_STALL_OPTS))
    assert res.stop_reason == "certified"
    assert res.converged
    assert caplog.records == []


@functools.lru_cache(maxsize=None)
def _e_optimal_solve():
    drug = DrugModel(Poisson(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    ctrl = ControlModel(Poisson(), 0.4)
    res = numeric_solve(drug, ctrl, CriterionSpec("phi_p", -math.inf),
                        SolveOptions(multistart_count=1, max_iterations=120))
    K = KMatrix.block_identity(drug.n_params, ctrl.n_params)
    return res, phi_p(res.design, drug, ctrl, K, -math.inf)


def test_numeric_solve_e_optimal_surrogate():
    # the minimum-eigenvalue criterion is optimized through the p = -50
    # surrogate; the result is near-optimal but not exactly certified
    res, value = _e_optimal_solve()
    assert res.design.drug_doses.size == 2
    assert res.max_violation <= 1e-2
    # 0.00622 is the best value of a 145k-point brute-force grid over
    # two-dose-plus-control designs; the solver must not fall below it
    assert value >= 0.00622


def test_numeric_solve_reports_criterion_at_true_p():
    # the starts compare through the p = -50 surrogate, but the reported
    # value is phi_{-inf} of the returned design
    res, value = _e_optimal_solve()
    assert res.criterion_value == pytest.approx(value, rel=1e-12)


def test_numeric_solve_stops_on_a_cycle(caplog):
    # phi_{-1} on migraine binomial: a start of the former exchange loop
    # alternated between two states up to the cap
    drug = DrugModel(Binomial(), MIGRAINE, (0.0, 200.0))
    ctrl = ControlModel(Binomial(), 0.2505)
    K = KMatrix.block_identity(drug.n_params, ctrl.n_params)
    with caplog.at_level(logging.WARNING, logger="acdesign"):
        res = numeric_solve(drug, ctrl, CriterionSpec("phi_p", -1.0, K))
    assert res.stop_reason in ("certified", "stalled")
    assert caplog.records == []


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("curve", ["gouty", "migraine"])
def test_numeric_solve_certifies_stacked_contrast(curve, family):
    # (emax - control mean, ed50) shares its columns across the arms, so
    # no composition applies and the joint problem is solved directly
    mean, dose_range, mu = {"gouty": (GOUTY, (0.0, 300.0), 0.9206),
                            "migraine": (MIGRAINE, (0.0, 200.0), 0.2505)}[curve]
    drug = DrugModel(_FAMILIES[family], mean, dose_range)
    ctrl = ControlModel(_FAMILIES[family], mu)
    k11 = np.zeros((drug.n_params, 2))
    k11[1, 0] = k11[2, 1] = 1.0
    k22 = np.zeros((ctrl.n_params, 2))
    k22[0, 0] = -1.0
    spec = CriterionSpec("phi_p", 0.0, KMatrix.stacked(k11, k22))
    res = numeric_solve(drug, ctrl, spec, SolveOptions(grid_size=129, max_iterations=150))
    assert res.report.verdict == "optimal"


_CASE_STUDIES = {
    "gouty-normal": lambda: gouty_models("normal"),
    "gouty-negbin": lambda: gouty_models("negative_binomial"),
    "migraine-normal": lambda: migraine_models("normal"),
    "migraine-binomial": lambda: migraine_models("binomial"),
}
# two Emax draws on which a support dose of negligible weight used to stay
# off the sensitivity maximum
_DEAD_DOSE_MODELS = {
    "emax-negbin": lambda: (
        DrugModel(NegativeBinomial(10),
                  Emax(0.05892006969339904, 0.4544666460814111, 7.0546081910732), (0.0, 200.0)),
        ControlModel(NegativeBinomial(10), 0.29294291062153777)),
    "emax-poisson": lambda: (
        DrugModel(Poisson(),
                  Emax(0.09810053599632766, 0.5076096362645517, 9.424584919530211), (0.0, 300.0)),
        ControlModel(Poisson(), 0.29510929407207076)),
    "gouty-negbin": _CASE_STUDIES["gouty-negbin"],
}


@pytest.mark.parametrize("model,grid,p", [
    ("gouty-negbin", 33, -0.5), ("gouty-negbin", 65, -1.0),
    ("emax-negbin", 25, 0.0), ("emax-negbin", 25, -0.5), ("emax-negbin", 33, 0.0),
    ("emax-negbin", 41, 0.0), ("emax-negbin", 41, -0.5), ("emax-negbin", 65, 0.0),
    ("emax-negbin", 65, -0.5), ("emax-poisson", 21, 0.0), ("emax-poisson", 21, -1.0),
    ("emax-poisson", 33, -0.5), ("emax-poisson", 41, -0.5), ("emax-poisson", 65, -0.5),
    ("emax-negbin", 41, -1.0),
])
def test_numeric_solve_leaves_no_dead_support_dose(model, grid, p):
    # each of these solves once returned a support dose of weight about 1e-9
    # whose sensitivity sat 1e-5 to 2e-2 below the maximum: stop reason
    # certified, verdict inconclusive (which cases show it depends on the
    # last bits of the BLAS arithmetic); the last one ended stalled with two
    # support doses 7e-4 apart
    drug, ctrl = _DEAD_DOSE_MODELS[model]()
    res = numeric_solve(drug, ctrl, CriterionSpec("phi_p", p), SolveOptions(grid_size=grid))
    assert res.report.verdict == "optimal"
    assert max(res.report.support_residuals) <= 1e-5
    assert res.stop_reason == "certified"


def test_numeric_solve_analyses_on_the_case_studies(monkeypatch):
    # the grid sweeps stop at phi_p efficiency 1/1.3, the polish starts
    # from the sensitivity peaks, each Newton step takes one analysis and
    # the final verify one more; sweeping the grid to the sweep cap took
    # 128-136 analyses on these models, and the SLSQP polish 39-52 in all
    import acdesign.equivalence as eq

    calls = []
    analyze = eq._Criterion.analyze

    def counted(self, M):
        calls.append(M)
        return analyze(self, M)

    monkeypatch.setattr(eq._Criterion, "analyze", counted)
    for name, models in _CASE_STUDIES.items():
        calls.clear()
        res = numeric_solve(*models(), CriterionSpec("phi_p", 0.0))
        assert res.stop_reason == "certified", name
        assert len(calls) <= 30, name


@pytest.mark.parametrize("grid", [5, 9, 17, 33])
@pytest.mark.parametrize("name", sorted(_CASE_STUDIES))
def test_numeric_solve_on_coarse_grids(name, grid):
    # a coarse grid can merge two support doses into one sensitivity basin;
    # the solve then starts from the grid doses and must still certify
    drug, ctrl = _CASE_STUDIES[name]()
    K = KMatrix.block_identity(drug.n_params, ctrl.n_params)
    opts = SolveOptions(grid_size=grid)
    d_opt = numeric_solve(drug, ctrl, CriterionSpec("phi_p", 0.0), opts)
    assert d_opt.report.verdict == "optimal"
    closed = phi_p(solve_d_optimal(drug, ctrl), drug, ctrl, K, 0.0)
    assert d_opt.criterion_value == pytest.approx(closed, rel=1e-8)
    res = numeric_solve(drug, ctrl, CriterionSpec("phi_p", -1.0), opts)
    assert res.report.verdict == "optimal"
    composed = compose_active_control(res.design.induced(), drug, ctrl, K, -1.0)
    assert res.criterion_value >= phi_p(composed, drug, ctrl, K, -1.0) * (1 - 1e-9)


@pytest.mark.parametrize("p", [0.25, 0.5])
@pytest.mark.parametrize("name", sorted(_CASE_STUDIES))
def test_numeric_solve_adds_the_worst_point_for_0_lt_p_lt_1(monkeypatch, name, p):
    # each solve here but one ends after its first polish round; gouty
    # negative binomial at p = 0.5 spends that round's step budget, so the
    # worst point of the equivalence check joins the support and a second
    # round certifies the design
    import acdesign.solvers as sv

    rounds = []
    polish = sv._polish

    def counted(*args):
        rounds.append(args)
        return polish(*args)

    monkeypatch.setattr(sv, "_polish", counted)
    res = numeric_solve(*_CASE_STUDIES[name](), CriterionSpec("phi_p", p))
    assert (res.stop_reason, res.report.verdict) == ("certified", "optimal")
    assert len(rounds) == (2 if (name, p) == ("gouty-negbin", 0.5) else 1)


@pytest.mark.parametrize("name, grid, stop", [
    ("emax-negbin-5", 129, "certified"), ("migraine-binomial", 17, "stalled"),
    ("mm-binomial-12", 17, "stalled"),
])
def test_numeric_solve_certifies_only_optimal_designs_at_p_half(name, grid, stop):
    # with the partial contrast, a violation search that refines only the
    # bracket of its grid's argmax stops each solve as certified on a design
    # that verify calls not-optimal (1.03e-4, 5.4e-4 and 9.1e-4).  The first
    # model is the third-round Emax negative binomial draw of the
    # bench's default_rng(5) models; on the other two the support weight at
    # the interior dose sinks to about 1e-5 and the loop ends on a round
    # that does not raise the criterion
    models = {"emax-negbin-5": lambda: (
        DrugModel(NegativeBinomial(10),
                  Emax(0.16987193794021554, 0.5875568999398114, 28.917001432567474),
                  (0.0, 300.0)),
        ControlModel(NegativeBinomial(10), 0.4156571612043429)),
        "mm-binomial-12": lambda: list(_mm_draws(12))[2]}
    drug, ctrl = {**_CASE_STUDIES, **models}[name]()
    spec = CriterionSpec("phi_p", 0.5, _contrast("partial", drug, ctrl))
    res = numeric_solve(drug, ctrl, spec, SolveOptions(grid_size=grid))
    assert (res.stop_reason, res.report.verdict) == (stop, "optimal")


def test_numeric_solve_names_the_design_that_lost_estimability():
    # at p = 0.9 the sweeps' damping exponent is 5: the uniform grid design
    # estimates this stacked contrast and the state after one sweep does not
    drug = DrugModel(Normal(0.0025), MichaelisMenten(0.6318965024689639, 38.08586843051377),
                     (0.0, 300.0))
    ctrl = ControlModel(Normal(0.0025), 0.24833992465803964)
    k11 = np.zeros((drug.n_params, 2))
    k11[0, 0] = k11[1, 1] = 1.0
    k22 = np.zeros((ctrl.n_params, 2))
    k22[0, 0] = -1.0
    spec = CriterionSpec("phi_p", 0.9, KMatrix.stacked(k11, k22))
    with pytest.raises(EstimabilityError, match="weight sweep 1 lost estimability"):
        numeric_solve(drug, ctrl, spec, SolveOptions(grid_size=129, max_iterations=150))
    # two grid doses cannot estimate the three Emax parameters
    with pytest.raises(EstimabilityError, match="the uniform grid design does not"):
        numeric_solve(*gouty_models("normal"), CriterionSpec("phi_p", 0.0),
                      SolveOptions(grid_size=2))


def _contrast(kind, drug, ctrl):
    """block: every parameter; stacked: (emax - control mean, ed50); partial:
    the curve's emax and ed50 and the control mean."""
    m = drug.n_mean_params  # emax and ed50 are the curve's last two parameters
    k11 = np.zeros((drug.n_params, 2))
    k11[m - 2, 0] = k11[m - 1, 1] = 1.0
    if kind == "block":
        return KMatrix.block_identity(drug.n_params, ctrl.n_params)
    k22 = np.zeros((ctrl.n_params, 2 if kind == "stacked" else 1))
    k22[0, 0] = -1.0 if kind == "stacked" else 1.0
    return KMatrix.stacked(k11, k22) if kind == "stacked" else KMatrix.block(k11, k22)


@pytest.mark.parametrize("p", [0.0, -0.5, -1.0, -3.0, 0.5])
@pytest.mark.parametrize("kind", ["block", "stacked", "partial"])
@pytest.mark.parametrize("name", ["gouty-normal", "gouty-negbin"])
def test_newton_derivatives_match_central_differences(name, kind, p):
    # the Newton polish's closed-form gradient and Hessian of log phi_p in
    # the drug and control weights, against central differences of the
    # criterion value; steps of 1e-5 or less would measure its ~1e-11
    # rounding instead of the formula, and entries that vanish (the arms'
    # cross terms of a block contrast at p = 0) read as 1e-10 of that noise
    from acdesign.equivalence import _Criterion
    from acdesign.solvers import _derivatives

    drug, ctrl = _CASE_STUDIES[name]()
    problem = _Criterion(drug, ctrl, _contrast(kind, drug, ctrl), p)
    doses = np.array([0.0, 8.0, 40.0, 300.0])
    w = np.array([0.2, 0.25, 0.15, 0.2, 0.2])  # the drug weights, then the control's
    n = doses.size

    def log_phi(w):
        return math.log(problem.analyze(problem.matrix(doses, w[:n], w[n]))[0])

    res = problem.analyze(problem.matrix(doses, w[:n], w[n]))
    g, H = _derivatives(problem, doses, w[:n], w[n], res)
    h, eye = 1e-3, np.eye(w.size) * 1e-3
    fd_g = [(log_phi(w + e) - log_phi(w - e)) / (2 * h) for e in eye]
    fd_H = [[(log_phi(w + a + b) - log_phi(w + a - b) - log_phi(w - a + b)
              + log_phi(w - a - b)) / (4 * h * h) for b in eye] for a in eye]
    assert g[n:] == pytest.approx(fd_g, rel=1e-3, abs=1e-8)
    assert H[n:, n:] == pytest.approx(np.array(fd_H), rel=1e-3, abs=1e-8)


def _reference_basis(af):
    """The tangent basis as `_face_step` built it on every call before it was
    cached: a Householder reflection taking e_j to the unit normal of the
    weights' sum constraint, column j removed."""
    k = np.count_nonzero(af)
    Z = np.eye(af.size)
    if k:
        j = int(np.argmax(af))
        r = af / math.sqrt(k)
        r[j] -= 1.0
        if k > 1:
            Z -= np.outer(r, r) / -r[j]
        Z = np.delete(Z, j, axis=1)
    return Z


def _reference_face_step(g, H, weight, free, delta, trail):
    """The numpy face step that `solvers._face_step` replaced, recording the
    free variables of each call in trail."""
    trail.append(tuple(np.flatnonzero(free)))
    Hf = H[free]
    gf = g[free] + Hf @ delta
    Hf = Hf[:, free]
    af = weight[free].astype(float)
    k = np.count_nonzero(af)
    Z, d0 = _reference_basis(af), np.zeros(af.size)
    if k:
        d0 = af * (-delta[weight].sum() / k)
        gf = gf + Hf @ d0
    mu, Q = np.linalg.eigh(Z.T @ Hf @ Z)
    if not mu.size:
        return d0
    curvature = np.maximum(np.abs(mu), 1e-6 * np.abs(mu).max())
    return d0 + Z @ (Q @ (Q.T @ (Z.T @ gf) / curvature))


def _reference_newton_step(g, H, x, with_control, trail):
    """The numpy bookkeeping that `solvers._newton_step` replaced."""
    from acdesign.solvers import SLOPE_STATIONARY, STATIONARY

    n = (x.size - 1) // 2
    u, w = x[:n], x[n:]
    weight = np.arange(x.size) >= n
    free = np.ones(x.size, bool)
    free[:n] = ~(((u <= 0) & (g[:n] < 0)) | ((u >= 1) & (g[:n] > 0)))
    free[-1] = with_control and w[n] > 0
    with np.errstate(divide="ignore", invalid="ignore"):  # a weight of 0 is not stationary
        done = np.concatenate([np.abs(g[:n] / w[:n]) <= SLOPE_STATIONARY,
                               np.abs(g[n:] - 1.0) <= STATIONARY])
    if done[free].all():
        return None
    delta, cut = np.zeros(x.size), None
    while True:
        delta[free] = 0.0
        delta[free] = step = _reference_face_step(g, H, weight, free, delta, trail)
        room = np.where(step < 0, -x[free], np.where(weight[free], np.inf, 1.0 - x[free]))
        t = np.divide(room, step, out=np.full(step.size, np.inf), where=step != 0)
        j = int(np.argmin(t)) if t.size else 0
        if not t.size or t[j] >= 1.0:
            return delta if cut is None or g @ delta > 0 else cut
        if cut is None:
            cut = t[j] * delta
        k = np.flatnonzero(free)[j]
        delta[k], free[k] = room[j], False
        if n <= k < 2 * n:
            delta[k - n], free[k - n] = 0.0, False


@functools.lru_cache(maxsize=None)
def _polish_steps():
    """(g, H, x, with_control) of every Newton step the polish took on the case
    studies at p = 0 and -1, on Michaelis-Menten draws with stacked and
    partial contrasts, and on gouty negative binomial at p = 0.5, whose 16
    start doses lose their weights one by one."""
    from unittest import mock

    import acdesign.solvers as sv

    steps, newton_step = [], sv._newton_step

    def captured(g, H, x, with_control):
        steps.append((g.copy(), H.copy(), x.copy(), with_control))
        return newton_step(g, H, x, with_control)

    problems = [(*models(), CriterionSpec("phi_p", p))
                for models in _CASE_STUDIES.values() for p in (0.0, -1.0)]
    problems += [(drug, ctrl, CriterionSpec("phi_p", p, _contrast(kind, drug, ctrl)))
                 for drug, ctrl in _mm_draws(11) for kind in ("stacked", "partial")
                 for p in (0.0, -1.0)]
    problems.append((*_CASE_STUDIES["gouty-negbin"](), CriterionSpec("phi_p", 0.5)))
    with mock.patch.object(sv, "_newton_step", captured):
        for drug, ctrl, spec in problems:
            numeric_solve(drug, ctrl, spec, SolveOptions(grid_size=129, max_iterations=150))
    return steps


def test_newton_step_matches_the_numpy_reference():
    # the polish's bookkeeping on Python floats and its cached tangent bases
    # against the numpy code they replaced, on every step of 33 solves
    from unittest import mock

    import acdesign.solvers as sv

    trail, face_step = [], sv._face_step

    def traced(g, H, free, weights, delta):
        trail.append(tuple(free))
        return face_step(g, H, free, weights, delta)

    pins = set()
    for g, H, x, with_control in _polish_steps():
        ref_trail = []
        ref = _reference_newton_step(g, H, x, with_control, ref_trail)
        trail.clear()
        with mock.patch.object(sv, "_face_step", traced):
            step = sv._newton_step(g, H, x, with_control)
        # the same faces in the same order: the same variables pinned
        assert trail == ref_trail
        n = (x.size - 1) // 2
        for k in set(trail[0]) - set(trail[-1]) if trail else ():
            pins.add("weight" if n <= k < 2 * n else "dose" if k < n else "control")
        if ref is None:
            assert step is None
        else:
            assert np.max(np.abs(step - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert len(_polish_steps()) >= 100
    # some steps drive a dose to a range end, others a weight to 0
    assert {"dose", "weight"} <= pins
    # a dose of weight 0 is not stationary (numpy's g/0 is inf or nan), and
    # the bookkeeping on floats must not raise ZeroDivisionError for it
    g, H, x, with_control = next(s for s in _polish_steps()
                                 if _reference_newton_step(*s, []) is None)
    n = (x.size - 1) // 2
    x = x.copy()
    x[n + next(i for i in range(n) if 0 < x[i] < 1)] = 0.0
    ref = _reference_newton_step(g, H, x, with_control, [])
    step = sv._newton_step(g, H, x, with_control)
    assert np.max(np.abs(step - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_tangent_bases_are_orthonormal_on_the_constraint():
    # every pattern of weights among up to 9 free variables, against the
    # basis `_face_step` built on every call before it was cached
    import itertools

    from acdesign.solvers import _tangent_basis

    for size in range(1, 10):
        for weights in itertools.product((False, True), repeat=size):
            Z, a, k = _tangent_basis(weights)
            assert k == sum(weights)
            assert np.array_equal(a, np.array(weights, float))
            assert Z.shape == (size, size - (k > 0))
            np.testing.assert_allclose(Z.T @ Z, np.eye(Z.shape[1]), rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(a @ Z, 0.0, rtol=0.0, atol=1e-14)
            assert np.array_equal(Z, _reference_basis(a))
