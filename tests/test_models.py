import ast
from pathlib import Path

import numpy as np
import pytest

import acdesign
from acdesign import (
    Binomial,
    ControlModel,
    DoseRangeError,
    DrugModel,
    Emax,
    MichaelisMenten,
    ModelError,
    NegativeBinomial,
    NoTargetDoseError,
    Normal,
    Poisson,
    SingularInformationError,
    drug_response,
    target_dose,
    target_dose_grad,
)

GOUTY_MEAN = Emax(0.26, 0.73, 10.5)
MIGRAINE_MEAN = Emax(0.098, 0.2052, 12.3)


def _random_models(rng):
    """A grab-bag of valid models across families and mean curves."""
    models = []
    for _ in range(5):
        ed50 = rng.uniform(1.0, 30.0)
        R = rng.uniform(50.0, 300.0)
        models.append(DrugModel(Normal(rng.uniform(0.01, 0.2)),
                                MichaelisMenten(rng.uniform(0.3, 2.0), ed50), (0.0, R)))
        models.append(DrugModel(Poisson(),
                                Emax(rng.uniform(0.1, 0.5), rng.uniform(0.3, 2.0), ed50),
                                (0.0, R)))
        pr = rng.uniform(0.5, 0.9)  # probability at R
        th1 = pr * (ed50 + R) / R
        models.append(DrugModel(Binomial(), MichaelisMenten(th1, ed50), (0.0, R)))
        e0 = rng.uniform(0.05, 0.2)
        models.append(DrugModel(NegativeBinomial(7),
                                Emax(e0, pr - e0, ed50), (0.0, R)))
    return models


# ---------------------------------------------------------------------------
# mean values and gradients
# ---------------------------------------------------------------------------

def test_mean_examples():
    drug = DrugModel(NegativeBinomial(10), GOUTY_MEAN, (0.0, 300.0))
    assert drug.mean_value(0.0) == pytest.approx(0.26)
    # dose solving 0.26 + 0.73 d/(10.5+d) = 0.9206, found by bisection
    lo, hi = 0.0, 300.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if GOUTY_MEAN.value(mid) < 0.9206:
            lo = mid
        else:
            hi = mid
    assert drug.mean_value(0.5 * (lo + hi)) == pytest.approx(0.9206, abs=1e-9)
    mm = DrugModel(Normal(1.0), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    assert mm.mean_value(2.0) == pytest.approx(0.25)


def test_mean_outside_range_raises():
    drug = DrugModel(Poisson(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    with pytest.raises(DoseRangeError):
        drug.mean_value(51.0)
    with pytest.raises(DoseRangeError):
        drug.fisher(-1.0)


def test_mean_grad_closed_forms():
    drug = DrugModel(Normal(1.0), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    assert drug.mean_grad(0.0) == pytest.approx([0.0, 0.0])
    # central finite differences with step 1e-6 give (0.5, -0.0625)
    assert drug.mean_grad(2.0) == pytest.approx([0.5, -0.0625])
    emax = DrugModel(Normal(1.0), GOUTY_MEAN, (0.0, 300.0))
    assert emax.mean_grad(10.5) == pytest.approx([1.0, 0.5, -0.73 / 42.0])


def test_mean_grad_matches_finite_differences():
    rng = np.random.default_rng(42)
    checked = 0
    for drug in _random_models(rng):
        L, R = drug.dose_range
        d = rng.uniform(0.05 * R, R)
        g = drug.mean_grad(d)
        mean = drug.mean
        params = np.array(
            [mean.emax, mean.ed50] if isinstance(mean, MichaelisMenten)
            else [mean.e0, mean.emax, mean.ed50]
        )
        h = 1e-6
        for j in range(params.size):
            up, dn = params.copy(), params.copy()
            up[j] += h * max(1.0, abs(params[j]))
            dn[j] -= h * max(1.0, abs(params[j]))
            make = type(mean)
            fd = (make(*up).value(d) - make(*dn).value(d)) / (2 * h * max(1.0, abs(params[j])))
            assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)
            checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------

def test_fisher_poisson_mm_origin_is_zero():
    drug = DrugModel(Poisson(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    assert np.all(drug.fisher(0.0) == 0.0)


def test_fisher_normal_block_structure():
    drug = DrugModel(Normal(1.0), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    M = drug.fisher(2.0)
    g = np.array([0.5, -0.0625])
    assert M[:2, :2] == pytest.approx(np.outer(g, g))
    assert M[2, 2] == pytest.approx(0.5)
    assert M[0, 2] == 0.0 and M[1, 2] == 0.0


def test_fisher_binomial_entry():
    drug = DrugModel(Binomial(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    M = drug.fisher(2.0)
    assert M[0, 0] == pytest.approx(0.25 / 0.1875)


def test_fisher_negbin_origin_limit():
    drug = DrugModel(NegativeBinomial(4), MichaelisMenten(0.8, 2.5), (0.0, 50.0))
    # analytic limit of grad grad^T/(p^2 (1-p)) as d -> 0
    eps_vals = [drug.fisher(d) for d in (1e-5, 1e-7)]
    M0 = drug.fisher(0.0)
    assert M0 == pytest.approx(eps_vals[1], rel=1e-4)
    v = np.array([1.0 / 0.8, -1.0 / 2.5])
    assert M0 == pytest.approx(4 * np.outer(v, v))


def test_fisher_psd_and_negbin_binomial_relation():
    rng = np.random.default_rng(7)
    for drug in _random_models(rng):
        L, R = drug.dose_range
        for d in rng.uniform(L, R, size=3):
            M = drug.fisher(d)
            assert np.linalg.eigvalsh(M).min() >= -1e-10
            assert M == pytest.approx(M.T)
    # negbin info = (r/pi) * binomial info at matching mean
    ed50, th1, r = 3.0, 0.7, 6
    nb = DrugModel(NegativeBinomial(r), MichaelisMenten(th1, ed50), (0.0, 20.0))
    bi = DrugModel(Binomial(), MichaelisMenten(th1, ed50), (0.0, 20.0))
    for d in (0.5, 2.0, 10.0):
        p = nb.mean_value(d)
        assert nb.fisher(d) == pytest.approx(r / p * bi.fisher(d), rel=1e-12)


_FAMILY_CURVES = [
    (Normal(0.04), MichaelisMenten(0.8, 5.0)),
    (Normal(0.04), Emax(0.2, 0.8, 5.0)),
    (NegativeBinomial(7), MichaelisMenten(0.6, 5.0)),
    (NegativeBinomial(7), Emax(0.1, 0.6, 5.0)),
    (Binomial(), MichaelisMenten(0.6, 5.0)),
    (Binomial(), Emax(0.05, 0.6, 5.0)),
    (Poisson(), MichaelisMenten(2.0, 5.0)),
    (Poisson(), Emax(0.3, 2.0, 5.0)),
]


@pytest.mark.parametrize("L", [0.0, 2.5])
@pytest.mark.parametrize("family,mean", _FAMILY_CURVES,
                         ids=[f"{type(f).__name__}-{type(m).__name__}" for f, m in _FAMILY_CURVES])
def test_regression_rows_match_stacked_vectors(family, mean, L):
    # with L = 0 the first dose hits the origin limits: the negative binomial
    # Michaelis-Menten row and the zero binomial and Poisson Michaelis-Menten rows
    drug = DrugModel(family, mean, (L, 50.0))
    doses = np.array([L, 50.0, L + 1e-7, 4.9, 17.3, 49.99])
    rows = drug.regression_rows(doses)
    stacked = np.array([drug.regression_vector(d) for d in doses])
    assert rows.shape == (doses.size, drug.n_mean_params)
    np.testing.assert_allclose(rows, stacked, rtol=1e-14, atol=0.0)
    for outside in (L - 1e-6, 50.0 + 1e-6):
        with pytest.raises(DoseRangeError):
            drug.regression_rows(np.array([L, outside]))


@pytest.mark.parametrize("L", [0.0, 2.5])
@pytest.mark.parametrize("family,mean", _FAMILY_CURVES,
                         ids=[f"{type(f).__name__}-{type(m).__name__}" for f, m in _FAMILY_CURVES])
def test_fisher_matches_regression_vector(family, mean, L):
    # the Fisher form and the row form of a family's weight are computed
    # separately; they agree to rounding, origin limits included
    drug = DrugModel(family, mean, (L, 50.0))
    m = drug.n_mean_params
    for d in (L, 50.0, L + 1e-7, 4.9, 17.3, 49.99):
        M = drug.fisher(d)
        f = drug.regression_vector(d)
        np.testing.assert_allclose(M[:m, :m], np.outer(f, f), rtol=1e-13, atol=0.0)
        if isinstance(family, Normal):
            assert M[m, m] == 1.0 / (2.0 * family.sigma2**2)
            assert not M[m, :m].any() and not M[:m, m].any()


def test_family_parameters_are_read_only_in_models():
    # sigma2 and r enter the information only through the family classes
    src = Path(acdesign.__file__).parent
    readers = []
    for path in sorted(src.glob("*.py")):
        if path.name == "models.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("sigma2", "r"):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_negbin_emax_without_success_at_origin_is_singular():
    drug = DrugModel(NegativeBinomial(7), Emax(0.0, 0.6, 5.0), (0.0, 50.0))
    for call in (drug.fisher, drug.regression_vector, lambda d: drug.regression_rows([1.0, d])):
        with pytest.raises(SingularInformationError):
            call(0.0)


def test_fisher_control_examples():
    assert ControlModel(Binomial(), 0.5).fisher()[0, 0] == pytest.approx(4.0)
    assert ControlModel(Poisson(), 0.9206).fisher()[0, 0] == pytest.approx(1.0 / 0.9206)
    nb = ControlModel(NegativeBinomial(10), 0.9206)
    assert nb.fisher()[0, 0] == pytest.approx(10 / (0.9206**2 * (1 - 0.9206)), rel=1e-12)
    nrm = ControlModel(Normal(0.25), 1.0)
    assert nrm.fisher() == pytest.approx(np.diag([4.0, 8.0]))


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------

def test_probability_above_one_rejected():
    with pytest.raises(ModelError):
        DrugModel(Binomial(), MichaelisMenten(1.5, 2.0), (0.0, 50.0))
    with pytest.raises(ModelError):
        DrugModel(NegativeBinomial(5), Emax(0.3, 0.8, 10.0), (0.0, 300.0))


def test_poisson_emax_needs_positive_rate_at_origin():
    with pytest.raises(ModelError):
        DrugModel(Poisson(), Emax(0.0, 0.5, 2.0), (0.0, 50.0))
    # fine when the range starts away from zero
    DrugModel(Poisson(), Emax(0.0, 0.5, 2.0), (1.0, 50.0))


def test_binomial_emax_needs_positive_probability_at_origin():
    # the information grows without bound towards dose 0 while the row at 0 is zero
    with pytest.raises(ModelError):
        DrugModel(Binomial(), Emax(0.0, 0.6, 5.0), (0.0, 50.0))
    DrugModel(Binomial(), Emax(0.0, 0.6, 5.0), (1.0, 50.0))
    DrugModel(Binomial(), MichaelisMenten(0.6, 5.0), (0.0, 50.0))


def test_bad_parameters_rejected():
    with pytest.raises(ModelError):
        MichaelisMenten(0.5, 0.0)
    with pytest.raises(ModelError):
        Normal(0.0)
    with pytest.raises(ModelError):
        ControlModel(Binomial(), 1.0)
    with pytest.raises(ModelError):
        DrugModel(Normal(1.0), MichaelisMenten(0.5, 2.0), (5.0, 5.0))


# ---------------------------------------------------------------------------
# target dose
# ---------------------------------------------------------------------------

def test_target_dose_benchmarks():
    gouty_n = DrugModel(Normal(0.0025), GOUTY_MEAN, (0.0, 300.0))
    ctrl_n = ControlModel(Normal(0.0025), 0.9206)
    assert target_dose(gouty_n, ctrl_n) == pytest.approx(100.0, abs=0.1)

    mig = DrugModel(Binomial(), MIGRAINE_MEAN, (0.0, 200.0))
    ctrl_b = ControlModel(Binomial(), 0.2505)
    assert target_dose(mig, ctrl_b) == pytest.approx(35.6, abs=0.1)

    mm = DrugModel(Normal(1.0), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    half = ControlModel(Normal(1.0), 0.25)
    assert target_dose(mm, half) == pytest.approx(2.0, rel=1e-12)


def test_target_dose_negbin_scales():
    drug = DrugModel(NegativeBinomial(10), GOUTY_MEAN, (0.0, 300.0))
    ctrl5 = ControlModel(NegativeBinomial(5), 0.9206)
    d_mean = target_dose(drug, ctrl5)
    # matching 10(1-p)/p = 5(1-mu)/mu gives p = 10 mu/(10 mu + 5(1-mu))
    p_match = 10 * 0.9206 / (10 * 0.9206 + 5 * (1 - 0.9206))
    assert drug.mean_value(d_mean) == pytest.approx(p_match, rel=1e-12)
    assert drug_response(drug, d_mean) == pytest.approx(
        ctrl5.expected_response(), rel=1e-12
    )


def test_target_dose_negbin_drug_matches_any_control():
    # the drug's count mean r(1-p)/p meets the control's response on any scale
    drug = DrugModel(NegativeBinomial(10), GOUTY_MEAN, (0.0, 300.0))
    ctrl = ControlModel(Poisson(), 0.9206)
    assert drug_response(drug, target_dose(drug, ctrl)) == pytest.approx(0.9206, rel=1e-12)
    # no success probability below 1 gives a count mean of 0 or below
    with pytest.raises(NoTargetDoseError):
        target_dose(drug, ControlModel(Normal(1.0), -0.5))


def test_target_dose_out_of_range():
    drug = DrugModel(Normal(1.0), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    with pytest.raises(NoTargetDoseError):
        target_dose(drug, ControlModel(Normal(1.0), 0.9))


def test_target_dose_grad_nuisance_zero_and_fd():
    drug = DrugModel(Normal(0.0025), GOUTY_MEAN, (0.0, 300.0))
    ctrl = ControlModel(Normal(0.0025), 0.9206)
    g1, g2 = target_dose_grad(drug, ctrl)
    assert g1.shape == (4,) and g2.shape == (2,)
    assert g1[3] == 0.0 and g2[1] == 0.0

    # finite differences of the target dose in the mean parameters
    h = 1e-6
    base = np.array([0.26, 0.73, 10.5])
    for j in range(3):
        up, dn = base.copy(), base.copy()
        step = h * max(1.0, abs(base[j]))
        up[j] += step
        dn[j] -= step
        dplus = target_dose(DrugModel(Normal(0.0025), Emax(*up), (0.0, 300.0)), ctrl)
        dminus = target_dose(DrugModel(Normal(0.0025), Emax(*dn), (0.0, 300.0)), ctrl)
        assert g1[j] == pytest.approx((dplus - dminus) / (2 * step), rel=1e-5)
    # control-mean component
    dplus = target_dose(drug, ControlModel(Normal(0.0025), 0.9206 + h))
    dminus = target_dose(drug, ControlModel(Normal(0.0025), 0.9206 - h))
    assert g2[0] == pytest.approx((dplus - dminus) / (2 * h), rel=1e-5)


def test_target_dose_grad_binomial_slope():
    drug = DrugModel(Binomial(), MIGRAINE_MEAN, (0.0, 200.0))
    ctrl = ControlModel(Binomial(), 0.2505)
    dstar = target_dose(drug, ctrl)
    _, g2 = target_dose_grad(drug, ctrl)
    etap = MIGRAINE_MEAN.derivative(dstar)
    assert g2[0] == pytest.approx(1.0 / etap, rel=1e-12)


def test_target_dose_grad_negbin_fd():
    drug = DrugModel(NegativeBinomial(10), GOUTY_MEAN, (0.0, 300.0))
    ctrl = ControlModel(NegativeBinomial(10), 0.9206)
    g1, g2 = target_dose_grad(drug, ctrl)
    h = 1e-6
    dplus = target_dose(drug, ControlModel(NegativeBinomial(10), 0.9206 + h))
    dminus = target_dose(drug, ControlModel(NegativeBinomial(10), 0.9206 - h))
    assert g2[0] == pytest.approx((dplus - dminus) / (2 * h), rel=1e-5)
    base = np.array([0.26, 0.73, 10.5])
    for j in range(3):
        up, dn = base.copy(), base.copy()
        step = h * max(1.0, abs(base[j]))
        up[j] += step
        dn[j] -= step
        dp = target_dose(DrugModel(NegativeBinomial(10), Emax(*up), (0.0, 300.0)), ctrl)
        dm = target_dose(DrugModel(NegativeBinomial(10), Emax(*dn), (0.0, 300.0)), ctrl)
        assert g1[j] == pytest.approx((dp - dm) / (2 * step), rel=1e-5)
