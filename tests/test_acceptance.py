"""Acceptance suite: benchmark reproduction and numerical contracts.

Each test prints one `[criterion N] PASS/FAIL` line (visible with -s).
Three groups of published discrete-data cells are not optimal for the
models as printed: the gouty negative-binomial D-optimal interior dose and
the two discrete target-dose rows with their efficiencies.  Their tests
show the published cell wrong (the equivalence theorem fails at the
published D dose; the published target-dose designs cannot estimate the
target dose) and check the package's answer against an oracle written
out here, independently of the package.  The README's benchmark section
documents the analysis.
"""

import itertools
import math
import zlib

import numpy as np
import pytest
from scipy.optimize import minimize

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
    Normal,
    Poisson,
    ac_efficiency,
    ac_optimal,
    compose_active_control,
    d_efficiency,
    numeric_solve,
    phi_p,
    pseudo_inverse,
    psi_ac,
    rho_p,
    solve_d_optimal,
    verify,
)
from acdesign.reproduce import (
    build_cells,
    gouty_models,
    gouty_standard_design,
    migraine_models,
    migraine_standard_design,
)
from acdesign.solvers import SolveOptions
from test_criteria import psi_ac_scalar_form


def report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {criterion}] {status}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)


# ---------------------------------------------------------------------------
# criterion 1: D-optimal benchmark designs
# ---------------------------------------------------------------------------

def _assert_design(criterion, label, design, doses, weights, wc,
                   dose_tol=0.05, weight_tol=0.002):
    got_d = design.drug_doses
    got_w = design.drug_weights
    ok = (
        got_d.size == len(doses)
        and np.allclose(got_d, doses, atol=dose_tol)
        and np.allclose(got_w, weights, atol=weight_tol)
        and abs(design.control_weight - wc) <= weight_tol
    )
    report(criterion, label, ok,
           f"doses {np.round(got_d, 4)}, weights {np.round(got_w, 4)}, "
           f"control {design.control_weight:.4f}")
    assert ok


def test_criterion1_gouty_normal_design():
    des = solve_d_optimal(*gouty_models("normal"))
    _assert_design(1, "gouty normal D-optimal", des,
                   [0.0, 9.81, 300.0], [2/9] * 3, 1/3)


def test_criterion1_gouty_negbin_weights_and_endpoints():
    des = solve_d_optimal(*gouty_models("negative_binomial"))
    assert des.drug_doses[0] == pytest.approx(0.0, abs=0.05)
    assert des.drug_doses[2] == pytest.approx(300.0, abs=0.05)
    assert np.allclose(des.drug_weights, [0.25] * 3, atol=0.002)
    assert des.control_weight == pytest.approx(0.25, abs=0.002)
    report(1, "gouty negative-binomial weights/endpoints", True)


# Independent oracles for the discrete-data cells.  They use only the Emax
# formula and the family weights, not DrugModel.fisher or target_dose_grad.

def _regression_vectors(drug, doses):
    """Columns sqrt(w(d)) * grad eta(d) for an Emax curve, one per dose.

    w(d) is r/(p^2 (1-p)) for the negative binomial and 1/(p (1-p)) for the
    binomial, with p the success probability at d.
    """
    m = drug.mean
    d = np.asarray(doses, float)
    s = m.ed50 + d
    p = m.e0 + m.emax * d / s
    grad = np.stack([np.ones_like(d), d / s, -m.emax * d / s**2])
    if isinstance(drug.family, NegativeBinomial):
        w = drug.family.r / (p**2 * (1.0 - p))
    else:
        w = 1.0 / (p * (1.0 - p))
    return grad * np.sqrt(w)


def _d_sensitivity_max(drug, support):
    """Largest f' M^-1 f over a fine dose grid, M the equal-weight design on
    `support`; it equals 3 exactly when that design is D-optimal."""
    F = _regression_vectors(drug, support)
    M_inv = np.linalg.inv(F @ F.T / len(support))
    G = _regression_vectors(drug, np.linspace(*drug.dose_range, 30001))
    return float(np.einsum("ij,ik,kj->j", G, M_inv, G).max())


def _d_optimal_oracle(drug):
    """Three doses maximizing the log-determinant, from several starts."""
    L, R = drug.dose_range

    def neg_logdet(x):
        F = _regression_vectors(drug, np.clip(x, L, R))
        return -np.linalg.slogdet(F @ F.T)[1]

    starts = L + (R - L) * np.array([[0.003, 0.02, 0.7], [0.0, 0.07, 0.85], [0.03, 0.15, 1.0]])
    best = min((minimize(neg_logdet, x0, method="Nelder-Mead",
                         options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 5000})
                for x0 in starts), key=lambda res: res.fun)
    return np.sort(np.clip(best.x, L, R))


def _target_dose_terms(drug, ctrl):
    """Target dose d*, drug gradient g1 and unit-weight control variance.

    d* solves p(d*) = mu (both families compare equal shapes), with
    g1 = -grad eta(d*)/eta'(d*) and g2 = 1/eta'(d*).
    """
    assert type(drug.family) is type(ctrl.family)
    assert getattr(drug.family, "r", None) == getattr(ctrl.family, "r", None)
    m, mu = drug.mean, ctrl.mu
    dstar = m.ed50 * (mu - m.e0) / (m.emax - (mu - m.e0))
    s = m.ed50 + dstar
    slope = m.emax * m.ed50 / s**2
    g1 = -np.array([1.0, dstar / s, -m.emax * dstar / s**2]) / slope
    if isinstance(ctrl.family, NegativeBinomial):
        i2 = ctrl.family.r / (mu**2 * (1.0 - mu))
    else:
        i2 = 1.0 / (mu * (1.0 - mu))
    return dstar, g1, 1.0 / (slope**2 * i2)


def _ac_oracle(drug, ctrl):
    """Design minimizing psi, by Elfving's theorem on dose triples.

    For a drug support with regression vectors X, the least g1' M^-1 g1 is
    (sum |a|)^2 with X a = g1, at weights proportional to |a|.  Every triple
    of a grid holding d* is tried, the best is refined, and the control
    weight splits the two standard deviations.  Returns the drug doses and
    weights with mass above 1e-3, the control weight and psi.
    """
    L, R = drug.dose_range
    dstar, g1, v2 = _target_dose_terms(drug, ctrl)
    grid = np.unique(np.concatenate([np.linspace(L, R, 41),
                                     L + (R - L) * np.geomspace(1e-3, 1.0, 40), [dstar]]))
    triples = np.array(list(itertools.combinations(range(grid.size), 3)))
    X = _regression_vectors(drug, grid)[:, triples].transpose(1, 0, 2)
    l1 = np.abs(np.linalg.solve(X, np.broadcast_to(g1, (len(X), 3))[..., None])).sum(axis=(1, 2))

    def cost(x):
        X = _regression_vectors(drug, np.clip(x, L, R))
        if abs(np.linalg.det(X)) < 1e-12 * np.prod(np.linalg.norm(X, axis=0)):
            return np.inf
        return np.abs(np.linalg.solve(X, g1)).sum()

    start = grid[triples[np.argmin(l1)]]
    res = minimize(cost, start, method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 4000})
    doses = np.clip(res.x, L, R) if res.fun < cost(start) else start
    a = np.linalg.solve(_regression_vectors(drug, doses), g1)
    v1 = np.abs(a).sum() ** 2
    wc = math.sqrt(v2) / (math.sqrt(v1) + math.sqrt(v2))
    weights = (1.0 - wc) * np.abs(a) / np.abs(a).sum()
    order = np.argsort(doses)
    keep = order[weights[order] > 1e-3]
    return doses[keep], weights[keep], wc, (math.sqrt(v1) + math.sqrt(v2)) ** 2


def _ac_oracle_psi(design, drug, ctrl):
    """psi of an estimable design, from the same formulas as _ac_oracle."""
    _, g1, v2 = _target_dose_terms(drug, ctrl)
    F = _regression_vectors(drug, design.drug_doses)
    M = (F * design.drug_weights) @ F.T
    return float(g1 @ np.linalg.solve(M, g1)) + v2 / design.control_weight


def test_criterion3_ac_low_control_mean_draws():
    # Emax draws whose control mean sits low on the curve; a c-optimal LP
    # over densely refined dose grids stopped on them with HiGHS status 15
    # (model status unknown).  _ac_oracle covers the binomial draw only, so
    # the Poisson draw rests on the equivalence theorem alone
    spec = CriterionSpec("ac")
    drug = DrugModel(Binomial(), Emax(0.29774947830790427, 0.5949099233471883,
                                      28.684051519862763), (0.0, 200.0))
    ctrl = ControlModel(Binomial(), 0.3995243036879216)
    des = ac_optimal(drug, ctrl)
    psi = psi_ac(des, drug, ctrl)
    doses, weights, wc, psi_min = _ac_oracle(drug, ctrl)
    ok = abs(psi - psi_min) <= 1e-4 * psi_min
    report(3, "low control mean binomial AC psi vs oracle", ok,
           f"certified {psi:.6g}, oracle {psi_min:.6g}")
    assert ok
    _assert_design(3, "low control mean binomial AC design vs oracle", des, doses, weights, wc)
    assert verify(des, drug, ctrl, spec).verdict == "optimal"

    drug = DrugModel(Poisson(), Emax(0.190874449885709, 0.3840529208397822,
                                     9.322650444017798), (0.0, 300.0))
    ctrl = ControlModel(Poisson(), 0.3092615330420152)
    rep = verify(ac_optimal(drug, ctrl), drug, ctrl, spec)
    report(3, "low control mean Poisson AC design", rep.verdict == "optimal",
           f"max violation {rep.max_violation:.3g}")
    assert rep.verdict == "optimal"


def test_criterion1_gouty_negbin_dose_as_published():
    # published interior dose 8.23.  The equal-weight design on (0, 8.23, 300)
    # breaks the equivalence theorem for the printed parameters, so the
    # published digit is not the optimum of the model as printed (the README
    # benchmark section discusses the rounding of those parameters).  The
    # certified dose is checked against a log-determinant oracle and the theorem
    drug, ctrl = gouty_models("negative_binomial")
    got = solve_d_optimal(drug, ctrl).drug_doses
    oracle = _d_optimal_oracle(drug)
    sens_oracle = _d_sensitivity_max(drug, oracle)
    sens_published = _d_sensitivity_max(drug, [0.0, 8.23, 300.0])
    checks = {
        "certified doses match the oracle": np.allclose(got, oracle, atol=1e-3),
        "oracle design meets the equivalence theorem": sens_oracle <= 3.0 + 1e-6,
        "published design breaks the equivalence theorem": sens_published > 3.0 + 1e-5,
    }
    ok = all(checks.values())
    report(1, "gouty negative-binomial interior dose", ok,
           f"published 8.23, certified {got[1]:.4f}, oracle {oracle[1]:.4f}; "
           f"max sensitivity {sens_oracle:.7f} at the oracle, {sens_published:.7f} at 8.23")
    assert ok, checks


def test_criterion1_migraine_designs():
    des_n = solve_d_optimal(*migraine_models("normal"))
    _assert_design(1, "migraine normal D-optimal", des_n,
                   [0.0, 10.95, 200.0], [2/9] * 3, 1/3)
    des_b = solve_d_optimal(*migraine_models("binomial"))
    _assert_design(1, "migraine binomial D-optimal", des_b,
                   [0.0, 9.05, 200.0], [0.25] * 3, 0.25)


# ---------------------------------------------------------------------------
# criterion 2: D-efficiencies of the standard designs
# ---------------------------------------------------------------------------

def test_criterion2_d_efficiencies():
    std_g = gouty_standard_design()
    std_m = migraine_standard_design()
    checks = []
    drug, ctrl = gouty_models("normal")
    opt_gn = solve_d_optimal(drug, ctrl)
    checks.append(("gouty normal", d_efficiency(std_g, opt_gn, drug, ctrl), 0.25))
    drug, ctrl = gouty_models("negative_binomial")
    opt_gnb = solve_d_optimal(drug, ctrl)
    checks.append(("gouty negbin", d_efficiency(std_g, opt_gnb, drug, ctrl), 0.11))
    checks.append(("gouty cross-model", d_efficiency(opt_gn, opt_gnb, drug, ctrl), 0.98))
    drug, ctrl = migraine_models("normal")
    opt_mn = solve_d_optimal(drug, ctrl)
    checks.append(("migraine normal", d_efficiency(std_m, opt_mn, drug, ctrl), 0.84))
    drug, ctrl = migraine_models("binomial")
    opt_mb = solve_d_optimal(drug, ctrl)
    checks.append(("migraine binomial", d_efficiency(std_m, opt_mb, drug, ctrl), 0.86))
    checks.append(("migraine cross-model", d_efficiency(opt_mn, opt_mb, drug, ctrl), 0.98))
    ok = all(abs(got - want) <= 0.01 for _, got, want in checks)
    report(2, "standard-design D-efficiencies",
           ok, "; ".join(f"{n} {got:.4f} vs {want}" for n, got, want in checks))
    for name, got, want in checks:
        assert abs(got - want) <= 0.01, name


# ---------------------------------------------------------------------------
# criterion 3: AC-optimal benchmark designs
# ---------------------------------------------------------------------------

def test_criterion3_gouty_normal_ac():
    drug, ctrl = gouty_models("normal")
    des = ac_optimal(drug, ctrl)
    dose = des.drug_doses[0]
    ok = (
        des.drug_doses.size == 1
        and abs(dose - 101.06) <= 1.5
        and abs(des.drug_weights[0] - 0.500) <= 0.001
        and abs(des.control_weight - 0.500) <= 0.001
    )
    # additionally: our psi never exceeds that of a design fixed at 101.06
    probe = Design(((101.06, ARM_DRUG), (0.0, ARM_CONTROL)), (0.4999, 0.5001))
    try:
        psi_probe = psi_ac(probe, drug, ctrl)
    except EstimabilityError:
        psi_probe = math.inf  # cannot even estimate the target dose
    ok = ok and psi_ac(des, drug, ctrl) <= psi_probe + 1e-8
    report(3, "gouty normal AC design", ok,
           f"dose {dose:.3f}, control {des.control_weight:.4f}")
    assert ok


def test_criterion3_migraine_normal_ac():
    drug, ctrl = migraine_models("normal")
    des = ac_optimal(drug, ctrl)
    ok = des.drug_doses.size == 1 and abs(des.drug_doses[0] - 35.739) <= 0.2
    ok = ok and abs(des.drug_weights[0] - 0.5) <= 0.001
    report(3, "migraine normal AC design", ok, f"dose {des.drug_doses[0]:.3f}")
    assert ok


def _check_ac_against_oracle(label, drug, ctrl, published):
    # The Emax gradient spans the same space as (1, u, u^2), u = d/(ed50+d),
    # so two drug doses other than the target dose leave g1 outside the
    # range of M1: the published design has infinite target-dose variance
    with pytest.raises(EstimabilityError, match="drug arm"):
        psi_ac(published, drug, ctrl)
    des = ac_optimal(drug, ctrl)
    psi = psi_ac(des, drug, ctrl)
    doses, weights, wc, psi_min = _ac_oracle(drug, ctrl)
    ok = abs(psi - psi_min) <= 1e-4 * psi_min
    report(3, f"{label} AC psi vs oracle", ok,
           f"certified {psi:.6g}, oracle {psi_min:.6g}")
    assert ok
    _assert_design(3, f"{label} AC design vs oracle", des, doses, weights, wc)


def test_criterion3_gouty_negbin_ac_as_published():
    # published {(5.44, 7.6%), (300, 35.6%), (C, 56.8%)} cannot estimate the
    # target dose; the psi minimizer is a three-point design (see the README
    # benchmark section)
    drug, ctrl = gouty_models("negative_binomial")
    published = Design(((5.44, ARM_DRUG), (300.0, ARM_DRUG), (0.0, ARM_CONTROL)),
                       (0.076, 0.356, 0.568))
    _check_ac_against_oracle("gouty negative-binomial", drug, ctrl, published)


def test_criterion3_migraine_binomial_ac_as_published():
    # published {(0, 7.34%), (200, 41.95%), (C, 50.71%)} cannot estimate the
    # target dose; the psi minimizer is a one-point design at the target
    # dose (see the README benchmark section)
    drug, ctrl = migraine_models("binomial")
    published = Design(((0.0, ARM_DRUG), (200.0, ARM_DRUG), (0.0, ARM_CONTROL)),
                       (0.0734, 0.4195, 0.5071))
    _check_ac_against_oracle("migraine binomial", drug, ctrl, published)


def test_reproduce_ac_table_shows_every_computed_support_point():
    # published doses pair with the nearest computed dose; the certified
    # gouty negative-binomial optimum (0, 21.08, 300) has a point the
    # published design lacks, which gets a row with a published nan
    drug, ctrl = gouty_models("negative_binomial")
    optimum = ac_optimal(drug, ctrl)
    cells = {c.label: c for c in build_cells() if c.table == "ac-table"}
    rows = {}
    for i in range(4):
        if f"gouty-negbin/dose{i}" in cells:
            dose, weight = cells[f"gouty-negbin/dose{i}"], cells[f"gouty-negbin/weight{i}"]
            rows[round(dose.computed, 2)] = (weight.computed, dose.published)
    expected = {round(d, 2): w for d, w in zip(optimum.drug_doses, optimum.drug_weights)}
    assert sorted(rows) == [0.0, 21.08, 300.0] == sorted(expected)
    for dose, (weight, _) in rows.items():
        assert weight == pytest.approx(expected[dose], abs=1e-12)
    assert rows[300.0][1] == 300.0 and math.isnan(rows[21.08][1])
    assert not any(math.isnan(c.computed) for c in cells.values())


def test_criterion3_ac_efficiencies_normal_rows():
    std_g, std_m = gouty_standard_design(), migraine_standard_design()
    drug, ctrl = gouty_models("normal")
    eff_gn = ac_efficiency(std_g, ac_optimal(drug, ctrl), drug, ctrl)
    drug, ctrl = migraine_models("normal")
    eff_mn = ac_efficiency(std_m, ac_optimal(drug, ctrl), drug, ctrl)
    ok = abs(eff_gn - 0.66) <= 0.01 and abs(eff_mn - 0.48) <= 0.01
    report(3, "AC efficiencies (normal rows)", ok,
           f"gouty {eff_gn:.4f} vs 0.66, migraine {eff_mn:.4f} vs 0.48")
    assert ok


def test_criterion3_ac_efficiencies_discrete_rows_as_published():
    # published 0.48 (gouty negbin) and 0.47 (migraine binomial) are taken
    # against the published designs, which cannot estimate the target dose
    # (see the two tests above and the README benchmark section); the
    # efficiencies against the psi minimizer are checked against the oracle
    rows = [
        ("gouty negbin", gouty_models("negative_binomial"), gouty_standard_design(), 0.48),
        ("migraine binomial", migraine_models("binomial"), migraine_standard_design(), 0.47),
    ]
    results = []
    for name, (drug, ctrl), standard, published in rows:
        eff = ac_efficiency(standard, ac_optimal(drug, ctrl), drug, ctrl)
        want = _ac_oracle(drug, ctrl)[3] / _ac_oracle_psi(standard, drug, ctrl)
        results.append((name, eff, want, published))
    ok = all(abs(eff - want) <= 1e-4 for _, eff, want, _ in results)
    report(3, "AC efficiencies (discrete rows) vs oracle", ok,
           "; ".join(f"{n} {eff:.4f}, oracle {want:.4f}, published {pub}"
                     for n, eff, want, pub in results))
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: general-contrast numeric solves
# ---------------------------------------------------------------------------

def _remark1():
    drug = DrugModel(Binomial(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    ctrl = ControlModel(Binomial(), 0.4)
    return drug, ctrl


def test_criterion4_remark1_designs():
    drug, ctrl = _remark1()
    g0 = drug.mean.gradient(5.0)
    K = KMatrix.stacked(np.column_stack([-g0, [-1.0, 0.0]]), np.array([[1.0, 1.0]]))
    res = numeric_solve(drug, ctrl, CriterionSpec("phi_p", 0.0, K),
                        SolveOptions(multistart_count=2, seed=1))
    ok = (
        np.allclose(res.design.drug_doses, [0.93, 50.0], atol=0.02)
        and np.allclose(res.design.drug_weights, [0.36, 0.32], atol=0.01)
        and abs(res.design.control_weight - 0.32) <= 0.01
    )
    report(4, "general-contrast D-optimal design", ok,
           f"doses {np.round(res.design.drug_doses, 4)}, "
           f"weights {np.round(res.design.drug_weights, 4)}, "
           f"control {res.design.control_weight:.4f}")
    assert ok

    pred = numeric_solve(drug, ctrl, CriterionSpec(
        "phi_p", 0.0, KMatrix.stacked(g0.reshape(-1, 1), np.zeros((1, 1)))))
    ok_pred = pred.design.points == ((5.0, ARM_DRUG),)
    report(4, "prediction c-optimal one-point design", ok_pred,
           f"{pred.design.points}")
    assert ok_pred

    th1 = numeric_solve(drug, ctrl, CriterionSpec(
        "phi_p", 0.0, KMatrix.stacked(np.eye(2), np.zeros((1, 2)))),
        SolveOptions(multistart_count=2, seed=1))
    ok_th1 = (
        np.allclose(th1.design.drug_doses, [1.15, 50.0], atol=0.01)
        and np.allclose(th1.design.drug_weights, [0.5, 0.5], atol=1e-6)
    )
    report(4, "drug-parameter D-optimal two-point design", ok_th1,
           f"doses {np.round(th1.design.drug_doses, 4)}")
    assert ok_th1


# ---------------------------------------------------------------------------
# criterion 5: equivalence certification of every solver output
# ---------------------------------------------------------------------------

def test_criterion5_all_solver_outputs_certified():
    cases = []
    for fam in ("normal", "negative_binomial"):
        drug, ctrl = gouty_models(fam)
        cases.append((drug, ctrl, solve_d_optimal(drug, ctrl), CriterionSpec("phi_p", 0.0)))
        cases.append((drug, ctrl, ac_optimal(drug, ctrl), CriterionSpec("ac")))
    for fam in ("normal", "binomial"):
        drug, ctrl = migraine_models(fam)
        cases.append((drug, ctrl, solve_d_optimal(drug, ctrl), CriterionSpec("phi_p", 0.0)))
        cases.append((drug, ctrl, ac_optimal(drug, ctrl), CriterionSpec("ac")))
    mm_pairs = [
        (DrugModel(Normal(0.0025), MichaelisMenten(0.5, 2.0), (0.0, 50.0)),
         ControlModel(Normal(0.0025), 0.2)),
        (DrugModel(NegativeBinomial(10), MichaelisMenten(0.5, 2.0), (0.0, 50.0)),
         ControlModel(NegativeBinomial(10), 0.4)),
        (DrugModel(Binomial(), MichaelisMenten(0.5, 2.0), (0.0, 50.0)),
         ControlModel(Binomial(), 0.4)),
        (DrugModel(Poisson(), MichaelisMenten(0.5, 2.0), (0.0, 50.0)),
         ControlModel(Poisson(), 0.4)),
    ]
    for drug, ctrl in mm_pairs:
        cases.append((drug, ctrl, solve_d_optimal(drug, ctrl), CriterionSpec("phi_p", 0.0)))
        cases.append((drug, ctrl, ac_optimal(drug, ctrl), CriterionSpec("ac")))
    worst_violation = 0.0
    worst_residual = 0.0
    for drug, ctrl, design, spec in cases:
        rep = verify(design, drug, ctrl, spec, tol=1e-5)
        assert rep.verdict == "optimal", (drug.family, spec.kind, rep.max_violation)
        assert max(rep.support_residuals) <= 1e-6
        worst_violation = max(worst_violation, rep.max_violation)
        worst_residual = max(worst_residual, max(rep.support_residuals))
    report(5, "equivalence certification of solver outputs", True,
           f"{len(cases)} designs, worst violation {worst_violation:.2e}, "
           f"worst support residual {worst_residual:.2e}")


# ---------------------------------------------------------------------------
# criterion 6: oracle equivalence over random parameter draws
# ---------------------------------------------------------------------------

FAMILY_MEAN_COMBOS = list(itertools.product(
    ("normal", "negative_binomial", "binomial", "poisson"),
    ("michaelis_menten", "emax"),
))


def _draw_models(family, mean_kind, rng):
    R = float(rng.uniform(40.0, 300.0))
    ed50 = float(rng.uniform(0.05 * R, 0.45 * R))
    if family in ("binomial", "negative_binomial"):
        p_at_R = float(rng.uniform(0.45, 0.9))
        if mean_kind == "michaelis_menten":
            mean = MichaelisMenten(p_at_R * (ed50 + R) / R, ed50)
        else:
            e0 = float(rng.uniform(0.05, 0.25))
            mean = Emax(e0, (p_at_R - e0) * (ed50 + R) / R, ed50)
        mu = float(rng.uniform(0.25, 0.75))
        fam = Binomial() if family == "binomial" else NegativeBinomial(10)
        ctrl_fam = Binomial() if family == "binomial" else NegativeBinomial(10)
    elif family == "poisson":
        if mean_kind == "michaelis_menten":
            mean = MichaelisMenten(float(rng.uniform(0.5, 3.0)), ed50)
        else:
            mean = Emax(float(rng.uniform(0.1, 0.6)), float(rng.uniform(0.5, 2.0)), ed50)
        mu = float(rng.uniform(0.5, 2.5))
        fam = ctrl_fam = Poisson()
    else:
        sigma2 = float(rng.uniform(0.05, 0.3)) ** 2
        if mean_kind == "michaelis_menten":
            mean = MichaelisMenten(float(rng.uniform(0.5, 3.0)), ed50)
        else:
            mean = Emax(float(rng.uniform(0.1, 0.6)), float(rng.uniform(0.5, 2.0)), ed50)
        mu = float(rng.uniform(0.2, 1.0))
        fam = ctrl_fam = Normal(sigma2)
    drug = DrugModel(fam, mean, (0.0, R))
    ctrl = ControlModel(ctrl_fam, mu)
    return drug, ctrl


def test_criterion6_numeric_matches_closed_form():
    opts = SolveOptions(grid_size=129, max_iterations=150, multistart_count=1)
    worst_dose = 0.0
    worst_rel = 0.0
    for family, mean_kind in FAMILY_MEAN_COMBOS:
        rng = np.random.default_rng(zlib.crc32(f"{family}:{mean_kind}".encode()))
        for _ in range(25):
            drug, ctrl = _draw_models(family, mean_kind, rng)
            L, R = drug.dose_range
            closed = solve_d_optimal(drug, ctrl)
            res = numeric_solve(drug, ctrl, CriterionSpec("phi_p", 0.0), opts)
            assert res.design.drug_doses.size == closed.drug_doses.size, (
                family, mean_kind, res.design.drug_doses, closed.drug_doses)
            dose_err = float(np.max(np.abs(res.design.drug_doses - closed.drug_doses)))
            assert dose_err <= 1e-3 * (R - L), (family, mean_kind, dose_err)
            K = KMatrix.block_identity(drug.n_params, ctrl.n_params)
            va = phi_p(res.design, drug, ctrl, K, 0.0)
            vb = phi_p(closed, drug, ctrl, K, 0.0)
            rel = abs(va - vb) / vb
            assert rel <= 1e-8, (family, mean_kind, rel)
            worst_dose = max(worst_dose, dose_err / (R - L))
            worst_rel = max(worst_rel, rel)
    report(6, "numeric solve matches closed forms (200 draws)", True,
           f"worst dose error {worst_dose:.2e} of range, "
           f"worst criterion gap {worst_rel:.2e}")


def test_criterion6_composition_matches_joint_solve():
    # Theorem-style composition at p = -1 against a joint-space solve
    opts = SolveOptions(grid_size=129, max_iterations=150, multistart_count=1)
    worst = 0.0
    for family, mean_kind in FAMILY_MEAN_COMBOS:
        rng = np.random.default_rng(zlib.crc32(f"comp:{family}:{mean_kind}".encode()))
        drug, ctrl = _draw_models(family, mean_kind, rng)
        L, R = drug.dose_range
        s1, s2 = drug.n_params, ctrl.n_params
        K_ind = KMatrix.stacked(np.eye(s1), np.zeros((s2, s1)))
        induced_res = numeric_solve(drug, ctrl, CriterionSpec("phi_p", -1.0, K_ind), opts)
        ind = induced_res.design.induced()
        K = KMatrix.block_identity(s1, s2)
        composed = compose_active_control(ind, drug, ctrl, K, -1.0)
        joint = numeric_solve(drug, ctrl, CriterionSpec("phi_p", -1.0, K), opts)
        va = phi_p(composed, drug, ctrl, K, -1.0)
        vb = phi_p(joint.design, drug, ctrl, K, -1.0)
        rel = abs(va - vb) / vb
        assert rel <= 1e-6, (family, mean_kind, rel)
        dose_err = float(np.max(np.abs(
            np.sort(composed.drug_doses) - np.sort(joint.design.drug_doses))))
        assert dose_err <= 2e-3 * (R - L), (family, mean_kind, dose_err)
        worst = max(worst, rel)
    report(6, "composition matches joint-space solving (8 combos)", True,
           f"worst criterion gap {worst:.2e}")


def test_criterion6_ac_composition_matches_joint():
    for fam_name, models in [("negbin", gouty_models("negative_binomial")),
                             ("binomial", migraine_models("binomial"))]:
        drug, ctrl = models
        joint = numeric_solve(drug, ctrl, CriterionSpec("ac"))
        composed = ac_optimal(drug, ctrl)
        a = psi_ac(joint.design, drug, ctrl)
        b = psi_ac(composed, drug, ctrl)
        assert abs(a - b) / b <= 1e-8, fam_name
    report(6, "AC composition matches joint-space solving", True)


# ---------------------------------------------------------------------------
# criterion 7: numerical-analysis contracts
# ---------------------------------------------------------------------------

def test_criterion7_gradients_match_finite_differences():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        family, mean_kind = FAMILY_MEAN_COMBOS[rng.integers(len(FAMILY_MEAN_COMBOS))]
        drug, _ = _draw_models(family, mean_kind, rng)
        L, R = drug.dose_range
        d = float(rng.uniform(0.1 * R, 0.95 * R))
        g = drug.mean.gradient(d)
        mean = drug.mean
        params = ([mean.emax, mean.ed50] if isinstance(mean, MichaelisMenten)
                  else [mean.e0, mean.emax, mean.ed50])
        for j, val in enumerate(params):
            step = 1e-6 * max(1.0, abs(val))
            up = list(params)
            dn = list(params)
            up[j] += step
            dn[j] -= step
            fd = (type(mean)(*up).value(d) - type(mean)(*dn).value(d)) / (2 * step)
            rel = abs(g[j] - fd) / max(abs(fd), 1e-12)
            assert rel <= 1e-6
            worst = max(worst, rel)
    report(7, "analytic mean gradients vs finite differences", True,
           f"worst relative error {worst:.2e}")


def test_criterion7_psi_two_forms_agree():
    rng = np.random.default_rng(78)
    worst = 0.0
    cases = [gouty_models("negative_binomial"), migraine_models("binomial"),
             (DrugModel(Poisson(), MichaelisMenten(2.5, 1.5), (0.02, 10.0)),
              ControlModel(Poisson(), 1.1))]
    checked = 0
    while checked < 20:
        drug, ctrl = cases[checked % len(cases)]
        L, R = drug.dose_range
        doses = np.sort(rng.uniform(L, R, size=3))
        if np.min(np.diff(doses)) < 0.05 * (R - L):
            continue
        w = rng.dirichlet(np.ones(3)) * 0.7
        des = Design(
            tuple((float(d), ARM_DRUG) for d in doses) + ((0.0, ARM_CONTROL),),
            tuple(list(w) + [1.0 - w.sum()]),
        )
        a = psi_ac(des, drug, ctrl)
        b = psi_ac_scalar_form(des, drug, ctrl)
        rel = abs(a - b) / abs(b)
        assert rel <= 1e-10
        worst = max(worst, rel)
        checked += 1
    report(7, "psi representations agree", True, f"worst relative gap {worst:.2e}")


def test_criterion7_pseudoinverse_identities():
    rng = np.random.default_rng(79)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(1, n + 1))
        B = rng.normal(size=(n, rank))
        A = B @ B.T
        Ap = pseudo_inverse(A)
        for resid in (
            A @ Ap @ A - A,
            Ap @ A @ Ap - Ap,
            (A @ Ap).T - A @ Ap,
            (Ap @ A).T - Ap @ A,
        ):
            err = float(np.max(np.abs(resid)))
            scale = max(1.0, float(np.max(np.abs(A))))
            assert err <= 1e-9 * scale
            worst = max(worst, err / scale)
    report(7, "Moore-Penrose identities", True, f"worst residual {worst:.2e}")


def test_criterion7_rho_p_small_p_limit():
    drug, ctrl = gouty_models("normal")
    ind = InducedDesign((0.0, 9.813, 300.0), (1/3, 1/3, 1/3))
    K = KMatrix.block_identity(4, 2)
    worst = 0.0
    for p in (1e-6, -1e-6):
        gap = abs(rho_p(ind, drug, ctrl, K, p) - 2.0)
        assert gap <= 1e-4
        worst = max(worst, gap)
    report(7, "rho_p limit at p -> 0 equals t1/t2", True, f"worst gap {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 8: excluded simulation claims
# ---------------------------------------------------------------------------

def test_criterion8_excluded_scope_documented():
    # asymptotic normality of the estimators and the adequacy of the
    # variance approximation for N >= 25 are simulation results from prior
    # work; the property suites above stand in for them at desk scale
    report(8, "simulation-scale claims excluded by design", True,
           "substituted by property suites")
