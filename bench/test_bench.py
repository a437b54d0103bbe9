"""Tests of the benchmark itself: every check rejects a wrong answer, and the
generators give the same inputs for the same seed.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import acdesign as ac  # noqa: E402
import oracle as orc  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def rejects(check, *args):
    with pytest.raises(W.CheckError):
        check(*args)


def moved_weight(design, step=0.01):
    doses, wd, wc = design
    return doses, np.asarray(wd) + np.r_[step, np.zeros(len(wd) - 1)], wc - step


# ---------------------------------------------------------------------------
# the oracle agrees with closed forms it was not built from
# ---------------------------------------------------------------------------

def test_oracle_d_optimum_has_zero_violation():
    spec = W.PAPER["gouty-normal"]
    # Emax normal: {L, d, R} with d from the closed form, control 1/3
    L, R, e = 0.0, spec.R, spec.ed50
    inner = (R * (L + e) + L * (R + e)) / ((L + e) + (R + e))
    design = (np.array([L, inner, R]), np.full(3, 2.0 / 9.0), 1.0 / 3.0)
    viol, _ = orc.max_violation(spec, orc.design_info(spec, design), orc.block_identity(spec), 0.0)
    assert abs(viol) < 1e-9


def test_oracle_target_dose_inverts_the_curve():
    for spec in W.PAPER.values():
        assert orc.mean(spec, orc.target_dose(spec)) == pytest.approx(spec.mu, rel=1e-12)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def d_case():
    spec = W.PAPER["migraine-binomial"]
    drug, ctrl = W.program_models(spec)
    opt = W.as_tuple(ac.solve_d_optimal(drug, ctrl))
    std = W.standard_design("migraine-binomial")
    rep = ac.verify(W.program_design(*opt), drug, ctrl, W.D_SPEC)
    eff = ac.d_efficiency(W.program_design(*std), W.program_design(*opt), drug, ctrl)
    return spec, opt, std, rep, eff


def test_certify_d_check_accepts_the_program(d_case):
    spec, opt, std, rep, eff = d_case
    W.check_verify_d(spec, opt, "optimal", rep, std, opt, eff)


def test_certify_d_check_rejects_wrong_answers(d_case):
    spec, opt, std, rep, eff = d_case
    check = W.check_verify_d
    rejects(check, spec, opt, "optimal", replace(rep, max_violation=rep.max_violation + 1e-3), std, opt, eff)
    rejects(check, spec, opt, "optimal", replace(rep, verdict="not-optimal"), std, opt, eff)
    rejects(check, spec, opt, "optimal", rep, std, opt, eff * 1.01)
    rejects(check, spec, moved_weight(opt), "optimal", rep, std, opt, eff)
    doses = opt[0].copy()
    doses[1] += 0.01 * spec.R
    rejects(check, spec, (doses, opt[1], opt[2]), "optimal", rep, std, opt, eff)
    # a design the program calls optimal although the own derivative is positive
    rejects(check, spec, W.perturbed(opt), "not-optimal", rep, std, opt, eff)


@pytest.fixture(scope="module")
def ac_case():
    spec = W.draw_ac_spec(np.random.default_rng(5), "normal", one_point=False)
    drug, ctrl = W.program_models(spec)
    design = ac.ac_optimal(drug, ctrl)
    return spec, W.as_tuple(design), ac.target_dose(drug, ctrl), ac.psi_ac(design, drug, ctrl)


def test_target_dose_check_accepts_the_program(ac_case):
    spec, design, dose, psi = ac_case
    assert len(design[0]) == 2
    W.check_target_dose(spec, dose, design, psi)


def test_target_dose_check_rejects_wrong_answers(ac_case):
    spec, design, dose, psi = ac_case
    rejects(W.check_target_dose, spec, dose + 0.01 * spec.R, design, psi)
    rejects(W.check_target_dose, spec, dose, design, psi * 1.01)
    rejects(W.check_target_dose, spec, dose, moved_weight(design), psi)
    doses = np.array(design[0], float)
    doses[0] += 0.01 * spec.R
    rejects(W.check_ac_optimal, spec, (doses, design[1], design[2]))


def test_one_point_classification_matches_the_program():
    rng = np.random.default_rng(3)
    for fam in ("normal", "binomial", "poisson"):
        for one_point in (True, False):
            spec = W.draw_ac_spec(rng, fam, one_point)
            design = ac.ac_optimal(*W.program_models(spec))
            assert (len(design.drug_doses) == 1) == one_point


# ---------------------------------------------------------------------------
# exchange
# ---------------------------------------------------------------------------

def test_exchange_check_rejects_wrong_answers():
    spec = W.draw_spec(np.random.default_rng(2), "mm", "normal")
    drug, ctrl = W.program_models(spec)
    kmat, K = W.full_k(spec, "partial")
    result = ac.numeric_solve(drug, ctrl, ac.CriterionSpec("phi_p", -0.5, kmat),
                              ac.SolveOptions(**W.SOLVE_OPTS))
    refs = [("uniform", W.uniform_design(spec))]
    W.check_solve(spec, K, -0.5, result, refs)
    rejects(W.check_solve, spec, K, -0.5, replace(result, criterion_value=result.criterion_value * 1.01), refs)
    moved = W.program_design(*moved_weight(W.as_tuple(result.design)))
    value = orc.phi_p(orc.design_info(spec, W.as_tuple(moved)), K, -0.5)
    rejects(W.check_solve, spec, K, -0.5, replace(result, design=moved, criterion_value=value), refs)
    # a reference with twice the optimum's information must beat it
    doses, wd, wc = W.as_tuple(result.design)
    rejects(W.check_solve, spec, K, -0.5, result, refs + [("doubled", (doses, 2.0 * wd, 2.0 * wc))])


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def test_cells_check_rejects_wrong_answers():
    import acdesign.reproduce

    cells = acdesign.reproduce.build_cells()
    W.check_cells(cells)

    def mutated(label, table, f):
        return [replace(c, computed=f(c.computed)) if (c.label, c.table) == (label, table) else c
                for c in cells]

    R = W.PAPER["gouty-negbin"].R
    rejects(W.check_cells, mutated("gouty-negbin/dose1", "d-table", lambda x: x + 0.01 * R))
    rejects(W.check_cells, mutated("gouty-normal/weight0", "d-table", lambda x: x + 0.01))
    rejects(W.check_cells, mutated("migraine-normal/standard-efficiency", "d-table", lambda x: x * 1.01))
    rejects(W.check_cells, mutated("gouty-negbin/standard-efficiency", "ac-table", lambda x: x * 1.01))
    rejects(W.check_cells, mutated("migraine-normal/dose0", "ac-table", lambda x: x + 0.01 * 200.0))


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def test_cli_ops_and_checks(tmp_path):
    ops = {op.name: op for op in W.cli(1, tmp_path)}
    solve = ops["solve/d-emax-binomial"]
    out = solve.run()
    solve.check(out)
    ops["verify/d-emax-binomial"].check(ops["verify/d-emax-binomial"].run())
    # design.csv with a weight moved by 0.01 is no longer optimal
    csv = tmp_path / "d-emax-binomial" / "design.csv"
    lines = csv.read_text().splitlines()
    dose, arm, weight = lines[1].split(",")
    lines[1] = f"{dose},{arm},{float(weight) + 0.01:.6g}"
    dose, arm, weight = lines[-1].split(",")
    lines[-1] = f"{dose},{arm},{float(weight) - 0.01:.6g}"
    csv.write_text("\n".join(lines) + "\n")
    rejects(solve.check, out)
    eff = ops["efficiency/d-emax-binomial"]
    code, stdout, err = eff.run()
    eff.check((code, stdout, err))
    value = json.loads(stdout)["d_efficiency"]
    for wrong in (value * 1.01, 1.5, 0.0):
        rejects(eff.check, (code, json.dumps({"d_efficiency": wrong}), err))
    rejects(ops["malformed/unknown-key"].check, (2, "", "Traceback (most recent call last):"))
    # the two kept faults fail, the malformed files that the program handles do not
    for name in ("efficiency/F1-phi_p", "malformed/F2-non-numeric-solver"):
        with pytest.raises(Exception):
            ops[name].run()
    for name in ("unknown-key", "duplicate-key", "missing-key", "non-numeric-drug"):
        op = ops[f"malformed/{name}"]
        op.check(op.run())


# ---------------------------------------------------------------------------
# generators and runner
# ---------------------------------------------------------------------------

def test_generators_repeat_for_the_same_seed(tmp_path):
    for seed in (0, 7):
        a = [W.draw_spec(np.random.default_rng(seed), c, f) for c in W.CURVES for f in W.FAMILIES]
        b = [W.draw_spec(np.random.default_rng(seed), c, f) for c in W.CURVES for f in W.FAMILIES]
        assert a == b
    assert W.draw_spec(np.random.default_rng(1), "mm", "normal") != W.draw_spec(
        np.random.default_rng(2), "mm", "normal")
    for name in ("certify", "target-dose", "exchange"):
        assert [op.name for op in W.WORKLOADS[name](3, tmp_path)] == [
            op.name for op in W.WORKLOADS[name](3, tmp_path)]
    W.cli(4, tmp_path / "a")
    W.cli(4, tmp_path / "b")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files and files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for f in files:
        assert (tmp_path / "a" / f).read_text() == (tmp_path / "b" / f).read_text()


def test_tracer_counts_and_restores():
    spec = W.PAPER["gouty-normal"]
    drug, ctrl = W.program_models(spec)
    design = ac.solve_d_optimal(drug, ctrl)
    originals = (ac.verify, ac.equivalence.verify, ac.models.DrugModel.fisher, np.linalg.eigh)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = ac.verify(design, drug, ctrl, W.D_SPEC)
    finally:
        tracer.uninstall()
    assert (ac.verify, ac.equivalence.verify, ac.models.DrugModel.fisher, np.linalg.eigh) == originals
    assert tracer.counts["equivalence.verify.calls"] == 1
    assert tracer.counts["equivalence.points"] == report.grid_doses.size + len(report.support_points)
    assert tracer.counts["models.fisher.calls"] > report.grid_doses.size
    assert tracer.counts["scalar_opt.golden_max.calls"] == 1
    assert tracer.counts["scalar_opt.evals"] > 10
    assert [s[0] for s in tracer.spans] == ["verify"]


def test_runner_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_runner():
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == tracing.METRICS
    assert [w["name"] for w in config["workloads"]] == list(W.WORKLOADS)
