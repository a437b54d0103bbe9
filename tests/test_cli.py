import json

import numpy as np
import pytest

import acdesign.cli
import acdesign.solvers
from acdesign import KMatrix, phi_p
from acdesign.cli import main, parse_scenario, read_design_csv

GOUTY_NB = """
# gouty arthritis, negative binomial reading
drug.family = negative_binomial
drug.mean = emax
drug.e0 = 0.26
drug.emax = 0.73
drug.ed50 = 10.5
drug.r = 10
dose.min = 0
dose.max = 300
control.mu = 0.9206
control.r = 10
criterion.kind = d
"""

REMARK1 = """
drug.family = binomial
drug.mean = michaelis_menten
drug.emax = 0.5
drug.ed50 = 2
dose.min = 0
dose.max = 50
control.mu = 0.4
criterion.kind = phi_p
criterion.p = 0
criterion.k11 = -0.714285714285714286, -1; 0.051020408163265306, 0
criterion.k_stacked = true
criterion.k22 = 1, 1
solver.multistart = 2
solver.seed = 1
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_verify_efficiency_round_trip(tmp_path):
    scn = write(tmp_path, "gouty.scn", GOUTY_NB)
    out = tmp_path / "out"
    assert main(["solve", scn, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "closed-form/emax-d"
    assert report["verification"]["verdict"] == "optimal"
    assert report["stop_reason"] is None and report["iterations"] is None
    doses = [row["dose"] for row in report["design"] if row["arm"] == 0]
    assert doses == pytest.approx([0.0, 8.17831, 300.0], abs=1e-4)

    # a design written by solve and re-read by verify stays optimal
    assert main(["verify", scn, str(out / "design.csv"), "--out", str(out)]) == 0
    summary = json.loads((out / "verify.json").read_text())
    assert summary["verdict"] == "optimal"
    lines = (out / "sensitivity.csv").read_text().splitlines()
    assert lines[0] == "dose,sensitivity"
    assert all(float(line.split(",")[1]) <= 1e-6 for line in lines[1:])

    assert main(["efficiency", scn, str(out / "design.csv"), "--json"]) == 0


def test_solve_numeric_scenario(tmp_path, capsys):
    scn = write(tmp_path, "remark1.scn", REMARK1)
    out = tmp_path / "out"
    assert main(["solve", scn, "--out", str(out), "--json"]) == 0
    report = json.loads((out / "report.json").read_text())
    doses = sorted(row["dose"] for row in report["design"] if row["arm"] == 0)
    assert doses[0] == pytest.approx(0.93, abs=0.02)
    assert doses[1] == pytest.approx(50.0, abs=0.02)
    assert report["stop_reason"] in {"certified", "stalled"}
    assert isinstance(report["iterations"], int) and report["iterations"] > 0
    assert json.loads(capsys.readouterr().out) == report


GOUTY_NORMAL_POISSON_CONTROL = """
drug.family = normal
drug.mean = emax
drug.e0 = 0.26
drug.emax = 0.73
drug.ed50 = 10.5
drug.sigma2 = 0.0025
dose.min = 0
dose.max = 300
control.family = poisson
control.mu = 0.9206
criterion.kind = d
"""


def test_efficiency_solves_mixed_families_as_solve_does(tmp_path, capsys):
    # the reference optimum comes from the same dispatch as in solve
    scn = write(tmp_path, "mixed.scn", GOUTY_NORMAL_POISSON_CONTROL)
    design = tmp_path / "design.csv"
    design.write_text("dose,arm,weight\n0,0,0.25\n25,0,0.25\n300,0,0.25\n0,1,0.25\n")
    assert main(["efficiency", scn, str(design), "--json"]) == 0
    value = json.loads(capsys.readouterr().out)["d_efficiency"]
    assert 0.0 < value <= 1.0


def test_solve_mixed_families_takes_the_closed_forms(tmp_path):
    # the arms need no family in common: the information is block diagonal
    scn = write(tmp_path, "mixed.scn", GOUTY_NORMAL_POISSON_CONTROL)
    out = tmp_path / "d"
    assert main(["solve", scn, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "closed-form/emax-d"
    assert report["verification"]["verdict"] == "optimal"

    ac = GOUTY_NORMAL_POISSON_CONTROL.replace("criterion.kind = d", "criterion.kind = ac")
    scn = write(tmp_path, "mixed-ac.scn", ac)
    out = tmp_path / "ac"
    assert main(["solve", scn, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verification"]["verdict"] == "optimal"
    drug_rows = [row for row in report["design"] if row["arm"] == 0]
    control_rows = [row for row in report["design"] if row["arm"] == 1]
    assert [row["dose"] for row in drug_rows] == pytest.approx([99.9467], abs=1e-4)
    assert control_rows[0]["weight"] == pytest.approx(0.950470, abs=1e-6)


def test_grid_of_one_point_rejected(tmp_path, capsys):
    scn = write(tmp_path, "remark1.scn", REMARK1)
    assert main(["solve", scn, "--out", str(tmp_path), "--grid", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # efficiency takes its optimum from the same solver options as solve
    design = tmp_path / "design.csv"
    design.write_text("dose,arm,weight\n1,0,0.25\n50,0,0.25\n0,1,0.5\n")
    assert main(["efficiency", scn, str(design), "--grid", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ["--tol", "nan"], ["--tol", "inf"], ["--tol", "-1"], ["--grid", "0"],
], ids=["tol-nan", "tol-inf", "tol-negative", "grid-0"])
def test_verify_rejects_invalid_tolerance_and_grid(tmp_path, capsys, flags):
    # a non-finite tolerance would certify any design, and a zero grid is
    # rejected here as in solve rather than replaced by the default
    scn = write(tmp_path, "gouty.scn", GOUTY_NB)
    design = tmp_path / "design.csv"
    design.write_text("dose,arm,weight\n0,0,0.3\n25,0,0.3\n300,0,0.3\n0,1,0.1\n")
    assert main(["verify", scn, str(design), "--out", str(tmp_path)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solver_seed_is_accepted_and_ignored(tmp_path):
    # the solver has one deterministic start, so no seed value can break it
    scn = write(tmp_path, "s.scn", REMARK1.replace("solver.seed = 1", "solver.seed = -1"))
    assert main(["solve", scn, "--out", str(tmp_path / "out")]) == 0


def test_repeated_drug_dose_in_design_file_rejected(tmp_path, capsys):
    scn = write(tmp_path, "gouty.scn", GOUTY_NB)
    design = tmp_path / "design.csv"
    design.write_text("dose,arm,weight\n0,0,0.25\n25,0,0.25\n25,0,0.25\n0,1,0.25\n")
    assert main(["verify", scn, str(design)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "pairwise distinct" in err
    assert err.count("\n") == 1


def test_unknown_key_rejected(tmp_path):
    scn = write(tmp_path, "bad.scn", GOUTY_NB + "drug.shape = 2\n")
    assert main(["solve", scn]) == 2


def test_missing_key_rejected(tmp_path):
    scn = write(tmp_path, "bad.scn", "drug.family = binomial\n")
    assert main(["solve", scn]) == 2


def test_model_validation_failure_exit_code(tmp_path):
    bad = GOUTY_NB.replace("drug.emax = 0.73", "drug.emax = 1.9")
    scn = write(tmp_path, "bad.scn", bad)
    assert main(["solve", scn]) == 2


def test_empty_design_file_rejected(tmp_path):
    scn = write(tmp_path, "gouty.scn", GOUTY_NB)
    design = tmp_path / "design.csv"
    design.write_text("dose,arm,weight\n")
    assert main(["verify", scn, str(design)]) == 2


def test_malformed_design_file_rejected(tmp_path):
    scn = write(tmp_path, "gouty.scn", GOUTY_NB)
    design = tmp_path / "design.csv"
    design.write_text("dose,weight\n1,0.5\n")
    assert main(["verify", scn, str(design)]) == 2


def test_duplicate_key_rejected(tmp_path):
    scn = write(tmp_path, "dup.scn", GOUTY_NB + "control.mu = 0.5\n")
    assert main(["solve", scn]) == 2


def test_reference_design_parses(tmp_path):
    text = GOUTY_NB + (
        "reference.design = 25,0,0.143; 50,0,0.143; 100,0,0.143; "
        "200,0,0.143; 300,0,0.143; 0,1,0.285\n"
    )
    scn = write(tmp_path, "ref.scn", text)
    out = tmp_path / "out"
    assert main(["solve", scn, "--out", str(out)]) == 0


def test_solve_outputs_are_deterministic(tmp_path):
    scn = write(tmp_path, "gouty.scn", GOUTY_NB)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", scn, "--out", str(out1)]) == 0
    assert main(["solve", scn, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "design.csv").read_bytes() == (out2 / "design.csv").read_bytes()


def test_ac_scenario_solved_and_verified(tmp_path):
    text = GOUTY_NB.replace("criterion.kind = d", "criterion.kind = ac")
    scn = write(tmp_path, "ac.scn", text)
    out = tmp_path / "out"
    assert main(["solve", scn, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["criterion"]["kind"] == "ac"
    assert report["verification"]["verdict"] == "optimal"


MM_NORMAL_AC = """
drug.family = normal
drug.mean = michaelis_menten
drug.emax = 0.8116194508521042
drug.ed50 = 14.779282598127521
drug.sigma2 = 0.0025
dose.min = 0
dose.max = 100
control.mu = 0.4343271682386073
control.sigma2 = 0.0025
criterion.kind = ac
"""


def test_one_point_ac_design_survives_csv_round_trip(tmp_path, capsys):
    # the optimum is one drug dose at the target dose; a dose rounded to six
    # digits can no longer estimate the target dose
    scn = write(tmp_path, "ac.scn", MM_NORMAL_AC)
    out = tmp_path / "out"
    assert main(["solve", scn, "--out", str(out)]) == 0
    assert sum(1 for row in json.loads((out / "report.json").read_text())["design"]
               if row["arm"] == 0) == 1
    capsys.readouterr()
    assert main(["verify", scn, str(out / "design.csv"), "--out", str(out), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "optimal"


@pytest.mark.parametrize("key", [
    "solver.grid_size", "solver.max_iterations", "solver.weight_tolerance",
    "solver.multistart", "solver.seed", "criterion.p",
])
def test_non_numeric_value_rejected(tmp_path, capsys, key):
    lines = [line for line in REMARK1.splitlines() if not line.startswith(f"{key} ")]
    scn = write(tmp_path, "bad.scn", "\n".join(lines + [f"{key} = abc", ""]))
    assert main(["solve", scn]) == 2
    assert capsys.readouterr().err.startswith("error:")


MIGRAINE_BINOMIAL_PHI = """
drug.family = binomial
drug.mean = emax
drug.e0 = 0.098
drug.emax = 0.2052
drug.ed50 = 12.3
dose.min = 0
dose.max = 200
control.mu = 0.2505
criterion.kind = phi_p
criterion.p = -1
solver.grid_size = 129
solver.max_iterations = 150
solver.multistart = 1
"""


def test_phi_p_efficiency_uses_the_stated_criterion(tmp_path, capsys):
    scn = write(tmp_path, "phi.scn", MIGRAINE_BINOMIAL_PHI)
    d_scn = write(tmp_path, "d.scn", MIGRAINE_BINOMIAL_PHI.replace(
        "criterion.kind = phi_p\ncriterion.p = -1", "criterion.kind = d"))
    d_out, phi_out = tmp_path / "d", tmp_path / "phi"
    assert main(["solve", d_scn, "--out", str(d_out)]) == 0
    assert main(["solve", scn, "--out", str(phi_out)]) == 0
    capsys.readouterr()

    # the closed-form D optimum as the candidate: a phi_{-1} ratio below 1
    assert main(["efficiency", scn, str(d_out / "design.csv"), "--json"]) == 0
    value = json.loads(capsys.readouterr().out)["phi_p_efficiency"]
    s = parse_scenario(scn)
    K = KMatrix.block_identity(s.drug.n_params, s.control.n_params)
    candidate = read_design_csv(d_out / "design.csv")
    optimum = read_design_csv(phi_out / "design.csv")
    ratio = phi_p(candidate, s.drug, s.control, K, -1.0) / phi_p(optimum, s.drug, s.control, K, -1.0)
    assert ratio < 1.0
    assert value == pytest.approx(acdesign.cli.sig6(ratio), abs=1e-9)  # printed to 6 digits

    assert main(["efficiency", scn, str(phi_out / "design.csv"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["phi_p_efficiency"] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("text,extra_args,verify_calls", [
    (REMARK1, [], 1),  # the solver's own certificate is reused
    (REMARK1, ["--tol", "1e-6"], 2),  # another tolerance needs its own check
    (GOUTY_NB, [], 1),  # a closed form is checked by the command itself
], ids=["numeric", "numeric-other-tol", "closed-form"])
def test_solve_verifies_each_design_once(tmp_path, monkeypatch, text, extra_args, verify_calls):
    calls = []
    verify = acdesign.cli.verify

    def counted(*args, **kwargs):
        calls.append(kwargs.get("tol"))
        return verify(*args, **kwargs)

    monkeypatch.setattr(acdesign.cli, "verify", counted)
    monkeypatch.setattr(acdesign.solvers, "verify", counted)
    scn = write(tmp_path, "s.scn", text)
    out = tmp_path / "out"
    assert main(["solve", scn, "--out", str(out)] + extra_args) == 0
    assert len(calls) == verify_calls
    # the report carries the certificate of a fresh check at the stated tolerance
    s = parse_scenario(scn)
    tol = float(extra_args[1]) if extra_args else 1e-5
    fresh = verify(read_design_csv(out / "design.csv"), s.drug, s.control, s.criterion, tol=tol)
    reported = json.loads((out / "report.json").read_text())["verification"]
    assert reported == {"verdict": fresh.verdict,
                        "max_violation": acdesign.cli.sig6(fresh.max_violation),
                        "ginv": fresh.ginv_strategy}
