"""Batch command line: solve, verify and compare designs from scenario files.

Scenario files are flat key = value text with dotted sections; designs
travel as dose,arm,weight CSV; reports are JSON.  Exit status is 0 on
success, 2 for validation problems and 3 when a numeric solve does not
converge.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .criteria import (
    CriterionSpec,
    KMatrix,
    ac_efficiency,
    phi_p,
    phi_p_efficiency,
    psi_ac,
    resolve_spec,
)
from .designs import ARM_CONTROL, Design
from .equivalence import verify
from .exceptions import AcdesignError, ScenarioError
from .models import (
    Binomial,
    ControlModel,
    DrugModel,
    Emax,
    MichaelisMenten,
    NegativeBinomial,
    Normal,
    Poisson,
)
from .solvers import (
    SolveOptions,
    SolveResult,
    ac_optimal,
    numeric_solve,
    solve_d_optimal,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


def sig6(x: float) -> float:
    """Round to 6 significant digits for printing; never used for comparisons."""
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.6g}")


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

_KNOWN_KEYS = {
    "drug.family",
    "drug.mean",
    "drug.e0",
    "drug.emax",
    "drug.ed50",
    "drug.sigma2",
    "drug.r",
    "dose.min",
    "dose.max",
    "control.family",
    "control.mu",
    "control.sigma2",
    "control.r",
    "criterion.kind",
    "criterion.p",
    "criterion.k11",
    "criterion.k22",
    "criterion.k_stacked",
    "reference.design",
    "solver.grid_size",
    "solver.max_iterations",
    "solver.weight_tolerance",
    "solver.multistart",
    "solver.seed",
}


@dataclass
class Scenario:
    drug: DrugModel
    control: ControlModel
    criterion: CriterionSpec
    reference: Optional[Design] = None
    options: SolveOptions = field(default_factory=SolveOptions)


def _parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val
    return out


def _need(kv: dict[str, str], key: str) -> str:
    if key not in kv:
        raise ScenarioError(f"missing required key {key!r}")
    return kv[key]


def _as_float(kv: dict[str, str], key: str, default: Optional[float] = None) -> float:
    raw = _need(kv, key) if default is None else kv.get(key, default)
    try:
        return float(raw)
    except ValueError as exc:
        raise ScenarioError(f"key {key!r}: not a number ({raw!r})") from exc


def _as_int(kv: dict[str, str], key: str, default: Optional[int] = None) -> int:
    raw = _need(kv, key) if default is None else kv.get(key, default)
    try:
        return int(raw)
    except ValueError as exc:
        raise ScenarioError(f"key {key!r}: not an integer ({raw!r})") from exc


def _family(kind: str, kv: dict[str, str], prefix: str):
    if kind == "normal":
        return Normal(_as_float(kv, f"{prefix}.sigma2"))
    if kind == "negative_binomial":
        return NegativeBinomial(_as_int(kv, f"{prefix}.r"))
    if kind == "binomial":
        return Binomial()
    if kind == "poisson":
        return Poisson()
    raise ScenarioError(f"unknown family {kind!r}")


def _parse_matrix(text: str) -> np.ndarray:
    try:
        rows = [
            [float(x) for x in row.split(",")]
            for row in text.split(";")
            if row.strip()
        ]
        return np.array(rows, float)
    except ValueError as exc:
        raise ScenarioError(f"bad matrix literal {text!r}") from exc


def parse_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    kv = _parse_kv(text)

    mean_kind = _need(kv, "drug.mean")
    if mean_kind == "michaelis_menten":
        mean = MichaelisMenten(_as_float(kv, "drug.emax"), _as_float(kv, "drug.ed50"))
    elif mean_kind == "emax":
        mean = Emax(
            _as_float(kv, "drug.e0"),
            _as_float(kv, "drug.emax"),
            _as_float(kv, "drug.ed50"),
        )
    else:
        raise ScenarioError(f"unknown mean curve {mean_kind!r}")

    drug_family = _family(_need(kv, "drug.family"), kv, "drug")
    drug = DrugModel(drug_family, mean, (_as_float(kv, "dose.min"), _as_float(kv, "dose.max")))
    control_kind = kv.get("control.family", _need(kv, "drug.family"))
    control = ControlModel(_family(control_kind, kv, "control"), _as_float(kv, "control.mu"))

    kind = _need(kv, "criterion.kind")
    if kind == "ac":
        criterion = CriterionSpec("ac")
    elif kind in ("d", "phi_p"):
        p = 0.0
        if kind == "phi_p":
            raw = _need(kv, "criterion.p").strip()
            p = -math.inf if raw in ("-inf", "-infinity") else _as_float(kv, "criterion.p")
        K = None
        if "criterion.k11" in kv and "criterion.k22" in kv:
            k11 = _parse_matrix(kv["criterion.k11"])
            k22 = _parse_matrix(kv["criterion.k22"])
            if kv.get("criterion.k_stacked", "false").lower() in ("1", "true", "yes"):
                K = KMatrix.stacked(k11, k22)
            else:
                K = KMatrix.block(k11, k22)
        elif "criterion.k11" in kv or "criterion.k22" in kv:
            raise ScenarioError("criterion.k11 and criterion.k22 must come together")
        criterion = CriterionSpec("phi_p", p, K)
    else:
        raise ScenarioError(f"unknown criterion kind {kind!r}")

    reference = None
    if "reference.design" in kv:
        reference = _design_from_triples(kv["reference.design"])

    opts = SolveOptions(
        grid_size=_as_int(kv, "solver.grid_size", 257),
        max_iterations=_as_int(kv, "solver.max_iterations", 400),
        weight_tolerance=_as_float(kv, "solver.weight_tolerance", 1e-4),
        multistart_count=_as_int(kv, "solver.multistart", 4),
        seed=_as_int(kv, "solver.seed", 0),
    )
    return Scenario(drug, control, criterion, reference, opts)


def _design_from_triples(text: str) -> Design:
    pts = []
    wts = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        parts = chunk.split(",")
        if len(parts) != 3:
            raise ScenarioError(f"design entry {chunk!r} is not dose,arm,weight")
        dose, arm, weight = (p.strip() for p in parts)
        try:
            pts.append((float(dose), int(arm)))
            wts.append(float(weight))
        except ValueError as exc:
            raise ScenarioError(f"bad design entry {chunk!r}") from exc
    try:
        return Design.from_points(pts, wts)
    except AcdesignError as exc:
        raise ScenarioError(f"invalid design: {exc}") from exc


def read_design_csv(path: str | Path) -> Design:
    pts = []
    wts = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or set(reader.fieldnames) != {"dose", "arm", "weight"}:
                raise ScenarioError(
                    f"design file {path} needs a dose,arm,weight header"
                )
            for row in reader:
                pts.append((float(row["dose"]), int(row["arm"])))
                wts.append(float(row["weight"]))
    except OSError as exc:
        raise ScenarioError(f"cannot read design {path}: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"design file {path}: {exc}") from exc
    if not pts:
        raise ScenarioError(f"design file {path} is empty")
    try:
        return Design.from_points(pts, wts)
    except AcdesignError as exc:
        raise ScenarioError(f"invalid design in {path}: {exc}") from exc


def write_design_csv(design: Design, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dose", "arm", "weight"])
        for (dose, arm), w in zip(design.points, design.weights):
            writer.writerow([repr(float(dose)), arm, repr(float(w))])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _closed_form_method(scn: Scenario) -> Optional[str]:
    crit = scn.criterion
    if crit.kind == "ac":
        return "closed-form/ac" if isinstance(scn.drug.mean, MichaelisMenten) else "numeric/ac-elfving"
    if crit.kind == "phi_p" and crit.p == 0.0 and crit.K is None:
        curve = "mm" if isinstance(scn.drug.mean, MichaelisMenten) else "emax"
        return f"closed-form/{curve}-d"
    return None


def _solve_scenario(scn: Scenario) -> tuple[Design, str, Optional[SolveResult]]:
    """Design, method and, for a numeric solve, the solver's result."""
    method = _closed_form_method(scn)
    if method == "closed-form/ac" or method == "numeric/ac-elfving":
        return ac_optimal(scn.drug, scn.control), method, None
    if method is not None:
        return solve_d_optimal(scn.drug, scn.control), method, None
    result = numeric_solve(scn.drug, scn.control, scn.criterion, scn.options)
    return result.design, result.method, result


def _scenario_with_options(args) -> Scenario:
    """Parse the scenario and apply --grid to its solver options."""
    scn = parse_scenario(args.scenario)
    if args.grid is not None:
        scn.options = replace(scn.options, grid_size=args.grid)
    return scn


def cmd_solve(args) -> int:
    scn = _scenario_with_options(args)
    design, method, result = _solve_scenario(scn)
    converged = result.converged if result is not None else True
    report = result.report if result is not None else None
    # only the polish loop has a stop reason and counts its iterations
    stop_reason = result.stop_reason if result is not None else None
    if report is None or report.tol != args.tol:
        report = verify(design, scn.drug, scn.control, scn.criterion, tol=args.tol)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_design_csv(design, out_dir / "design.csv")
    payload = {
        "method": method,
        "design": [
            {"dose": sig6(d), "arm": a, "weight": sig6(w)}
            for (d, a), w in zip(design.points, design.weights)
        ],
        "criterion": _criterion_payload(scn, design),
        "verification": {
            "verdict": report.verdict,
            "max_violation": sig6(report.max_violation),
            "ginv": report.ginv_strategy,
        },
        "converged": converged,
        "solver_residual": sig6(result.max_violation if result is not None else 0.0),
        "stop_reason": stop_reason,
        "iterations": result.iterations if stop_reason is not None else None,
    }
    (out_dir / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"method: {method}")
        for (d, a), w in zip(design.points, design.weights):
            label = "control" if a == ARM_CONTROL else f"dose {sig6(d)}"
            print(f"  {label}: {100 * w:.4g}%")
        print(f"verdict: {report.verdict} (max violation {report.max_violation:.3g})")
    if not converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _criterion_payload(scn: Scenario, design: Design) -> dict:
    crit = scn.criterion
    if crit.kind == "ac":
        return {"kind": "ac", "psi": sig6(psi_ac(design, scn.drug, scn.control))}
    K, p = resolve_spec(crit, scn.drug, scn.control)
    return {
        "kind": "phi_p",
        "p": p if math.isfinite(p) else "-inf",
        "value": sig6(phi_p(design, scn.drug, scn.control, K, p)),
    }


def cmd_verify(args) -> int:
    scn = parse_scenario(args.scenario)
    design = read_design_csv(args.design)
    report = verify(
        design, scn.drug, scn.control, scn.criterion,
        grid_size=512 if args.grid is None else args.grid, tol=args.tol,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_csv(out_dir / "sensitivity.csv")
    summary = {
        "verdict": report.verdict,
        "max_violation": sig6(report.max_violation),
        "argmax_dose": sig6(report.argmax_dose),
        "control_sensitivity": sig6(report.control_value),
        "support_residuals": [sig6(r) for r in report.support_residuals],
        "ginv": report.ginv_strategy,
    }
    (out_dir / "verify.json").write_text(json.dumps(summary, indent=2) + "\n")
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"verdict: {report.verdict} (max violation {report.max_violation:.3g})")
    return EXIT_OK


def cmd_efficiency(args) -> int:
    scn = _scenario_with_options(args)
    design = read_design_csv(args.design)
    optimum = _solve_scenario(scn)[0]
    crit = scn.criterion
    if crit.kind == "ac":
        values = {"ac_efficiency": ac_efficiency(design, optimum, scn.drug, scn.control)}
    else:
        key = "d_efficiency" if crit.p == 0.0 and crit.K is None else "phi_p_efficiency"
        values = {key: phi_p_efficiency(design, optimum, scn.drug, scn.control, crit.K, crit.p)}
    payload = {k: sig6(v) for k, v in values.items()}
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    from .reproduce import run_reproduction

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ok = run_reproduction(out_dir, print)
    return EXIT_OK if ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="acdesign",
        description="Optimal designs for dose-finding studies with an active control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid", type=int, default=None, help="dose grid size")
    common.add_argument("--tol", type=float, default=1e-5, help="equivalence tolerance")
    common.add_argument("--json", action="store_true", help="print JSON to stdout")
    common.add_argument("--out", default=".", help="output directory")

    p_solve = sub.add_parser("solve", parents=[common], help="solve a scenario")
    p_solve.add_argument("scenario")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", parents=[common], help="verify a design")
    p_verify.add_argument("scenario")
    p_verify.add_argument("design")
    p_verify.set_defaults(func=cmd_verify)

    p_eff = sub.add_parser("efficiency", parents=[common], help="efficiency of a design")
    p_eff.add_argument("scenario")
    p_eff.add_argument("design")
    p_eff.set_defaults(func=cmd_efficiency)

    p_rep = sub.add_parser("reproduce", parents=[common], help="rebuild the benchmark tables")
    p_rep.set_defaults(func=cmd_reproduce)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except AcdesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
