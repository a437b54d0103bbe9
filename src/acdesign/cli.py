"""Batch command line: solve, verify and compare designs from scenario files.

Scenario files are flat key = value text with dotted sections; designs
travel as dose,arm,weight CSV; reports are JSON.  Exit status is 0 on
success, 2 for validation problems, 3 when a numeric solve does not
converge and 141 when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
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
from .equivalence import VERIFY_GRID, verify
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
EXIT_BROKEN_PIPE = 141  # as a process killed by SIGPIPE, 128 + 13


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
    "solver.grid_size",
    "solver.max_iterations",
    "solver.multistart",
    "solver.seed",
}


@dataclass
class Scenario:
    drug: DrugModel
    control: ControlModel
    criterion: CriterionSpec
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
    except (OSError, UnicodeDecodeError) as exc:
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

    opts = SolveOptions(
        grid_size=_as_int(kv, "solver.grid_size", 257),
        max_iterations=_as_int(kv, "solver.max_iterations", 400),
        multistart_count=_as_int(kv, "solver.multistart", 4),
        seed=_as_int(kv, "solver.seed", 0),
    )
    return Scenario(drug, control, criterion, opts)


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
                # a short row leaves None values, a long one a None key
                if None in row or None in row.values():
                    raise ScenarioError(
                        f"design file {path}, line {reader.line_num}: expected dose,arm,weight"
                    )
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
    # the rows csv.writer gives for numbers: no quoting, "\r\n" line ends
    rows = "".join(f"{float(dose)!r},{arm},{float(w)!r}\r\n"
                   for (dose, arm), w in zip(design.points, design.weights))
    _write_output(path, "dose,arm,weight\r\n" + rows)


def _write_output(path: str | Path, text: str) -> None:
    """Write an output file in one call; a path that cannot be written exits 2."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ScenarioError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _solve_scenario(scn: Scenario) -> tuple[Design, str, Optional[SolveResult]]:
    """Design, method and, for a numeric solve, the solver's result."""
    crit = scn.criterion
    mm = isinstance(scn.drug.mean, MichaelisMenten)
    if crit.kind == "ac":
        method = "closed-form/ac" if mm else "numeric/ac-elfving"
        return ac_optimal(scn.drug, scn.control), method, None
    if crit.p == 0.0 and crit.K is None:
        method = f"closed-form/{'mm' if mm else 'emax'}-d"
        return solve_d_optimal(scn.drug, scn.control), method, None
    result = numeric_solve(scn.drug, scn.control, crit, scn.options)
    return result.design, result.method, result


def _scenario_with_options(args) -> Scenario:
    """Parse the scenario and apply --grid to its solver options."""
    scn = parse_scenario(args.scenario)
    if args.grid is not None:
        scn.options = replace(scn.options, grid_size=args.grid)
    return scn


def _out_dir(path: str) -> Path:
    """The output directory, created if missing."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot use output directory {path}: {exc}") from exc
    return out


def cmd_solve(args) -> int:
    scn = _scenario_with_options(args)
    design, method, result = _solve_scenario(scn)
    converged = result.converged if result is not None else True
    report = result.report if result is not None else None
    # only the polish loop has a stop reason and counts its iterations
    stop_reason = result.stop_reason if result is not None else None
    if report is None or report.tol != args.tol:
        report = verify(design, scn.drug, scn.control, scn.criterion, tol=args.tol)
    out_dir = _out_dir(args.out)
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
    text = json.dumps(payload, indent=2)
    _write_output(out_dir / "report.json", text + "\n")
    if args.json:
        print(text)
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
        grid_size=VERIFY_GRID if args.grid is None else args.grid, tol=args.tol,
    )
    out_dir = _out_dir(args.out)
    _write_output(out_dir / "sensitivity.csv", report.csv_text())
    summary = {
        "verdict": report.verdict,
        "max_violation": sig6(report.max_violation),
        "argmax_dose": sig6(report.argmax_dose),
        "control_sensitivity": sig6(report.control_value),
        "support_residuals": [sig6(r) for r in report.support_residuals],
        "ginv": report.ginv_strategy,
    }
    text = json.dumps(summary, indent=2)
    _write_output(out_dir / "verify.json", text + "\n")
    if args.json:
        print(text)
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

    out_dir = _out_dir(args.out)
    ok = run_reproduction(lambda name, text: _write_output(out_dir / name, text), print)
    return EXIT_OK if ok else 1


_OPTIONS = {
    "--out": dict(default=".", help="output directory"),
    "--grid": dict(type=int, default=None, help="dose grid size"),
    "--tol": dict(type=float, default=1e-5, help="equivalence tolerance"),
    "--json": dict(action="store_true", help="print JSON to stdout"),
}

# name: (help, positional arguments, options), as the README synopsis lists them
_COMMANDS = {
    "solve": ("solve a scenario", ["scenario"], ["--out", "--grid", "--tol", "--json"]),
    "verify": ("verify a design", ["scenario", "design"], ["--out", "--grid", "--tol", "--json"]),
    "efficiency": ("efficiency of a design", ["scenario", "design"], ["--grid", "--json"]),
    "reproduce": ("rebuild the benchmark tables", [], ["--out"]),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call to main."""
    parser = argparse.ArgumentParser(
        prog="acdesign",
        description="Optimal designs for dose-finding studies with an active control",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in positionals:
            p.add_argument(arg)
        for opt in options:
            p.add_argument(opt, **_OPTIONS[opt])
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # looked up on each call, so that a replaced cmd_* is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        status = command(args)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return status
    except AcdesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        # stdout's reader closed it (`acdesign reproduce | head`); what is
        # still buffered goes to devnull so that the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
