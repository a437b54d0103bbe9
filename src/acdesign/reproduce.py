"""Benchmark reproduction: two clinical dose-finding case studies.

A gouty-arthritis trial (Emax curve on [0, 300] mg, normal and negative
binomial readings) and an acute-migraine trial (Emax on [0, 200] mg, normal
and binomial readings) come with published D- and AC-optimal designs and
efficiencies of the standard designs actually used.  This module rebuilds
every cell and checks it against the published value.

Each cell compares the certified optimum with the published value.  The
discrete-data cells (the gouty negative-binomial D dose and the two
discrete target-dose rows with their efficiencies) are not optimal for the
models as printed, so they show FAIL here and the notes column says why.
The README's benchmark section carries the analysis.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .criteria import ac_efficiency, d_efficiency
from .designs import ARM_CONTROL, ARM_DRUG, Design
from .models import (
    Binomial,
    ControlModel,
    DrugModel,
    Emax,
    NegativeBinomial,
    Normal,
)
from .solvers import ac_optimal, solve_d_optimal

SIGMA2 = 0.05**2


def gouty_models(family: str) -> tuple[DrugModel, ControlModel]:
    mean = Emax(0.26, 0.73, 10.5)
    rng = (0.0, 300.0)
    if family == "normal":
        return (
            DrugModel(Normal(SIGMA2), mean, rng),
            ControlModel(Normal(SIGMA2), 0.9206),
        )
    if family == "negative_binomial":
        return (
            DrugModel(NegativeBinomial(10), mean, rng),
            ControlModel(NegativeBinomial(10), 0.9206),
        )
    raise ValueError(family)


def migraine_models(family: str) -> tuple[DrugModel, ControlModel]:
    mean = Emax(0.098, 0.2052, 12.3)
    rng = (0.0, 200.0)
    if family == "normal":
        return (
            DrugModel(Normal(SIGMA2), mean, rng),
            ControlModel(Normal(SIGMA2), 0.2505),
        )
    if family == "binomial":
        return (DrugModel(Binomial(), mean, rng), ControlModel(Binomial(), 0.2505))
    raise ValueError(family)


def gouty_standard_design() -> Design:
    pts = [(d, ARM_DRUG) for d in (25.0, 50.0, 100.0, 200.0, 300.0)]
    wts = [0.143] * 5
    pts.append((0.0, ARM_CONTROL))
    wts.append(0.285)
    return Design.from_points(pts, wts)


def migraine_standard_design() -> Design:
    doses = (0.0, 2.5, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0)
    weights = (0.21, 0.05, 0.07, 0.10, 0.10, 0.11, 0.10, 0.10)
    pts = [(d, ARM_DRUG) for d in doses]
    wts = list(weights)
    pts.append((0.0, ARM_CONTROL))
    wts.append(0.16)
    return Design.from_points(pts, wts)


@dataclass
class Cell:
    table: str
    label: str
    computed: float
    published: float
    tolerance: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return abs(self.computed - self.published) <= self.tolerance


def _design_cells(table: str, row: str, design: Design, spec: list[tuple[str, float, float]],
                  note_map: dict[str, str] | None = None) -> list[Cell]:
    """Compare a design against (label, published, tolerance) triples.

    'dose<i>' is the i-th published drug dose, paired with the nearest
    computed drug dose; 'weight<i>' is the weight of that computed dose and
    'control' the control weight.  A computed dose paired with no published
    one gets rows of its own, numbered after the published ones, with a
    published value of nan.
    """
    doses = design.drug_doses
    weights = design.drug_weights
    notes = note_map or {}
    nearest = {
        int(label[4:]): int(np.argmin(np.abs(doses - published)))
        for label, published, _ in spec if label.startswith("dose")
    }
    cells = []
    for label, published, tol in spec:
        if label.startswith("dose"):
            computed = float(doses[nearest[int(label[4:])]])
        elif label.startswith("weight"):
            computed = float(weights[nearest[int(label[6:])]])
        elif label == "control":
            computed = design.control_weight
        else:
            raise ValueError(label)
        cells.append(Cell(table, f"{row}/{label}", computed, published, tol, notes.get(label, "")))
    unpaired = sorted(set(range(doses.size)) - set(nearest.values()))
    for i, j in enumerate(unpaired, start=max(nearest, default=-1) + 1):
        note = "computed support point with no published dose near it"
        cells.append(Cell(table, f"{row}/dose{i}", float(doses[j]), math.nan, math.nan, note))
        cells.append(Cell(table, f"{row}/weight{i}", float(weights[j]), math.nan, math.nan, note))
    return cells


def build_cells() -> list[Cell]:
    cells: list[Cell] = []
    third = 1.0 / 3.0
    ninth2 = 2.0 / 9.0

    # ---- D-optimal table -------------------------------------------------
    dn_drug, dn_ctrl = gouty_models("normal")
    des = solve_d_optimal(dn_drug, dn_ctrl)
    cells += _design_cells(
        "d-table", "gouty-normal", des,
        [("dose0", 0.0, 0.05), ("dose1", 9.81, 0.05), ("dose2", 300.0, 0.05),
         ("weight0", ninth2, 0.002), ("weight1", ninth2, 0.002),
         ("weight2", ninth2, 0.002), ("control", third, 0.002)],
    )
    cells.append(Cell(
        "d-table", "gouty-normal/standard-efficiency",
        d_efficiency(gouty_standard_design(), des, dn_drug, dn_ctrl), 0.25, 0.01,
    ))

    nb_drug, nb_ctrl = gouty_models("negative_binomial")
    des_nb = solve_d_optimal(nb_drug, nb_ctrl)
    cells += _design_cells(
        "d-table", "gouty-negbin", des_nb,
        [("dose0", 0.0, 0.05), ("dose1", 8.23, 0.05), ("dose2", 300.0, 0.05),
         ("weight0", 0.25, 0.002), ("weight1", 0.25, 0.002),
         ("weight2", 0.25, 0.002), ("control", 0.25, 0.002)],
        note_map={"dose1": "published 8.23; the stationarity equation root is 8.178 (see README)"},
    )
    cells.append(Cell(
        "d-table", "gouty-negbin/standard-efficiency",
        d_efficiency(gouty_standard_design(), des_nb, nb_drug, nb_ctrl), 0.11, 0.01,
    ))
    cells.append(Cell(
        "d-table", "gouty/cross-model-efficiency",
        d_efficiency(des, des_nb, nb_drug, nb_ctrl), 0.98, 0.01,
    ))

    mn_drug, mn_ctrl = migraine_models("normal")
    des_mn = solve_d_optimal(mn_drug, mn_ctrl)
    cells += _design_cells(
        "d-table", "migraine-normal", des_mn,
        [("dose0", 0.0, 0.05), ("dose1", 10.95, 0.05), ("dose2", 200.0, 0.05),
         ("weight0", ninth2, 0.002), ("weight1", ninth2, 0.002),
         ("weight2", ninth2, 0.002), ("control", third, 0.002)],
    )
    cells.append(Cell(
        "d-table", "migraine-normal/standard-efficiency",
        d_efficiency(migraine_standard_design(), des_mn, mn_drug, mn_ctrl), 0.84, 0.01,
    ))

    bi_drug, bi_ctrl = migraine_models("binomial")
    des_bi = solve_d_optimal(bi_drug, bi_ctrl)
    cells += _design_cells(
        "d-table", "migraine-binomial", des_bi,
        [("dose0", 0.0, 0.05), ("dose1", 9.05, 0.05), ("dose2", 200.0, 0.05),
         ("weight0", 0.25, 0.002), ("weight1", 0.25, 0.002),
         ("weight2", 0.25, 0.002), ("control", 0.25, 0.002)],
    )
    cells.append(Cell(
        "d-table", "migraine-binomial/standard-efficiency",
        d_efficiency(migraine_standard_design(), des_bi, bi_drug, bi_ctrl), 0.86, 0.01,
    ))
    cells.append(Cell(
        "d-table", "migraine/cross-model-efficiency",
        d_efficiency(des_mn, des_bi, bi_drug, bi_ctrl), 0.98, 0.01,
    ))

    # ---- AC-optimal table -------------------------------------------------
    acn = ac_optimal(dn_drug, dn_ctrl)
    cells += _design_cells(
        "ac-table", "gouty-normal", acn,
        [("dose0", 101.06, 1.5), ("weight0", 0.4999, 0.001), ("control", 0.5001, 0.001)],
    )
    cells.append(Cell(
        "ac-table", "gouty-normal/standard-efficiency",
        ac_efficiency(gouty_standard_design(), acn, dn_drug, dn_ctrl), 0.66, 0.01,
    ))

    note_nb = "published design cannot estimate the target dose; see README"
    acnb = ac_optimal(nb_drug, nb_ctrl)
    cells += _design_cells(
        "ac-table", "gouty-negbin", acnb,
        [("dose0", 5.44, 0.05), ("dose1", 300.0, 0.05),
         ("weight0", 0.076, 0.005), ("weight1", 0.356, 0.005), ("control", 0.568, 0.005)],
        note_map={k: note_nb for k in ("dose0", "dose1", "weight0", "weight1", "control")},
    )
    cells.append(Cell(
        "ac-table", "gouty-negbin/standard-efficiency",
        ac_efficiency(gouty_standard_design(), acnb, nb_drug, nb_ctrl), 0.48, 0.01,
        note=note_nb,
    ))

    acm = ac_optimal(mn_drug, mn_ctrl)
    cells += _design_cells(
        "ac-table", "migraine-normal", acm,
        [("dose0", 35.739, 0.2), ("weight0", 0.4999, 0.001), ("control", 0.5001, 0.001)],
    )
    cells.append(Cell(
        "ac-table", "migraine-normal/standard-efficiency",
        ac_efficiency(migraine_standard_design(), acm, mn_drug, mn_ctrl), 0.48, 0.01,
    ))

    note_bi = "published design cannot estimate the target dose; see README"
    acb = ac_optimal(bi_drug, bi_ctrl)
    # the design of least psi has one dose; both published doses pair with it
    spec_bi = [("dose0", 0.0, 0.05), ("dose1", 200.0, 0.05),
               ("weight0", 0.0734, 0.005), ("weight1", 0.4195, 0.005),
               ("control", 0.5071, 0.005)]
    cells += _design_cells(
        "ac-table", "migraine-binomial", acb, spec_bi,
        note_map={k: note_bi for k, _, _ in spec_bi},
    )
    cells.append(Cell(
        "ac-table", "migraine-binomial/standard-efficiency",
        ac_efficiency(migraine_standard_design(), acb, bi_drug, bi_ctrl), 0.47, 0.01,
        note=note_bi,
    ))
    return cells


def run_reproduction(save: Callable[[str, str], None], emit: Callable[[str], None]) -> bool:
    """Save each benchmark table as save(file name, CSV text); report pass/fail per cell."""
    cells = build_cells()
    for table in ("d-table", "ac-table"):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["cell", "computed", "published", "tolerance", "status", "note"])
        for cell in cells:
            if cell.table != table:
                continue
            writer.writerow([
                cell.label,
                f"{cell.computed:.6g}",
                f"{cell.published:.6g}",
                f"{cell.tolerance:.6g}",
                "pass" if cell.passed else "FAIL",
                cell.note,
            ])
        save(f"{table}.csv", buf.getvalue())
    ok = True
    for cell in cells:
        status = "pass" if cell.passed else "FAIL"
        if not cell.passed:
            ok = False
        line = (
            f"[{status}] {cell.table} {cell.label}: computed {cell.computed:.6g}, "
            f"published {cell.published:.6g} (tol {cell.tolerance:.6g})"
        )
        if cell.note and not cell.passed:
            line += f" -- {cell.note}"
        emit(line)
    emit("all cells pass" if ok else "some cells FAIL (see notes column)")
    return ok
