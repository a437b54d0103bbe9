"""Workload generators and correctness checks.

Each workload turns a seed into a fixed list of `Op`s.  `Op.run` is the
timed call into acdesign; `Op.check` runs after the timed loop and compares
the output with the benchmark's own evaluator (`oracle`) or with a property
the method must have.  The same seed always gives the same list.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import acdesign as ac
import acdesign.cli
import acdesign.reproduce
import oracle as orc
from oracle import Spec

FAMILIES = ("normal", "negative_binomial", "binomial", "poisson")
CURVES = ("mm", "emax")

# options as a scenario file sets them for the exchange solver
SOLVE_OPTS = dict(grid_size=129, max_iterations=150, multistart_count=1, seed=0)

D_SPEC = ac.CriterionSpec("phi_p", 0.0)
AC_SPEC = ac.CriterionSpec("ac")


class CheckError(AssertionError):
    """An output disagrees with the benchmark's own computation."""


class OpFailed(RuntimeError):
    """The program did not produce a result (an error, or the wrong exit code)."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]  # the timed call; raises when the program fails
    check: Callable[[Any], None]  # raises CheckError on a wrong output
    fingerprint: Callable[[Any], Any]  # what later rounds must reproduce


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

PAPER = {
    "gouty-normal": Spec("emax", 0.26, 0.73, 10.5, 300.0, "normal", 0.9206),
    "gouty-negbin": Spec("emax", 0.26, 0.73, 10.5, 300.0, "negative_binomial", 0.9206),
    "migraine-normal": Spec("emax", 0.098, 0.2052, 12.3, 200.0, "normal", 0.2505),
    "migraine-binomial": Spec("emax", 0.098, 0.2052, 12.3, 200.0, "binomial", 0.2505),
}


def draw_spec(rng: np.random.Generator, curve: str, family: str, u=(0.3, 0.8)) -> Spec:
    """A random model whose control mean lies inside the curve's range,
    at a uniform share in `u` of the way from its lowest to its highest mean."""
    R = float(rng.choice([100.0, 200.0, 300.0]))
    ed50 = float(rng.uniform(0.03, 0.15)) * R
    if curve == "mm":
        e0, emax = 0.0, float(rng.uniform(0.4, 0.85))
    else:
        e0, emax = float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.3, 0.6))
    lo, hi = e0, e0 + emax * R / (ed50 + R)
    mu = lo + float(rng.uniform(*u)) * (hi - lo)
    return Spec(curve, e0, emax, ed50, R, family, mu)


def draw_ac_spec(rng: np.random.Generator, family: str, one_point: bool) -> Spec:
    """A Michaelis-Menten draw whose target-dose optimum has the asked-for shape.

    One-point optima have singular information and take verify's
    null-adjusted LP path; two-point ones do not, and cost a third as much.
    Fixing the mix per seed keeps the round's length independent of the seed.
    The negative binomial optimum always has two points.
    """
    for _ in range(200):
        spec = draw_spec(rng, "mm", family, u=(0.1, 0.9))
        if orc.one_point_optimal(spec) == one_point:
            return spec
    raise RuntimeError(f"no {family} draw with a one-point optimum = {one_point}")


def one_point_mix(family: str, k: int) -> bool:
    return family != "negative_binomial" and k % 2 == 0


def program_models(spec: Spec) -> tuple[ac.DrugModel, ac.ControlModel]:
    family = {
        "normal": lambda: ac.Normal(spec.sigma2),
        "negative_binomial": lambda: ac.NegativeBinomial(spec.r),
        "binomial": ac.Binomial,
        "poisson": ac.Poisson,
    }[spec.family]
    if spec.curve == "mm":
        mean = ac.MichaelisMenten(spec.emax, spec.ed50)
    else:
        mean = ac.Emax(spec.e0, spec.emax, spec.ed50)
    return ac.DrugModel(family(), mean, (0.0, spec.R)), ac.ControlModel(family(), spec.mu)


def as_tuple(design: ac.Design):
    return design.drug_doses, design.drug_weights, design.control_weight


def program_design(doses, drug_weights, control_weight) -> ac.Design:
    pts = [(float(d), ac.ARM_DRUG) for d in doses] + [(0.0, ac.ARM_CONTROL)]
    wts = [float(w) for w in drug_weights] + [float(control_weight)]
    return ac.Design(tuple(pts), tuple(wts))


def uniform_design(spec: Spec):
    """Five equally spaced doses and the control, equal weights."""
    return np.linspace(0.0, spec.R, 5), np.full(5, 1.0 / 6.0), 1.0 / 6.0


def standard_design(name: str):
    """The standard designs of the two case studies, as published."""
    if name.startswith("gouty"):
        return np.array([25.0, 50.0, 100.0, 200.0, 300.0]), np.full(5, 0.143), 0.285
    doses = np.array([0.0, 2.5, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0])
    return doses, np.array([0.21, 0.05, 0.07, 0.10, 0.10, 0.11, 0.10, 0.10]), 0.16


def perturbed(design):
    """An optimum moved off its optimum: inner doses shift, weight moves to the last dose."""
    doses, wd, wc = (np.array(x, float) if i < 2 else x for i, x in enumerate(design))
    R = doses.max()
    inner = (doses > 0) & (doses < R)
    doses[inner] = np.minimum(doses[inner] * 1.25 + 0.01 * R, 0.9 * R)
    wd[0] -= 0.05
    wd[-1] += 0.05
    return doses, wd, wc


def full_k(spec: Spec, kind: str) -> tuple[ac.KMatrix, np.ndarray]:
    """Contrast of the given kind, for the program and as a plain matrix.

    block: every parameter; stacked: (emax - control mean, ed50) sharing
    columns across the arms; partial: the curve's emax and ed50 and the
    control mean only.
    """
    s1, s2 = spec.s1, spec.s2
    i_emax = spec.m - 2
    if kind == "block":
        k11, k22 = np.eye(s1), np.eye(s2)
    elif kind == "stacked":
        k11 = np.zeros((s1, 2))
        k11[i_emax, 0] = 1.0
        k11[i_emax + 1, 1] = 1.0
        k22 = np.zeros((s2, 2))
        k22[0, 0] = -1.0
        return ac.KMatrix.stacked(k11, k22), np.vstack([k11, k22])
    else:
        k11 = np.zeros((s1, 2))
        k11[i_emax, 0] = 1.0
        k11[i_emax + 1, 1] = 1.0
        k22 = np.zeros((s2, 1))
        k22[0, 0] = 1.0
    full = np.zeros((s1 + s2, k11.shape[1] + k22.shape[1]))
    full[:s1, : k11.shape[1]] = k11
    full[s1:, k11.shape[1]:] = k22
    return ac.KMatrix.block(k11, k22), full


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# certify: verify at grid 512 plus an efficiency, on prebuilt designs
# ---------------------------------------------------------------------------

def check_verify_d(spec: Spec, design, expect: str, rep, ref_design, optimum, eff):
    """Verdict and maximum violation against the benchmark's own D sensitivity,
    and the D-efficiency of `ref_design` against `optimum`."""
    M = orc.design_info(spec, design)
    own, _ = orc.max_violation(spec, M, orc.block_identity(spec), 0.0, design[0])
    require(abs(rep.max_violation - own) <= 1e-6 * max(1.0, abs(own)),
            f"max violation {rep.max_violation:.9g}, own D sensitivity {own:.9g}")
    if expect == "optimal":
        require(own <= 1e-6, f"own D sensitivity {own:.3g} > 0 on an optimum")
    else:
        require(own > 1e-3, f"own directional derivative {own:.3g} not positive")
    require(rep.verdict == expect, f"verdict {rep.verdict}, expected {expect}")
    K = orc.block_identity(spec)
    ratio = orc.phi_p(orc.design_info(spec, ref_design), K, 0.0) / orc.phi_p(
        orc.design_info(spec, optimum), K, 0.0)
    require(0.0 < eff <= 1.0, f"D-efficiency {eff} outside (0, 1]")
    require(rel_close(eff, ratio, 1e-9), f"D-efficiency {eff:.12g}, own {ratio:.12g}")


def check_ac_optimal(spec: Spec, design) -> float:
    """Elfving certificate: psi no larger than the best design on a dense grid."""
    value = orc.psi(spec, *design)
    bound = orc.psi_bound(spec, design[0])
    require(value <= bound * (1.0 + 1e-6), f"psi {value:.9g} above the Elfving optimum {bound:.9g}")
    return value


def _verify_d_op(name, spec, design, expect, ref_design, optimum):
    drug, ctrl = program_models(spec)
    prog = program_design(*design)
    ref, opt = program_design(*ref_design), program_design(*optimum)

    def run():
        rep = ac.verify(prog, drug, ctrl, D_SPEC)
        return rep, ac.d_efficiency(ref, opt, drug, ctrl)

    def check(out):
        rep, eff = out
        check_verify_d(spec, design, expect, rep, ref_design, optimum, eff)

    return Op(name, run, check, lambda out: (out[0].verdict, out[0].max_violation, out[1]))


def _verify_ac_op(name, spec, design, comparator):
    drug, ctrl = program_models(spec)
    prog, comp = program_design(*design), program_design(*comparator)

    def run():
        rep = ac.verify(prog, drug, ctrl, AC_SPEC)
        return rep, ac.ac_efficiency(comp, prog, drug, ctrl)

    def check(out):
        rep, eff = out
        require(rep.verdict == "optimal", f"verdict {rep.verdict} on a target-dose optimum")
        value = check_ac_optimal(spec, design)
        M = orc.design_info(spec, design)
        if np.linalg.eigvalsh(M)[0] > 1e-10 * np.linalg.eigvalsh(M)[-1]:
            g = np.concatenate(orc.target_gradients(spec)).reshape(-1, 1)
            own, _ = orc.max_violation(spec, M, g, -1.0, design[0])
            require(abs(rep.max_violation - own) <= 1e-6 * max(1.0, abs(own)),
                    f"max violation {rep.max_violation:.9g}, own {own:.9g}")
        ratio = value / orc.psi(spec, *comparator)
        require(0.0 < eff <= 1.0, f"AC-efficiency {eff} outside (0, 1]")
        require(rel_close(eff, ratio, 1e-8), f"AC-efficiency {eff:.12g}, own {ratio:.12g}")

    return Op(name, run, check, lambda out: (out[0].verdict, out[0].max_violation, out[1]))


def certify(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for curve in CURVES:
        for fam in FAMILIES:
            for k in range(2):
                spec = draw_spec(rng, curve, fam)
                opt = as_tuple(ac.solve_d_optimal(*program_models(spec)))
                ops.append(_verify_d_op(f"d-opt/{curve}-{fam}-{k}", spec, opt, "optimal",
                                        uniform_design(spec), opt))
            pert = perturbed(opt)
            ops.append(_verify_d_op(f"perturbed/{curve}-{fam}", spec, pert, "not-optimal", pert, opt))
    for fam in FAMILIES:
        for k in range(2):
            spec = draw_ac_spec(rng, fam, one_point_mix(fam, k))
            drug, ctrl = program_models(spec)
            ops.append(_verify_ac_op(f"ac-opt/mm-{fam}-{k}", spec,
                                     as_tuple(ac.ac_optimal(drug, ctrl)),
                                     as_tuple(ac.solve_d_optimal(drug, ctrl))))
    # Emax target-dose optima need the grid LP (0.25-1 s each), so they come
    # from the fixed case-study models rather than from seeded draws
    for name in ("gouty-normal", "migraine-normal", "migraine-binomial"):
        spec = PAPER[name]
        drug, ctrl = program_models(spec)
        ops.append(_verify_ac_op(f"ac-opt/{name}", spec, as_tuple(ac.ac_optimal(drug, ctrl)),
                                 standard_design(name)))
    for name, spec in PAPER.items():
        opt = as_tuple(ac.solve_d_optimal(*program_models(spec)))
        std = standard_design(name)
        ops.append(_verify_d_op(f"standard/{name}", spec, std, "not-optimal", std, opt))
    return ops


# ---------------------------------------------------------------------------
# target-dose: ac_optimal, the target dose and psi; the case-study tables
# ---------------------------------------------------------------------------

def comparison_designs(spec: Spec, design):
    """Feasible designs around a target-dose optimum: each dose moved by 1 %
    of the range, and 0.01 of weight moved between the arms and the doses."""
    doses, wd, wc = (np.asarray(design[0], float), np.asarray(design[1], float), design[2])
    out = []
    for i in range(doses.size):
        for step in (-0.01, 0.01):
            moved = doses.copy()
            moved[i] = min(max(moved[i] + step * spec.R, 0.0), spec.R)
            if np.unique(moved).size == moved.size:
                out.append((moved, wd, wc))
    scale = np.full(wd.size, 0.01 / wd.size)
    out.append((doses, wd + scale, wc - 0.01))
    if np.all(wd > scale):
        out.append((doses, wd - scale, wc + 0.01))
    for i in range(doses.size):
        for j in range(doses.size):
            if i != j and wd[j] > 0.01:
                w = wd.copy()
                w[i] += 0.01
                w[j] -= 0.01
                out.append((doses, w, wc))
    # and the one-point design at the target dose
    dstar = orc.target_dose(spec)
    out.append((np.array([dstar]), np.array([1.0 - wc]), wc))
    return out


def check_target_dose(spec: Spec, dose: float, design, psi_value: float):
    own_dose = orc.target_dose(spec)
    require(abs(dose - own_dose) <= 1e-9 * spec.R, f"target dose {dose!r}, own inversion {own_dose!r}")
    own = check_ac_optimal(spec, design)
    require(rel_close(psi_value, own, 1e-8), f"psi {psi_value:.12g}, own {own:.12g}")
    for comp in comparison_designs(spec, design):
        try:
            other = orc.psi(spec, *comp)
        except ValueError:
            continue  # the comparison design cannot estimate the target dose
        require(own <= other * (1.0 + 1e-9),
                f"psi {own:.12g} above that of a comparison design ({other:.12g})")


def _target_op(name, spec):
    drug, ctrl = program_models(spec)

    def run():
        dose = ac.target_dose(drug, ctrl)
        design = ac.ac_optimal(drug, ctrl)
        return dose, design, ac.psi_ac(design, drug, ctrl)

    def check(out):
        dose, design, psi_value = out
        check_target_dose(spec, dose, as_tuple(design), psi_value)

    return Op(name, run, check, lambda out: out)


def check_cells(cells) -> None:
    """Recompute what the benchmark can: the D-optimal rows and every efficiency.

    The pass/FAIL column compares with published numbers and is not checked.
    """
    by_label = {(c.table, c.label): c.computed for c in cells}
    d_opt = {}
    for name, spec in PAPER.items():
        doses = np.array([by_label["d-table", f"{name}/dose{i}"] for i in range(3)])
        wd = np.array([by_label["d-table", f"{name}/weight{i}"] for i in range(3)])
        design = (doses, wd, by_label["d-table", f"{name}/control"])
        require(abs(wd.sum() + design[2] - 1.0) <= 1e-9, f"{name}: D-table weights do not sum to 1")
        M = orc.design_info(spec, design)
        own, _ = orc.max_violation(spec, M, orc.block_identity(spec), 0.0, doses)
        require(own <= 1e-6, f"{name}: D-table design not D-optimal (sensitivity {own:.3g})")
        d_opt[name] = design
        std = standard_design(name)
        K = orc.block_identity(spec)
        ratio = orc.phi_p(orc.design_info(spec, std), K, 0.0) / orc.phi_p(M, K, 0.0)
        got = by_label["d-table", f"{name}/standard-efficiency"]
        require(rel_close(got, ratio, 1e-8), f"{name}: D standard efficiency {got}, own {ratio:.9g}")
    for study, (a, b) in {"gouty": ("gouty-normal", "gouty-negbin"),
                          "migraine": ("migraine-normal", "migraine-binomial")}.items():
        spec = PAPER[b]
        K = orc.block_identity(spec)
        ratio = orc.phi_p(orc.design_info(spec, d_opt[a]), K, 0.0) / orc.phi_p(
            orc.design_info(spec, d_opt[b]), K, 0.0)
        got = by_label["d-table", f"{study}/cross-model-efficiency"]
        require(rel_close(got, ratio, 1e-8), f"{study}: cross-model efficiency {got}, own {ratio:.9g}")
    for name, spec in PAPER.items():
        bound = orc.psi_bound(spec)
        ratio = bound / orc.psi(spec, *standard_design(name))
        got = by_label["ac-table", f"{name}/standard-efficiency"]
        require(rel_close(got, ratio, 1e-5), f"{name}: AC standard efficiency {got}, own {ratio:.9g}")
    for name in ("gouty-normal", "migraine-normal"):
        dstar = orc.target_dose(PAPER[name])
        got = by_label["ac-table", f"{name}/dose0"]
        require(abs(got - dstar) <= 1e-6 * PAPER[name].R, f"{name}: AC dose {got}, own {dstar:.9g}")


def _cells_op():
    def run():
        # looked up at call time, like every call in an Op, so the tracer's wrapper is seen
        return acdesign.reproduce.build_cells()

    return Op("reproduce/build_cells", run, check_cells,
              lambda cells: tuple((c.label, c.computed) for c in cells))


def target_dose_workload(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    # below u = 0.45 some binomial optima take three times as long, which
    # would make the round's length depend on the seed
    for fam in FAMILIES:
        for k in range(3):
            ops.append(_target_op(f"emax-{fam}-{k}", draw_spec(rng, "emax", fam, u=(0.45, 0.8))))
    for fam in FAMILIES:
        for k in range(6):
            ops.append(_target_op(f"mm-{fam}-{k}", draw_ac_spec(rng, fam, one_point_mix(fam, k))))
    ops.append(_cells_op())
    return ops


# ---------------------------------------------------------------------------
# exchange: numeric_solve on general contrasts
# ---------------------------------------------------------------------------

def check_solve(spec: Spec, K: np.ndarray, p: float, result, references) -> None:
    """Certified optimum that beats every reference design on the own evaluator."""
    design = as_tuple(result.design)
    M = orc.design_info(spec, design)
    value = orc.phi_p(M, K, p)
    require(rel_close(result.criterion_value, value, 1e-6),
            f"criterion value {result.criterion_value:.12g}, own {value:.12g}")
    viol, _ = orc.max_violation(spec, M, K, p, design[0])
    require(viol <= 1e-5, f"own equivalence-theorem violation {viol:.3g} at the solver's design")
    require(result.converged and result.report.verdict == "optimal",
            f"solver reports converged={result.converged}, verdict {result.report.verdict}")
    for label, ref in references:
        other = orc.phi_p(orc.design_info(spec, ref), K, p)
        require(value >= other * (1.0 - 1e-9), f"criterion {value:.12g} below the {label} design's {other:.12g}")


def _solve_op(name, spec, kind, p):
    drug, ctrl = program_models(spec)
    kmat, K = full_k(spec, kind)
    crit = ac.CriterionSpec("phi_p", p, kmat)
    opts = ac.SolveOptions(**SOLVE_OPTS)
    refs = [("uniform", uniform_design(spec)),
            ("closed-form D", as_tuple(ac.solve_d_optimal(drug, ctrl)))]
    if name.startswith("paper/"):
        refs.append(("standard", standard_design(name.split("/")[1])))

    def run():
        return ac.numeric_solve(drug, ctrl, crit, opts)

    def check(result):
        extra = []
        if p == -1.0 and kind == "block":
            composed = ac.compose_active_control(result.design.induced(), drug, ctrl, kmat, p)
            extra.append(("composed", as_tuple(composed)))
        check_solve(spec, K, p, result, refs + extra)

    return Op(name, run, check,
              lambda r: (r.design, r.criterion_value, r.iterations, r.max_violation))


# (p, contrast) per family for the seeded Michaelis-Menten draws.  The mix
# leaves out the pairings that stall for 1-3 s on a few draws in 25: the
# negative binomial family, whose optimum sits at dose 0, and stacked
# contrasts at p = 0.  A slow solve on some seeds only would make ops_per_s
# depend on the seed; the stall itself is measured on the fixed case-study
# models below.
MM_MIX = {
    "normal": ((0.0, "block"), (-1.0, "stacked"), (-0.5, "partial")),
    "binomial": ((0.0, "partial"), (-1.0, "stacked"), (-0.5, "block")),
    "poisson": ((0.0, "block"), (-1.0, "partial"), (-0.5, "stacked")),
}
# Emax draws at p = 0; stacked contrasts run to the cap without a certified
# optimum (CHANGES.md, FOUND), and the partial contrast stalls for 1-5 s on
# some binomial (7 in 80) and Poisson (1 in 24) draws
EMAX_KINDS = {"normal": ("block", "partial"), "negative_binomial": ("block", "partial"),
              "binomial": ("block",), "poisson": ("block",)}


def exchange(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for fam, mix in MM_MIX.items():
        spec = draw_spec(rng, "mm", fam)
        for p, kind in mix:
            ops.append(_solve_op(f"mm-{fam}/p{p:g}/{kind}", spec, kind, p))
    # two draws a family: these two-iteration solves hold the median operation
    for fam in FAMILIES:
        for k in range(2):
            spec = draw_spec(rng, "emax", fam)
            for kind in EMAX_KINDS[fam]:
                ops.append(_solve_op(f"emax-{fam}-{k}/p0/{kind}", spec, kind, 0.0))
    # the case-study models: phi_{-1} stalls at the cap on three of the four
    for name, spec in PAPER.items():
        for p in (0.0, -1.0):
            ops.append(_solve_op(f"paper/{name}/p{p:g}", spec, "block", p))
    return ops


# ---------------------------------------------------------------------------
# cli: acdesign.cli.main in-process over files written during set-up
# ---------------------------------------------------------------------------

def scenario_text(spec: Spec, kind: str, p: float = 0.0) -> str:
    """Scenario file for `spec`; phi_p scenarios at p = 0 use the partial contrast."""
    lines = [f"drug.family = {spec.family}",
             f"drug.mean = {'michaelis_menten' if spec.curve == 'mm' else 'emax'}"]
    if spec.curve == "emax":
        lines.append(f"drug.e0 = {spec.e0!r}")
    lines += [f"drug.emax = {spec.emax!r}", f"drug.ed50 = {spec.ed50!r}"]
    fam_keys = {"normal": f"sigma2 = {spec.sigma2!r}", "negative_binomial": f"r = {spec.r}"}
    if spec.family in fam_keys:
        lines.append(f"drug.{fam_keys[spec.family]}")
    lines += ["dose.min = 0", f"dose.max = {spec.R!r}", f"control.mu = {spec.mu!r}"]
    if spec.family in fam_keys:
        lines.append(f"control.{fam_keys[spec.family]}")
    lines.append(f"criterion.kind = {kind}")
    if kind == "phi_p":
        lines.append(f"criterion.p = {p:g}")
        if p == 0.0:
            kmat = full_k(spec, "partial")[0]
            lines += [f"criterion.{key} = " + "; ".join(",".join(repr(float(x)) for x in row) for row in block)
                      for key, block in (("k11", kmat.k11), ("k22", kmat.k22))]
        lines += [
            f"solver.{key} = {SOLVE_OPTS[opt]}"
            for key, opt in (("grid_size", "grid_size"), ("max_iterations", "max_iterations"),
                             ("multistart", "multistart_count"), ("seed", "seed"))]
    return "\n".join(lines) + "\n"


def write_csv(path: Path, design) -> None:
    doses, wd, wc = design
    rows = [f"{float(d)!r},0,{float(w)!r}" for d, w in zip(doses, wd)] + [f"0,1,{float(wc)!r}"]
    path.write_text("dose,arm,weight\n" + "\n".join(rows) + "\n")


def read_csv(path: Path):
    """The benchmark's own reading of a dose,arm,weight file."""
    lines = path.read_text().split()
    require(lines[0] == "dose,arm,weight", f"{path.name}: header {lines[0]!r}")
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    drug = [(d, w) for d, a, w in rows if a == 0]
    wc = sum(w for _, a, w in rows if a == 1)
    return np.array([d for d, _ in drug]), np.array([w for _, w in drug]), wc


def _cli_op(name, argv, expect, check):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = acdesign.cli.main(argv)
        if code != expect:
            raise OpFailed(f"exit {code}, expected {expect}: {err.getvalue().strip()}")
        return code, out.getvalue(), err.getvalue()

    return Op(name, run, check, lambda out: out[:2])


def check_solved(spec: Spec, kind: str, design, payload) -> None:
    """Optimality of a design read back from design.csv (6 significant digits).

    A one-point target-dose optimum loses estimability when its dose is
    rounded, so the AC case checks the reported psi instead.
    """
    if kind == "ac":
        value = payload["criterion"]["psi"]
        bound = orc.psi_bound(spec, design[0])
        require(value <= bound * (1.0 + 1e-5), f"psi {value:.9g} above the Elfving optimum {bound:.9g}")
        return
    K, p = (orc.block_identity(spec) if kind == "d" else full_k(spec, "partial")[1]), 0.0
    M = orc.design_info(spec, design)
    viol, _ = orc.max_violation(spec, M, K, p, design[0])
    require(viol <= 1e-4, f"own equivalence-theorem violation {viol:.3g}")
    uniform = orc.phi_p(orc.design_info(spec, uniform_design(spec)), K, p)
    require(orc.phi_p(M, K, p) >= uniform, "solved design worse than the uniform design")


def cli(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 4])
    workdir.mkdir(parents=True, exist_ok=True)
    cases = [(f"d-{curve}-{fam}", draw_spec(rng, curve, fam), "d")
             for curve in CURVES for fam in FAMILIES]
    cases += [(f"ac-mm-{fam}", draw_ac_spec(rng, fam, one_point_mix(fam, 0)), "ac") for fam in FAMILIES]
    # light numeric scenarios: phi_0 of a partial contrast converges in two
    # iterations, where phi_{-1} takes 1-13; negative binomial draws stall on
    # some seeds (see MM_MIX) and are left out
    cases += [(f"phi-mm-{fam}", draw_spec(rng, "mm", fam), "phi_p") for fam in MM_MIX]
    ops = []
    for name, spec, kind in cases:
        scn, out = workdir / f"{name}.txt", workdir / name
        scn.write_text(scenario_text(spec, kind))

        def check_solve_out(res, spec=spec, kind=kind, out=out):
            payload = json.loads(res[1])
            require(payload["verification"]["verdict"] == "optimal",
                    f"verdict {payload['verification']['verdict']}")
            design = read_csv(out / "design.csv")
            listed = [(r["dose"], r["arm"], r["weight"]) for r in payload["design"]]
            from_csv = [(d, 0, w) for d, w in zip(*design[:2])] + [(0.0, 1, design[2])]
            require(len(listed) == len(from_csv) and all(
                (a == b) and (a == 1 or rel_close(d, e, 1e-5)) and rel_close(w, v, 1e-5)
                for (d, a, w), (e, b, v) in zip(listed, from_csv)),
                "design.csv and report disagree")
            require(abs(design[1].sum() + design[2] - 1.0) <= 1e-5, "design.csv weights do not sum to 1")
            check_solved(spec, kind, design, payload)

        def check_verify_out(res):
            require(json.loads(res[1])["verdict"] == "optimal", "verify of design.csv not optimal")

        ops.append(_cli_op(f"solve/{name}", ["solve", str(scn), "--out", str(out), "--json"],
                           0, check_solve_out))
        if kind == "ac":
            continue  # rounded one-point designs fail verify on some seeds (CHANGES.md, FOUND)
        ops.append(_cli_op(f"verify/{name}", ["verify", str(scn), str(out / "design.csv"),
                                              "--out", str(out), "--json"], 0, check_verify_out))
    for name, spec, kind in cases:
        if kind == "phi_p" or (kind == "d" and spec.curve == "mm"):
            continue
        ref = workdir / f"{name}-uniform.csv"
        write_csv(ref, uniform_design(spec))
        drug, ctrl = program_models(spec)
        if kind == "d":
            opt = orc.design_info(spec, as_tuple(ac.solve_d_optimal(drug, ctrl)))
            K = orc.block_identity(spec)
            expected = orc.phi_p(orc.design_info(spec, uniform_design(spec)), K, 0.0) / orc.phi_p(opt, K, 0.0)
            key, tol = "d_efficiency", 2e-6
        else:
            expected = orc.psi_bound(spec) / orc.psi(spec, *uniform_design(spec))
            key, tol = "ac_efficiency", 1e-5

        def check_eff(res, expected=expected, key=key, tol=tol):
            value = json.loads(res[1])[key]
            require(0.0 < value <= 1.0, f"{key} {value} outside (0, 1]")
            require(rel_close(value, expected, tol), f"{key} {value}, own {expected:.9g}")

        ops.append(_cli_op(f"efficiency/{name}", ["efficiency", str(workdir / f"{name}.txt"),
                                                  str(ref), "--json"], 0, check_eff))
    ops += _faulty_ops(workdir)
    return ops


def _faulty_ops(workdir: Path) -> list[Op]:
    """Seed-independent inputs: F1 and the malformed scenario files."""
    spec = PAPER["migraine-binomial"]
    scn = workdir / "f1-phi.txt"
    scn.write_text(scenario_text(spec, "phi_p", p=-1.0))
    ref = workdir / "f1-d-optimal.csv"
    write_csv(ref, as_tuple(ac.solve_d_optimal(*program_models(spec))))

    def check_f1(res):
        # the one value printed, whatever a mended program names it
        (value,) = json.loads(res[1]).values()
        require(0.0 < value <= 1.0, f"efficiency {value} outside (0, 1]")

    ops = [_cli_op("efficiency/F1-phi_p", ["efficiency", str(scn), str(ref), "--json"], 0, check_f1)]
    base = scenario_text(PAPER["gouty-normal"], "d")
    bad = {
        "unknown-key": base + "drug.slope = 1\n",
        "duplicate-key": base + "dose.max = 200\n",
        "missing-key": base.replace("control.mu", "# control.mu"),
        "non-numeric-drug": base.replace("drug.ed50 = 10.5", "drug.ed50 = ten"),
        "F2-non-numeric-solver": base + "solver.grid_size = abc\n",
    }

    def check_rejected(res):
        require(res[2].startswith("error:") and "Traceback" not in res[2],
                f"stderr {res[2]!r} is not a one-line diagnostic")

    for name, text in bad.items():
        path = workdir / f"bad-{name}.txt"
        path.write_text(text)
        ops.append(_cli_op(f"malformed/{name}", ["solve", str(path), "--out", str(workdir / "bad")],
                           2, check_rejected))
    return ops


def warmup(workload: str, workdir: Path) -> Op:
    """One untimed operation on fixed inputs, so that lazy imports and
    first-call costs fall into set-up rather than into the first timed one."""
    spec = PAPER["gouty-normal"]
    if workload == "certify":
        opt = as_tuple(ac.solve_d_optimal(*program_models(spec)))
        return _verify_d_op("warmup", spec, opt, "optimal", uniform_design(spec), opt)
    if workload == "target-dose":
        return _target_op("warmup", spec)
    if workload == "exchange":
        return _solve_op("warmup", PAPER["migraine-binomial"], "block", 0.0)
    workdir.mkdir(parents=True, exist_ok=True)
    scn = workdir / "warmup.txt"
    scn.write_text(scenario_text(spec, "d"))
    return _cli_op("warmup", ["solve", str(scn), "--out", str(workdir / "warmup")], 0, lambda res: None)


WORKLOADS = {
    "certify": certify,
    "target-dose": target_dose_workload,
    "exchange": exchange,
    "cli": cli,
}
