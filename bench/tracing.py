"""Per-layer counts and times from wrappers around acdesign's public functions.

`Tracer.install()` replaces each traced function wherever an acdesign module
binds it (so `from .scalar_opt import golden_max` in `solvers` is caught
too), plus `DrugModel` methods, numpy's `eigh`/`eigvalsh` and the `linprog`
names that `solvers` and `equivalence` import.  `uninstall()` restores the
originals.  Counts are exact.  Times are inclusive of callees in other
layers and of the wrappers' own cost; a layer's time counts only its
outermost call, so nesting inside one layer is not counted twice.  Spans of
the coarse calls (operations, verify, solves, LPs, CLI commands) are kept in
memory and written out by the runner.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

import numpy as np

import acdesign
import acdesign.cli
import acdesign.equivalence
import acdesign.reproduce
import acdesign.solvers
from acdesign import criteria, designs, models, scalar_opt

# (metric name, unit, better); values are per traced round of the fixed list
METRICS = [
    ("models.regression_vector.calls", "count", "lower"),
    ("models.fisher.calls", "count", "lower"),
    ("models.ms", "ms", "lower"),
    ("designs.info_matrix.calls", "count", "lower"),
    ("designs.pseudo_inverse.calls", "count", "lower"),
    ("designs.ms", "ms", "lower"),
    ("linalg.eigh.calls", "count", "lower"),
    ("criteria.calls", "count", "lower"),
    ("criteria.ms", "ms", "lower"),
    ("equivalence.verify.calls", "count", "lower"),
    ("equivalence.verify.ms", "ms", "lower"),
    ("equivalence.points", "count", "lower"),
    ("equivalence.null_adjusted", "count", "lower"),
    ("equivalence.lp.calls", "count", "lower"),
    ("solvers.numeric_solve.ms", "ms", "lower"),
    ("solvers.iterations", "count", "lower"),
    ("solvers.capped", "count", "lower"),
    ("solvers.c_opt_numeric.ms", "ms", "lower"),
    ("solvers.lp.calls", "count", "lower"),
    ("solvers.lp.ms", "ms", "lower"),
    ("solvers.lp.columns", "count", "lower"),
    ("solvers.closed_form.ms", "ms", "lower"),
    ("scalar_opt.golden_max.calls", "count", "lower"),
    ("scalar_opt.evals", "count", "lower"),
    ("cli.verify_per_solve", "count", "lower"),
    ("cli.io_ms", "ms", "lower"),
    ("reproduce.build_cells.ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.ms: Counter = Counter()
        self.spans: list[tuple[str, int, float, float]] = []  # name, parent, start, end
        self._open: list[int] = []
        self._depth: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, count=None, layer=None, timer=None, span=None, on_call=None, on_result=None):
        """Wrapper that counts calls, times the outermost call of `layer`,
        times every call under `timer` and records a span named `span`."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                tracer.counts[count] += 1
            if on_call:
                args, kwargs = on_call(args, kwargs)
            if layer:
                tracer._depth[layer] += 1
            idx = tracer.begin(span) if span else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = (perf_counter() - t0) * 1000.0
                if idx is not None:
                    tracer.end(idx)
                if layer:
                    tracer._depth[layer] -= 1
                    if tracer._depth[layer] == 0:
                        tracer.ms[layer] += dt
                if timer:
                    tracer.ms[timer] += dt
            if on_result:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, parent, perf_counter(), 0.0))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        name, parent, start, _ = self.spans[idx]
        self.spans[idx] = (name, parent, start, perf_counter())
        self._open.pop()

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _everywhere(self, fn, wrapper):
        """Rebind `fn` in every acdesign module that holds it."""
        for name, mod in list(sys.modules.items()):
            if mod is None or name.split(".")[0] != "acdesign":
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        ev = self._everywhere
        for meth in ("regression_vector", "fisher"):
            fn = getattr(models.DrugModel, meth)
            self._set(models.DrugModel, meth, self.wrap(fn, count=f"models.{meth}.calls", layer="models.ms"))
        for fn in (designs.info_matrix, designs.drug_info_matrix):
            ev(fn, self.wrap(fn, count="designs.info_matrix.calls", layer="designs.ms"))
        ev(designs.pseudo_inverse, self.wrap(designs.pseudo_inverse, count="designs.pseudo_inverse.calls",
                                             layer="designs.ms"))
        ev(designs.estimable, self.wrap(designs.estimable, layer="designs.ms"))
        for meth in ("eigh", "eigvalsh"):
            self._set(np.linalg, meth, self.wrap(getattr(np.linalg, meth), count="linalg.eigh.calls"))
        for fn in (criteria.phi_p, criteria.phi_p_from_info, criteria.phi_p_reduced, criteria.psi_ac,
                   criteria.rho_p, criteria.d_efficiency, criteria.ac_efficiency):
            ev(fn, self.wrap(fn, count="criteria.calls", layer="criteria.ms"))
        ev(acdesign.equivalence.verify, self.wrap(
            acdesign.equivalence.verify, count="equivalence.verify.calls", layer="equivalence.verify.ms",
            span="verify", on_result=self._verify_report))
        self._set(acdesign.equivalence, "linprog", self.wrap(
            acdesign.equivalence.linprog, count="equivalence.lp.calls", span="equivalence.lp"))
        sv = acdesign.solvers
        ev(sv.numeric_solve, self.wrap(sv.numeric_solve, layer="solvers.numeric_solve.ms",
                                       span="numeric_solve", on_result=self._solve_result))
        ev(sv.c_opt_numeric, self.wrap(sv.c_opt_numeric, layer="solvers.c_opt_numeric.ms",
                                       span="c_opt_numeric"))
        ev(sv.ac_optimal, self.wrap(sv.ac_optimal, span="ac_optimal"))
        for fn in (sv.solve_d_optimal, sv.c_opt_elfving_2d):
            ev(fn, self.wrap(fn, layer="solvers.closed_form.ms", span=fn.__name__))
        self._set(sv, "linprog", self.wrap(sv.linprog, count="solvers.lp.calls", timer="solvers.lp.ms",
                                           span="solvers.lp", on_call=self._lp_columns))
        ev(scalar_opt.golden_max, self.wrap(scalar_opt.golden_max, count="scalar_opt.golden_max.calls",
                                            on_call=self._count_evals))
        cli = acdesign.cli
        for fn in (cli.parse_scenario, cli.read_design_csv, cli.write_design_csv):
            self._set(cli, fn.__name__, self.wrap(fn, layer="cli.io_ms"))
        self._set(cli, "cmd_solve", self._cmd_solve(cli.cmd_solve))
        for name in ("cmd_verify", "cmd_efficiency"):
            self._set(cli, name, self.wrap(getattr(cli, name), span=name))
        rp = acdesign.reproduce
        self._set(rp, "build_cells", self.wrap(rp.build_cells, layer="reproduce.build_cells.ms",
                                               span="build_cells"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- hooks ---------------------------------------------------------------

    def _verify_report(self, report, args, kwargs):
        self.counts["equivalence.points"] += report.grid_doses.size + len(report.support_points)
        if report.ginv_strategy == "null-adjusted":
            self.counts["equivalence.null_adjusted"] += 1

    def _solve_result(self, result, args, kwargs):
        opts = kwargs.get("opts", args[3] if len(args) > 3 else acdesign.SolveOptions())
        self.counts["solvers.iterations"] += result.iterations
        if result.iterations >= opts.max_iterations:
            self.counts["solvers.capped"] += 1

    def _lp_columns(self, args, kwargs):
        self.counts["solvers.lp.columns"] += len(args[0])
        return args, kwargs

    def _count_evals(self, args, kwargs):
        f = args[0]

        def counted(x):
            self.counts["scalar_opt.evals"] += 1
            return f(x)

        return (counted,) + tuple(args[1:]), kwargs

    def _cmd_solve(self, fn):
        inner = self.wrap(fn, span="cmd_solve")

        def cmd_solve(args):
            # solves that end in an error (malformed files) are not counted
            before = self.counts["equivalence.verify.calls"]
            code = inner(args)
            self.counts["cli.solves"] += 1
            self.counts["cli.solve_verifies"] += self.counts["equivalence.verify.calls"] - before
            return code

        return cmd_solve

    # -- results -------------------------------------------------------------

    def per_round(self, rounds: int) -> dict[str, float]:
        out = {}
        for name, _, _ in METRICS:
            if name == "cli.verify_per_solve":
                solves = self.counts["cli.solves"]
                out[name] = self.counts["cli.solve_verifies"] / solves if solves else 0.0
            elif name.endswith("ms") or name.endswith("_ms"):
                out[name] = self.ms[name] / rounds
            elif name != "trace.overhead_pct":
                out[name] = self.counts[name] / rounds
        return out
