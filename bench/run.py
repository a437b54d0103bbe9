"""Benchmark runner for acdesign: one workload, one process, whole rounds.

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0

The seed makes the workload's fixed list of operations (bench/workloads.py).
After set-up and one untimed warm-up operation, the runner repeats the whole
list until --seconds have passed, timing each operation, then checks every
output outside the timed region and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (ops_per_s, op_p50_ms, setup_s,
peak_rss_mb).  --trace 1 alternates untraced and traced rounds and reports
the per-layer metrics of bench/tracing.py, per traced round, with the traced
rounds' slowdown as trace.overhead_pct; its spans go to bench/out/.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("certify", "target-dose", "exchange", "cli")
SETUP_PROBES = 3
# the reference work runs between operations about this often
REFERENCE_EVERY_S = 0.25
# its typical wall time on the 2-core machine of the README figures; timings are
# scaled to that speed
REFERENCE_S = 0.003
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, run the warm-up, print the wall-clock time and exit")
    return ap.parse_args(argv)


def set_up(workload: str, seed: int, workdir: Path):
    """Import the package, build the operations and run the warm-up."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    ops = workloads.WORKLOADS[workload](seed, workdir)
    workloads.warmup(workload, workdir).run()
    return ops


def probe_setup(args) -> float:
    """Median wall time from process start to the first timed operation."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


def reference_seconds() -> float:
    """Wall time of a fixed piece of work of the kind acdesign does (a Python
    loop around small symmetric eigenproblems).  It slows down and speeds up
    with the machine, and acdesign cannot change it."""
    import numpy as np

    m = np.eye(5)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(200):
        m[0, 1] = m[1, 0] = i * 1e-3
        acc += float(np.linalg.eigvalsh(m)[0]) + sum(k * 1e-3 for k in range(60))
    return time.perf_counter() - t0


def run_rounds(ops, seconds: float, tracer=None):
    """Repeat the whole list until `seconds` pass; every second round is
    traced when a tracer is given (the first round is always untraced)."""
    n = len(ops)
    durations: list[list[float]] = [[] for _ in range(n)]
    outputs, prints = [None] * n, [None] * n
    errors: dict[str, str] = {}
    mismatched: set[str] = set()
    attempted = failed = 0
    round_times = {False: [], True: []}
    refs: list[float] = []
    start = time.perf_counter()
    last_ref = start - REFERENCE_EVERY_S
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        t_round = time.perf_counter()
        ref_in_round = 0.0
        for i, op in enumerate(ops):
            span = tracer.begin(op.name) if traced else None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                dt = time.perf_counter() - t0
                failed += 1
                errors.setdefault(op.name, f"{type(exc).__name__}: {exc}")
            else:
                dt = time.perf_counter() - t0
                durations[i].append(dt)
                fp = repr(op.fingerprint(out))
                if outputs[i] is None:
                    outputs[i], prints[i] = out, fp
                elif fp != prints[i]:
                    mismatched.add(op.name)
            finally:
                if span is not None:
                    tracer.end(span)
            attempted += 1
            if not traced and time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
                refs.append(reference_seconds())
                ref_in_round += refs[-1]
                last_ref = time.perf_counter()
        round_times[traced].append(time.perf_counter() - t_round - ref_in_round)
        if traced:
            tracer.uninstall()
        rounds += 1
        if time.perf_counter() - start >= seconds and (tracer is None or rounds % 2 == 0):
            break
    return dict(loop_s=time.perf_counter() - start, rounds=rounds, attempted=attempted,
                failed=failed, durations=durations, outputs=outputs, errors=errors,
                mismatched=mismatched, round_times=round_times, refs=refs)


def check_outputs(ops, res) -> bool:
    correct = True
    for op, out in zip(ops, res["outputs"]):
        if out is None:
            continue
        try:
            op.check(out)
        except Exception as exc:
            correct = False
            print(f"check failed: {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
    for name in sorted(res["mismatched"]):
        correct = False
        print(f"check failed: {name}: output changed between rounds", file=sys.stderr)
    return correct


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "acdesign" / "__init__.py").is_file():
        print(f"error: acdesign sources not found under {SRC}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        ops = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(time.time()))
            return 0
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        res = run_rounds(ops, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct = check_outputs(ops, res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, msg in sorted(res["errors"].items()):
        print(f"failed: {name}: {msg}", file=sys.stderr)

    samples = sorted(d for ds in res["durations"] for d in ds)
    if args.trace:
        traced_rounds = len(res["round_times"][True])
        per_layer = tracer.per_round(traced_rounds)
        plain = statistics.median(res["round_times"][False])
        per_layer["trace.overhead_pct"] = 100.0 * (statistics.median(res["round_times"][True]) / plain - 1.0)
        units = {name: unit for name, unit, _ in tracing.METRICS}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "traced_rounds": traced_rounds,
            "per_round": per_layer, "counts": dict(tracer.counts), "ms": dict(tracer.ms),
            "spans": [{"name": n, "parent": p, "start": s, "end": e} for n, p, s, e in tracer.spans],
        }) + "\n")
    else:
        setup_s = probe_setup(args)
        raw = {"ops_per_s": len(ops) / statistics.median(res["round_times"][False]),
               "op_p50_ms": 1000.0 * statistics.median(samples), "setup_s": setup_s}
        speed = REFERENCE_S / statistics.median(res["refs"])
        print(f"wall-clock {raw}; machine speed {speed:.4f} of the reference", file=sys.stderr)
        metrics = {
            "ops_per_s": {"value": raw["ops_per_s"] / speed, "unit": "1/s"},
            "op_p50_ms": {"value": raw["op_p50_ms"] * speed, "unit": "ms"},
            "setup_s": {"value": raw["setup_s"] * speed, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    p90 = samples[int(0.9 * (len(samples) - 1))] * 1000.0 if samples else float("nan")
    print(f"{args.workload} seed {args.seed}: {res['rounds']} rounds of {len(ops)} operations "
          f"in {res['loop_s']:.2f} s; p90 {p90:.2f} ms over {len(samples)} samples (reference only)",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
