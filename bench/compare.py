"""Run sets of benchmark runs and compare two sets.

    python3 bench/compare.py run --seeds 1-10 --out bench/out/set-A.json
    python3 bench/compare.py diff bench/out/set-A.json bench/out/set-B.json

`run` starts bench/run.py once per workload and seed (one process each, one
after another, for BENCHMARK.json's run_seconds) and stores every
end-to-end value.  `diff` prints, per workload and metric, each set's
median and quartile spread (IQR over median), the change of the median,
and whether it stays within the bound in BENCHMARK.json.  Both sets should
use the same seeds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(args) -> None:
    out = {}
    for name in (w["name"] for w in CONFIG["workloads"]):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(CONFIG["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"{name} seed {seed}: outputs incorrect\n{proc.stderr}")
            shares.add(res["failed"] / res["attempted"])
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        out[name] = {"values": values, "failed_shares": sorted(shares)}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def diff(args) -> None:
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    metrics = {m["name"]: m for m in CONFIG["end_to_end"]}
    print(f"{'workload':12} {'metric':12} {'median A':>10} {'median B':>10} {'change':>8} "
          f"{'IQR A':>6} {'IQR B':>6} {'bound':>6}  verdict")
    for name in a:
        for metric, m in metrics.items():
            va, vb = a[name]["values"][metric], b[name]["values"][metric]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma
            worse = -change if m["better"] == "higher" else change
            verdict = "worse beyond bound" if worse > m["bound"] else "within bound"
            print(f"{name:12} {metric:12} {ma:10.4g} {mb:10.4g} {change:+8.1%} "
                  f"{spread(va):6.1%} {spread(vb):6.1%} {m['bound']:6.0%}  {verdict}")
        if a[name]["failed_shares"] != b[name]["failed_shares"]:
            print(f"{name}: failed share {a[name]['failed_shares']} -> {b[name]['failed_shares']}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    r.add_argument("--out", required=True)
    r.set_defaults(func=run_set)
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    d.set_defaults(func=diff)
    args = ap.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
