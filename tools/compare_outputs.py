"""Record the output of every bench operation, or compare it with a record.

    python3 tools/compare_outputs.py --out outputs.json
    python3 tools/compare_outputs.py --against parent.json

Runs each operation of the four workloads of bench/workloads.py (certify,
target-dose, exchange and cli) once for seeds 1-3 against the package under
src/ of this checkout, and writes {"workload/seed/op": repr(fingerprint)} as
JSON, where the fingerprint is what bench/run.py requires every round to
reproduce.  repr keeps every bit of a float, so two records are equal only
if the outputs are bit-identical.  An operation that raises is recorded as
its exception.  The workloads write their files in a temporary directory,
whose path reads <workdir> in the record, and bench/workloads.py is only
imported: nothing is written under bench/.

With --against FILE the record is compared with FILE's: each operation
whose record differs, or that only one side has, is named, and the exit
status is 1 if there is any.  Where both records have the same shape, the
same text once every number is taken out, the largest relative change
|a - b| / max(|a|, |b|) among their numbers is printed too.  To compare two commits, record one in a
checkout of it and compare the other's against that file.
"""

import os

# one BLAS thread, as bench/run.py sets it, before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
# a number standing alone, not the digits of a name such as float64 or e0
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")


def record() -> dict:
    """repr of each operation's fingerprint, keyed workload/seed/op."""
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    out = {}
    for workload, build in workloads.WORKLOADS.items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                for op in build(seed, Path(tmp)):
                    try:
                        text = repr(op.fingerprint(op.run()))
                    except Exception as exc:  # a failing operation is an output too
                        text = f"raised {type(exc).__name__}: {exc}"
                    out[f"{workload}/{seed}/{op.name}"] = text.replace(tmp, "<workdir>")
    return out


def largest_change(old: str, new: str):
    """(relative change, old number, new number) of the numbers of two
    records of the same shape that changed most, or None when their shapes
    differ or no number changed."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    largest = None
    for x, y in zip(NUMBER.findall(old), NUMBER.findall(new)):
        if x != y:
            a, b = float(x), float(y)
            change = abs(a - b) / max(abs(a), abs(b))
            change = change if math.isfinite(change) else math.inf
            if largest is None or change > largest[0]:
                largest = (change, x, y)
    return largest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path, help="write the record to this file")
    ap.add_argument("--against", type=Path, help="compare the record with this file's")
    args = ap.parse_args()
    outputs = record()
    if args.out is not None:
        args.out.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"{len(outputs)} operations recorded")
    if args.against is None:
        return 0
    other = json.loads(args.against.read_text())
    differing = sorted(k for k in outputs.keys() | other.keys() if outputs.get(k) != other.get(k))
    for key in differing:
        print(f"  differs: {key}\n    {args.against}: {other.get(key)}\n    here: {outputs.get(key)}")
        if key in outputs and key in other:
            largest = largest_change(other[key], outputs[key])
            if largest is not None:
                print("    largest relative change: {:.3g} ({} -> {})".format(*largest))
    print(f"{len(differing)} of {len(outputs.keys() | other.keys())} operations differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
