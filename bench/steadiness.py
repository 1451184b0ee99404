"""Steadiness check: run one workload at several seeds and compare the spread
of each end-to-end metric with its bound in BENCHMARK.json.

    python3 bench/steadiness.py --workload sandwich-cov --seeds 10 [--baseline FILE]

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  Every
metric except ``setup_s`` must spread less than its bound; the target is a
third of it.  With ``--baseline`` (the JSON this script wrote for an earlier
set), each median must also be no worse than that set's by more than the
bound.  Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    parser.add_argument("--baseline", default=None)
    parser.add_argument("--out", default=None, help="write the values here")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    values: dict = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(1, args.seeds + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout)
            print(f"seed {seed}: outputs are not correct", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                           for k, v in result["metrics"].items()), flush=True)

    baseline = None
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    ok = True
    print(f"{'metric':<14} {'median':>10} {'spread':>8} {'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med, sp = statistics.median(values[name]), spread(values[name])
        verdict = "steady" if sp < bound / 3 else ("within bound" if sp <= bound else "TOO WIDE")
        if name == "setup_s":
            verdict += " (spread not gated)"
        elif sp > bound:
            ok = False
        if baseline is not None:
            old = statistics.median(baseline[name])
            worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
            verdict += f"; {worse:+.3f} vs baseline"
            if worse > bound:
                ok = False
                verdict += " WORSE"
        print(f"{name:<14} {med:>10.4g} {sp:>8.4f} {bound:>6}  {verdict}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(values, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
