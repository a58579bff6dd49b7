"""Run one workload at several seeds and summarize each metric.

    python3 perfbench/spread.py --workload mixed-elim --seeds 1-10 [--trace 0] [--json out.json]

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, their distance as a
share of the median.  Runs are made one after the other, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--json", help="write the summary to this file")
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")

    values: dict[str, list] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{args.workload} {name}: median {med:.6g} {units[name]}, q1 {q1:.6g}, q3 {q3:.6g}, spread {spread:.4f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds, "metrics": summary}, f, indent=2)


if __name__ == "__main__":
    main()
