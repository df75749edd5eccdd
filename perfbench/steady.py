"""Steadiness check: run each workload several times and compare the
run-to-run spread of every end-to-end metric with its bound.

    python3 perfbench/steady.py --runs 10 --first-seed 100 [--workloads bundle irred]

Run from the root of the checkout.  Each run uses a new seed and the
`run_seconds` of BENCHMARK.json.  For every metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)), the spread (q3 - q1) / median
and that spread as a share of the metric's bound.  A spread above a third of
its bound is marked "wide", one above the bound "OVER" (setup_s is only
compared, its spread is not held to the bound).  `--out FILE` also writes
every value as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="Run-to-run spread of the end-to-end metrics.")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    everything = {}
    for workload in args.workloads:
        results = []
        for k in range(args.runs):
            res = run_once(workload, args.first_seed + k, args.seconds)
            results.append(res)
            print(f"{workload} seed {args.first_seed + k}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        everything[workload] = results
        print(f"\n{workload}: {args.runs} runs of {args.seconds:g} s")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s} {'/bound':>7s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" else (
                "OVER" if spread > bound else "wide" if spread > bound / 3 else "")
            print(f"  {name:16s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
                  f"{bound:6.2f} {spread / bound:7.2f} {flag}")
        print(flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(everything, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
