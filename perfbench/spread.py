#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs each named workload with several seeds -- seed by seed, the workloads
interleaved so a slow spell of the machine touches them all alike -- and
prints for each workload and metric its median and the distance between the
first and third quartile as a share of the median: the steadiness figure a
metric's bound in BENCHMARK.json is compared against.

    python3 perfbench/spread.py --workload batch-10k serve-ingest-3k --runs 10
        [--first-seed 1] [--seconds 10] [--trace 0] [--jsonl results.jsonl]

Run it from the repository root. It calls the command BENCHMARK.json names,
so the benchmark is built on the first run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--jsonl", help="append every result line to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {w: {} for w in args.workload}
    units = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in args.workload:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True)
            wall = time.monotonic() - t0
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit status {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if args.jsonl:
                with open(args.jsonl, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall,
                                        "result": result}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']} wall {wall:.1f} s", file=sys.stderr)
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]

    for workload, metrics in values.items():
        print(f"\n{workload}")
        print(f"  {'metric':<34} {'median':>14} {'unit':<6} {'iqr/median':>10} {'bound':>6}")
        for name, vals in metrics.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
            else:
                spread = float("nan")
            bound = bounds.get(name)
            print(f"  {name:<34} {med:>14.4f} {units[name]:<6} {spread:>10.4f} "
                  f"{'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
