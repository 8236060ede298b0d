#!/usr/bin/env python3
"""Run one evobench workload k times and print each metric's median and
quartiles.

    python3 evobench/repeat.py --workload <name> [--runs 10] [--first-seed 1]
                               [--seconds <s>] [--trace 0|1]

Run from the repository root. Run i uses seed first-seed + i. `--seconds`
defaults to BENCHMARK.json's run_seconds. Quartiles are those of
`statistics.quantiles(values, n=4)`; `spread` is their distance as a share
of the median. For end-to-end metrics the bound from BENCHMARK.json is
shown, and `ok` marks a spread below a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, units, all_correct, failed = {}, {}, True, 0
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            all_correct = False
            continue
        result = json.loads(lines[-1])
        all_correct &= result["correct"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                                           if k in bounds or args.trace == "1"), file=sys.stderr)

    print(f"workload {args.workload} runs {args.runs} seconds {seconds} "
          f"correct {all_correct} failed {failed}")
    print(f"{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6} unit")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = "" if bound is None else (" ok" if spread < bound / 3 or name == "setup_s" else " WIDE")
        bound_s = "" if bound is None else f"{bound:.2f}"
        print(f"{name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound_s:>6} "
              f"{units[name]}{mark}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
