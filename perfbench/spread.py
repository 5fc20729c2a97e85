#!/usr/bin/env python3
"""Runs the benchmark N times per workload, alternating the workloads, and
prints each metric's median, quartiles and spread.

Run from the repository root:

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --runs 10 --vary-seeds
    python3 perfbench/spread.py --runs 5 --workloads mega_churn --seed 100
    python3 perfbench/spread.py --runs 10 --trace 1

By default every run uses the same seed, so a metric's spread is host
noise alone. With --vary-seeds, run i uses seed + i, as an acceptance
check over ten seeds does; the spread then also holds the differences in
work between the seeds' generated inputs. The spread is the
distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. A metric
whose spread exceeds its bound in BENCHMARK.json is marked UNRESOLVED:
a change to it smaller than its spread cannot be told from noise. The
raw values can be saved as JSON with --out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed: {}".format(" ".join(cmd)))
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(lines[:-1]), file=sys.stderr)
        raise SystemExit("output check failed: {}".format(" ".join(cmd)))
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def main():
    spec, known = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--vary-seeds", action="store_true",
                   help="run i uses seed + i instead of the same seed")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="save the raw values here (JSON)")
    a = p.parse_args()
    workloads = a.workloads.split(",")

    values = {w: {} for w in workloads}
    for i in range(a.runs):
        seed = a.seed + i if a.vary_seeds else a.seed
        for w in workloads:
            result = run_once(w, seed, a.seconds, a.trace)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("run {}/{} {} seed {} done".format(i + 1, a.runs, w, seed),
                  file=sys.stderr)
    if a.out:
        with open(a.out, "w") as f:
            json.dump(values, f, indent=1)

    for w in workloads:
        print("\n{} ({} runs, {})".format(
            w, a.runs, "seeds {}..{}".format(a.seed, a.seed + a.runs - 1)
            if a.vary_seeds else "seed {}".format(a.seed)))
        print("  {:<36} {:>14} {:>14} {:>14} {:>8} {:>6}  {}".format(
            "metric", "median", "q1", "q3", "spread", "bound", "status"))
        for name, vals in values[w].items():
            bound = known.get(name, {}).get("bound")
            if len(vals) < 2:
                med, q1, q3, s = vals[0], vals[0], vals[0], 0.0
            else:
                med, q1, q3, s = spread(vals)
            status = ""
            if bound is not None:
                status = "UNRESOLVED" if s > bound else "ok"
            print("  {:<36} {:>14.6g} {:>14.6g} {:>14.6g} {:>8.2%} {:>6}  {}".format(
                name, med, q1, q3, s, "" if bound is None else bound, status))


if __name__ == "__main__":
    main()
