#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload and prints, per
metric, the median, the interquartile range as a share of the median (the
statistic BENCHMARK.json's bounds are checked against) and the bound. Run
from the repository root:

    python3 e2ebench/spread.py --runs 10 sim-native svc-mixed
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for wl in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{wl} seed {seed}: incorrect result ({res['failed']} failed)")
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in sorted(res["metrics"].items())), flush=True)
        for name, vs in sorted(values.items()):
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            sp = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if sp <= bound / 3 else ("within bound" if sp <= bound else "TOO NOISY")
                ok = ok and sp <= bound
            print(f"{wl:24s} {name:16s} median={med:<12.6g} spread={sp:.4f} bound={bound} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
