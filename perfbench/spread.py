#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it: for each workload, one run per seed; for each metric, the
distance between the first and third quartile of its values as a share of
their median, next to the metric's bound.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Run from the root of the repository.  Prints one row per workload and
metric, and a last line "spread ok" or "spread too wide".
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout.decode()
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print("%s seed %d: correct is false" % (workload, seed))
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for metric in bench["end_to_end"]:
            vs = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            steady = metric["name"] == "setup_s" or spread <= metric["bound"] / 3
            ok = ok and (metric["name"] == "setup_s" or spread <= metric["bound"])
            print("%-14s %-18s median %14.6g  spread %6.3f  bound %5.3f  %s"
                  % (workload, metric["name"], med, spread, metric["bound"],
                     "" if steady else "WIDE " + " ".join("%.4g" % v for v in vs)), flush=True)
    print("spread ok" if ok else "spread too wide")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
