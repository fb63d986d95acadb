#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny inputs.

    python3 perfbench/selftest.py

Run from the root of the repository.  For every workload, in both modes,
it checks that every metric BENCHMARK.json names is printed, by name and
with its unit, both in the human-readable lines and in the JSON result,
that nothing failed, and that a second run of the same seed repeats the
deterministic metrics exactly.  It then injects one mismatched output (the alloc
build of the first program) into each suite workload and checks that the
run counts it as failed.  Last, it checks that a directory holding only
BENCHMARK.json and the benchmark's files makes the benchmark exit non-zero
without printing a result.  Prints "selftest ok" and exits 0 on success.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

SUITES = ["paper-compute", "paper-dom", "dom-observed"]
DETERMINISTIC = ["sim_cycles", "mpk_runtime_pct", "alloc_runtime_pct", "minor_mwords", "heap_peak_mb"]


def run(bench, workload, trace, extra=(), cwd="."):
    cmd = bench["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace), "--tiny"] + list(extra)
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, timeout=600)


def result_of(done):
    lines = done.stdout.decode().strip().splitlines()
    return lines, json.loads(lines[-1])


def check(cond, what):
    if not cond:
        print("FAIL: " + what)
        sys.exit(1)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run(bench, workload, trace)
            check(done.returncode == 0, "%s trace %d exits 0" % (workload, trace))
            lines, result = result_of(done)
            what = "%s trace %d" % (workload, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, what + ": result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  what + ": correct, nothing failed")
            names = [m["name"] for m in bench[key]]
            check(sorted(result["metrics"]) == sorted(names), what + ": exactly the named metrics")
            printed = {l.split()[0]: l.split()[-1] for l in lines[:-1] if len(l.split()) == 3}
            for m in bench[key]:
                got = result["metrics"][m["name"]]
                check(got["unit"] == m["unit"], "%s: %s in %s" % (what, m["name"], m["unit"]))
                check(isinstance(got["value"], (int, float)), "%s: %s is a number" % (what, m["name"]))
                check(printed.get(m["name"]) == m["unit"],
                      "%s: %s printed with its unit" % (what, m["name"]))
            print("ok   %s" % what, flush=True)
            if trace == 0:
                _, again = result_of(run(bench, workload, 0))
                for name in DETERMINISTIC:
                    check(again["metrics"][name] == result["metrics"][name],
                          "%s: %s repeats exactly for one seed" % (workload, name))
                print("ok   %s repeats its deterministic metrics" % workload, flush=True)

    for workload in SUITES:
        lines, result = result_of(run(bench, workload, 0, ["--inject-mismatch"]))
        ok_pct = result["metrics"]["ok_ops_pct"]["value"]
        check(not result["correct"] and result["failed"] >= 3 and ok_pct < 100,
              "%s: an injected mismatch is counted as failed" % workload)
        check(any("output differs across base/alloc/mpk" in l for l in lines),
              "%s: the mismatch is reported" % workload)
        print("ok   %s counts an injected mismatch (ok_ops_pct %.2f)" % (workload, ok_pct), flush=True)

    bare = tempfile.mkdtemp()
    try:
        shutil.copy("BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(path, os.path.join(bare, path))
        done = run(bench, "paper-dom", 0, cwd=bare)
        check(done.returncode != 0 and b"{" not in done.stdout,
              "the benchmark alone exits non-zero without a result")
        print("ok   the benchmark alone exits %d without a result" % done.returncode)
    finally:
        shutil.rmtree(bare)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
