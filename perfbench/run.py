#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  The program is built with dune into
the repository's own _build directory; the last line of standard output is
the benchmark's JSON result.  Extra flags (--tiny, --inject-mismatch) are
passed through for the self-test.  Exits non-zero, printing no result,
when the build fails.
"""

import argparse
import os
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["paper-compute", "paper-dom", "dom-observed", "fleet-mpk"]


def build(root):
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "-j", "2",
           "--display", "quiet", "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return False
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed (exit %d)\n" % done.returncode)
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-mismatch", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    if not build(root):
        return 1
    argv = [os.path.join(root, EXE), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if args.tiny:
        argv.append("--tiny")
    if args.inject_mismatch:
        argv.append("--inject-mismatch")
    # The traced run records GC pauses through OCaml runtime events, whose
    # ring file lives for the process's lifetime; keep it under _build.
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=os.path.join(root, "_build"))
    return run_rotating(argv, root, env, timeout=170)


def run_rotating(argv, root, env, timeout):
    """Runs the benchmark, moving it to the next allowed CPU every quarter
    second.  On a shared host, other tenants slow each CPU down in their own
    phases; rotating lets every step of a pass be timed on each CPU, so the
    fastest-repetition timings see the least-contended one.  The benchmark
    stays single-threaded."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    cpus = sorted(getaffinity(0)) if getaffinity else []
    child = subprocess.Popen(argv, cwd=root, env=env)
    deadline = time.monotonic() + timeout
    turn = 0
    while True:
        try:
            return child.wait(timeout=0.25)
        except subprocess.TimeoutExpired:
            if time.monotonic() > deadline:
                child.kill()
                child.wait()
                sys.stderr.write("perfbench: run timed out\n")
                return 1
            if len(cpus) > 1:
                turn += 1
                try:
                    os.sched_setaffinity(child.pid, {cpus[turn % len(cpus)]})
                except OSError:
                    pass


if __name__ == "__main__":
    sys.exit(main())
