#!/usr/bin/env python3
"""Run one workload of the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the harness (perfbench/,
on top of the libraries under lib/) with dune into .bench_build/,
runs it once and passes its output through: the last line of standard
output is the JSON result, the line before it the machine record.
Traced runs also write a Chrome trace to .bench_build/traces/. The
exit code is non-zero when the sources are missing, the build fails
or an output check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
# fib1m-dip32 runs here and in the selftest but is not in
# BENCHMARK.json: on a shared 2-vCPU machine its homogeneous batches
# put every run's median on one of the machine's speed regimes, so its
# figures did not repeat within the bounds.
WORKLOADS = ("fib1m-dip32", "fnmix", "fattree-k8", "dtn-custody")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when the checkout is a repository, else a hash
    of the sources the benchmark builds."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for d, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("dune-project and lib/ not found: run from the repository root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--display", "quiet", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not run: %s" % e, 3)
    if r.returncode != 0:
        fail("build failed", 3)
    return os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    exe = build()
    traces = os.path.join(BUILD_DIR, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [exe, "run", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--trace-dir", traces,
           "--nproc", str(len(os.sched_getaffinity(0))),
           "--commit", source_id()]
    # Set-up and the output checks come on top of the timed phases.
    try:
        r = subprocess.run(cmd, timeout=120 + 4 * a.seconds)
    except subprocess.TimeoutExpired:
        fail("the run exceeded its time limit", 4)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
