#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/main.exe with
dune into .bench_build (no shared cache, so nothing is written outside
the checkout), runs it, adds the peak resident memory of the process
that ran the workload (host_peak_rss_mb, end-to-end runs only) and
prints the result JSON as the last line of standard output.  Exits 0
when every output check passed, 1 when one failed, and 2 when the
checkout or the build is unusable.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("not a source checkout: %s is missing" % needed)
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--cache", "disabled", "--build-dir", BUILD_DIR, "-j", "2",
           "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build failed")


def run(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        out_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            out_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    build()
    code, out, rss_mb = run(args)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail("the benchmark printed no result (exit code %d)" % code)
    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        result["metrics"]["host_peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        print("#   %-36s %16.6g %-11s peak resident memory of the run"
              % ("host_peak_rss_mb", rss_mb, "MB"))
    print(json.dumps(result))
    sys.exit(0 if code == 0 else 1)


if __name__ == "__main__":
    main()
