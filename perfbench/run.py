#!/usr/bin/env python3
"""Build uniqsql and the benchmark from source, then run one workload.

Run from the root of a uniqsql checkout:

    python3 perfbench/run.py --workload scale_1m --seed 1 --seconds 10 --trace 0

Everything is built under .bench_build/ in the checkout (release profile,
no shared dune cache). The benchmark binary prints a human-readable report
and, as its last line, one JSON object with the keys correct, attempted,
failed and metrics. Exits non-zero, without a result line, when the
checkout has no uniqsql sources or the build fails.
"""

import argparse
import glob
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["scale_1m", "paper_mix", "serve_mix"]
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "dune")
RUN_DIR = os.path.join(BUILD_ROOT, "run")
BENCH_EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench", "perfbench.exe")
SERVER_EXE = os.path.join(BUILD_DIR, "default", "bin", "uniqsql.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    if found:
        return found[-1]
    fail("dune not found on PATH")


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    cmd = [find_dune(), "build", "--root", ".", "--no-config",
           "--build-dir", os.path.abspath(BUILD_DIR), "--profile", "release",
           "--cache", "disabled", "./perfbench/bench/perfbench.exe",
           "./bin/uniqsql.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed")


def run(argv):
    # A session of its own, so a timeout stops the benchmark and any
    # server it started together.
    proc = subprocess.Popen(argv, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run timed out")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not all(os.path.exists(p) for p in ("dune-project", "lib", "bin")):
        fail("run from the root of a uniqsql checkout: "
             "dune-project, lib/ or bin/ is missing")
    build()
    os.makedirs(RUN_DIR, exist_ok=True)
    code = run([BENCH_EXE, "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--server-exe", SERVER_EXE,
                "--workdir", RUN_DIR])
    sys.exit(code)


if __name__ == "__main__":
    main()
