#!/usr/bin/env python3
"""Builds and runs the JUST benchmark (see perfbench/DESIGN.md).

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload point_queries --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest

The engine is compiled from the checkout's src/ tree into .bench_build/ (a
Release build, reused by later runs). The last line of standard output is
the run's JSON result; build logs go to standard error. Everything the run
reads or writes stays inside the checkout.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "run")


def git_sha():
    """Reads HEAD from .git without running git (which may look above ROOT)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "just_perfbench", "just_region_server"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the JSON result.
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required unless --selftest is given")

    if not build():
        return 2
    binary = os.path.join(BUILD_DIR, "just_perfbench")
    server = os.path.join(BUILD_DIR, "just", "just_region_server")
    cmd = [binary, "--work-dir", WORK_DIR, "--server-bin", server,
           "--git-sha", git_sha(), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload]

    child = subprocess.Popen(cmd)

    def forward(signum, _frame):
        # The benchmark reaps its own region servers on SIGTERM.
        child.send_signal(signal.SIGTERM)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, forward)
    return child.wait()


if __name__ == "__main__":
    code = main()
    sys.exit(code if code >= 0 else 128 - code)
