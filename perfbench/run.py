#!/usr/bin/env python3
"""Build and run the dbmeta end-to-end benchmark.

Run from the root of a dbmeta source tree:

    python3 perfbench/run.py --workload cli_read --seed 1 --seconds 25 --trace 0

It builds perfbench/perfbench.exe and the dbmeta CLI into .bench_build,
puts the database files under .bench_data (the same place every run, on
whatever filesystem holds the tree), and runs the workload.  The last
line of standard output is the benchmark's JSON result; the exit code is
the benchmark's own (non-zero when a check failed).  Workloads, metrics
and findings are described in perfbench/NOTES.md.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["cli_read", "session_read", "write_cli", "txn_commit"]
BUILD_DIR = ".bench_build"
DATA_DIR = ".bench_data"
# what the build needs besides this directory
SOURCES = ["dune-project", "dune", "lib", "bin/dbmeta.ml", "perfbench/dune"]


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout):
    """Run [cmd] to completion; on timeout kill it and every process it
    started (it runs in a process group of its own).  Return (code, output)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return None, out
    return proc.returncode, out


def fs_type(path):
    code, out = run(["df", "--output=fstype", path], 10)
    lines = out.split() if code == 0 else []
    return lines[-1] if len(lines) > 1 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    missing = [s for s in SOURCES if not os.path.exists(s)]
    if missing:
        fail("run from the root of the dbmeta source tree (missing: %s)" % ", ".join(missing), 2)

    code, out = run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
         "-j", "2", "--display", "quiet",
         "./perfbench/perfbench.exe", "./bin/dbmeta.exe"],
        850)
    if code != 0:
        sys.stderr.write(out)
        fail("build failed" if code is not None else "build timed out", 3)

    os.makedirs(DATA_DIR, exist_ok=True)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    dbmeta = os.path.join(BUILD_DIR, "default", "bin", "dbmeta.exe")
    code, out = run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--data", DATA_DIR, "--dbmeta", dbmeta, "--fs", fs_type(DATA_DIR)],
        160)
    sys.stdout.write(out)
    if code is None:
        fail("timed out", 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
