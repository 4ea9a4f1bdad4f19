#!/usr/bin/env python3
"""Build and run the OLPP benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--jobs N]
    python3 perfbench/run.py --check-the-checks
    python3 perfbench/run.py --report trace-ab [--seed N]

Run from the root of a checkout. The first call configures and builds the
`olpp` driver and the `perfbench` harness from source (CMake, Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. Build output goes to stderr, so the last line on
stdout is the harness's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("profile-loops", "profile-calls", "profile-batch", "fleet-ingest")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=0,
                    help="profile-batch workers (default: nproc)")
    ap.add_argument("--check-the-checks", action="store_true")
    ap.add_argument("--report", choices=("trace-ab",))
    a = ap.parse_args()
    if not (a.check_the_checks or a.report or a.workload):
        ap.error("--workload is required")

    out = build_dir()
    if not build(out):
        return 1
    work = os.path.join(out, "work",
                        a.workload or a.report or "check-the-checks")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(out, "perfbench"),
           "--olpp", os.path.join(out, "olpp", "driver", "olpp"),
           "--work", work]
    if a.check_the_checks:
        cmd.append("--check-the-checks")
    elif a.report:
        cmd += ["--report", a.report, "--seed", str(a.seed)]
    else:
        cmd += ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--jobs", str(a.jobs)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: perfbench exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
