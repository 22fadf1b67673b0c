#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: proxy-grid, trace-mc (see perfbench/README.md).
The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/
perfbench) under the checkout root; build output goes to stderr, so the
last stdout line is the benchmark's JSON result.  Exits non-zero without
a result when the checkout holds no trrip sources or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no trrip source tree at " + ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except subprocess.CalledProcessError as err:
        sys.exit("perfbench: build failed: %s" % err)

    # Trace packs and other run files live in a per-process directory
    # named relative to the checkout root, removed when the run ends.
    work = os.path.join(bdir, "work-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work, ROOT)]
    try:
        rc = subprocess.run(cmd, cwd=ROOT).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
