#!/usr/bin/env python3
"""Build the benchmark binary from source, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload mem-sched --seed 42 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The perfbench binary and the simulator libraries are compiled with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the repository root.
Build output goes to stderr, so the last line on stdout is the
binary's JSON result.  Any build or run failure exits non-zero without
printing a result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mem-sched", "ilp-core", "numa-rw")
# A run measures for --seconds and then reports; anything far beyond
# that is a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configure and build the binary; return its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: simulator sources (src/) not found", file=sys.stderr)
        return None
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compilers' temporary files inside the build tree too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "perfbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, default="mem-sched")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check the traced machine against the library's")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        cmd = [str(binary), "--selftest"]
    else:
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
