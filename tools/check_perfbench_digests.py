#!/usr/bin/env python3
"""Check perfbench's sweep digests against the committed golden values.

Usage, from the root of the repository:

    python3 tools/check_perfbench_digests.py \
        [--baseline bench/baseline/perfbench_digests.json]

Runs ``perfbench/run.py --workload W --seed S --seconds 1 --trace 0``
once for every workload and seed in the baseline and reads the
``digest <workload> <hex>`` line each run prints.  A digest covers
every simulation of the sweep, so a match means the default machine
still produces bit-identical results on all three sweeps.  The digest
does not depend on the run length: one sweep is enough, so each run
asks for 1 s of measuring.

Exits 1 if any run fails, prints no digest, or prints a different one.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"^digest (\S+) ([0-9a-f]+)$", re.MULTILINE)


def run_digest(workload, seed):
    """The digest one perfbench run prints, or None if it failed."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        return None
    for name, digest in DIGEST.findall(proc.stdout):
        if name == workload:
            return digest
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", type=Path,
                    default=ROOT / "bench" / "baseline" /
                    "perfbench_digests.json")
    args = ap.parse_args()

    with open(args.baseline) as f:
        golden = json.load(f)["digests"]
    failures = 0
    for workload, seeds in golden.items():
        for seed, want in seeds.items():
            got = run_digest(workload, int(seed))
            ok = got == want
            failures += not ok
            print(f"{workload:10s} seed {seed:>5s}: want {want} "
                  f"got {got or 'nothing'} {'ok' if ok else 'MISMATCH'}")
    if failures:
        print(f"{failures} perfbench digest(s) differ from {args.baseline}",
              file=sys.stderr)
        return 1
    print("all perfbench digests match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
