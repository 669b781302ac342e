#!/usr/bin/env python3
"""Check perfbench's digests, skip ratios and allocation rates.

Usage, from the root of the repository:

    python3 tools/check_perfbench_digests.py \
        [--baseline bench/baseline/perfbench_digests.json]

Runs ``perfbench/run.py --workload W --seed S --seconds 1 --trace 1``
once for every workload and seed in the baseline and checks four
things in its output:

- the ``digest <workload> <hex>`` line matches the committed digest.
  A digest covers every simulation of the sweep, so a match means the
  default machine still produces bit-identical results on all three
  sweeps.  The digest does not depend on the run length: one sweep is
  enough, so each run asks for 1 s of measuring;
- the last-line JSON reports no failed simulation.  A traced run also
  rebuilds the machine behind timing wrappers, and every traced
  simulation must reproduce its untraced digest;
- that JSON's ``sim.skip_ratio`` (cycles the event kernel skipped over
  cycles simulated) is at least the committed floor.  The ratio is a
  simulated count that repeats exactly, so a ``nextEventAt`` that
  answers "next cycle" too often fails here even though every digest
  still matches;
- that JSON's ``sim.allocs_per_kinst`` (heap allocations per thousand
  measured instructions, counted exactly by the traced run) is at or
  below the committed ceiling.  The busy path allocates nothing once
  warm, so one allocation per instruction, per miss or per fill event
  lifts the count by tens to thousands and fails here.

Exits 1 if any run fails or any check misses.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"^digest (\S+) ([0-9a-f]+)$", re.MULTILINE)


def run_traced(workload, seed):
    """(digest, failed simulations, skip ratio, allocs/kinst) of one
    traced run, or None if the run failed or printed no result."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    digest = next((d for name, d in DIGEST.findall(proc.stdout)
                   if name == workload), None)
    try:
        result = json.loads(lines[-1])
        skip = result["metrics"]["sim.skip_ratio"]["value"]
        allocs = result["metrics"]["sim.allocs_per_kinst"]["value"]
        failed = result["failed"]
    except (ValueError, KeyError):
        return None
    return digest, failed, skip, allocs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", type=Path,
                    default=ROOT / "bench" / "baseline" /
                    "perfbench_digests.json")
    args = ap.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    floors = baseline["skip_ratio_floors"]
    ceilings = baseline["allocs_per_kinst_ceilings"]
    failures = 0
    for workload, seeds in baseline["digests"].items():
        for seed, want in seeds.items():
            floor = floors[workload][seed]
            ceiling = ceilings[workload][seed]
            got = run_traced(workload, int(seed))
            if got is None:
                problems = ["no result"]
                digest, skip, allocs = None, float("nan"), float("nan")
            else:
                digest, failed, skip, allocs = got
                problems = []
                if digest != want:
                    problems.append("digest MISMATCH")
                if failed:
                    problems.append(f"{failed} simulation(s) FAILED")
                if not skip >= floor:
                    problems.append("skip ratio BELOW FLOOR")
                if not allocs <= ceiling:
                    problems.append("allocs/kinst ABOVE CEILING")
            failures += bool(problems)
            print(f"{workload:10s} seed {seed:>5s}: want {want} "
                  f"got {digest or 'nothing'}, skip ratio {skip:.6f} "
                  f"(floor {floor}), allocs/kinst {allocs:.4f} "
                  f"(ceiling {ceiling}) "
                  f"{', '.join(problems) if problems else 'ok'}")
    if failures:
        print(f"{failures} perfbench run(s) miss {args.baseline}",
              file=sys.stderr)
        return 1
    print("all perfbench digests match, skip ratios hold their floors "
          "and allocation rates stay under their ceilings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
