"""Record the expected results (achieved, bound, status per network) of every workload.

Run from the repository root after a change that is meant to alter results:

    python3 perfbench/record.py [--seed 0]

It certifies each workload once at the given seed, checks every certificate
with `modcert verify`, and rewrites perfbench/expected.json, which run.py
compares against on every pass.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    run.pin_threads()
    run.load_modcert()
    recorded = {}
    for workload, make in WORKLOADS.items():
        workdir = run.OUT / f"record-{workload}"
        workdir.mkdir(parents=True, exist_ok=True)
        result = run.run_pass(make(args.seed, workdir), workdir)
        if result.failed:
            print("\n".join(result.problems), file=sys.stderr)
            return 1
        recorded[workload] = result.results
        print(f"{workload}: {result.proved}/{result.attempted} proved, certify {result.certify_s:.2f} s")
    run.EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
