"""Run every workload once and print each end-to-end metric by name and unit.

    python3 perfbench/report.py [--seed 0] [--seconds 40] [--trace 0]

Each workload runs in its own `run.py` process, one after another, so that
set-up time and peak memory are each workload's own.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.splitlines()[-1])

    names = list(WORKLOADS)
    first = results[names[0]]["metrics"]
    print(f"{'metric':<44} {'unit':<10}" + "".join(f"{n:>16}" for n in names))
    for metric, entry in first.items():
        row = "".join(f"{results[n]['metrics'][metric]['value']:>16.6g}" for n in names)
        print(f"{metric:<44} {entry['unit']:<10}{row}")
    for key in ("correct", "attempted", "failed"):
        print(f"{key:<55}" + "".join(f"{str(results[n][key]):>16}" for n in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
