"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload train --seeds 1-10 --seconds 20

For every end-to-end metric this prints the median of the runs and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median -- the spread ``BENCHMARK.json``'s bounds are set
against.  Runs are sequential; a run that fails or reports
``correct: false`` stops the script with a non-zero exit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()

    values = {}
    walls = []
    for seed in parse_seeds(args.seeds):
        start = perf_counter()
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        walls.append(perf_counter() - start)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct"):
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{name}={metric['value']:.5g}"
                                           for name, metric in result["metrics"].items())
              + f"  ({walls[-1]:.1f} s)", flush=True)

    print(f"{args.workload}: {len(walls)} runs, median wall {statistics.median(walls):.1f} s")
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2 and median:
            first, _, third = statistics.quantiles(series, n=4)
            spread = f"{(third - first) / abs(median):.4f}"
        else:
            spread = "n/a"
        print(f"  {name:32s} median {median:.6g}  iqr/median {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
