"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/spread.py --workload descriptors --seeds 0 1 2 3 4 [--trace 0]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for
each metric the median and the quartile spread as a share of the median,
which is the figure the bounds in BENCHMARK.json are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    results = []
    for seed in args.seeds:
        cmd = [
            sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)

    print(f"\n{args.workload}: {len(results)} runs")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else float("nan")
        print(f"  {name:28s} median {med:12.6g} {first['unit']:9s} spread {share:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
