"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload verify_sweep --seeds 1-10

Runs the benchmark once per seed (untraced), one run at a time, and prints
for each end-to-end metric its median and its quartile spread, (Q3 - Q1) /
median, next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: {result['failed']} failed, correct={result['correct']}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        spread = quartile_spread(series)
        print(f"{args.workload} {metric['name']}: median {statistics.median(series):.6g} "
              f"spread {spread:.4f} bound {metric['bound']} "
              f"({'ok' if spread < metric['bound'] / 3 else 'WIDE'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
