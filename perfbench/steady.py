"""Steadiness check: run one workload over several seeds, report spreads.

    python3 perfbench/steady.py --workload ml_training --seeds 1-10

For each end-to-end metric it prints the median over the runs and the
spread (Q3 - Q1) / median; a benchmark is steady when every spread but
``setup_s``'s is below a third of that metric's bound in
``BENCHMARK.json``.
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


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-5"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in args.seeds:
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        ), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    ok = True
    for name, series in values.items():
        spread = quartile_spread(series)
        steady = name == "setup_s" or spread < bounds[name] / 3
        ok &= steady
        print(f"{name:18s} median={statistics.median(series):.6g} "
              f"spread={spread:.4f} bound={bounds[name]} "
              f"{'ok' if steady else 'UNSTEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
