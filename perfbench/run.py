"""Release-level benchmark of UPA: one workload per invocation.

Run from the repository root (the program is imported from ``src/``):

    python3 perfbench/run.py --workload lineitem_adhoc --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, with timings at reference
speed (``perfbench/speed.py``) and the wall-clock ones beside them;
``--trace 1`` prints the per-layer ones (and writes the spans to
``perfbench/out/``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero when any release
failed its correctness check.  ``--workload all`` runs every workload in
turn, each in its own process, and fails if any of them does.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def program_on_path() -> None:
    """Import the program from this checkout's ``src/``, nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program_on_path()
    import harness
    from suite import WORKLOADS

    if args.workload == "all":
        codes = [
            subprocess.run([
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]).returncode
            for name in WORKLOADS
        ]
        return 1 if any(codes) else 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")

    workload, setups = harness.setup_workload(args.workload, args.seed)
    if args.trace:
        recorder = harness.SpanRecorder()
        stats = harness.run_loop(workload, args.seconds, 2 * workload.cycle,
                                 recorder)
        values = harness.per_layer_metrics(stats, recorder, workload,
                                           setups.datagen)
        units = {name: unit for name, unit, _ in harness.PER_LAYER}
        harness.write_spans(recorder, HERE / "out" /
                            f"spans-{args.workload}-seed{args.seed}.json")
    else:
        stats = harness.run_loop(workload, args.seconds, harness.MIN_RELEASES)
        values = harness.end_to_end_metrics(stats, setups)
        units = {name: unit for name, unit, _ in harness.END_TO_END}
        wall = harness.end_to_end_metrics(stats, setups,
                                          at_reference_speed=False)
        print("wall-clock timings: " + json.dumps({
            name: wall[name] for name in harness.TIMINGS
        } | {"median_speed_scale": harness.speed_scale(stats.probes)}))

    record = harness.run_record(workload, args.seed, stats)
    print("run record: " + json.dumps(record, sort_keys=True))
    for mismatch in stats.mismatches:
        print("oracle mismatch: " + mismatch)
    if not args.trace:
        print(f"{args.workload} failed_frac = "
              f"{stats.failed / stats.attempted} (failed / attempted)")
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    correct = not stats.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
