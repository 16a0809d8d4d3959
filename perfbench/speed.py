"""Machine-speed reference for the benchmark's end-to-end timings.

The benchmark's box shares its cores with other work, and its speed
drifts by a fifth or more, for seconds and for minutes at a time; ten
runs made one after another can fall half in a fast phase and half in a
slow one, and then no run length steadies their medians.  So each run
also times a fixed probe that uses nothing of the program after every
release and around every set-up, outside their timed regions.  Each
release's time is reported at reference speed: multiplied by
``REFERENCE_S`` over the median of the probes taken in the
``PROBE_WINDOW`` releases either side of it.  A change to the program
moves a scaled time by the same factor as the raw one; a change of
machine speed mostly cancels out.  The raw timings are printed beside
the scaled ones.

The probe is a pure-Python integer loop plus a crc32 over the canonical
repr of fixed dict records, the same kind of work as the program's
per-record fingerprinting.  Five 30-second runs per workload were
scored both ways; the quartile spread of the raw ``release_p50_ms`` was
0.14-0.25, of the scaled one 0.02-0.05.  Of the probes tried (either
half alone, small dict updates, and each scaled by the whole run's
median instead of a window), this one gave the lowest spreads.
"""

from __future__ import annotations

import random
import statistics
import time
import zlib
from typing import List, Sequence

#: the probe's median time, in seconds, on the 2-vCPU Xeon box where the
#: benchmark was tuned; scaled timings read as if measured at that speed.
REFERENCE_S = 0.0035
#: probes on each side of a release that set its speed.
PROBE_WINDOW = 3
#: iterations of the probe's integer loop, and its fixed records.
LOOPS = 20_000
_rng = random.Random(0)
RECORDS = [
    {"a": _rng.random(), "b": _rng.randint(0, 10 ** 6),
     "c": "x" * _rng.randint(1, 20), "d": _rng.random() * 100}
    for _ in range(400)
]


def probe() -> float:
    """Seconds one run of the fixed probe takes (about 3.5 ms)."""
    clock = time.perf_counter
    start = clock()
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    for record in RECORDS:
        acc += zlib.crc32(repr(sorted(record.items())).encode("utf-8"))
    return clock() - start


def probes(n: int) -> List[float]:
    return [probe() for _ in range(n)]


def speed_scale(samples: Sequence[float]) -> float:
    """Factor that maps a time measured beside ``samples`` to reference speed.

    Below 1 when the box ran slower than the reference: a time multiplied
    by it shrinks, and a rate divided by it grows.
    """
    return REFERENCE_S / statistics.median(samples)


def local_scales(samples: Sequence[float],
                 window: int = PROBE_WINDOW) -> List[float]:
    """The speed scale at each release, from the probes around it."""
    return [
        speed_scale(samples[max(0, i - window):i + window + 1])
        for i in range(len(samples))
    ]
