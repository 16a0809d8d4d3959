"""Small statistics the benchmark reports, kept apart so tests can pin them."""

from __future__ import annotations

import math
import re
import statistics
from typing import Sequence

#: metric names: a letter or digit first, then letters, digits, _ . -
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: a tail percentile is reported only with this many samples beyond it.
MIN_TAIL = 10


def valid_metric_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def tail_percentile(samples: Sequence[float], q: float,
                    min_tail: int = MIN_TAIL) -> float:
    """Nearest-rank ``q`` percentile that leaves ``min_tail`` samples above.

    Raises ``ValueError`` when the run is too short for that, rather
    than reporting a tail the samples cannot support.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    value = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    beyond = sum(1 for s in ordered if s > value)
    if beyond < min_tail:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples leaves {beyond} "
            f"above it; need at least {min_tail}"
        )
    return value


def min_samples_for(q: float, min_tail: int = MIN_TAIL) -> int:
    """Fewest distinct samples for which :func:`tail_percentile` succeeds."""
    return math.ceil(min_tail / (1.0 - q) - 1e-9)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as the steadiness check computes it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
