"""In-memory spans for the traced benchmark run, and per-layer self time.

A span is the list ``[name, start, end, parent, release, count]``:
``parent`` is the index of the enclosing span in the recorder's list
(-1 for a root), ``release`` the index of the release it belongs to,
and ``count`` how many calls it stands for (more than one only for
per-record spans, see :meth:`SpanRecorder.wrap_per_record`).

Wrappers are installed with :class:`Patches` by replacing a name where
its caller looks it up (a module global, a class attribute or a list
slot) and are removed again afterwards, so untraced releases run the
unmodified program.  The recorder assumes one thread: the benchmark
runs the engine's ``inline`` backend.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

NAME, START, END, PARENT, RELEASE, COUNT = range(6)


class SpanRecorder:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: List[list] = []
        self.release = -1
        self._open: List[int] = []
        self._clock = clock

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0.0, 0.0, parent, self.release, 1])
        self._open.append(index)
        self.spans[index][START] = self._clock()
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self._clock()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was open")

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as one span per call."""
        begin, end = self.begin, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        return traced

    def wrap_per_record(self, name: str, fn: Callable) -> Callable:
        """``fn`` called once per record, back to back, from one loop.

        Consecutive calls under the same parent are coalesced into one
        span that runs from the first call's start to the last call's
        end, with ``count`` calls; a span per call would cost more than
        a fingerprint and hold millions of spans.  ``fn`` must be a leaf:
        nothing it calls may be wrapped.
        """
        spans, open_, clock = self.spans, self._open, self._clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stop = clock()
                parent = open_[-1] if open_ else -1
                last = spans[-1] if spans else None
                if (last is not None and last[NAME] == name
                        and last[PARENT] == parent
                        and last[RELEASE] == self.release):
                    last[END] = stop
                    last[COUNT] += 1
                else:
                    spans.append([name, start, stop, parent, self.release, 1])

        return traced

    def to_json(self) -> List[dict]:
        return [
            {"name": s[NAME], "start": s[START], "end": s[END],
             "parent": s[PARENT], "release": s[RELEASE], "count": s[COUNT]}
            for s in self.spans
        ]


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            lo, hi = spans[parent][START], spans[parent][END]
            children[parent].append(
                (max(span[START], lo), min(span[END], hi))
            )
    return [
        (span[END] - span[START]) - union_length(children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def layer_totals(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self time summed per span name (seconds)."""
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[NAME]] += own
    return dict(totals)


def call_counts(spans: Sequence[Sequence]) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span[NAME]] += span[COUNT]
    return dict(counts)


class Patches:
    """Replace names where callers look them up, and put them back.

    ``owner`` is a module or class (the name is an attribute) or a list
    (the name is an index, e.g. a registered listener).  A class
    attribute that was inherited is deleted again on restore rather
    than copied down into the subclass.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, Any, Any, bool]] = []

    def replace(self, owner: Any, key: Any,
                wrap: Callable[[Any], Any]) -> None:
        if isinstance(owner, list):
            old = owner[key]
            owner[key] = wrap(old)
            self._saved.append((owner, key, old, True))
            return
        own = key in vars(owner)
        old = getattr(owner, key)
        setattr(owner, key, wrap(old))
        self._saved.append((owner, key, old, own))

    def restore(self) -> None:
        while self._saved:
            owner, key, old, own = self._saved.pop()
            if isinstance(owner, list):
                owner[key] = old
            elif own:
                setattr(owner, key, old)
            else:
                delattr(owner, key)
