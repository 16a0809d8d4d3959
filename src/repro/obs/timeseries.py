"""Bounded time-series store sampled from the metrics registry.

Everything in :mod:`repro.obs` up to here is snapshot-shaped: a
``/metrics`` scrape, a ledger entry, a report section all describe one
instant.  A long-running session (``UPASession.append``/``retire``)
needs the *time* dimension — how fast is epsilon being charged, is
sensitivity drifting, is a worker's RSS growing — so the alert rules can
forecast budget exhaustion before it happens instead of observing it
after.

:class:`TimeSeriesStore` samples a :class:`~repro.engine.metrics.MetricsRegistry`
into bounded per-series ring buffers:

* counters are recorded as cumulative values (kind ``"counter"``) and
  rates are derived over sliding windows on read;
* gauges are recorded as-is (kind ``"gauge"``);
* histograms are summarized per tick into a ``<name>.count`` counter and
  ``<name>.mean`` / ``<name>.p95`` gauges (re-summarizing the full
  observation list every tick would be O(samples) per tick).

Sampling happens three ways, all landing in the same ``tick`` path:

* a daemon sampler thread on a configurable interval (``start()``);
* an explicit ``tick(now=...)`` so tests are deterministic;
* ``tick_if_due()`` from scrape handlers and per-release hooks, which
  rate-limits to the configured interval so a busy append loop and a
  scraping Prometheus don't multiply the sample rate.

When a series' ring buffer fills, it is *downsampled* rather than
truncated: points are compacted pairwise (counters keep the later
cumulative value, gauges average), doubling the effective resolution and
therefore the retention horizon.  Old data gets coarser, not dropped.

The store never mutates what it observes — it holds no references into
the engine beyond the registry it snapshots, so enabling it cannot
change DP outputs (the same invariant upalint enforces for monoids).
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
import warnings
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.metrics import HistogramSummary, MetricsRegistry
from repro.obs.exporters import labeled_name, split_labeled_name

#: artifact format tag, first line of every time-series JSONL file.
TIMESERIES_FORMAT = "upa-timeseries/1"

#: the series an operator watches first — the dashboard and ``repro
#: watch`` lead with these (family bases match their labelled members),
#: then append whatever else the store holds.
KEY_SERIES: Tuple[str, ...] = (
    MetricsRegistry.RELEASES,
    MetricsRegistry.RELEASE_EPSILON,
    MetricsRegistry.BUDGET_REMAINING,
    MetricsRegistry.RELEASE_SENSITIVITY,
    MetricsRegistry.RELEASE_CLAMPS,
    MetricsRegistry.INCR_DELTA_FRACTION,
    MetricsRegistry.INCR_RECORDS_REUSED,
    MetricsRegistry.JOBS,
    MetricsRegistry.TASKS,
    "worker_rss_kb",
)

COUNTER = "counter"
GAUGE = "gauge"

Point = Tuple[float, float]


class _Series:
    """One bounded series: ``[(unix_time, value), ...]`` plus its kind."""

    __slots__ = ("kind", "points", "compactions")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.points: List[Point] = []
        self.compactions = 0

    def add(self, t: float, v: float, max_points: int) -> None:
        self.points.append((t, v))
        if len(self.points) > max_points:
            self._compact()

    def _compact(self) -> None:
        pts = self.points
        out: List[Point] = []
        for i in range(0, len(pts) - 1, 2):
            a, b = pts[i], pts[i + 1]
            if self.kind == COUNTER:
                # cumulative: the later value subsumes the earlier one,
                # so pairwise rates over the survivors stay exact.
                out.append(b)
            else:
                out.append(((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0))
        if len(pts) % 2:
            out.append(pts[-1])
        self.points = out
        self.compactions += 1


class TimeSeriesStore:
    """Ring-buffered metric samples with rate/trend derivation.

    Args:
        metrics: registry to sample on each tick (optional — a store
            can also be fed via :meth:`record`, e.g. when rebuilt from
            an artifact).
        interval: target seconds between samples; both the sampler
            thread and :meth:`tick_if_due` honour it.
        max_points: per-series ring-buffer capacity before pairwise
            downsampling kicks in.
        histograms: also summarize histogram metrics per tick (count /
            mean / p95 derived series).
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        *,
        interval: float = 1.0,
        max_points: int = 512,
        histograms: bool = True,
        header: Optional[dict] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if max_points < 8:
            raise ValueError(f"max_points must be >= 8, got {max_points}")
        self.metrics = metrics
        self.interval = float(interval)
        self.max_points = int(max_points)
        self.sample_histograms = bool(histograms)
        self.header = dict(header or {})
        self._lock = threading.Lock()
        self._series: Dict[str, _Series] = {}
        self._ticks: List[float] = []
        self._last_tick: Optional[float] = None
        self._listeners: List[Callable[["TimeSeriesStore", float], None]] = []
        self._jsonl_path: Optional[str] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()

    # ------------------------------------------------------------------
    # recording

    def add_listener(
        self, listener: Callable[["TimeSeriesStore", float], None]
    ) -> None:
        """Call ``listener(store, now)`` after every tick.

        Listeners run outside the store lock (same contract as ledger
        listeners); an exception is downgraded to a warning so a broken
        observer cannot fail the pipeline it observes.
        """
        self._listeners.append(listener)

    def record(self, name: str, kind: str, value: float, now: float) -> None:
        """Record one point into series ``name`` (creating it)."""
        if kind not in (COUNTER, GAUGE):
            raise ValueError(f"unknown series kind: {kind!r}")
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = _Series(kind)
            series.add(float(now), float(value), self.max_points)

    def tick(self, now: Optional[float] = None) -> float:
        """Sample the registry once; returns the sample timestamp.

        Histogram metrics are summarized into derived series rather
        than stored raw; the derived names are plain metric names, so
        they flow through ``?series=`` filters and the dashboard like
        any other series.
        """
        t = time.time() if now is None else float(now)
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        if self.metrics is not None:
            snap = self.metrics.snapshot()
            counters.update(snap.counters)
            gauges.update(snap.gauges)
            if self.sample_histograms:
                for name, values in snap.histograms.items():
                    summary = HistogramSummary.from_values(values)
                    counters[name + ".count"] = float(summary.count)
                    gauges[name + ".mean"] = summary.mean
                    gauges[name + ".p95"] = summary.p95
        with self._lock:
            # a sampler tick and a release tick may race: never let
            # time run backwards, so every series stays in time order.
            if self._last_tick is not None and t < self._last_tick:
                t = self._last_tick
            for name, value in counters.items():
                series = self._series.get(name)
                if series is None:
                    series = self._series[name] = _Series(COUNTER)
                series.add(t, float(value), self.max_points)
            for name, value in gauges.items():
                series = self._series.get(name)
                if series is None:
                    series = self._series[name] = _Series(GAUGE)
                series.add(t, float(value), self.max_points)
            self._ticks.append(t)
            if len(self._ticks) > 4 * self.max_points:
                del self._ticks[: len(self._ticks) // 2]
            self._last_tick = t
            path = self._jsonl_path
        if path is not None:
            self._append_jsonl(path, t, counters, gauges)
        for listener in list(self._listeners):
            try:
                listener(self, t)
            except Exception as exc:  # pragma: no cover - defensive
                warnings.warn(
                    f"time-series listener raised {exc!r}; "
                    "continuing without it",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return t

    def tick_if_due(self, now: Optional[float] = None) -> Optional[float]:
        """Tick only if at least ``interval`` elapsed since the last one.

        This is the hook scrape handlers and per-release paths use:
        it keeps an idle-but-serving session's series (and therefore
        its windowed alert state) fresh without letting a hot loop
        oversample.
        """
        t = time.time() if now is None else float(now)
        with self._lock:
            last = self._last_tick
        if last is not None and t - last < self.interval:
            return None
        return self.tick(now=t)

    # ------------------------------------------------------------------
    # sampler thread

    def start(self, interval: Optional[float] = None) -> None:
        """Start the daemon sampler thread (idempotent)."""
        if interval is not None:
            if interval <= 0:
                raise ValueError(f"interval must be positive, got {interval}")
            self.interval = float(interval)
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop_event.clear()

        def _loop() -> None:
            while not self._stop_event.wait(self.interval):
                try:
                    self.tick()
                except Exception:  # pragma: no cover - defensive
                    # the sampler must never take the session down; a
                    # failed sample is a gap in the series, nothing more.
                    pass

        self._thread = threading.Thread(
            target=_loop, name="repro-timeseries-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the sampler thread (idempotent; safe if never started)."""
        self._stop_event.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------
    # queries

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._series)

    def kind(self, name: str) -> Optional[str]:
        with self._lock:
            series = self._series.get(name)
            return series.kind if series is not None else None

    def tick_times(self) -> List[float]:
        with self._lock:
            return list(self._ticks)

    @property
    def last_tick(self) -> Optional[float]:
        with self._lock:
            return self._last_tick

    def points(
        self,
        name: str,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[Point]:
        """Points of series ``name`` with ``since < t <= until``.

        The half-open lower bound makes windowed reads composable with
        :meth:`rate`; ``until`` lets :meth:`AlertEngine.replay
        <repro.obs.alerts.AlertEngine.replay>` evaluate windows *as of*
        a historical tick without seeing the future.  Points are in
        time order, so a bound that every point meets costs nothing.
        """
        with self._lock:
            series = self._series.get(name)
            if series is None:
                return []
            pts = list(series.points)
        if since is not None and pts and pts[0][0] <= since:
            pts = [p for p in pts if p[0] > since]
        if until is not None and pts and pts[-1][0] > until:
            pts = [p for p in pts if p[0] <= until]
        return pts

    def latest(
        self, name: str, until: Optional[float] = None
    ) -> Optional[float]:
        pts = self.points(name, until=until)
        return pts[-1][1] if pts else None

    def rate(
        self,
        name: str,
        window: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """Per-second rate of change over the trailing ``window``.

        Needs at least two points in the window; counter rates clamp at
        zero (a registry reset between samples reads as "no progress",
        not a negative rate).  ``window=None`` spans the whole series.
        """
        end = self._resolve_now(now)
        since = None if window is None else end - float(window)
        pts = self.points(name, since=since, until=end)
        if len(pts) < 2:
            return None
        (t0, v0), (t1, v1) = pts[0], pts[-1]
        if t1 <= t0:
            return None
        r = (v1 - v0) / (t1 - t0)
        if self.kind(name) == COUNTER:
            r = max(0.0, r)
        return r

    def delta(
        self,
        name: str,
        window: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """Increase over the trailing ``window`` (None if < 2 points)."""
        end = self._resolve_now(now)
        since = None if window is None else end - float(window)
        pts = self.points(name, since=since, until=end)
        if len(pts) < 2:
            return None
        return pts[-1][1] - pts[0][1]

    def slope(
        self,
        name: str,
        window: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """Least-squares slope (units/second) over the trailing window."""
        end = self._resolve_now(now)
        since = None if window is None else end - float(window)
        pts = self.points(name, since=since, until=end)
        return least_squares_slope(pts)

    def _resolve_now(self, now: Optional[float]) -> float:
        if now is not None:
            return float(now)
        last = self.last_tick
        return last if last is not None else time.time()

    # ------------------------------------------------------------------
    # payloads

    def to_payload(
        self,
        series: Optional[Sequence[str]] = None,
        since: Optional[float] = None,
        step: Optional[float] = None,
        rate_window: Optional[float] = None,
        now: Optional[float] = None,
    ) -> dict:
        """JSON-ready dict for ``/timeseries`` and ``repro watch``.

        ``series`` filters by exact name or by labelled-family base
        (``worker_rss_kb`` matches ``worker_rss_kb#worker=123``);
        ``step`` resamples each series to at most one point per
        ``step`` seconds (last value wins — cheap, monotone-safe).
        """
        end = self._resolve_now(now)
        wanted = None
        if series:
            wanted = {s.strip() for s in series if s and s.strip()}
        out: Dict[str, dict] = {}
        for name in self.names():
            if wanted is not None:
                base, _ = split_labeled_name(name)
                if name not in wanted and base not in wanted:
                    continue
            pts = self.points(name, since=since, until=end)
            if not pts:
                continue
            if step:
                pts = resample(pts, float(step))
            entry = {
                "kind": self.kind(name),
                "points": [[t, v] for t, v in pts],
                "latest": pts[-1][1],
            }
            r = self.rate(name, window=rate_window, now=end)
            if r is not None:
                entry["rate_per_second"] = r
            out[name] = entry
        return {
            "format": TIMESERIES_FORMAT,
            "now": end,
            "interval": self.interval,
            "ticks": len(self.tick_times()),
            "series": out,
        }

    # ------------------------------------------------------------------
    # JSONL artifacts

    def stream_to(self, path: str) -> None:
        """Append one JSONL line per tick to ``path`` from now on.

        Writes the header immediately if the file is empty/absent, same
        convention as :meth:`PrivacyLedger.append_jsonl` — a crash
        mid-session leaves a readable prefix.
        """
        self._jsonl_path = os.fspath(path)
        self._ensure_jsonl_header(self._jsonl_path)

    def _header_line(self) -> dict:
        header = {
            "format": TIMESERIES_FORMAT,
            "interval": self.interval,
            "max_points": self.max_points,
        }
        header.update(self.header)
        return header

    def _ensure_jsonl_header(self, path: str) -> None:
        if os.path.exists(path) and os.path.getsize(path) > 0:
            return
        with io.open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self._header_line(), sort_keys=True) + "\n")

    def _append_jsonl(
        self,
        path: str,
        t: float,
        counters: Dict[str, float],
        gauges: Dict[str, float],
    ) -> None:
        line = json.dumps(
            {"t": t, "counters": counters, "gauges": gauges},
            sort_keys=True,
        )
        with io.open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    def write_jsonl(self, path: str) -> int:
        """Dump the retained window to ``path``; returns ticks written.

        Reconstructs per-tick rows from the ring buffers, so a store
        that has downsampled writes its *coarsened* history — use
        :meth:`stream_to` during the run for full-resolution artifacts.
        """
        ticks = self.tick_times()
        with self._lock:
            columns = {
                name: (s.kind, list(s.points)) for name, s in self._series.items()
            }
        with io.open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self._header_line(), sort_keys=True) + "\n")
            written = 0
            for t in ticks:
                counters: Dict[str, float] = {}
                gauges: Dict[str, float] = {}
                for name, (kind, pts) in columns.items():
                    value = _value_at(pts, t)
                    if value is None:
                        continue
                    (counters if kind == COUNTER else gauges)[name] = value
                fh.write(
                    json.dumps(
                        {"t": t, "counters": counters, "gauges": gauges},
                        sort_keys=True,
                    )
                    + "\n"
                )
                written += 1
        return written

    @classmethod
    def read_jsonl(cls, path: str) -> "TimeSeriesStore":
        """Rebuild a store from a JSONL artifact (crash-safe).

        Blank and corrupt lines are skipped with a warning, matching
        :meth:`PrivacyLedger.read_jsonl` — a torn final line from a
        crashed session must not make the artifact unreadable.
        """
        store: Optional[TimeSeriesStore] = None
        with io.open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    payload = json.loads(raw)
                except json.JSONDecodeError:
                    warnings.warn(
                        f"{path}:{lineno}: skipping corrupt time-series "
                        "line (truncated write?)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                if not isinstance(payload, dict):
                    continue
                if store is None:
                    if payload.get("format") != TIMESERIES_FORMAT:
                        raise ValueError(
                            f"{path}: not a {TIMESERIES_FORMAT} artifact "
                            f"(header: {payload!r})"
                        )
                    header = {
                        k: v
                        for k, v in payload.items()
                        if k not in ("format", "interval", "max_points")
                    }
                    store = cls(
                        None,
                        interval=float(payload.get("interval", 1.0)),
                        max_points=int(payload.get("max_points", 512)),
                        header=header,
                    )
                    continue
                if "t" not in payload:
                    continue
                t = float(payload["t"])
                for name, value in (payload.get("counters") or {}).items():
                    store.record(name, COUNTER, value, t)
                for name, value in (payload.get("gauges") or {}).items():
                    store.record(name, GAUGE, value, t)
                with store._lock:
                    store._ticks.append(t)
                    store._last_tick = t
        if store is None:
            raise ValueError(f"{path}: empty time-series artifact")
        return store


def least_squares_slope(points: Sequence[Point]) -> Optional[float]:
    """Ordinary least-squares slope of ``points`` (None if degenerate)."""
    if len(points) < 2:
        return None
    n = float(len(points))
    mean_t = sum(t for t, _ in points) / n
    mean_v = sum(v for _, v in points) / n
    sxx = sum((t - mean_t) ** 2 for t, _ in points)
    if sxx == 0.0:
        return None
    sxy = sum((t - mean_t) * (v - mean_v) for t, v in points)
    return sxy / sxx


def resample(points: Sequence[Point], step: float) -> List[Point]:
    """At most one point per ``step``-second bucket (last value wins)."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    out: List[Point] = []
    last_bucket: Optional[int] = None
    for t, v in points:
        bucket = int(t // step)
        if last_bucket is not None and bucket == last_bucket:
            out[-1] = (t, v)
        else:
            out.append((t, v))
            last_bucket = bucket
    return out


def _value_at(points: Sequence[Point], t: float) -> Optional[float]:
    """Last value at or before ``t`` (None if the series starts later)."""
    value = None
    for pt, pv in points:
        if pt > t:
            break
        value = pv
    return value


def forecast_exhaustion(
    store: TimeSeriesStore,
    *,
    window: Optional[float] = None,
    now: Optional[float] = None,
) -> Optional[dict]:
    """Budget forecast from the charge-rate window, or None.

    Reads the ``release.epsilon_charged`` counter's trailing rate and
    the session budget-remaining gauge; returns seconds (and, when
    the release rate is known, releases) to exhaustion.  This is the
    arithmetic behind the windowed ``BudgetBurnRule`` and the ``repro
    watch`` forecast line.
    """
    end = store._resolve_now(now)
    rate = store.rate(MetricsRegistry.RELEASE_EPSILON, window=window, now=end)
    remaining = store.latest(MetricsRegistry.BUDGET_REMAINING, until=end)
    if rate is None or rate <= 0.0 or remaining is None:
        return None
    seconds = remaining / rate
    forecast = {
        "epsilon_per_second": rate,
        "remaining_epsilon": remaining,
        "seconds_to_exhaustion": seconds,
    }
    release_rate = store.rate(
        MetricsRegistry.RELEASES, window=window, now=end
    )
    if release_rate is not None and release_rate > 0.0:
        forecast["releases_to_exhaustion"] = seconds * release_rate
    return forecast


def values_at_advances(
    store: TimeSeriesStore,
    series: str,
    counter: str,
    now: Optional[float] = None,
    last: Optional[int] = None,
) -> List[float]:
    """Values of ``series`` at the ticks where ``counter`` advanced.

    Oldest first, as of ``now``, at most the newest ``last``: one value
    per tick at which the cumulative ``counter`` rose (its first point
    counts as rising from zero), so ticks that recorded no release add
    nothing.  ``series`` is read at or before each such tick, which
    stays well-defined after downsampling has averaged gauge
    timestamps.
    """
    end = store._resolve_now(now)
    values = store.points(series, until=end)
    counts = store.points(counter, until=end)
    out: List[float] = []
    i = len(values) - 1
    for j in range(len(counts) - 1, -1, -1):
        if last is not None and len(out) >= last:
            break
        t, count = counts[j]
        if count <= (counts[j - 1][1] if j else 0.0):
            continue
        while i >= 0 and values[i][0] > t:
            i -= 1
        if i < 0:
            break
        out.append(values[i][1])
    out.reverse()
    return out


def record_release(
    metrics: MetricsRegistry,
    *,
    query: str,
    epsilon_charged: float,
    cache_hit: bool,
    clamped: bool,
    records_removed: int,
    local_sensitivity: float,
    remaining_epsilon: Optional[float] = None,
    spent_epsilon: Optional[float] = None,
) -> None:
    """Fold one release into the ``release.*`` and budget series.

    ``UPASession`` calls this after every release and
    :meth:`AlertEngine.replay <repro.obs.alerts.AlertEngine.replay>`
    after every ledger entry, so a replayed ledger feeds the rules the
    same series a live session does.  Cache hits count as releases
    but charge nothing, so they touch none of the charged-release
    series.  The budget gauges are set only when a balance is known.
    """
    metrics.incr(MetricsRegistry.RELEASES)
    if not cache_hit:
        # label values must not contain the label-encoding separators
        label = query.replace("#", "_").replace(",", "_").replace("=", "_")
        charged = MetricsRegistry.RELEASE_CHARGED
        sensitivity = MetricsRegistry.RELEASE_SENSITIVITY
        metrics.incr(MetricsRegistry.RELEASE_EPSILON, epsilon_charged)
        metrics.incr(charged)
        metrics.incr(labeled_name(charged, query=label))
        if clamped:
            metrics.incr(MetricsRegistry.RELEASE_CLAMPS)
        if records_removed:
            metrics.incr(MetricsRegistry.RELEASE_RECORDS_REMOVED,
                         float(records_removed))
        metrics.set_gauge(sensitivity, local_sensitivity)
        metrics.set_gauge(labeled_name(sensitivity, query=label),
                          local_sensitivity)
    if remaining_epsilon is not None:
        metrics.set_gauge(MetricsRegistry.BUDGET_REMAINING, remaining_epsilon)
    if spent_epsilon is not None:
        metrics.set_gauge(MetricsRegistry.BUDGET_SPENT, spent_epsilon)


def order_series(
    names: Iterable[str], key_series: Sequence[str] = KEY_SERIES
) -> List[str]:
    """Order ``names`` with the key series (and their labelled family
    members) first, everything else alphabetically after."""
    names = list(names)
    leading: List[str] = []
    for key in key_series:
        for name in sorted(names):
            base, _ = split_labeled_name(name)
            if (name == key or base == key) and name not in leading:
                leading.append(name)
    trailing = sorted(n for n in names if n not in leading)
    return leading + trailing


__all__ = [
    "COUNTER",
    "GAUGE",
    "KEY_SERIES",
    "TIMESERIES_FORMAT",
    "TimeSeriesStore",
    "forecast_exhaustion",
    "least_squares_slope",
    "order_series",
    "record_release",
    "resample",
    "values_at_advances",
]
