"""Declarative runtime alerting over the metric time-series store.

The rules watch what an operator has to see in time: budget burn
(:class:`BudgetBurnRule`, forecast in releases and in seconds), drift
of a query's inferred sensitivity (:class:`SensitivityDriftRule`),
RANGE ENFORCER clamping (:class:`ClampRateRule`), and machinery health
(:class:`RateRule`, :class:`TrendRule` and :class:`GaugeThresholdRule`
over labelled metric families, :class:`WorkerStarvationRule`).

Every rule is a window rule: ``on_window(store, now)`` reads a
:class:`~repro.obs.timeseries.TimeSeriesStore` as of ``now``.  One
method evaluates them, :meth:`AlertEngine.observe_window`, which an
attached store calls after each tick; ``UPASession`` folds each release
into the ``release.*`` series
(:func:`~repro.obs.timeseries.record_release`) and then ticks, so every
release is one evaluation point.  One dedupe policy covers every rule:
a firing is keyed by (rule, series, severity), fires at onset, stays
silent while the condition persists and re-arms once the rule
evaluates clean; a warning that escalates to critical fires again.
One :meth:`AlertEngine.replay` re-evaluates a ledger or a store
through the same path.  Firings land in the ledger header
(:meth:`AlertEngine.attach`), ``/healthz``, ``repro report`` and the
CLI exit summary.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union,
)

from repro.engine.metrics import MetricsRegistry
from repro.obs.crossproc import WORKER_RSS_KB, WORKER_TASKS_COMPLETED
from repro.obs.exporters import labeled_name, split_labeled_name
from repro.obs.ledger import PrivacyLedger
from repro.obs.timeseries import (
    TimeSeriesStore,
    forecast_exhaustion,
    least_squares_slope,
    record_release,
    values_at_advances,
)


@dataclass(frozen=True)
class Alert:
    """One rule firing.

    ``context`` carries the numbers behind the decision so the message
    never needs re-deriving; its ``series`` entry names the series the
    condition holds on (part of the dedupe key, see :func:`alert_key`).
    """

    rule: str
    severity: str  # "warning" | "critical"
    message: str
    context: Dict[str, Any] = field(default_factory=dict)
    unix_time: float = field(default_factory=time.time)

    def to_dict(self) -> dict:
        return asdict(self)


def alert_key(alert: Union[Alert, Mapping[str, Any]]) -> Tuple[str, str, str]:
    """The dedupe key (rule, series, severity) of an alert or its dict."""
    if isinstance(alert, Alert):
        return (alert.rule, str(alert.context.get("series", "")),
                alert.severity)
    context = alert.get("context") or {}
    return (str(alert.get("rule", "")), str(context.get("series", "")),
            str(alert.get("severity", "")))


class AlertRule:
    """Base rule: override ``on_window``.

    It sees the time-series store as of ``now`` (points after ``now``
    are excluded, so replay evaluates each historical tick faithfully)
    and returns an :class:`Alert` to fire or None.
    """

    name = "rule"

    def on_window(
        self, store: TimeSeriesStore, now: float
    ) -> Optional[Alert]:
        return None

    def _fire(self, now: float, message: str, context: Dict[str, Any],
              severity: str = "warning") -> Alert:
        return Alert(self.name, severity, message, context, now)


def _worst(
    store: TimeSeriesStore,
    metric: str,
    score: Callable[[str], Optional[float]],
    limit: float,
) -> Optional[Tuple[str, float]]:
    """The highest-scoring series of family ``metric`` scoring over
    ``limit``, or None.

    ``metric`` matches an exact series name or a labelled family base
    (``worker_rss_kb`` matches ``worker_rss_kb#worker=123``);
    ``score`` returns None for a series it cannot score.
    """
    worst: Optional[Tuple[str, float]] = None
    for raw in store.names():
        if raw != metric and split_labeled_name(raw)[0] != metric:
            continue
        value = score(raw)
        if value is not None and value > (worst[1] if worst else limit):
            worst = (raw, value)
    return worst


@dataclass
class BudgetBurnRule(AlertRule):
    """Forecast budget exhaustion from the burn rate, in releases and
    in seconds.

    The remaining balance is the ``session.budget_remaining_epsilon``
    gauge; without it the rule is silent.  Releases left is the
    balance over the mean epsilon charged by the last ``window``
    charged releases; seconds left is the balance over the trailing
    charge rate of ``release.epsilon_charged`` across
    ``rate_window_seconds`` (:func:`forecast_exhaustion`) — the
    wall-clock forecast a continuous append/retire deployment pages
    on.  Fires when fewer than ``min_releases_remaining`` releases or
    ``min_seconds_remaining`` seconds are left; critical below one
    release or a tenth of the seconds threshold.
    """

    min_releases_remaining: float = 5.0
    window: int = 10
    min_seconds_remaining: float = 300.0
    rate_window_seconds: float = 300.0
    name: str = "budget-burn"

    def on_window(self, store, now):
        remaining = store.latest(MetricsRegistry.BUDGET_REMAINING, until=now)
        if remaining is None:
            return None
        # cumulative (releases, epsilon) at the last window + 1 charged
        # releases, from the origin when fewer have been recorded.
        charged = MetricsRegistry.RELEASE_CHARGED
        counts = values_at_advances(
            store, charged, charged, now, last=self.window + 1)
        spent = values_at_advances(
            store, MetricsRegistry.RELEASE_EPSILON, charged, now,
            last=self.window + 1)
        if len(counts) <= self.window:
            counts, spent = [0.0] + counts, [0.0] + spent
        releases = burn = None
        if len(spent) == len(counts) and spent[-1] > spent[0]:
            burn = (spent[-1] - spent[0]) / (counts[-1] - counts[0])
            releases = remaining / burn
        forecast = forecast_exhaustion(
            store, window=self.rate_window_seconds, now=now
        ) or {}
        seconds = forecast.get("seconds_to_exhaustion")
        soon = seconds is not None and seconds < self.min_seconds_remaining
        if not soon and (
            releases is None or releases >= self.min_releases_remaining
        ):
            return None
        critical = (releases is not None and releases < 1.0) or (
            seconds is not None
            and seconds < self.min_seconds_remaining / 10.0
        )
        if soon:
            left = releases if releases is not None else forecast.get(
                "releases_to_exhaustion")
            suffix = f", ~{left:.0f} release(s)" if left is not None else ""
            message = (
                f"budget burn-rate: exhaustion forecast in ~{seconds:.0f}s"
                f"{suffix} at the trailing charge rate "
                f"({forecast['epsilon_per_second']:g} eps/s over "
                f"{self.rate_window_seconds:g}s, remaining epsilon "
                f"{remaining:g})"
            )
        else:
            message = (
                f"budget burn-rate: ~{releases:.1f} release(s) left at the "
                f"current spend (remaining epsilon {remaining:g}, mean "
                f"charge {burn:g} over last "
                f"{counts[-1] - counts[0]:g} release(s))"
            )
        return self._fire(
            now,
            message,
            {
                "metric": MetricsRegistry.RELEASE_EPSILON,
                "series": MetricsRegistry.BUDGET_REMAINING,
                **forecast,
                "remaining_epsilon": remaining,
                "mean_epsilon_charged": burn,
                "forecast_releases_remaining": releases,
                "forecast_seconds_to_exhaustion": seconds,
            },
            severity="critical" if critical else "warning",
        )


@dataclass
class SensitivityDriftRule(AlertRule):
    """Rolling z-score of ``local_sensitivity`` per query.

    Reads the ``release.local_sensitivity#query=<name>`` family.  A
    query's history holds one value per charged release of that query
    (the ticks where ``release.charged#query=<name>`` advanced), so
    sampler ticks and other queries' releases add nothing.  The latest
    value is compared with the mean/stddev of the ``window`` before
    it; with at least ``min_history`` of them, it fires when
    ``|value - mean| / stddev`` exceeds ``z_threshold``.  A
    zero-stddev baseline fires on any deviation at all (the strongest
    drift signal a constant history can give).  Names the query with
    the largest excursion.
    """

    z_threshold: float = 3.0
    min_history: int = 5
    window: int = 50
    name: str = "sensitivity-drift"

    def _drift(self, store, series, now) -> Optional[dict]:
        base, labels = split_labeled_name(series)
        if base != MetricsRegistry.RELEASE_SENSITIVITY or not labels \
                or "query" not in labels:
            return None
        values = values_at_advances(
            store, series,
            labeled_name(MetricsRegistry.RELEASE_CHARGED, **labels), now,
            last=self.window + 1,
        )
        prior = values[:-1]
        if len(prior) < self.min_history:
            return None
        value = values[-1]
        mean = sum(prior) / len(prior)
        stddev = math.sqrt(sum((v - mean) ** 2 for v in prior) / len(prior))
        deviation = value - mean
        if stddev == 0.0:
            if deviation == 0.0:
                return None
            z = math.copysign(math.inf, deviation)
        else:
            z = deviation / stddev
            if abs(z) <= self.z_threshold:
                return None
        return {
            "series": series,
            "query": labels["query"],
            "local_sensitivity": value,
            "baseline_mean": mean,
            "baseline_stddev": stddev,
            "baseline_count": len(prior),
            "z": z,
        }

    def on_window(self, store, now):
        drifts = [self._drift(store, raw, now) for raw in store.names()]
        drifts = [d for d in drifts if d is not None]
        if not drifts:
            return None
        drift = max(drifts, key=lambda d: abs(d["z"]))
        z = drift.pop("z")
        return self._fire(
            now,
            (
                f"sensitivity drift on {drift['query']!r}: "
                f"local_sensitivity {drift['local_sensitivity']:g} is "
                f"{z:+.1f} sigma from the rolling baseline (mean "
                f"{drift['baseline_mean']:g}, stddev "
                f"{drift['baseline_stddev']:g}, "
                f"n={drift['baseline_count']}) — inspect before releasing "
                "further answers for this query"
            ),
            {**drift, "z_score": z if math.isfinite(z) else None},
        )


@dataclass
class ClampRateRule(AlertRule):
    """RANGE ENFORCER clamp rate over charged releases.

    The cumulative ``release.clamps`` over ``release.charged``: cache
    hits charge nothing and are not counted.  Fires above ``max_rate``
    once at least ``min_entries`` releases were charged.
    """

    max_rate: float = 0.5
    min_entries: int = 5
    name: str = "clamp-rate"

    def on_window(self, store, now):
        charged = store.latest(MetricsRegistry.RELEASE_CHARGED, until=now)
        if charged is None or charged < self.min_entries:
            return None
        clamped = store.latest(MetricsRegistry.RELEASE_CLAMPS, until=now)
        rate = (clamped or 0.0) / charged
        if rate <= self.max_rate:
            return None
        return self._fire(
            now,
            (
                f"RANGE ENFORCER clamped {clamped:g}/{charged:g} releases "
                f"({rate:.0%} > {self.max_rate:.0%}): the fitted range is "
                "systematically tighter than the data"
            ),
            {
                "series": MetricsRegistry.RELEASE_CLAMPS,
                "clamped": clamped,
                "entries": charged,
                "clamp_rate": rate,
            },
        )


@dataclass
class RateRule(AlertRule):
    """Counter rate over a sliding window exceeds a cap.

    ``metric`` matches an exact series name or a labelled family base
    (``release.clamps`` and ``tasks_run#worker=123`` style alike); with
    several matching series the worst offender is named.  The default
    instance in :func:`default_rules` watches RANGE ENFORCER's clamp
    counter — a clamp *spike* (many clamps per second) is a different
    signal from :class:`ClampRateRule`'s clamp *fraction* and catches a
    burst of tight-range releases inside an otherwise healthy history.
    """

    metric: str = ""
    max_rate_per_second: float = math.inf
    window_seconds: float = 60.0
    min_points: int = 2
    severity: str = "warning"
    name: str = "rate"

    def on_window(self, store, now):
        def score(series):
            pts = store.points(
                series, since=now - self.window_seconds, until=now
            )
            if len(pts) < self.min_points:
                return None
            return store.rate(series, window=self.window_seconds, now=now)

        worst = _worst(store, self.metric, score, self.max_rate_per_second)
        if worst is None:
            return None
        series, rate = worst
        return self._fire(
            now,
            (
                f"rate spike on {series}: {rate:g}/s over the trailing "
                f"{self.window_seconds:g}s exceeds "
                f"{self.max_rate_per_second:g}/s"
            ),
            {
                "metric": self.metric,
                "series": series,
                "rate_per_second": rate,
                "max_rate_per_second": self.max_rate_per_second,
                "window_seconds": self.window_seconds,
            },
            severity=self.severity,
        )


@dataclass
class TrendRule(AlertRule):
    """Least-squares slope over a window exceeds a cap.

    ``metric`` matches exact names or labelled family bases (so one
    rule covers every ``worker_rss_kb#worker=<pid>`` series).  With
    ``relative=True`` the slope is divided by the window's mean value,
    making the threshold a *fractional growth rate per second* — the
    scale-free form suits sensitivity drift, where absolute magnitudes
    are query-dependent.  Fires on the worst offending series.
    """

    metric: str = ""
    max_slope_per_second: float = math.inf
    window_seconds: float = 120.0
    min_points: int = 3
    relative: bool = False
    severity: str = "warning"
    name: str = "trend"

    def on_window(self, store, now):
        def score(series):
            pts = store.points(
                series, since=now - self.window_seconds, until=now
            )
            if len(pts) < self.min_points:
                return None
            slope = least_squares_slope(pts)
            if slope is None:
                return None
            if self.relative:
                mean = sum(v for _, v in pts) / len(pts)
                if mean == 0.0:
                    return None
                slope = slope / abs(mean)
            return slope

        worst = _worst(store, self.metric, score, self.max_slope_per_second)
        if worst is None:
            return None
        series, slope = worst
        unit = "fraction/s" if self.relative else "units/s"
        return self._fire(
            now,
            (
                f"upward trend on {series}: slope {slope:g} {unit} over "
                f"the trailing {self.window_seconds:g}s exceeds "
                f"{self.max_slope_per_second:g} {unit}"
            ),
            {
                "metric": self.metric,
                "series": series,
                "slope_per_second": slope,
                "max_slope_per_second": self.max_slope_per_second,
                "window_seconds": self.window_seconds,
                "relative": self.relative,
            },
            severity=self.severity,
        )


@dataclass
class GaugeThresholdRule(AlertRule):
    """A gauge of family ``metric`` exceeds ``max_value``.

    ``metric`` matches an exact name or a labelled family base; the
    highest series over the threshold is named.  The default instance
    watches every worker's ``worker_rss_kb`` against a deliberately
    generous 4 GiB — it exists to catch a leaking worker, not to police
    normal footprints.
    """

    metric: str = ""
    max_value: float = math.inf
    name: str = "gauge-threshold"

    def on_window(self, store, now):
        worst = _worst(store, self.metric,
                       lambda series: store.latest(series, until=now),
                       self.max_value)
        if worst is None:
            return None
        series, value = worst
        return self._fire(
            now,
            (
                f"gauge {series} = {value:g} exceeds the configured "
                f"threshold {self.max_value:g}"
            ),
            {"metric": self.metric, "series": series,
                     "value": value, "max_value": self.max_value},
        )


@dataclass
class WorkerStarvationRule(AlertRule):
    """Process backend configured, but all work falls back to the driver.

    Fires when at least ``min_fallbacks`` jobs have taken the fallback
    path while **no** worker has completed a single task (every
    ``worker_tasks_completed`` gauge absent or zero).  That combination
    means the pool is spawned and idle — typically every shipped
    lineage has an unpicklable closure — and the operator is paying
    process-pool overhead for thread-path throughput.  Silent on
    thread/inline sessions: the ``process_fallbacks`` counter only
    exists once a processes-backend scheduler is constructed.
    """

    min_fallbacks: float = 1.0
    name: str = "worker-starvation"

    def on_window(self, store, now):
        fallbacks = store.latest(
            MetricsRegistry.PROCESS_FALLBACKS, until=now)
        if fallbacks is None or fallbacks < self.min_fallbacks:
            return None
        completed = 0.0
        for raw in store.names():
            base, labels = split_labeled_name(raw)
            if base == WORKER_TASKS_COMPLETED and labels:
                completed += store.latest(raw, until=now) or 0.0
        if completed > 0:
            return None
        return self._fire(
            now,
            (
                f"process workers are starving: {fallbacks:g} job(s) fell "
                "back to the thread/inline path and no worker has "
                "completed a task — shipped lineages are not crossing "
                "the process boundary"
            ),
            {
                "series": MetricsRegistry.PROCESS_FALLBACKS,
                "process_fallbacks": fallbacks,
                "worker_tasks_completed": completed,
            },
        )


def default_rules() -> List[AlertRule]:
    """The rules every monitored session should run.

    The release trio (budget burn, sensitivity drift, clamp rate), the
    process-worker health rules — silent unless a processes-backend
    session is actually running — and a clamp-rate spike detector.
    Worker RSS is gated both by level (4 GiB) and by growth (sustained
    > 1 MiB/s over two minutes means a leaking worker, not a working
    set).  Sensitivity trends are left to explicit :class:`TrendRule`
    instances because a useful relative threshold is workload-specific.
    """
    return [
        BudgetBurnRule(),
        SensitivityDriftRule(),
        ClampRateRule(),
        WorkerStarvationRule(),
        GaugeThresholdRule(
            metric=WORKER_RSS_KB,
            max_value=4.0 * 1024 * 1024,
            name="worker-rss",
        ),
        RateRule(
            metric=MetricsRegistry.RELEASE_CLAMPS,
            max_rate_per_second=1.0,
            window_seconds=60.0,
            min_points=3,
            name="clamp-spike",
        ),
        TrendRule(
            metric=WORKER_RSS_KB,
            max_slope_per_second=1024.0,
            window_seconds=120.0,
            min_points=5,
            name="worker-rss-growth",
        ),
    ]


class AlertEngine:
    """Evaluates the rules over a time-series store; keeps firings.

    Thread-safe: release ticks arrive from the session thread while
    the sampler thread and scrape handlers tick the same store.  The
    engine's state is the firing list plus, per rule, the keys fired
    since that rule last evaluated clean — bounded by rules × series,
    never by the number of releases.
    """

    def __init__(self, rules: Optional[Sequence[AlertRule]] = None):
        self.rules = list(rules) if rules is not None else default_rules()
        self._lock = threading.Lock()
        self._alerts: List[Alert] = []
        #: rule index -> keys fired since the rule last evaluated clean.
        self._firing: Dict[int, Set[Tuple[str, str, str]]] = {}
        self._ledger: Optional[PrivacyLedger] = None

    # -- wiring -------------------------------------------------------
    def attach(self, ledger: PrivacyLedger) -> "AlertEngine":
        """Land firings in ``ledger``'s header (``"alerts"``)."""
        self._ledger = ledger
        return self

    def attach_timeseries(self, store: TimeSeriesStore) -> "AlertEngine":
        """Evaluate the rules on every tick of ``store``."""
        # Looked up per tick, not bound once, so a wrapper installed
        # on the class later (a profiler, the benchmark's tracer)
        # still sees every evaluation.
        store.add_listener(lambda s, t: self.observe_window(s, now=t))
        return self

    # -- evaluation ---------------------------------------------------
    def observe_window(
        self, store: TimeSeriesStore, now: Optional[float] = None
    ) -> List[Alert]:
        """Evaluate every rule against ``store`` as of ``now``.

        A firing is keyed by :func:`alert_key` — (rule, series,
        severity), never the message, whose numbers churn every tick.
        It fires at onset, stays silent while the rule keeps returning
        that key, and re-arms when the rule next evaluates clean; an
        escalation to critical is a new key and fires again.
        """
        t = time.time() if now is None else float(now)
        fired: List[Alert] = []
        for index, rule in enumerate(self.rules):
            alert = rule.on_window(store, t)
            with self._lock:
                firing = self._firing.setdefault(index, set())
                if alert is None:
                    firing.clear()
                    continue
                key = alert_key(alert)
                if key in firing:
                    continue
                firing.add(key)
            fired.append(alert)
        if fired:
            with self._lock:
                self._alerts.extend(fired)
            if self._ledger is not None:
                self._ledger.update_header(alerts=self.to_dicts())
        return fired

    #: Alias kept only so the name still resolves for the release
    #: benchmark (perfbench/harness.py wraps it by name); there is no
    #: second evaluation path.
    observe_metrics = observe_window

    # -- queries ------------------------------------------------------
    def alerts(self) -> List[Alert]:
        with self._lock:
            return list(self._alerts)

    @property
    def degraded(self) -> bool:
        """True once any rule has fired (the ``/healthz`` signal)."""
        with self._lock:
            return bool(self._alerts)

    def firing_rules(self) -> List[str]:
        """Distinct rule names that have fired, in first-firing order."""
        return list(dict.fromkeys(a.rule for a in self.alerts()))

    def to_dicts(self) -> List[dict]:
        return [a.to_dict() for a in self.alerts()]

    def summary(self) -> str:
        """CLI exit-summary rendering ('' when nothing fired)."""
        alerts = self.alerts()
        if not alerts:
            return ""
        lines = [f"{len(alerts)} alert(s) fired:"]
        for alert in alerts:
            lines.append(
                f"  {alert.severity.upper()} {alert.rule}: {alert.message}"
            )
        return "\n".join(lines)

    def replay(
        self, source: Union[PrivacyLedger, TimeSeriesStore]
    ) -> List[Alert]:
        """Evaluate an existing artifact against the rules.

        A :class:`TimeSeriesStore` (e.g. rebuilt from a
        ``--timeseries`` JSONL artifact) is evaluated as of each
        recorded tick.  A :class:`PrivacyLedger` is folded entry by
        entry into a fresh registry and store through
        :func:`~repro.obs.timeseries.record_release` — the function a
        live session uses — ticking at the entry's timestamp and
        evaluating after each entry, so every entry is an evaluation
        point however long the ledger.  Returns everything fired.
        """
        fired: List[Alert] = []
        if isinstance(source, TimeSeriesStore):
            for t in source.tick_times():
                fired.extend(self.observe_window(source, now=t))
            return fired
        store = TimeSeriesStore(MetricsRegistry())
        t = -math.inf
        for entry in source.entries():
            record_release(
                store.metrics,
                query=entry.query,
                epsilon_charged=entry.epsilon_charged,
                cache_hit=entry.cache_hit,
                clamped=entry.clamped,
                records_removed=entry.records_removed,
                local_sensitivity=entry.local_sensitivity,
                remaining_epsilon=entry.accountant_remaining_epsilon,
                spent_epsilon=entry.accountant_spent_epsilon,
            )
            # strictly increasing ticks, even for same-instant entries
            t = max(entry.unix_time, t + 1e-6)
            fired.extend(self.observe_window(store, now=store.tick(now=t)))
        return fired
