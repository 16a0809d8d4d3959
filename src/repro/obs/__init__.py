"""repro.obs: observability for the UPA pipeline.

Post-hoc pillars (see ``docs/observability.md``):

* :mod:`repro.obs.tracing` — contextvar-propagated span tracer with
  Chrome trace-event export; zero-cost when disabled.
* :mod:`repro.obs.ledger` — append-only privacy audit ledger recording
  the fitted normal parameters, inferred output range, sensitivity,
  RANGE ENFORCER outcomes and epsilon charged per release.
* :mod:`repro.obs.report` — the :class:`ObservedRun` report object and
  the per-phase/percentile breakdowns behind ``repro report``.

Live-monitoring pillars (same doc, "Live monitoring"):

* :mod:`repro.obs.exporters` — Prometheus text exposition and
  OTLP-style JSON over metrics snapshots and span trees.
* :mod:`repro.obs.server` — the :class:`ObservabilityServer` HTTP
  endpoints (``/metrics``, ``/healthz``, ``/ledger``, ``/traces``,
  ``/budget``, ``/profile``) behind ``repro … --serve``.
* :mod:`repro.obs.alerts` — declarative :class:`AlertRule`s (budget
  burn, sensitivity drift, clamp rate, rate/trend/gauge gates, worker
  starvation), all window rules over the time-series store, evaluated
  by one :meth:`AlertEngine.observe_window` path with one dedupe
  policy and one :meth:`AlertEngine.replay` for ledgers and stores.
* :mod:`repro.obs.profiler` — the span-attributing
  :class:`SamplingProfiler` with collapsed-stack export.
* :mod:`repro.obs.crossproc` — cross-process telemetry for
  ``backend="processes"``: span parentage shipped down to workers
  (:class:`SpanContext`), worker spans/metrics/profiles piggybacked
  back (:class:`WorkerTelemetry`) and merged under ``worker=<pid>``
  labels.
* :mod:`repro.obs.timeseries` — the bounded :class:`TimeSeriesStore`
  ring buffers behind continuous monitoring: sampled metric history,
  counter→rate derivation, exhaustion forecasts and the JSONL
  time-series artifact (``--timeseries``).
* :mod:`repro.obs.watch` — pure terminal rendering for ``repro
  watch`` (unicode sparklines over ``/timeseries`` payloads).

Observer code must never influence query outputs: calling into this
package from a mapper/reducer is flagged by upalint (UPA011), and
starting a server/profiler there by UPA013.
"""

from repro.obs.alerts import (
    Alert,
    AlertEngine,
    AlertRule,
    BudgetBurnRule,
    ClampRateRule,
    GaugeThresholdRule,
    RateRule,
    SensitivityDriftRule,
    TrendRule,
    WorkerStarvationRule,
    alert_key,
    default_rules,
)
from repro.obs.crossproc import (
    SpanContext,
    WorkerTelemetry,
    merge_telemetry,
    worker_table,
)
from repro.obs.exporters import (
    labeled_name,
    render_dashboard,
    render_otlp_metrics,
    render_otlp_spans,
    render_prometheus,
    sanitize_metric_name,
    sparkline_svg,
    split_labeled_name,
)
from repro.obs.ledger import LedgerEntry, PrivacyLedger, make_entry
from repro.obs.profiler import (
    SamplingProfiler,
    parse_collapsed,
    span_table_from_collapsed,
)
from repro.obs.report import ObservedRun, SpanStat, run_header
from repro.obs.server import ObservabilityServer
from repro.obs.timeseries import (
    KEY_SERIES,
    TIMESERIES_FORMAT,
    TimeSeriesStore,
    forecast_exhaustion,
    least_squares_slope,
    order_series,
)
from repro.obs.watch import render_watch, spark
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    active_span_chain,
    current_span,
    get_tracer,
    set_tracer,
    trace,
    use_tracer,
)

__all__ = [
    "Alert",
    "AlertEngine",
    "AlertRule",
    "BudgetBurnRule",
    "ClampRateRule",
    "GaugeThresholdRule",
    "KEY_SERIES",
    "LedgerEntry",
    "NULL_TRACER",
    "NullTracer",
    "ObservabilityServer",
    "ObservedRun",
    "PrivacyLedger",
    "RateRule",
    "SamplingProfiler",
    "SensitivityDriftRule",
    "Span",
    "SpanContext",
    "SpanStat",
    "TIMESERIES_FORMAT",
    "TimeSeriesStore",
    "Tracer",
    "TrendRule",
    "WorkerStarvationRule",
    "WorkerTelemetry",
    "active_span_chain",
    "alert_key",
    "current_span",
    "default_rules",
    "forecast_exhaustion",
    "get_tracer",
    "labeled_name",
    "least_squares_slope",
    "make_entry",
    "merge_telemetry",
    "order_series",
    "parse_collapsed",
    "render_dashboard",
    "render_otlp_metrics",
    "render_otlp_spans",
    "render_prometheus",
    "render_watch",
    "run_header",
    "sanitize_metric_name",
    "set_tracer",
    "spark",
    "span_table_from_collapsed",
    "sparkline_svg",
    "split_labeled_name",
    "trace",
    "use_tracer",
    "worker_table",
]
