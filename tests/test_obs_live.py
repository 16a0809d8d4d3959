"""Tests for the live-monitoring stack: exporters, server, alerts, profiler.

Complements ``tests/test_obs.py`` (post-hoc tracing/metrics/ledger):
here we cover the Prometheus/OTLP exporters against a strict
line-grammar checker, the introspection HTTP server round-tripped
through ``http.client`` on an ephemeral port, alert rules over
synthetic releases folded into a time-series store, the sampling
profiler's span attribution, and ledger crash-safety.
"""

import http.client
import json
import re
import textwrap
import threading
import time

import pytest

from repro.common.config import EngineConfig
from repro.dp.budget import PrivacyAccountant
from repro.engine.context import EngineContext
from repro.engine.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.alerts import (
    AlertEngine,
    BudgetBurnRule,
    ClampRateRule,
    GaugeThresholdRule,
    SensitivityDriftRule,
    WorkerStarvationRule,
    default_rules,
)
from repro.obs.crossproc import (
    WORKER_RSS_KB,
    WORKER_TASKS_COMPLETED,
    WORKER_UPTIME_SECONDS,
    WorkerTelemetry,
    merge_telemetry,
    worker_table,
)
from repro.obs.exporters import (
    labeled_name,
    render_otlp_metrics,
    render_otlp_spans,
    render_prometheus,
    sanitize_metric_name,
    split_labeled_name,
)
from repro.obs.ledger import PrivacyLedger, make_entry
from repro.obs.profiler import (
    SamplingProfiler,
    parse_collapsed,
    span_table_from_collapsed,
)
from repro.obs.server import ObservabilityServer
from repro.obs.timeseries import TimeSeriesStore, record_release
from repro.obs.tracing import Tracer


# ---------------------------------------------------------------------------
# Prometheus line-grammar checker
# ---------------------------------------------------------------------------

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"'
_LABELS = r"\{" + _LABEL + r"(?:," + _LABEL + r")*\}"
_VALUE = r"(?:[+-]Inf|NaN|-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
_SAMPLE_RE = re.compile(rf"^({_NAME})(?:{_LABELS})? {_VALUE}$")
_HELP_RE = re.compile(rf"^# HELP ({_NAME}) \S.*$")
_TYPE_RE = re.compile(
    rf"^# TYPE ({_NAME}) (counter|gauge|summary|histogram|untyped)$"
)


def assert_valid_exposition(text: str) -> dict:
    """Strict structural check of a text-exposition v0.0.4 document.

    Returns ``{metric name: type}`` for the declared families.  Checks:
    trailing newline, every line parses as HELP/TYPE/sample, HELP
    directly precedes TYPE, each family is declared exactly once,
    every sample belongs to a declared family (modulo the summary
    ``_sum``/``_count`` suffixes), and counters end in ``_total``.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    typed = {}
    pending_help = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            m = _HELP_RE.match(line)
            assert m, f"malformed HELP line: {line!r}"
            pending_help = m.group(1)
            continue
        if line.startswith("# TYPE "):
            m = _TYPE_RE.match(line)
            assert m, f"malformed TYPE line: {line!r}"
            name, mtype = m.group(1), m.group(2)
            assert name not in typed, f"duplicate TYPE for {name}"
            assert pending_help == name, f"TYPE {name} not preceded by HELP"
            typed[name] = mtype
            pending_help = None
            continue
        assert not line.startswith("#"), f"unknown comment line: {line!r}"
        m = _SAMPLE_RE.match(line)
        assert m, f"malformed sample line: {line!r}"
        sample = m.group(1)
        family = None
        for cand in (sample, sample[: -len("_sum")] if
                     sample.endswith("_sum") else sample,
                     sample[: -len("_count")] if
                     sample.endswith("_count") else sample):
            if cand in typed:
                family = cand
                break
        assert family is not None, f"sample {sample} has no TYPE declaration"
        if typed[family] == "counter":
            assert family.endswith("_total"), \
                f"counter {family} missing _total suffix"
    return typed


def _http_get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.getheader("Content-Type"), resp.read()
    finally:
        conn.close()


def _entry(seq, query="q", eps=0.1, sens=1.0, clamped=False,
           cache_hit=False, remaining=None):
    return make_entry(
        sequence=seq, query=query, epsilon_charged=eps, delta=0.0,
        mechanism="laplace", sample_size=10, mean=[0.0], std=[1.0],
        lower=[0.0], upper=[1.0], local_sensitivity=sens,
        estimated_local_sensitivity=sens, clamped=clamped,
        matched_prior=False, records_removed=0,
        accountant_remaining_epsilon=remaining, cache_hit=cache_hit,
    )


def _fold(store, entry):
    """Fold one synthetic release into ``store`` the way a session
    does, one tick per release, releases 1000 s apart."""
    record_release(
        store.metrics, query=entry.query,
        epsilon_charged=entry.epsilon_charged, cache_hit=entry.cache_hit,
        clamped=entry.clamped, records_removed=entry.records_removed,
        local_sensitivity=entry.local_sensitivity,
        remaining_epsilon=entry.accountant_remaining_epsilon,
    )
    return store.tick(now=1000.0 * (len(store.tick_times()) + 1))


def _store_of(entries, engine=None):
    store = TimeSeriesStore(MetricsRegistry())
    if engine is not None:
        engine.attach_timeseries(store)
    for entry in entries:
        _fold(store, entry)
    return store


def _window(rule, store):
    return rule.on_window(store, store.last_tick)


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestSanitize:
    def test_dots_become_underscores_with_namespace(self):
        assert sanitize_metric_name("sql.plan_cache.hits", "upa") == \
            "upa_sql_plan_cache_hits"

    def test_leading_digit_prefixed(self):
        name = sanitize_metric_name("5xx.count")
        assert re.match(r"^[a-zA-Z_:]", name)

    def test_empty_name_still_valid(self):
        assert re.match(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$",
                        sanitize_metric_name(""))


class TestPrometheusExposition:
    def test_golden_document(self):
        snap = MetricsSnapshot(
            counters={"jobs_run": 3.0},
            histograms={"task_seconds": (0.5, 1.5)},
            gauges={"pool.size": 4.0},
        )
        expected = textwrap.dedent("""\
            # HELP upa_jobs_run_total Engine counter jobs_run.
            # TYPE upa_jobs_run_total counter
            upa_jobs_run_total 3
            # HELP upa_pool_size Engine gauge pool.size.
            # TYPE upa_pool_size gauge
            upa_pool_size 4
            # HELP upa_task_seconds Engine histogram task_seconds.
            # TYPE upa_task_seconds summary
            upa_task_seconds{quantile="0.5"} 1
            upa_task_seconds{quantile="0.9"} 1.4
            upa_task_seconds{quantile="0.95"} 1.45
            upa_task_seconds{quantile="0.99"} 1.49
            upa_task_seconds_sum 2
            upa_task_seconds_count 2
            # HELP upa_task_seconds_stddev Population standard deviation of histogram task_seconds.
            # TYPE upa_task_seconds_stddev gauge
            upa_task_seconds_stddev 0.5
        """)
        assert render_prometheus(snap) == expected

    def test_grammar_checker_accepts_rendered_output(self):
        snap = MetricsSnapshot(
            counters={"jobs_run": 3.0, "sql.plan_cache.hits": 1.0},
            histograms={"task_seconds": (0.5, 1.5, 2.5)},
            gauges={"pool.size": 4.0},
        )
        typed = assert_valid_exposition(render_prometheus(snap))
        assert typed["upa_jobs_run_total"] == "counter"
        assert typed["upa_task_seconds"] == "summary"
        assert typed["upa_pool_size"] == "gauge"

    def test_grammar_checker_rejects_malformed(self):
        with pytest.raises(AssertionError):
            assert_valid_exposition("no newline terminator")
        with pytest.raises(AssertionError):
            assert_valid_exposition("bad-name 1\n")
        with pytest.raises(AssertionError):
            assert_valid_exposition("orphan_sample 1\n")

    def test_live_registry_snapshot_renders_clean(self):
        registry = MetricsRegistry()
        registry.incr("jobs_run", 2)
        registry.observe("task_seconds", 0.25)
        registry.set_gauge("scheduler.pool_size", 8)
        assert_valid_exposition(render_prometheus(registry.snapshot()))


class TestOtlpExport:
    def test_metrics_envelope_structure(self):
        snap = MetricsSnapshot(counters={"jobs_run": 3.0},
                               histograms={"task_seconds": (1.0,)},
                               gauges={"g": 2.0})
        doc = json.loads(json.dumps(render_otlp_metrics(snap)))
        scope = doc["resourceMetrics"][0]["scopeMetrics"][0]
        by_name = {m["name"]: m for m in scope["metrics"]}
        assert by_name["jobs_run"]["sum"]["isMonotonic"] is True
        point = by_name["task_seconds"]["summary"]["dataPoints"][0]
        assert point["count"] == 1
        assert {q["quantile"] for q in point["quantileValues"]} == \
            {0.5, 0.9, 0.95, 0.99}
        assert by_name["g"]["gauge"]["dataPoints"][0]["asDouble"] == 2.0

    def test_spans_envelope_structure(self):
        tracer = Tracer()
        with tracer.span("upa.run"):
            with tracer.span("phase:map"):
                pass
        doc = json.loads(json.dumps(render_otlp_spans(tracer)))
        spans = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
        by_name = {s["name"]: s for s in spans}
        assert set(by_name) == {"upa.run", "phase:map"}
        child = by_name["phase:map"]
        assert child["parentSpanId"] == by_name["upa.run"]["spanId"]
        assert re.match(r"^[0-9a-f]{16}$", child["spanId"])


# ---------------------------------------------------------------------------
# Cross-process telemetry: labelled series, merge, /workers surfaces
# ---------------------------------------------------------------------------


def _telemetry(pid, counters=None, histograms=None, rss=2048.0,
               uptime=1.5, completed=2):
    return WorkerTelemetry(
        pid=pid, parent_span_id=None, wall_epoch=0.0,
        counters=counters or {}, histograms=histograms or {},
        rss_kb=rss, uptime_seconds=uptime, tasks_completed=completed,
    )


class TestLabeledNames:
    def test_round_trip(self):
        raw = labeled_name("task_seconds", worker="123")
        assert raw == "task_seconds#worker=123"
        assert split_labeled_name(raw) == ("task_seconds",
                                           {"worker": "123"})

    def test_labels_sorted_for_stable_series_identity(self):
        assert labeled_name("m", b="2", a="1") == labeled_name("m", a="1",
                                                               b="2")

    def test_unlabelled_name_passes_through(self):
        assert split_labeled_name("plain_name") == ("plain_name", None)


class TestLabeledExposition:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.observe("task_seconds", 0.5)
        registry.incr("rows_scanned", 10.0)
        merge_telemetry(
            _telemetry(101, counters={"rows_scanned": 4.0},
                       histograms={"task_seconds": (0.1, 0.3)}),
            metrics=registry,
        )
        merge_telemetry(
            _telemetry(102, counters={"rows_scanned": 6.0},
                       histograms={"task_seconds": (0.2,)}),
            metrics=registry,
        )
        return registry.snapshot()

    def test_labelled_families_pass_the_grammar_checker(self):
        text = render_prometheus(self._snapshot())
        typed = assert_valid_exposition(text)
        # One family declaration covering labelled + unlabelled members.
        assert typed["upa_task_seconds"] == "summary"
        assert typed["upa_rows_scanned_total"] == "counter"
        assert 'upa_rows_scanned_total{worker="101"} 4' in text
        assert 'quantile="0.5",worker="102"' in text
        assert f'upa_{WORKER_RSS_KB}{{worker="101"}}' in text

    def test_unlabelled_member_renders_first(self):
        text = render_prometheus(self._snapshot())
        lines = [ln for ln in text.splitlines()
                 if ln.startswith("upa_rows_scanned_total")]
        assert lines[0] == "upa_rows_scanned_total 10"

    def test_otlp_points_carry_worker_attributes(self):
        doc = json.loads(json.dumps(render_otlp_metrics(self._snapshot())))
        scope = doc["resourceMetrics"][0]["scopeMetrics"][0]
        by_name = {m["name"]: m for m in scope["metrics"]}
        points = by_name["rows_scanned"]["sum"]["dataPoints"]
        attrs = [
            {a["key"]: a["value"]["stringValue"]
             for a in p.get("attributes", [])}
            for p in points
        ]
        assert {} in attrs  # the driver's unlabelled series
        assert {"worker": "101"} in attrs
        assert {"worker": "102"} in attrs


class TestTelemetryMerge:
    def test_merge_is_order_independent_across_workers(self):
        deltas = [
            _telemetry(101, counters={"rows_scanned": 4.0},
                       histograms={"task_seconds": (0.1, 0.3)}),
            _telemetry(102, counters={"rows_scanned": 6.0},
                       histograms={"task_seconds": (0.2,)}),
        ]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for delta in deltas:
            merge_telemetry(delta, metrics=forward)
        for delta in reversed(deltas):
            merge_telemetry(delta, metrics=backward)
        assert render_prometheus(forward.snapshot()) == \
            render_prometheus(backward.snapshot())

    def test_merge_is_order_independent_within_one_worker(self):
        # Two deltas from the same pid (completion order is not
        # submission order): summaries must not depend on which
        # arrives first.
        first = _telemetry(101, histograms={"task_seconds": (0.1,)},
                           completed=1)
        second = _telemetry(101, histograms={"task_seconds": (0.3, 0.5)},
                            completed=2)
        forward, backward = MetricsRegistry(), MetricsRegistry()
        merge_telemetry(first, metrics=forward)
        merge_telemetry(second, metrics=forward)
        merge_telemetry(second, metrics=backward)
        merge_telemetry(first, metrics=backward)
        # The additive series (histograms, counters) must agree; the
        # health gauges are cumulative snapshots where last-write-wins
        # is the *intended* semantics, so they are excluded.
        series = labeled_name("task_seconds", worker="101")
        assert sorted(forward.snapshot().histograms[series]) == \
            sorted(backward.snapshot().histograms[series])

        def histogram_lines(registry):
            return [ln for ln in
                    render_prometheus(registry.snapshot()).splitlines()
                    if "task_seconds" in ln]

        assert histogram_lines(forward) == histogram_lines(backward)

    def test_none_telemetry_is_a_no_op(self):
        registry = MetricsRegistry()
        merge_telemetry(None, metrics=registry)
        snap = registry.snapshot()
        assert not snap.counters and not snap.gauges and not snap.histograms

    def test_worker_table_rows(self):
        registry = MetricsRegistry()
        merge_telemetry(
            _telemetry(102, histograms={"task_seconds": (0.2,)},
                       rss=4096.0, completed=1),
            metrics=registry,
        )
        merge_telemetry(
            _telemetry(9, histograms={"task_seconds": (0.1, 0.3)},
                       rss=2048.0, completed=2),
            metrics=registry,
        )
        rows = worker_table(registry.snapshot())
        assert [r["worker"] for r in rows] == ["9", "102"]  # numeric order
        nine = rows[0]
        assert nine["rss_kb"] == 2048.0
        assert nine["tasks_completed"] == 2.0
        assert nine["task_seconds"]["count"] == 2

    def test_worker_table_empty_without_labels(self):
        registry = MetricsRegistry()
        registry.set_gauge(WORKER_RSS_KB, 1.0)  # unlabelled: not a worker
        registry.set_gauge(WORKER_UPTIME_SECONDS, 1.0)
        registry.observe("task_seconds", 0.5)
        assert worker_table(registry.snapshot()) == []


class TestObservedRunWorkers:
    def test_from_live_renders_worker_table(self):
        from repro.obs.report import ObservedRun

        registry = MetricsRegistry()
        merge_telemetry(
            _telemetry(101, histograms={"task_seconds": (0.1, 0.3)}),
            metrics=registry,
        )
        observed = ObservedRun.from_live(metrics=registry.snapshot())
        assert observed.to_dict()["workers"][0]["worker"] == "101"
        text = observed.render_text()
        assert "worker processes:" in text
        assert "101" in text

    def test_no_workers_section_without_worker_series(self):
        from repro.obs.report import ObservedRun

        registry = MetricsRegistry()
        registry.observe("task_seconds", 0.5)
        observed = ObservedRun.from_live(metrics=registry.snapshot())
        assert observed.workers == []
        assert "worker processes:" not in observed.render_text()


# ---------------------------------------------------------------------------
# Alert rules on synthetic ledgers
# ---------------------------------------------------------------------------


class TestAlertRules:
    def test_sensitivity_drift_fires_and_degrades(self):
        ledger = PrivacyLedger()
        engine = AlertEngine(rules=[SensitivityDriftRule()]).attach(ledger)
        store = _store_of([_entry(i, sens=1.0) for i in range(6)], engine)
        assert engine.alerts() == []
        _fold(store, _entry(6, sens=5.0))
        fired = engine.alerts()
        assert len(fired) == 1
        assert fired[0].rule == "sensitivity-drift"
        assert "sensitivity drift" in fired[0].message
        assert fired[0].context["series"] == labeled_name(
            MetricsRegistry.RELEASE_SENSITIVITY, query="q")
        assert engine.degraded is True
        assert engine.firing_rules() == ["sensitivity-drift"]
        header_alerts = ledger.header.get("alerts")
        assert header_alerts and \
            header_alerts[0]["rule"] == "sensitivity-drift"

    def test_drift_silent_below_min_history(self):
        engine = AlertEngine(rules=[SensitivityDriftRule()])
        store = _store_of([_entry(i, sens=1.0) for i in range(4)], engine)
        _fold(store, _entry(4, sens=100.0))
        assert engine.alerts() == []

    def test_drift_nonzero_stddev_uses_z_score(self):
        rule = SensitivityDriftRule(min_history=4)
        store = _store_of([_entry(i, sens=s) for i, s in
                           enumerate([1.0, 1.2, 0.8, 1.0, 1.1])])
        assert _window(rule, store) is None
        _fold(store, _entry(5, sens=10.0))
        alert = _window(rule, store)
        assert alert is not None
        assert alert.context["z_score"] > 3.0

    def test_budget_burn_from_recorded_balance(self):
        rule = BudgetBurnRule()
        store = _store_of([_entry(i, eps=0.1, remaining=1.0)
                           for i in range(3)]
                          + [_entry(3, eps=0.1, remaining=0.05)])
        alert = _window(rule, store)
        assert alert is not None and alert.severity == "critical"
        assert alert.context["forecast_releases_remaining"] < 1.0

    def test_budget_burn_live_accountant_warning(self):
        accountant = PrivacyAccountant(total_epsilon=1.0)
        entries = []
        for i in range(3):
            accountant.charge(0.2, label="q")
            entries.append(_entry(i, eps=0.2,
                                  remaining=accountant.remaining_epsilon()))
        alert = _window(BudgetBurnRule(), _store_of(entries))
        assert alert is not None and alert.severity == "warning"
        assert alert.context["remaining_epsilon"] == pytest.approx(0.4)

    def test_budget_burn_silent_without_balance(self):
        store = _store_of([_entry(i, eps=0.2) for i in range(3)])
        assert _window(BudgetBurnRule(), store) is None

    def test_clamp_rate_fires_above_threshold(self):
        engine = AlertEngine(rules=[ClampRateRule()])
        store = _store_of([_entry(i, clamped=True) for i in range(4)],
                          engine)
        assert engine.alerts() == []  # below min_entries
        _fold(store, _entry(4, clamped=False))
        fired = engine.alerts()
        assert fired and fired[0].rule == "clamp-rate"
        assert fired[0].context["clamp_rate"] == pytest.approx(0.8)

    def test_cache_hits_do_not_count(self):
        store = _store_of([_entry(i, clamped=True, cache_hit=True)
                           for i in range(10)])
        assert _window(ClampRateRule(), store) is None

    def test_gauge_threshold_dedupes_on_metrics_tick(self):
        engine = AlertEngine(rules=[
            GaugeThresholdRule(metric="queue_depth", max_value=10.0)
        ])
        store = TimeSeriesStore(MetricsRegistry())
        store.metrics.set_gauge("queue_depth", 50.0)
        first = engine.observe_window(store, now=store.tick(now=1.0))
        assert len(first) == 1
        again = engine.observe_window(store, now=store.tick(now=2.0))
        assert again == []  # the condition persists: no refiling
        assert len(engine.alerts()) == 1

    @staticmethod
    def _metrics_store(counters=(), gauges=()):
        store = TimeSeriesStore(MetricsRegistry())
        for name, value in dict(counters).items():
            store.metrics.incr(name, value)
        for name, value in dict(gauges).items():
            store.metrics.set_gauge(name, value)
        store.tick(now=1.0)
        return store

    def test_worker_starvation_fires_when_pool_idles(self):
        store = self._metrics_store(counters={"process_fallbacks": 2.0})
        alert = _window(WorkerStarvationRule(), store)
        assert alert is not None and alert.severity == "warning"
        assert alert.context["process_fallbacks"] == 2.0

    def test_worker_starvation_silent_when_workers_complete_tasks(self):
        store = self._metrics_store(
            counters={"process_fallbacks": 2.0},
            gauges={labeled_name(WORKER_TASKS_COMPLETED, worker="7"): 3.0},
        )
        assert _window(WorkerStarvationRule(), store) is None

    def test_worker_starvation_silent_off_the_process_backend(self):
        # Thread/inline registries never pre-seed process_fallbacks, so
        # the rule must not fire on its mere absence.
        store = self._metrics_store()
        assert _window(WorkerStarvationRule(), store) is None

    def test_worker_rss_names_the_worst_offender(self):
        rule = GaugeThresholdRule(metric=WORKER_RSS_KB, max_value=1000.0)
        store = self._metrics_store(gauges={
            labeled_name(WORKER_RSS_KB, worker="7"): 1500.0,
            labeled_name(WORKER_RSS_KB, worker="8"): 2500.0,
            "worker_rss_kb_total": 9999.0,  # another family
        })
        alert = _window(rule, store)
        assert alert is not None
        assert alert.context["series"] == labeled_name(WORKER_RSS_KB,
                                                       worker="8")
        assert alert.context["value"] == 2500.0

    def test_worker_rss_silent_under_threshold(self):
        rule = GaugeThresholdRule(metric=WORKER_RSS_KB, max_value=1000.0)
        store = self._metrics_store(gauges={
            labeled_name(WORKER_RSS_KB, worker="7"): 999.0,
        })
        assert _window(rule, store) is None

    def test_default_rules_include_worker_health_pair(self):
        names = {r.name for r in default_rules()}
        assert {"worker-starvation", "worker-rss"} <= names

    def test_replay_synthetic_ledger(self):
        ledger = PrivacyLedger()
        for i in range(6):
            ledger.append(_entry(i, sens=1.0))
        ledger.append(_entry(6, sens=9.0))
        engine = AlertEngine(rules=default_rules())
        fired = engine.replay(ledger)
        assert any(a.rule == "sensitivity-drift" for a in fired)
        assert engine.degraded

    def test_summary_lists_firings(self):
        engine = AlertEngine(rules=[SensitivityDriftRule()])
        _store_of([_entry(i, sens=1.0) for i in range(6)]
                  + [_entry(6, sens=5.0)], engine)
        summary = engine.summary()
        assert "sensitivity-drift" in summary

    def test_listener_exception_warns_not_raises(self):
        ledger = PrivacyLedger()

        def bad_listener(entry):
            raise ValueError("boom")

        ledger.add_listener(bad_listener)
        with pytest.warns(RuntimeWarning):
            ledger.append(_entry(0))
        assert len(ledger) == 1


# ---------------------------------------------------------------------------
# Ledger crash-safety + append_jsonl
# ---------------------------------------------------------------------------


class TestLedgerCrashSafety:
    def _write_ledger(self, path, n=3):
        ledger = PrivacyLedger()
        for i in range(n):
            ledger.append(_entry(i))
        ledger.write_jsonl(str(path))
        return ledger

    def test_truncated_final_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._write_ledger(path)
        raw = path.read_text()
        path.write_text(raw[: len(raw) - 40])  # chop mid-JSON
        with pytest.warns(RuntimeWarning):
            recovered = PrivacyLedger.read_jsonl(str(path))
        assert len(recovered) == 2
        assert [e.sequence for e in recovered.entries()] == [0, 1]

    def test_blank_lines_skipped_silently(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._write_ledger(path)
        lines = path.read_text().splitlines()
        lines.insert(2, "")
        lines.append("   ")
        path.write_text("\n".join(lines) + "\n")
        recovered = PrivacyLedger.read_jsonl(str(path))
        assert len(recovered) == 3

    def test_corrupt_middle_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._write_ledger(path)
        lines = path.read_text().splitlines()
        lines[2] = '{"sequence": 1, "query": '  # corrupt entry 1
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning):
            recovered = PrivacyLedger.read_jsonl(str(path))
        assert [e.sequence for e in recovered.entries()] == [0, 2]

    def test_append_jsonl_incremental_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = PrivacyLedger()
        for i in range(3):
            entry = _entry(i)
            ledger.append(entry)
            ledger.append_jsonl(str(path), entry)
        recovered = PrivacyLedger.read_jsonl(str(path))
        assert len(recovered) == 3
        assert recovered.header.get("format") or True  # header present
        # header must be written exactly once
        headers = [ln for ln in path.read_text().splitlines()
                   if '"entries"' not in ln and '"sequence"' not in ln]
        assert len(headers) == 1


# ---------------------------------------------------------------------------
# Sampling profiler
# ---------------------------------------------------------------------------


class TestSamplingProfiler:
    def test_attributes_samples_to_phase_span(self):
        tracer = Tracer()
        prof = SamplingProfiler(hz=400.0)
        prof.start()
        try:
            with tracer.span("upa.run"):
                with tracer.span("phase:reduce"):
                    deadline = time.monotonic() + 0.4
                    acc = 0
                    while time.monotonic() < deadline:
                        acc += sum(range(200))
        finally:
            prof.stop()
        assert prof.sample_count >= 1
        table = {name: count for name, count, _ in prof.span_table()}
        assert any(name.startswith("phase:") for name in table)
        assert table.get("phase:reduce", 0) >= 1
        collapsed = prof.collapsed_stacks()
        assert any(line.startswith("upa.run;phase:reduce;")
                   for line in collapsed.splitlines())

    def test_collapsed_round_trip(self):
        text = "upa.run;phase:map;f (m.py:3) 7\nidle (t.py:1) 2\n"
        stacks = parse_collapsed(text)
        assert (("upa.run", "phase:map", "f (m.py:3)"), 7) in stacks
        # samples attribute to the innermost span of the chain
        table = {name: count for name, count, _ in
                 span_table_from_collapsed(text)}
        assert table == {"phase:map": 7}
        with_rate = span_table_from_collapsed(text, interval=0.01)
        assert with_rate[0][2] == pytest.approx(0.07)

    def test_parse_collapsed_tolerates_garbage(self):
        stacks = parse_collapsed("\nnot a count line\nf (a.py:1) 3\n")
        assert stacks == [(("f (a.py:1)",), 3)]

    def test_write_and_reset(self, tmp_path):
        prof = SamplingProfiler(hz=500.0, include_idle=True)
        with prof:
            time.sleep(0.2)
        assert prof.sample_count >= 1
        out = tmp_path / "prof.txt"
        prof.write_collapsed(str(out))
        assert out.read_text().strip()
        prof.reset()
        assert prof.sample_count == 0
        assert prof.collapsed_stacks() == ""

    def test_context_manager_and_idempotent_start(self):
        prof = SamplingProfiler(hz=200.0)
        assert prof.start() is prof
        assert prof.start() is prof  # no second thread
        assert prof.running
        prof.stop()
        assert not prof.running


# ---------------------------------------------------------------------------
# Introspection server round-trip over HTTP
# ---------------------------------------------------------------------------


@pytest.fixture()
def full_server():
    registry = MetricsRegistry()
    registry.incr("jobs_run", 2)
    registry.observe("task_seconds", 0.5)
    tracer = Tracer()
    with tracer.span("upa.run"):
        with tracer.span("phase:map"):
            pass
    ledger = PrivacyLedger()
    engine = AlertEngine(rules=default_rules())
    engine.attach(ledger)
    for i in range(6):
        ledger.append(_entry(i, sens=1.0))
    accountant = PrivacyAccountant(total_epsilon=10.0)
    accountant.charge(1.0, label="q")
    profiler = SamplingProfiler(hz=200.0, include_idle=True)
    with profiler:
        time.sleep(0.05)
    server = ObservabilityServer(
        metrics=registry, tracer=tracer, ledger=ledger,
        accountants=accountant, alerts=engine, profiler=profiler,
    ).start()
    yield server, registry, ledger, engine
    server.stop()


class TestObservabilityServer:
    def test_ephemeral_port_and_url(self, full_server):
        server, _, _, _ = full_server
        assert server.running
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_metrics_endpoint_valid_exposition(self, full_server):
        server, _, _, _ = full_server
        status, ctype, body = _http_get(server.port, "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        assert "version=0.0.4" in ctype
        typed = assert_valid_exposition(body.decode("utf-8"))
        assert typed["upa_jobs_run_total"] == "counter"
        assert "upa_budget_remaining_epsilon" in typed
        assert "upa_server_requests_total" in typed
        assert "upa_health_degraded" in typed

    def test_metrics_otlp_format(self, full_server):
        server, _, _, _ = full_server
        status, ctype, body = _http_get(server.port, "/metrics?format=otlp")
        assert status == 200
        assert ctype.startswith("application/json")
        assert "resourceMetrics" in json.loads(body)

    def test_healthz_ok_then_degraded(self, full_server):
        server, _, ledger, engine = full_server
        status, _, body = _http_get(server.port, "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        ledger.append(_entry(6, sens=50.0))
        engine.replay(ledger)  # the spike drifts from the flat history
        assert engine.degraded
        status, _, body = _http_get(server.port, "/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert "sensitivity-drift" in payload["firing_rules"]

    def test_ledger_tail_and_since(self, full_server):
        server, _, _, _ = full_server
        status, ctype, body = _http_get(server.port, "/ledger?n=2")
        assert status == 200
        assert ctype.startswith("application/x-ndjson")
        lines = [json.loads(ln) for ln in body.decode().splitlines()]
        assert lines[0]["format"] == PrivacyLedger.FORMAT  # header first
        assert [ln["sequence"] for ln in lines[1:]] == [4, 5]
        status, _, body = _http_get(server.port, "/ledger?since=3")
        lines = [json.loads(ln) for ln in body.decode().splitlines()]
        assert [ln["sequence"] for ln in lines[1:]] == [4, 5]

    def test_traces_chrome_and_otlp(self, full_server):
        server, _, _, _ = full_server
        status, _, body = _http_get(server.port, "/traces")
        assert status == 200
        events = json.loads(body)["traceEvents"]
        assert any(e.get("name") == "phase:map" for e in events)
        status, _, body = _http_get(server.port, "/traces?format=otlp")
        assert status == 200
        assert "resourceSpans" in json.loads(body)

    def test_budget_endpoint(self, full_server):
        server, _, _, _ = full_server
        status, _, body = _http_get(server.port, "/budget")
        assert status == 200
        accountants = json.loads(body)["accountants"]
        assert accountants["default"]["total_epsilon"] == 10.0
        assert accountants["default"]["spent_epsilon"] == pytest.approx(1.0)

    def test_profile_endpoint(self, full_server):
        server, _, _, _ = full_server
        status, ctype, body = _http_get(server.port, "/profile")
        assert status == 200
        assert ctype.startswith("text/plain")
        assert body.decode().strip()

    def test_index_and_404(self, full_server):
        server, _, _, _ = full_server
        status, _, body = _http_get(server.port, "/")
        assert status == 200
        status, _, _ = _http_get(server.port, "/nope")
        assert status == 404

    def test_workers_endpoint(self):
        registry = MetricsRegistry()
        merge_telemetry(
            _telemetry(101, histograms={"task_seconds": (0.1, 0.3)},
                       rss=2048.0, uptime=1.5, completed=2),
            metrics=registry,
        )
        server = ObservabilityServer(metrics=registry).start()
        try:
            status, ctype, body = _http_get(server.port, "/workers")
            assert status == 200
            assert ctype.startswith("application/json")
            payload = json.loads(body)
            assert payload["count"] == 1
            row = payload["workers"][0]
            assert row["worker"] == "101"
            assert row["rss_kb"] == 2048.0
            assert row["task_seconds"]["count"] == 2
        finally:
            server.stop()

    def test_unwired_sources_404(self):
        server = ObservabilityServer(metrics=MetricsRegistry()).start()
        try:
            for path in ("/ledger", "/traces", "/budget", "/profile"):
                status, _, _ = _http_get(server.port, path)
                assert status == 404, path
        finally:
            server.stop()

    def test_workers_404_without_metrics(self):
        server = ObservabilityServer(tracer=Tracer()).start()
        try:
            status, _, _ = _http_get(server.port, "/workers")
            assert status == 404
        finally:
            server.stop()

    def test_handler_error_returns_500(self):
        class Broken:
            def snapshot(self):
                raise RuntimeError("boom")

        server = ObservabilityServer(metrics=Broken()).start()
        try:
            status, _, _ = _http_get(server.port, "/metrics")
            assert status == 500
        finally:
            server.stop()

    def test_stop_is_idempotent_and_context_manager(self):
        with ObservabilityServer(metrics=MetricsRegistry()) as server:
            assert server.running
            port = server.port
        assert not server.running
        server.stop()  # second stop is a no-op
        with pytest.raises(OSError):
            _http_get(port, "/metrics")


# ---------------------------------------------------------------------------
# Thread-safety: scheduler pool hammers the registry during scrapes
# ---------------------------------------------------------------------------


class TestScrapeThreadSafety:
    def test_metrics_scrape_during_pool_jobs(self):
        ctx = EngineContext(EngineConfig(use_threads=True, max_workers=4))
        server = ctx.serve(port=0)
        errors = []
        bodies = []
        stop = threading.Event()

        def scrape():
            while not stop.is_set():
                try:
                    status, _, body = _http_get(server.port, "/metrics")
                    if status != 200:
                        errors.append(f"status {status}")
                    else:
                        bodies.append(body.decode("utf-8"))
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))

        scrapers = [threading.Thread(target=scrape) for _ in range(3)]
        for t in scrapers:
            t.start()
        try:
            for _ in range(8):
                out = ctx.parallelize(range(200), 8).map(
                    lambda v: v * 2
                ).collect()
                assert len(out) == 200
        finally:
            stop.set()
            for t in scrapers:
                t.join(timeout=10)
        ctx.stop()
        assert not errors
        assert bodies
        # every concurrent scrape must still be grammatical
        for body in bodies[-3:]:
            assert_valid_exposition(body)
        assert "upa_jobs_run_total" in bodies[-1]


# ---------------------------------------------------------------------------
# Embedding: EngineContext.serve / UPASession.serve
# ---------------------------------------------------------------------------


class TestEmbedding:
    def test_engine_context_serve_idempotent_and_stops(self):
        ctx = EngineContext()
        server = ctx.serve(port=0)
        assert ctx.serve(port=0) is server
        status, _, _ = _http_get(server.port, "/metrics")
        assert status == 200
        ctx.stop()
        assert not server.running
        assert ctx.obs_server is None

    def test_session_serve_wires_everything(self):
        from repro.core.session import UPAConfig, UPASession
        from repro.workloads import workload_by_name

        workload = workload_by_name("tpch1")
        tables = workload.make_tables(200, 0)
        session = UPASession(
            UPAConfig(epsilon=1.0, sample_size=30, seed=3),
            accountant=PrivacyAccountant(total_epsilon=100.0),
            tracer=Tracer(),
            ledger=PrivacyLedger(),
        )
        server = session.serve(port=0)
        assert session.serve(port=0) is server  # idempotent
        assert session.alert_engine is not None
        try:
            session.run(workload.query, tables)
            status, _, body = _http_get(server.port, "/metrics")
            assert status == 200
            assert_valid_exposition(body.decode("utf-8"))
            status, _, body = _http_get(server.port, "/ledger?n=5")
            assert status == 200
            lines = body.decode().splitlines()
            assert len(lines) >= 2  # header + the run's entry
            assert json.loads(lines[-1])["query"] == "tpch1"
            status, _, body = _http_get(server.port, "/budget")
            assert status == 200
            assert "session" in json.loads(body)["accountants"]
            status, _, _ = _http_get(server.port, "/healthz")
            assert status == 200
        finally:
            session.engine.stop()
        assert not server.running

    def test_attach_alerts_idempotent(self):
        from repro.core.session import UPAConfig, UPASession

        session = UPASession(UPAConfig(sample_size=10, seed=0),
                             ledger=PrivacyLedger())
        engine = session.attach_alerts()
        assert session.attach_alerts() is engine
