"""Continuous monitoring: TimeSeriesStore, windowed alerts, watch.

Covers the time-series layer end to end:

* ring-buffer mechanics — deterministic ``tick(now=...)``, pairwise
  downsampling that preserves counter rates, rate/slope/delta windows;
* JSONL artifacts — ``stream_to`` crash-safety, round-trips,
  corrupt-line tolerance, ``AlertEngine.replay()`` over an artifact;
* windowed rules — ``BudgetBurnRule`` forecasting exhaustion *before*
  the accountant runs out, ``RateRule``/``TrendRule`` primitives;
* the one dedupe policy — onset, persistence, re-arm, escalation — and
  an engine whose state does not grow with the number of releases;
* surfaces — golden ``repro watch`` terminal frame, the ``/timeseries``
  + ``/dashboard`` endpoints against a live append loop, HTTP 400 on
  malformed query params;
* the invariant that sampling never changes DP outputs.
"""

import dataclasses
import http.client
import json
import threading
import time

import pytest

from repro.core.session import UPAConfig, UPASession
from repro.dp.budget import PrivacyAccountant
from repro.engine.metrics import MetricsRegistry
from repro.obs.alerts import AlertEngine, BudgetBurnRule, RateRule, TrendRule
from repro.obs.exporters import labeled_name, render_dashboard, sparkline_svg
from repro.obs.timeseries import (
    COUNTER,
    GAUGE,
    KEY_SERIES,
    TIMESERIES_FORMAT,
    TimeSeriesStore,
    forecast_exhaustion,
    least_squares_slope,
    order_series,
    record_release,
    resample,
)
from repro.obs.watch import budget_forecast, render_watch, spark
from repro.workloads import workload_by_name


def _http_get(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.getheader("Content-Type"), resp.read()
    finally:
        conn.close()


def _make_store(**kwargs) -> TimeSeriesStore:
    return TimeSeriesStore(MetricsRegistry(), **kwargs)


def _burn_store(ticks: int = 6, start: float = 100.0) -> TimeSeriesStore:
    """A store whose history shows a steady 0.5 eps/s budget burn."""
    store = _make_store(interval=1.0)
    m = store.metrics
    for i in range(ticks):
        m.incr(MetricsRegistry.RELEASES)
        m.incr(MetricsRegistry.RELEASE_EPSILON, 0.5)
        m.set_gauge(MetricsRegistry.BUDGET_REMAINING, 10.0 - 0.5 * (i + 1))
        store.tick(now=start + i)
    return store


class TestStoreMechanics:
    def test_tick_samples_counters_and_gauges(self):
        store = _make_store()
        store.metrics.incr("jobs_run", 3)
        store.metrics.set_gauge("depth", 7.5)
        store.tick(now=10.0)
        store.metrics.incr("jobs_run", 2)
        store.tick(now=11.0)
        assert store.kind("jobs_run") == COUNTER
        assert store.kind("depth") == GAUGE
        assert store.points("jobs_run") == [(10.0, 3.0), (11.0, 5.0)]
        assert store.latest("depth") == 7.5
        assert store.tick_times() == [10.0, 11.0]
        assert store.last_tick == 11.0

    def test_histogram_summaries_become_series(self):
        store = _make_store()
        store.metrics.observe("task_seconds", 1.0)
        store.metrics.observe("task_seconds", 3.0)
        store.tick(now=1.0)
        assert store.kind("task_seconds.count") == COUNTER
        assert store.kind("task_seconds.mean") == GAUGE
        assert store.latest("task_seconds.mean") == pytest.approx(2.0)

    def test_tick_if_due_is_rate_limited(self):
        store = _make_store(interval=5.0)
        assert store.tick_if_due(now=100.0)
        assert not store.tick_if_due(now=102.0)  # < interval later
        assert store.tick_if_due(now=105.0)
        assert len(store.tick_times()) == 2

    def test_downsampling_preserves_counter_rate(self):
        store = _make_store(max_points=8)
        for i in range(64):
            store.metrics.incr("jobs_run", 2)
            store.tick(now=float(i))
        points = store.points("jobs_run")
        assert len(points) <= 8
        # pairwise compaction keeps cumulative values: the overall
        # rate over the retained window is still exactly 2/s.
        assert store.rate("jobs_run") == pytest.approx(2.0)
        # and the series still spans to the newest sample
        assert points[-1] == (63.0, 128.0)

    def test_downsampling_averages_gauges(self):
        store = _make_store(max_points=8)
        for i in range(64):
            store.metrics.set_gauge("depth", float(i))
            store.tick(now=float(i))
        points = store.points("depth")
        assert len(points) <= 8
        values = [v for _, v in points]
        assert values == sorted(values)  # monotone survives averaging

    def test_rate_slope_delta_windows(self):
        store = _make_store()
        for i in range(10):
            store.metrics.incr("jobs_run")
            store.metrics.set_gauge("depth", 2.0 * i)
            store.tick(now=float(i))
        assert store.rate("jobs_run") == pytest.approx(1.0)
        assert store.rate("jobs_run", window=3.0, now=9.0) == pytest.approx(1.0)
        assert store.slope("depth") == pytest.approx(2.0)
        # window reads (now - window, now]: ticks 6..9, delta 9 - 6
        assert store.delta("jobs_run", window=4.0, now=9.0) == pytest.approx(3.0)
        assert store.rate("missing") is None

    def test_counter_rate_clamps_resets_to_zero(self):
        store = _make_store()
        store.record("c", COUNTER, 100.0, now=1.0)
        store.record("c", COUNTER, 5.0, now=2.0)  # process restart
        assert store.rate("c") == 0.0

    def test_resample_last_value_wins(self):
        points = [(0.0, 1.0), (0.4, 2.0), (1.2, 3.0), (2.9, 4.0)]
        assert resample(points, 1.0) == [(0.4, 2.0), (1.2, 3.0), (2.9, 4.0)]

    def test_least_squares_slope(self):
        assert least_squares_slope([(0.0, 0.0), (1.0, 3.0),
                                    (2.0, 6.0)]) == pytest.approx(3.0)
        assert least_squares_slope([(1.0, 1.0)]) is None

    def test_order_series_leads_with_key_series(self):
        names = ["zzz", "tasks_run", labeled_name("worker_rss_kb", worker="9"),
                 MetricsRegistry.RELEASES, "aaa"]
        ordered = order_series(names)
        assert ordered[0] == MetricsRegistry.RELEASES
        assert ordered.index("worker_rss_kb#worker=9") < ordered.index("aaa")
        assert set(ordered) == set(names)
        assert MetricsRegistry.RELEASES in KEY_SERIES

    def test_to_payload_filters_and_resamples(self):
        store = _burn_store()
        payload = store.to_payload(series=[MetricsRegistry.RELEASES],
                                   step=2.0)
        assert payload["format"] == TIMESERIES_FORMAT
        assert list(payload["series"]) == [MetricsRegistry.RELEASES]
        entry = payload["series"][MetricsRegistry.RELEASES]
        assert entry["kind"] == COUNTER
        assert entry["latest"] == 6.0
        assert entry["rate_per_second"] == pytest.approx(1.0)

    def test_sampler_thread_lifecycle(self):
        store = _make_store(interval=0.01)
        store.metrics.incr("jobs_run")
        assert not store.running
        store.start()
        assert store.running
        deadline = time.time() + 5.0
        while not store.tick_times() and time.time() < deadline:
            time.sleep(0.01)
        store.stop()
        assert not store.running
        assert store.tick_times()

    def test_listener_exceptions_are_contained(self):
        store = _make_store()

        def bad_listener(s, now):
            raise RuntimeError("boom")

        store.add_listener(bad_listener)
        with pytest.warns(RuntimeWarning):
            store.tick(now=1.0)
        assert store.tick_times() == [1.0]


class TestJsonlArtifacts:
    def test_stream_to_writes_header_then_ticks(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        store = _burn_store(ticks=0)
        store.stream_to(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1  # header lands immediately (crash-safe)
        assert json.loads(lines[0])["format"] == TIMESERIES_FORMAT
        store.metrics.incr(MetricsRegistry.RELEASES)
        store.tick(now=50.0)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        row = json.loads(lines[1])
        assert row["t"] == 50.0
        assert row["counters"][MetricsRegistry.RELEASES] == 1.0

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        store = _burn_store()
        assert store.write_jsonl(str(path)) == 6
        back = TimeSeriesStore.read_jsonl(str(path))
        assert back.metrics is None
        assert back.tick_times() == store.tick_times()
        for name in store.names():
            assert back.points(name) == store.points(name)
            assert back.kind(name) == store.kind(name)

    def test_read_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        store = _burn_store(ticks=3)
        store.write_jsonl(str(path))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"t": 103.0, "counters": {"release.co')  # torn write
        with pytest.warns(RuntimeWarning):
            back = TimeSeriesStore.read_jsonl(str(path))
        assert len(back.tick_times()) == 3

    def test_read_rejects_foreign_artifacts(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"format": "upa-ledger/1"}\n')
        with pytest.raises(ValueError):
            TimeSeriesStore.read_jsonl(str(path))

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            TimeSeriesStore.read_jsonl(str(path))


class TestForecast:
    def test_forecast_from_burn_history(self):
        store = _burn_store()
        forecast = forecast_exhaustion(store)
        assert forecast is not None
        assert forecast["epsilon_per_second"] == pytest.approx(0.5)
        assert forecast["remaining_epsilon"] == pytest.approx(7.0)
        assert forecast["seconds_to_exhaustion"] == pytest.approx(14.0)
        assert forecast["releases_to_exhaustion"] == pytest.approx(14.0)

    def test_no_forecast_without_budget_series(self):
        store = _make_store()
        store.metrics.incr(MetricsRegistry.RELEASES)
        store.tick(now=1.0)
        store.tick(now=2.0)
        assert forecast_exhaustion(store) is None

    def test_payload_forecast_matches_store_forecast(self):
        store = _burn_store()
        payload = store.to_payload()
        via_payload = budget_forecast(payload)
        via_store = forecast_exhaustion(store)
        assert via_payload is not None
        assert via_payload["seconds_to_exhaustion"] == pytest.approx(
            via_store["seconds_to_exhaustion"]
        )


class TestWindowedRules:
    def test_budget_burn_fires_before_exhaustion(self):
        store = _burn_store()
        rule = BudgetBurnRule(min_seconds_remaining=300.0)
        alert = rule.on_window(store, now=store.last_tick)
        assert alert is not None
        assert alert.rule == "budget-burn"
        # fired while 7 of 10 epsilon still remain — before exhaustion
        assert alert.context["remaining_epsilon"] == pytest.approx(7.0)
        assert alert.context["forecast_seconds_to_exhaustion"] == \
            pytest.approx(14.0)
        assert alert.context["metric"] == MetricsRegistry.RELEASE_EPSILON

    def test_budget_burn_quiet_when_slow(self):
        store = _make_store()
        m = store.metrics
        for i in range(4):
            m.incr(MetricsRegistry.RELEASE_EPSILON, 0.001)
            m.set_gauge(MetricsRegistry.BUDGET_REMAINING, 10.0)
            store.tick(now=float(i))
        rule = BudgetBurnRule(min_seconds_remaining=60.0)
        assert rule.on_window(store, now=store.last_tick) is None

    def test_rate_rule_fires_on_clamp_spike(self):
        store = _make_store()
        for i in range(5):
            store.metrics.incr(MetricsRegistry.RELEASE_CLAMPS, 3)
            store.tick(now=float(i))
        rule = RateRule(metric=MetricsRegistry.RELEASE_CLAMPS,
                        max_rate_per_second=1.0, window_seconds=60.0,
                        min_points=3, name="clamp-spike")
        alert = rule.on_window(store, now=store.last_tick)
        assert alert is not None
        assert alert.context["rate_per_second"] == pytest.approx(3.0)

    def test_rate_rule_matches_worker_labelled_series(self):
        store = _make_store()
        hot = labeled_name("io_bytes", worker="7")
        cold = labeled_name("io_bytes", worker="8")
        for i in range(4):
            store.record(hot, COUNTER, 100.0 * i, now=float(i))
            store.record(cold, COUNTER, 1.0 * i, now=float(i))
        rule = RateRule(metric="io_bytes", max_rate_per_second=50.0,
                        min_points=3)
        alert = rule.on_window(store, now=3.0)
        assert alert is not None
        assert alert.context["series"] == hot

    def test_trend_rule_fires_on_rss_growth(self):
        store = _make_store()
        series = labeled_name("worker_rss_kb", worker="42")
        for i in range(6):
            store.record(series, GAUGE, 10_000.0 + 2048.0 * i, now=float(i))
        rule = TrendRule(metric="worker_rss_kb",
                         max_slope_per_second=1024.0, window_seconds=120.0,
                         min_points=5, name="worker-rss-growth")
        alert = rule.on_window(store, now=5.0)
        assert alert is not None
        assert alert.context["slope_per_second"] == pytest.approx(2048.0)

    def test_trend_rule_quiet_on_flat_series(self):
        store = _make_store()
        for i in range(6):
            store.record("worker_rss_kb", GAUGE, 10_000.0, now=float(i))
        rule = TrendRule(metric="worker_rss_kb",
                         max_slope_per_second=1024.0, min_points=5)
        assert rule.on_window(store, now=5.0) is None


class TestAlertEngineWindows:
    def test_attach_timeseries_evaluates_on_tick(self):
        store = _burn_store(ticks=0)
        engine = AlertEngine()
        engine.attach_timeseries(store)
        m = store.metrics
        for i in range(6):
            m.incr(MetricsRegistry.RELEASES)
            m.incr(MetricsRegistry.RELEASE_EPSILON, 0.5)
            m.set_gauge(MetricsRegistry.BUDGET_REMAINING,
                        10.0 - 0.5 * (i + 1))
            store.tick(now=100.0 + i)
        rules = [a.rule for a in engine.alerts()]
        assert "budget-burn" in rules

    def test_window_firings_dedupe_across_ticks(self):
        store = _burn_store()
        engine = AlertEngine()
        for t in store.tick_times():
            engine.observe_window(store, now=t)
            engine.observe_window(store, now=t)
        fired = [a for a in engine.alerts() if a.rule == "budget-burn"]
        assert len(fired) == 1  # message numbers churn; condition key dedupes

    def test_replay_timeseries_artifact(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        _burn_store().write_jsonl(str(path))
        store = TimeSeriesStore.read_jsonl(str(path))
        engine = AlertEngine()
        engine.replay(store)
        rules = [a.rule for a in engine.alerts()]
        assert "budget-burn" in rules
        assert engine.degraded

    def test_replay_ledger_still_works(self):
        from repro.obs.ledger import PrivacyLedger, make_entry

        ledger = PrivacyLedger()
        ledger.append(make_entry(
            sequence=1, query="q", epsilon_charged=0.5, delta=0.0,
            mechanism="laplace", sample_size=10, mean=[0.0], std=[1.0],
            lower=[0.0], upper=[1.0], local_sensitivity=1.0,
            estimated_local_sensitivity=1.0, clamped=True,
            matched_prior=False, records_removed=3,
            accountant_remaining_epsilon=None, cache_hit=False,
        ))
        engine = AlertEngine()
        engine.replay(ledger)  # dispatch must keep the ledger path


class TestDedupePolicy:
    """One key (rule, series, severity): fire at onset, stay silent
    while the condition persists, re-arm once the rule evaluates clean,
    fire again on escalation."""

    def test_rising_rss_gauge_files_one_alert_over_100_scrapes(self):
        from repro.obs.server import ObservabilityServer

        registry = MetricsRegistry()
        store = TimeSeriesStore(registry, interval=1e-9)  # tick per scrape
        engine = AlertEngine().attach_timeseries(store)
        server = ObservabilityServer(
            metrics=registry, alerts=engine, timeseries=store
        ).start()
        series = labeled_name("worker_rss_kb", worker="7")
        try:
            for i in range(100):
                registry.set_gauge(series, 5.0 * 1024 * 1024 + i)
                _http_get(server.port, "/healthz")
        finally:
            server.stop()
        assert len(store.tick_times()) == 100
        rss = [a for a in engine.alerts() if a.rule == "worker-rss"]
        assert len(rss) == 1
        assert rss[0].context["series"] == series

    def test_budget_burn_warns_once_then_escalates_once(self):
        from repro.obs.ledger import PrivacyLedger, make_entry

        ledger = PrivacyLedger()
        for i in range(10):
            entry = make_entry(
                sequence=i, query="q", epsilon_charged=1.0, delta=0.0,
                mechanism="laplace", sample_size=10, mean=[0.0],
                std=[1.0], lower=[0.0], upper=[1.0], local_sensitivity=1.0,
                estimated_local_sensitivity=1.0, clamped=False,
                matched_prior=False, records_removed=0,
                accountant_remaining_epsilon=9.0 - i,
            )
            ledger.append(dataclasses.replace(entry,
                                              unix_time=1000.0 * (i + 1)))
        engine = AlertEngine(rules=[BudgetBurnRule(min_releases_remaining=10)])
        engine.replay(ledger)
        # 9, 8, ... 1 release(s) left is one persisting warning; 0 left
        # escalates to critical once.
        assert [a.severity for a in engine.alerts()] == ["warning",
                                                         "critical"]

    def test_clamp_spike_fires_again_after_it_clears(self):
        store = _make_store()
        engine = AlertEngine().attach_timeseries(store)
        t = 0.0
        for clamps_per_tick, ticks in ((30, 5), (0, 70), (30, 5)):
            for _ in range(ticks):
                t += 1.0
                store.metrics.incr(MetricsRegistry.RELEASE_CLAMPS,
                                   clamps_per_tick)
                store.tick(now=t)
        spikes = [a for a in engine.alerts() if a.rule == "clamp-spike"]
        assert len(spikes) == 2
        assert spikes[1].unix_time > 75.0  # inside the second spike

    def test_engine_state_bounded_over_5000_releases(self):
        store = _make_store()
        engine = AlertEngine().attach_timeseries(store)
        spikes = 0
        for i in range(5000):
            spike = i % 1000 == 999
            spikes += spike
            record_release(
                store.metrics, query="q", epsilon_charged=0.1,
                cache_hit=False, clamped=False, records_removed=0,
                local_sensitivity=10.0 if spike else 1.0,
                remaining_epsilon=1e9 - 0.1 * (i + 1),
            )
            store.tick(now=float(i))
        # each spike is one drift onset; the flat release after it
        # evaluates clean and re-arms the rule for the next one.
        assert len(engine.alerts()) == spikes == 5
        assert {a.rule for a in engine.alerts()} == {"sensitivity-drift"}
        # no per-release state: besides the firings themselves, every
        # container the engine holds is bounded by its rules.
        for name, value in vars(engine).items():
            if isinstance(value, (list, dict, set)) and name != "_alerts":
                assert len(value) <= len(engine.rules), name


class TestSessionWiring:
    def _run_session(self, *, timeseries: bool, accountant=None):
        workload = workload_by_name("tpch6")
        tables = workload.make_tables(1200, 0)
        protected = workload.query.protected_table
        held = tables[protected][1000:]
        del tables[protected][1000:]
        session = UPASession(UPAConfig(sample_size=200, seed=7),
                             accountant=accountant)
        if timeseries:
            session.attach_timeseries()
        result = session.run(workload.query, tables, epsilon=0.4)
        result = session.append(held, epsilon=0.4)
        return session, result

    def test_release_updates_store_and_rules(self):
        accountant = PrivacyAccountant(total_epsilon=100.0)
        session, _ = self._run_session(timeseries=True,
                                       accountant=accountant)
        store = session.timeseries
        assert store is not None
        # one deterministic tick per release (run + append)
        assert len(store.tick_times()) == 2
        assert store.latest(MetricsRegistry.RELEASES) == 2.0
        assert store.latest(MetricsRegistry.BUDGET_REMAINING) == \
            pytest.approx(accountant.remaining_epsilon())

    def test_budget_burn_forecast_fires_before_accountant_exhaustion(self):
        # acceptance: appends charge 0.4 eps each within milliseconds,
        # so the windowed forecast sees exhaustion seconds away while
        # plenty of budget actually remains.
        accountant = PrivacyAccountant(total_epsilon=100.0)
        session, _ = self._run_session(timeseries=True,
                                       accountant=accountant)
        fired = [a.rule for a in session.alert_engine.alerts()]
        assert "budget-burn" in fired
        assert accountant.remaining_epsilon() > 0  # not exhausted

    def test_sampling_keeps_dp_outputs_bitwise_identical(self):
        _, plain = self._run_session(timeseries=False)
        _, sampled = self._run_session(timeseries=True)
        assert list(plain.noisy_output) == list(sampled.noisy_output)
        assert plain.local_sensitivity == sampled.local_sensitivity

    def test_attach_timeseries_idempotent(self):
        session = UPASession(UPAConfig(sample_size=10, seed=0))
        store = session.attach_timeseries()
        assert session.attach_timeseries() is store
        assert session.engine.timeseries is store
        session.engine.stop()


GOLDEN_FRAME = """\
repro watch · golden.jsonl · 6 sample(s) · 4 series · health: degraded

series                           | latest | rate/s | trend        | kind
---------------------------------+--------+--------+--------------+--------
release.count                    | 6      | 1      | ▁▂▄▅▇█       | counter
release.epsilon_charged          | 3      | 0.5    | ▁▂▄▅▇█       | counter
session.budget_remaining_epsilon | 7      | -0.5   | █▇▅▄▂▁       | gauge
release.local_sensitivity        | 5      | 0.2    | ▁█▁█▁█       | gauge

budget: exhaustion forecast in ~14s (~14 release(s)) at 0.5 eps/s · remaining epsilon 7
alerts (1 fired):
  CRITICAL budget-burn: budget burn-rate: exhaustion forecast in ~18s, ~18 release(s) at the trailing charge rate (0.5 eps/s over 300s, remaining epsilon 9)
"""


class TestWatchRendering:
    def _golden_artifact(self, tmp_path) -> str:
        path = tmp_path / "golden.jsonl"
        rows = [{"format": TIMESERIES_FORMAT, "interval": 1.0,
                 "max_points": 512, "workload": "tpch6"}]
        for i in range(6):
            rows.append({
                "t": 100.0 + i,
                "counters": {
                    "release.count": float(i + 1),
                    "release.epsilon_charged": 0.5 * (i + 1),
                },
                "gauges": {
                    "session.budget_remaining_epsilon":
                        10.0 - 0.5 * (i + 1),
                    "release.local_sensitivity": 4.0 + i % 2,
                },
            })
        with open(path, "w", encoding="utf-8") as fh:
            for obj in rows:
                fh.write(json.dumps(obj, sort_keys=True) + "\n")
        return str(path)

    def test_golden_frame_from_synthetic_artifact(self, tmp_path):
        store = TimeSeriesStore.read_jsonl(self._golden_artifact(tmp_path))
        engine = AlertEngine()
        engine.replay(store)
        fired = engine.to_dicts()
        frame = render_watch(
            store.to_payload(),
            {"status": "degraded" if fired else "ok", "alerts": fired},
            source="golden.jsonl", spark_width=12,
        )

        def normalize(text: str) -> str:
            # golden modulo column padding: format_table right-pads
            # cells, and editors strip trailing whitespace in literals.
            return "\n".join(line.rstrip() for line in text.splitlines())

        assert normalize(frame) == normalize(GOLDEN_FRAME)

    def test_spark_downsamples_and_pads(self):
        assert spark([], width=4) == "    "
        assert spark([1.0], width=4) == "▁   "
        assert spark([0.0, 7.0], width=4) == "▁█  "
        long = spark(list(range(100)), width=10)
        assert len(long) == 10
        assert long[0] == "▁" and long[-1] == "█"

    def test_render_watch_caps_rows_with_explicit_footer(self):
        payload = {"ticks": 1, "series": {
            f"s{i:02d}": {"kind": "gauge", "points": [[0.0, 1.0]],
                          "latest": 1.0}
            for i in range(20)
        }}
        frame = render_watch(payload, max_rows=5)
        assert "... 15 more series" in frame

    def test_render_watch_series_selection(self):
        payload = {"ticks": 1, "series": {
            "a": {"kind": "gauge", "points": [[0.0, 1.0]], "latest": 1.0},
            "b": {"kind": "gauge", "points": [[0.0, 2.0]], "latest": 2.0},
        }}
        frame = render_watch(payload, series=["b"])
        lines = frame.splitlines()
        assert any(line.startswith("b ") for line in lines)
        assert not any(line.startswith("a ") for line in lines)


class TestDashboard:
    def test_render_dashboard_contents(self):
        store = _burn_store()
        alerts = [{"severity": "warning", "rule": "budget-burn",
                   "message": "forecast"}]
        html = render_dashboard(store, alerts=alerts, refresh=3.0)
        assert "<!DOCTYPE html>" in html
        assert '<meta http-equiv="refresh" content="3">' in html
        assert "warning · budget-burn" in html
        assert "exhaustion forecast" in html
        assert "<svg" in html and "polyline" in html
        assert "prefers-color-scheme: dark" in html
        assert MetricsRegistry.RELEASES in html

    def test_dashboard_caps_cards_with_explicit_footer(self):
        store = _make_store()
        for i in range(60):
            store.record(f"series_{i:02d}", GAUGE, 1.0, now=1.0)
        html = render_dashboard(store, max_cards=10)
        assert "50 more series not shown" in html

    def test_sparkline_svg_shapes(self):
        svg = sparkline_svg([(0.0, 1.0), (1.0, 5.0), (2.0, 3.0)])
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert sparkline_svg([]) == ""


class TestServerEndpoints:
    def _serve_session(self):
        workload = workload_by_name("tpch6")
        tables = workload.make_tables(1500, 0)
        protected = workload.query.protected_table
        held = tables[protected][1000:]
        del tables[protected][1000:]
        from repro.obs.ledger import PrivacyLedger

        session = UPASession(
            UPAConfig(sample_size=200, seed=1),
            accountant=PrivacyAccountant(total_epsilon=50.0),
            ledger=PrivacyLedger(),
        )
        server = session.serve(port=0, timeseries_interval=0.01)
        return session, server, workload, tables, held

    def test_live_append_loop_round_trip(self):
        session, server, workload, tables, held = self._serve_session()
        try:
            session.run(workload.query, tables, epsilon=0.3)

            errors = []

            def append_loop():
                try:
                    for step in range(4):
                        chunk = held[step * 125:(step + 1) * 125]
                        session.append(chunk, epsilon=0.3)
                except Exception as exc:  # pragma: no cover - debug aid
                    errors.append(exc)

            thread = threading.Thread(target=append_loop)
            thread.start()
            saw_payload = None
            while thread.is_alive():
                status, ctype, body = _http_get(server.port, "/timeseries")
                assert status == 200
                assert "application/json" in ctype
                saw_payload = json.loads(body)
            thread.join()
            assert not errors
            status, _, body = _http_get(server.port, "/timeseries")
            payload = json.loads(body)
            assert saw_payload is not None
            assert payload["format"] == TIMESERIES_FORMAT
            series = payload["series"][MetricsRegistry.RELEASES]
            assert series["latest"] == 5.0  # run + 4 appends
            status, ctype, body = _http_get(server.port, "/dashboard")
            assert status == 200
            assert "text/html" in ctype
            assert b"<svg" in body
            # the windowed budget-burn forecast fired mid-loop
            status, _, body = _http_get(server.port, "/healthz")
            health = json.loads(body)
            assert any(a["rule"] == "budget-burn"
                       for a in health.get("alerts", []))
        finally:
            session.engine.stop()

    def test_timeseries_query_params(self):
        session, server, workload, tables, _ = self._serve_session()
        try:
            session.run(workload.query, tables, epsilon=0.3)
            name = MetricsRegistry.RELEASES
            status, _, body = _http_get(
                server.port, f"/timeseries?series={name}&step=0.5")
            assert status == 200
            payload = json.loads(body)
            assert list(payload["series"]) == [name]
        finally:
            session.engine.stop()

    def test_malformed_params_return_400_json(self):
        session, server, workload, tables, _ = self._serve_session()
        try:
            session.run(workload.query, tables, epsilon=0.3)
            for path in ("/timeseries?since=abc", "/timeseries?step=-1",
                         "/timeseries?window=nan", "/dashboard?refresh=-2",
                         "/ledger?n=xyz", "/ledger?since=1.5"):
                status, ctype, body = _http_get(server.port, path)
                assert status == 400, path
                assert "application/json" in ctype
                assert "error" in json.loads(body), path
        finally:
            session.engine.stop()

    def test_scrape_drives_tick_when_idle(self):
        # satellite: an idle-but-serving session must not go stale —
        # the scrape itself advances the series between releases.
        session, server, workload, tables, _ = self._serve_session()
        try:
            session.run(workload.query, tables, epsilon=0.3)
            before = len(session.timeseries.tick_times())
            time.sleep(0.05)  # > timeseries_interval
            status, _, _ = _http_get(server.port, "/healthz")
            assert status in (200, 503)
            assert len(session.timeseries.tick_times()) > before
        finally:
            session.engine.stop()

    def test_artifact_mode_store_never_ticked_by_scrapes(self, tmp_path):
        from repro.obs.server import ObservabilityServer

        path = tmp_path / "ts.jsonl"
        _burn_store(ticks=3).write_jsonl(str(path))
        store = TimeSeriesStore.read_jsonl(str(path))
        server = ObservabilityServer(timeseries=store).start()
        try:
            status, _, body = _http_get(server.port, "/timeseries")
            assert status == 200
            assert json.loads(body)["ticks"] == 3
            _http_get(server.port, "/healthz")
            assert len(store.tick_times()) == 3  # replay stays as recorded
        finally:
            server.stop()


class TestReportTrends:
    def test_report_renders_trend_table(self, tmp_path):
        from repro.obs.report import ObservedRun

        path = tmp_path / "ts.jsonl"
        _burn_store().write_jsonl(str(path))
        observed = ObservedRun.from_artifacts(timeseries_path=str(path))
        trends = observed.timeseries_trends()
        assert trends
        by_name = {t["series"]: t for t in trends}
        releases = by_name[MetricsRegistry.RELEASES]
        assert releases["kind"] == COUNTER
        assert releases["per_second"] == pytest.approx(1.0)
        text = observed.render_text()
        assert "time-series trends:" in text
        payload = json.loads(observed.render_json())
        assert payload["timeseries"]["ticks"] == 6

    def test_cli_report_trend_includes_replayed_alerts(self, tmp_path,
                                                       capsys):
        from repro.cli import main

        path = tmp_path / "ts.jsonl"
        _burn_store().write_jsonl(str(path))
        assert main(["report", "--timeseries", str(path), "--trend"]) == 0
        out = capsys.readouterr().out
        assert "time-series trends:" in out
        assert "budget-burn" in out

    def test_cli_watch_replays_artifact(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ts.jsonl"
        _burn_store().write_jsonl(str(path))
        assert main(["watch", "--timeseries", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro watch ·" in out
        assert "health: degraded" in out
        assert "budget-burn" in out

    def test_cli_watch_requires_exactly_one_source(self, capsys):
        from repro.cli import main

        assert main(["watch"]) == 2
        assert main(["watch", "--url", "http://x", "--timeseries",
                     "y"]) == 2
