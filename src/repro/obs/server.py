"""Introspection server: live HTTP endpoints over a running session.

A daemon-thread :class:`ObservabilityServer` (stdlib ``http.server``)
exposes what `repro report` shows post-hoc, *while the run is in
flight*:

========== ==========================================================
endpoint    serves
========== ==========================================================
``/``        JSON index of the endpoints below
``/metrics`` Prometheus text exposition of the engine registry, plus
             budget/alert gauges (``?format=otlp`` for OTLP-style
             JSON)
``/healthz`` ``{"status": "ok"}`` — or 503 ``"degraded"`` once any
             alert rule has fired
``/ledger``  privacy-ledger JSONL tail; ``?n=5`` for the last five
             entries, ``?since=SEQ`` for entries after a sequence
             cursor (combine both)
``/traces``  Chrome trace-event JSON of the spans finished so far
             (``?format=otlp`` for OTLP-style spans)
``/budget``  per-accountant balance snapshots
``/profile`` the sampling profiler's collapsed stacks so far
``/workers`` per-worker health JSON (processes backend): pid, rss,
             uptime, tasks completed, task-seconds summary — derived
             from the ``worker``-labelled series the cross-process
             telemetry merge records (:mod:`repro.obs.crossproc`)
``/timeseries`` sampled metric history from the attached
             :class:`~repro.obs.timeseries.TimeSeriesStore`;
             ``?series=a,b`` filters (exact names or labelled-family
             bases), ``?since=T`` bounds, ``?step=S`` resamples,
             ``?window=W`` sets the rate window
``/dashboard`` self-contained HTML over the same store: inline-SVG
             sparklines, alert badges, budget forecast; auto-refreshes
             (``?refresh=S``, ``0`` disables)
========== ==========================================================

Every data source (metrics registry, tracer, ledger, accountant,
profiler, time-series store) is already thread-safe, so scrape threads
never contend with the pipeline beyond those locks.  Embed via
:meth:`repro.engine.context.EngineContext.serve` /
:meth:`repro.core.session.UPASession.serve`, or the CLI's ``--serve``
flag / ``repro serve`` command.  Starting a server from inside a
mapper/reducer is flagged by upalint (UPA013).

Malformed query parameters (``?n=banana``) answer 400 with a JSON
error body — a scrape must never surface a stack-trace 500 for a typo.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.dp.budget import PrivacyAccountant
from repro.engine.metrics import MetricsRegistry
from repro.obs.alerts import AlertEngine
from repro.obs.exporters import (
    prometheus_block,
    render_otlp_metrics,
    render_otlp_spans,
    render_prometheus,
)
from repro.obs.ledger import PrivacyLedger
from repro.obs.profiler import SamplingProfiler
from repro.obs.timeseries import TimeSeriesStore
from repro.obs.tracing import Tracer

#: (status, content-type, body) triple every route returns.
_Response = Tuple[int, str, bytes]

_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _json_response(payload: Any, status: int = 200) -> _Response:
    body = json.dumps(payload, indent=2, sort_keys=True, default=str)
    return status, "application/json; charset=utf-8", body.encode("utf-8")


class _BadParam(ValueError):
    """A malformed query parameter; answered as HTTP 400 + JSON."""


def _str_param(params: Dict[str, List[str]], key: str) -> Optional[str]:
    values = params.get(key)
    return values[0] if values else None


def _int_param(params: Dict[str, List[str]], key: str) -> Optional[int]:
    raw = _str_param(params, key)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise _BadParam(
            f"query parameter {key!r} must be an integer, got {raw!r}"
        ) from None


def _float_param(
    params: Dict[str, List[str]], key: str, positive: bool = False
) -> Optional[float]:
    raw = _str_param(params, key)
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise _BadParam(
            f"query parameter {key!r} must be a number, got {raw!r}"
        ) from None
    if value != value or value in (float("inf"), float("-inf")):
        raise _BadParam(
            f"query parameter {key!r} must be finite, got {raw!r}"
        )
    if positive and value <= 0:
        raise _BadParam(
            f"query parameter {key!r} must be positive, got {raw!r}"
        )
    return value


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        owner: "ObservabilityServer" = self.server.owner  # type: ignore
        split = urlsplit(self.path)
        params = parse_qs(split.query)
        try:
            status, content_type, body = owner.handle(split.path, params)
        except Exception as exc:  # noqa: BLE001 - must answer something
            status, content_type, body = (
                500, "text/plain; charset=utf-8",
                f"internal error: {type(exc).__name__}: {exc}\n"
                .encode("utf-8"),
            )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr chatter (scrapes arrive every
        few seconds; the observer must not spam the observed)."""


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    owner: "ObservabilityServer"


class ObservabilityServer:
    """Live monitoring endpoints over a session's observability state.

    All sources are optional — endpoints whose source is absent answer
    404, so the same server class backs a bare engine (metrics only),
    a full session (metrics + tracer + ledger + accountant + alerts +
    profiler), and ``repro serve`` over artifacts (a re-loaded ledger
    and a static trace document).

    ``port=0`` binds an ephemeral port; read :attr:`port`/:attr:`url`
    after :meth:`start`.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        ledger: Optional[PrivacyLedger] = None,
        accountants: Optional[
            Union[PrivacyAccountant, Mapping[str, PrivacyAccountant]]
        ] = None,
        alerts: Optional[AlertEngine] = None,
        profiler: Optional[SamplingProfiler] = None,
        timeseries: Optional[TimeSeriesStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        namespace: str = "upa",
        static_trace: Optional[dict] = None,
    ):
        self.metrics = metrics
        self.tracer = tracer
        self.ledger = ledger
        if isinstance(accountants, PrivacyAccountant):
            accountants = {"default": accountants}
        self.accountants: Dict[str, PrivacyAccountant] = dict(
            accountants or {}
        )
        self.alerts = alerts
        self.profiler = profiler
        self.timeseries = timeseries
        self.namespace = namespace
        #: a pre-rendered Chrome trace document served when no live
        #: tracer is attached (``repro serve --trace artifact.json``).
        self.static_trace = static_trace
        self._host = host
        self._requested_port = port
        self._server: Optional[_HTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._scrapes = 0

    # -- lifecycle ----------------------------------------------------
    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int:
        """The bound port (the requested one until :meth:`start`)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def start(self) -> "ObservabilityServer":
        """Bind and serve on a daemon thread (idempotent)."""
        if self._server is not None:
            return self
        server = _HTTPServer((self._host, self._requested_port), _Handler)
        server.owner = self
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            name=f"repro-obs-server:{self.port}",
            daemon=True,
            kwargs={"poll_interval": 0.1},
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down and join the serving thread."""
        server, self._server = self._server, None
        thread, self._thread = self._thread, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "ObservabilityServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- routing ------------------------------------------------------
    def handle(self, path: str, params: Dict[str, List[str]]) -> _Response:
        """Dispatch one GET (exposed for in-process tests)."""
        with self._lock:
            self._scrapes += 1
        path = path.rstrip("/") or "/"
        try:
            if path == "/":
                return self._index()
            if path == "/metrics":
                return self._metrics(params)
            if path == "/healthz":
                return self._healthz()
            if path == "/ledger":
                return self._ledger(params)
            if path == "/traces":
                return self._traces(params)
            if path == "/budget":
                return self._budget()
            if path == "/profile":
                return self._profile()
            if path == "/workers":
                return self._workers()
            if path == "/timeseries":
                return self._timeseries(params)
            if path == "/dashboard":
                return self._dashboard(params)
        except _BadParam as exc:
            return _json_response({"error": str(exc)}, status=400)
        return (
            404, "text/plain; charset=utf-8",
            f"no such endpoint: {path}\n".encode("utf-8"),
        )

    # -- endpoints ----------------------------------------------------
    def _index(self) -> _Response:
        available = {
            "/metrics": self.metrics is not None,
            "/healthz": True,
            "/ledger": self.ledger is not None,
            "/traces": (
                self.tracer is not None or self.static_trace is not None
            ),
            "/budget": bool(self.accountants),
            "/profile": self.profiler is not None,
            "/workers": self.metrics is not None,
            "/timeseries": self.timeseries is not None,
            "/dashboard": self.timeseries is not None,
        }
        return _json_response({
            "service": "repro.obs",
            "endpoints": available,
        })

    def _tick_alerts(self) -> None:
        """One rate-limited tick of a live store per scrape.

        The tick evaluates the alert rules through the store's
        listeners, so an idle-but-serving session's series and alert
        state stay fresh.  A store rebuilt from an artifact
        (``metrics is None``) is never ticked: replayed history must
        stay exactly as recorded.
        """
        if (
            self.timeseries is not None
            and self.timeseries.metrics is not None
        ):
            self.timeseries.tick_if_due()

    def _extra_prometheus_blocks(self) -> List[List[str]]:
        ns = self.namespace
        blocks: List[List[str]] = []
        for name, accountant in sorted(self.accountants.items()):
            balance = accountant.describe()
            for field in ("total_epsilon", "spent_epsilon",
                          "remaining_epsilon"):
                blocks.append(prometheus_block(
                    f"{ns}_budget_{field}", "gauge",
                    f"Privacy accountant {field.replace('_', ' ')}.",
                    [("", {"accountant": name}, balance[field])],
                ))
        if self.alerts is not None:
            alerts = self.alerts.alerts()
            blocks.append(prometheus_block(
                f"{ns}_alerts_fired_total", "counter",
                "Alert-rule firings since the session started.",
                [("", None, float(len(alerts)))],
            ))
            blocks.append(prometheus_block(
                f"{ns}_health_degraded", "gauge",
                "1 once any alert rule has fired, else 0.",
                [("", None, 1.0 if self.alerts.degraded else 0.0)],
            ))
        with self._lock:
            scrapes = self._scrapes
        blocks.append(prometheus_block(
            f"{ns}_server_requests_total", "counter",
            "Requests served by the introspection server.",
            [("", None, float(scrapes))],
        ))
        return blocks

    def _metrics(self, params: Dict[str, List[str]]) -> _Response:
        if self.metrics is None:
            return (404, "text/plain; charset=utf-8",
                    b"no metrics registry attached\n")
        self._tick_alerts()
        snapshot = self.metrics.snapshot()
        if params.get("format", [""])[0] == "otlp":
            return _json_response(render_otlp_metrics(snapshot))
        body = render_prometheus(
            snapshot, namespace=self.namespace,
            extra_blocks=self._extra_prometheus_blocks(),
        )
        return 200, _PROM_CONTENT_TYPE, body.encode("utf-8")

    def _healthz(self) -> _Response:
        self._tick_alerts()
        degraded = self.alerts is not None and self.alerts.degraded
        payload = {
            "status": "degraded" if degraded else "ok",
            "firing_rules":
                self.alerts.firing_rules() if self.alerts else [],
            "alerts": self.alerts.to_dicts() if self.alerts else [],
        }
        return _json_response(payload, status=503 if degraded else 200)

    def _ledger(self, params: Dict[str, List[str]]) -> _Response:
        if self.ledger is None:
            return (404, "text/plain; charset=utf-8",
                    b"no privacy ledger attached\n")
        entries = self.ledger.entries()
        cursor = _int_param(params, "since")
        if cursor is not None:
            entries = [e for e in entries if e.sequence > cursor]
        n = _int_param(params, "n")
        if n is not None:
            count = max(0, n)
            entries = entries[len(entries) - count:] if count else []
        header = {"format": PrivacyLedger.FORMAT, **self.ledger.header}
        lines = [json.dumps(header, sort_keys=True, default=str)]
        lines.extend(
            json.dumps(e.to_dict(), sort_keys=True, default=str)
            for e in entries
        )
        body = "\n".join(lines) + "\n"
        return (200, "application/x-ndjson; charset=utf-8",
                body.encode("utf-8"))

    def _traces(self, params: Dict[str, List[str]]) -> _Response:
        if self.tracer is not None:
            if params.get("format", [""])[0] == "otlp":
                return _json_response(render_otlp_spans(self.tracer))
            return _json_response(self.tracer.to_chrome_trace())
        if self.static_trace is not None:
            return _json_response(self.static_trace)
        return (404, "text/plain; charset=utf-8",
                b"no tracer attached\n")

    def _budget(self) -> _Response:
        if not self.accountants:
            return (404, "text/plain; charset=utf-8",
                    b"no privacy accountant attached\n")
        return _json_response({
            "accountants": {
                name: accountant.describe()
                for name, accountant in self.accountants.items()
            },
        })

    def _profile(self) -> _Response:
        if self.profiler is None:
            return (404, "text/plain; charset=utf-8",
                    b"no profiler attached\n")
        body = self.profiler.collapsed_stacks()
        return 200, "text/plain; charset=utf-8", body.encode("utf-8")

    def _workers(self) -> _Response:
        if self.metrics is None:
            return (404, "text/plain; charset=utf-8",
                    b"no metrics registry attached\n")
        from repro.obs.crossproc import worker_table

        workers = worker_table(self.metrics.snapshot())
        return _json_response({
            "workers": workers,
            "count": len(workers),
        })

    def _timeseries_params(
        self, params: Dict[str, List[str]]
    ) -> Tuple[Optional[List[str]], Optional[float], Optional[float]]:
        raw_series = _str_param(params, "series")
        names = None
        if raw_series:
            names = [s for s in raw_series.split(",") if s.strip()]
        since = _float_param(params, "since")
        step = _float_param(params, "step", positive=True)
        return names, since, step

    def _timeseries(self, params: Dict[str, List[str]]) -> _Response:
        if self.timeseries is None:
            return (404, "text/plain; charset=utf-8",
                    b"no time-series store attached\n")
        names, since, step = self._timeseries_params(params)
        window = _float_param(params, "window", positive=True)
        self._tick_alerts()
        return _json_response(self.timeseries.to_payload(
            series=names, since=since, step=step, rate_window=window,
        ))

    def _dashboard(self, params: Dict[str, List[str]]) -> _Response:
        if self.timeseries is None:
            return (404, "text/plain; charset=utf-8",
                    b"no time-series store attached\n")
        from repro.obs.exporters import render_dashboard

        names, since, step = self._timeseries_params(params)
        refresh = _float_param(params, "refresh")
        if refresh is not None and refresh < 0:
            raise _BadParam(
                f"query parameter 'refresh' must be >= 0, got {refresh!r}"
            )
        if refresh is None:
            refresh = max(2.0, self.timeseries.interval)
        self._tick_alerts()
        html = render_dashboard(
            self.timeseries,
            alerts=self.alerts.to_dicts() if self.alerts else None,
            refresh=refresh or None,
            series=names,
            since=since,
            step=step,
        )
        return 200, "text/html; charset=utf-8", html.encode("utf-8")
