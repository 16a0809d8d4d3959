"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the nine evaluated workloads and their properties.
* ``run`` — answer one workload under epsilon-iDP and print the result.
* ``run-sql`` — answer an ad-hoc SQL counting/sum query over a
  generated TPC-H dataset (compiled by the provenance bridge).
* ``compare`` — UPA vs FLEX vs brute force sensitivities for one
  workload.
* ``report`` — render the per-phase time breakdown and privacy-ledger
  summary from trace/ledger/profile artifacts written by ``run``/
  ``compare``.
* ``serve`` — stand up the live-monitoring endpoints over artifacts
  written by an earlier run (the ledger is replayed through the alert
  rules, so ``/healthz`` reflects what would have fired; a
  ``--timeseries`` artifact is served at /timeseries + /dashboard).
* ``watch`` — refreshing terminal view of a live monitored session
  (polls ``/timeseries`` + ``/healthz``) or a one-shot replay of a
  ``--timeseries`` artifact through the windowed alert rules.
* ``lint`` — the upalint static analyzer: query purity, plan
  stability, and budget-flow diagnostics over the built-in workloads
  and/or analyst scripts; exits non-zero on error-severity findings.

Observability is opt-in and documented in ``docs/observability.md``:
``--trace`` writes a Chrome trace-event JSON (load in
``chrome://tracing``), ``--ledger`` writes the append-only privacy
audit ledger as JSONL, ``--events`` installs a job listener and prints
the engine's per-job event log, ``--serve PORT`` exposes /metrics,
/healthz, /ledger, /traces, /budget, /profile and /workers over HTTP
while the command runs (``--serve-grace`` keeps serving after it
finishes), and ``--profile PATH`` writes collapsed stacks from the
sampling profiler, and ``--timeseries PATH`` streams the sampled
metric time series (one JSONL line per tick) for ``repro report
--trend`` / ``repro watch``.  ``run``/``run-sql``/``compare`` take
``--backend``
and ``--max-workers`` to pick the engine's executor; with
``--backend processes`` all of the above still works — worker-side
spans, metrics and profiles are piggybacked back to the coordinator
(see "Cross-process telemetry" in the same doc).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__
from repro.analysis import format_table
from repro.core import UPAConfig, UPASession


def _add_observability_args(parser: argparse.ArgumentParser,
                            ledger: bool = True) -> None:
    parser.add_argument(
        "--trace", metavar="PATH",
        help="write a Chrome trace-event JSON of the run to PATH",
    )
    if ledger:
        parser.add_argument(
            "--ledger", metavar="PATH",
            help="write the privacy audit ledger (JSONL) to PATH",
        )
    parser.add_argument(
        "--events", action="store_true",
        help="install a JobListener and print the engine job event log",
    )
    parser.add_argument(
        "--serve", metavar="PORT", type=int,
        help="serve live monitoring endpoints (/metrics /healthz "
        "/ledger /traces /budget /profile) on 127.0.0.1:PORT while "
        "the command runs; 0 picks an ephemeral port",
    )
    parser.add_argument(
        "--serve-grace", metavar="SECONDS", type=float, default=0.0,
        help="with --serve: keep serving this long after the command "
        "finishes (scrape window for CI and dashboards)",
    )
    parser.add_argument(
        "--profile", metavar="PATH",
        help="sample the run with the span-attributing profiler and "
        "write collapsed stacks (flamegraph.pl / speedscope format) "
        "to PATH",
    )
    parser.add_argument(
        "--profile-hz", metavar="HZ", type=float, default=100.0,
        help="profiler sampling rate (default: 100)",
    )
    parser.add_argument(
        "--timeseries", metavar="PATH",
        help="sample the metrics registry on every release and stream "
        "the time series to PATH (JSONL; replay with `repro report "
        "--trend` or `repro watch --timeseries`)",
    )


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=("inline", "threads", "processes"),
        default=None,
        help="executor backend for engine jobs (default: inline); "
        "processes runs partition tasks in a worker pool with "
        "cross-process telemetry when observability is on",
    )
    parser.add_argument(
        "--max-workers", metavar="N", type=int, default=4,
        help="pool size for the threads/processes backends (default: 4)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UPA (DSN 2020) reproduction: differentially private "
        "big-data mining",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the nine evaluated workloads")

    run = sub.add_parser("run", help="run one workload under epsilon-iDP")
    run.add_argument("workload", help="workload name, e.g. tpch6")
    run.add_argument("--scale", type=int, default=20_000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--epsilon", type=float, default=0.1)
    run.add_argument("--sample-size", type=int, default=1000)
    run.add_argument(
        "--append", metavar="N", type=int, default=0,
        help="after the initial release, append N records per step via "
        "the incremental session path (each append is a fresh release "
        "charging --epsilon again)",
    )
    run.add_argument(
        "--append-steps", metavar="K", type=int, default=1,
        help="with --append: number of append steps (default: 1)",
    )
    _add_engine_args(run)
    _add_observability_args(run)

    sql = sub.add_parser(
        "run-sql", help="run an ad-hoc SQL query over generated TPC-H data"
    )
    sql.add_argument("query", help="SQL text (single COUNT/SUM)")
    sql.add_argument("--protect", required=True, help="protected table")
    sql.add_argument("--scale", type=int, default=20_000)
    sql.add_argument("--seed", type=int, default=0)
    sql.add_argument("--epsilon", type=float, default=0.1)
    _add_engine_args(sql)
    _add_observability_args(sql)

    cmp_parser = sub.add_parser(
        "compare", help="UPA vs FLEX vs brute-force sensitivity"
    )
    cmp_parser.add_argument("workload")
    cmp_parser.add_argument("--scale", type=int, default=20_000)
    cmp_parser.add_argument("--seed", type=int, default=0)
    _add_engine_args(cmp_parser)
    _add_observability_args(cmp_parser, ledger=False)

    report = sub.add_parser(
        "report",
        help="per-phase time breakdown + privacy ledger summary from "
        "artifacts written by run/compare",
    )
    report.add_argument(
        "--trace", metavar="PATH", help="Chrome trace JSON written by --trace"
    )
    report.add_argument(
        "--ledger", metavar="PATH", help="ledger JSONL written by --ledger"
    )
    report.add_argument(
        "--profile", metavar="PATH",
        help="collapsed-stack profile written by --profile (renders "
        "the per-span self-time table)",
    )
    report.add_argument(
        "--timeseries", metavar="PATH",
        help="time-series JSONL written by --timeseries (renders the "
        "per-series trend table)",
    )
    report.add_argument(
        "--trend", action="store_true",
        help="with --timeseries: replay the windowed alert rules over "
        "the artifact and include what would have fired",
    )
    report.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    serve = sub.add_parser(
        "serve",
        help="serve the live-monitoring endpoints over run artifacts "
        "(the ledger is replayed through the alert rules)",
    )
    serve.add_argument(
        "--ledger", metavar="PATH",
        help="ledger JSONL to serve at /ledger and replay through the "
        "alert rules (drives /healthz)",
    )
    serve.add_argument(
        "--trace", metavar="PATH",
        help="Chrome trace JSON to serve at /traces",
    )
    serve.add_argument(
        "--timeseries", metavar="PATH",
        help="time-series JSONL to serve at /timeseries and /dashboard "
        "(replayed through the windowed alert rules)",
    )
    serve.add_argument("--port", type=int, default=0,
                       help="port to bind (default: ephemeral)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="serve this long then exit (default: until ctrl-c)",
    )

    watch = sub.add_parser(
        "watch",
        help="refreshing terminal view of a live monitored session "
        "(or a one-shot replay of a --timeseries artifact)",
    )
    watch.add_argument(
        "--url", metavar="URL",
        help="base URL of a live observability server started with "
        "--serve, e.g. http://127.0.0.1:9464",
    )
    watch.add_argument(
        "--timeseries", metavar="PATH",
        help="replay a time-series JSONL artifact (render one frame "
        "with the windowed alert rules re-evaluated) instead of "
        "polling a server",
    )
    watch.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll interval with --url (default: 2)",
    )
    watch.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="render N frames then exit (default: until ctrl-c)",
    )
    watch.add_argument(
        "--series", action="append", metavar="NAME",
        help="series to display, repeatable (default: key series "
        "first, then the rest)",
    )
    watch.add_argument(
        "--no-clear", action="store_true",
        help="do not clear the screen between frames",
    )

    lint = sub.add_parser(
        "lint",
        help="static safety analysis (query purity, plan stability, "
        "budget flow)",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="Python files/directories for the budget-flow pass "
        "(e.g. examples/)",
    )
    lint.add_argument(
        "--workload", action="append", dest="workloads", metavar="NAME",
        help="lint only this workload (repeatable; default: all nine)",
    )
    lint.add_argument(
        "--no-workloads", action="store_true",
        help="skip the built-in workload registry",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="machine-readable output (alias for --format json)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default=None,
        help="output format (default: text; sarif for code-scanning "
        "upload)",
    )
    lint.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="ratchet mode: filter findings recorded in FILE and fail "
        "only on new ones; a missing FILE is created from the current "
        "findings",
    )
    lint.add_argument(
        "--exclude", action="append", default=[], metavar="PATH",
        help="skip this file/directory in the script passes "
        "(repeatable; e.g. deliberately-leaky lint fixtures)",
    )
    lint.add_argument(
        "--quiet", action="store_true",
        help="hide info-severity diagnostics in text output",
    )
    return parser


def _cmd_list() -> int:
    from repro.workloads import all_workloads

    rows = [
        [w.name, w.query_type, w.query.protected_table,
         "yes" if w.flex_supported else "no"]
        for w in all_workloads()
    ]
    print(format_table(
        ["workload", "type", "protected table", "FLEX support"], rows
    ))
    return 0


def _setup_observability(args, **config_fields):
    """(tracer, ledger) per the command's observability flags.

    Both artifacts share one self-describing header: repro + python
    versions plus the run configuration (epsilon, n, seed, ...).
    ``--serve`` and ``--profile`` need a live tracer even when no
    ``--trace`` artifact was requested (the ``/traces`` endpoint and
    the profiler's span attribution read it), and ``--serve`` needs an
    in-memory ledger for ``/ledger`` even when none is being written.
    """
    from repro.obs import PrivacyLedger, Tracer, run_header

    header = run_header(**config_fields)
    live = getattr(args, "serve", None) is not None
    want_tracer = (
        getattr(args, "trace", None) or live
        or getattr(args, "profile", None)
    )
    want_ledger = getattr(args, "ledger", None) or (
        live and hasattr(args, "ledger")
    )
    tracer = Tracer(header=header) if want_tracer else None
    ledger = PrivacyLedger(header=header) if want_ledger else None
    return tracer, ledger


def _make_engine(args, config):
    """EngineContext per ``--backend``/``--max-workers``, or None.

    None (no ``--backend`` flag) lets :class:`UPASession` build its
    default inline engine, exactly as before the flag existed.  The
    ``REPRO_PROCESS_START_METHOD`` environment variable forces the
    multiprocessing start method (CI uses ``spawn`` to exercise the
    non-fork telemetry path on Linux).
    """
    import os

    backend = getattr(args, "backend", None)
    if backend is None:
        return None
    from repro.common.config import EngineConfig
    from repro.engine.context import EngineContext

    return EngineContext(EngineConfig(
        backend=backend,
        max_workers=getattr(args, "max_workers", 4),
        default_parallelism=config.engine_partitions,
        process_start_method=(
            os.environ.get("REPRO_PROCESS_START_METHOD") or None
        ),
    ))


def _start_live(args, session):
    """Start --serve / --profile machinery; (server, profiler)."""
    profiler = None
    if getattr(args, "profile", None):
        from repro.obs.profiler import SamplingProfiler

        profiler = SamplingProfiler(hz=args.profile_hz).start()
        # The processes backend mirrors the driver profiler in each
        # worker (SpanContext.profile_hz) and merges the stacks back,
        # so the scheduler needs to know the profiler exists.
        session.engine.install_profiler(profiler)
    if getattr(args, "timeseries", None):
        # Attach before the first release so the artifact records the
        # whole history; every release ticks the store and appends one
        # JSONL line (--serve additionally starts the wall-clock
        # sampler in session.serve()).
        session.attach_timeseries().stream_to(args.timeseries)
    server = None
    if getattr(args, "serve", None) is not None:
        server = session.serve(port=args.serve, profiler=profiler)
        print(f"live monitoring on {server.url} (endpoints: /metrics "
              "/healthz /ledger /traces /budget /profile /workers "
              "/timeseries /dashboard)")
        sys.stdout.flush()
    elif session.ledger is not None and session.alert_engine is None:
        # No server, but alert rules still evaluate on every release
        # so the exit summary (and the ledger header) reflect firings.
        session.attach_alerts()
    return server, profiler


def _finish_live(args, session, server, profiler) -> None:
    """Stop --serve / --profile machinery and print exit summaries."""
    if profiler is not None:
        profiler.stop()
        profiler.write_collapsed(args.profile)
        print(f"profile written to {args.profile} "
              f"({profiler.sample_count} samples; collapsed-stack "
              "format, load at https://www.speedscope.app)")
    if server is not None:
        grace = getattr(args, "serve_grace", 0.0) or 0.0
        if grace > 0:
            import time

            print(f"serving for {grace:g}s more (--serve-grace); "
                  "ctrl-c to stop early")
            sys.stdout.flush()
            try:
                time.sleep(grace)
            except KeyboardInterrupt:
                pass
        server.stop()
    if session.alert_engine is not None:
        summary = session.alert_engine.summary()
        if summary:
            print(summary)
    # A process-backend job that cannot ship its closure falls back to
    # threads *silently correct* but operationally surprising — the
    # run the user asked to parallelize across processes did not.
    fallbacks = int(session.engine.metrics.get(
        session.engine.metrics.PROCESS_FALLBACKS
    ))
    if fallbacks:
        print(
            f"warning: {fallbacks} engine job(s) fell back from the "
            "processes backend to threads (unpicklable task closure); "
            "see process_fallbacks_total in /metrics",
            file=sys.stderr,
        )


def _emit_observability(args, engine, tracer, ledger) -> None:
    """Write the requested artifacts and print where they landed.

    ``--serve``/``--profile`` create an in-memory tracer (and possibly
    a ledger) without an output path, so each artifact is written only
    when its path flag was actually given.
    """
    if tracer is not None and getattr(args, "trace", None):
        tracer.write_chrome_trace(args.trace)
        print(f"trace written to {args.trace} "
              f"({len(tracer)} spans; open in chrome://tracing)")
    if ledger is not None and getattr(args, "ledger", None):
        ledger.write_jsonl(args.ledger)
        print(f"privacy ledger written to {args.ledger} "
              f"({len(ledger)} entries)")
    store = getattr(engine, "timeseries", None)
    if store is not None and getattr(args, "timeseries", None):
        # stream_to already appended every tick; nothing left to flush.
        print(f"time series written to {args.timeseries} "
              f"({len(store.tick_times())} tick(s), "
              f"{len(store.names())} series)")
    if getattr(args, "events", False) and engine.job_listener is not None:
        print("job events:")
        print(engine.job_listener.summary())


def _install_events(args, engine) -> None:
    from repro.engine.events import JobListener

    if getattr(args, "events", False) and engine.job_listener is None:
        engine.install_job_listener(JobListener())


def _cmd_run(args) -> int:
    from repro.obs.tracing import use_tracer
    from repro.workloads import workload_by_name

    workload = workload_by_name(args.workload)
    append_n = max(0, args.append)
    append_steps = max(1, args.append_steps) if append_n else 0
    # Appended records come from generating the *grown* dataset once
    # and holding back the tail, so every step appends realistic rows.
    tables = workload.make_tables(
        args.scale + append_n * append_steps, args.seed
    )
    protected = workload.query.protected_table
    held_back = tables[protected][args.scale:]
    del tables[protected][args.scale:]
    tracer, ledger = _setup_observability(
        args, command="run", workload=args.workload, epsilon=args.epsilon,
        sample_size=args.sample_size, seed=args.seed, scale=args.scale,
    )
    config = UPAConfig(sample_size=args.sample_size, seed=args.seed)
    session = UPASession(
        config,
        engine=_make_engine(args, config),
        tracer=tracer,
        ledger=ledger,
    )
    _install_events(args, session.engine)
    server, profiler = _start_live(args, session)
    with use_tracer(tracer):
        result = session.run(workload.query, tables, epsilon=args.epsilon)
        for step in range(append_steps):
            chunk = held_back[step * append_n:(step + 1) * append_n]
            result = session.append(chunk, epsilon=args.epsilon)
            stats = session._last_incremental or {}
            print(
                f"append {step + 1}/{append_steps}: +{len(chunk)} records, "
                f"released in {result.elapsed_seconds:.3f}s "
                f"(delta fraction "
                f"{stats.get('delta_fraction', 1.0):.4f}, "
                f"{stats.get('records_reused', 0)} mapped records reused, "
                f"{stats.get('blocks_recomputed', 0)} block(s) recomputed)"
            )
    truth = workload.query.output(tables)
    rows = [
        ["true answer", truth[0] if truth.shape[0] == 1 else list(truth)],
        ["released (noisy)", result.noisy_scalar()
         if truth.shape[0] == 1 else list(result.noisy_output)],
        ["inferred sensitivity", result.local_sensitivity],
        ["epsilon", args.epsilon],
        ["sample size n", result.sample_size],
        ["elapsed seconds", result.elapsed_seconds],
    ]
    print(format_table(["field", "value"], rows))
    _emit_observability(args, session.engine, tracer, ledger)
    _finish_live(args, session, server, profiler)
    return 0


def _cmd_run_sql(args) -> int:
    from repro.tpch import TPCHConfig, TPCHGenerator
    from repro.tpch.queries import base as samplers

    tables = TPCHGenerator(
        TPCHConfig(scale_rows=args.scale, seed=args.seed)
    ).generate()
    domain_samplers = {
        "lineitem": samplers.random_lineitem,
        "orders": samplers.random_order,
        "customer": samplers.random_customer,
        "part": samplers.random_part,
        "partsupp": samplers.random_partsupp,
        "supplier": samplers.random_supplier,
    }
    sampler = domain_samplers.get(args.protect)
    if sampler is None:
        print(f"error: no domain sampler for table {args.protect!r}; "
              f"choose one of {sorted(domain_samplers)}", file=sys.stderr)
        return 2
    from repro.obs.tracing import use_tracer

    tracer, ledger = _setup_observability(
        args, command="run-sql", sql=args.query, epsilon=args.epsilon,
        sample_size=1000, seed=args.seed, scale=args.scale,
    )
    config = UPAConfig(sample_size=1000, seed=args.seed)
    session = UPASession(
        config, engine=_make_engine(args, config), tracer=tracer,
        ledger=ledger,
    )
    _install_events(args, session.engine)
    server, profiler = _start_live(args, session)
    with use_tracer(tracer):
        result = session.run_sql(
            args.query, tables, protected_table=args.protect,
            epsilon=args.epsilon, domain_sampler=sampler,
        )
    rows = [
        ["query", args.query],
        ["true answer", result.plain_output[0]],
        ["released (noisy)", result.noisy_scalar()],
        ["inferred sensitivity", result.local_sensitivity],
    ]
    print(format_table(["field", "value"], rows))
    _emit_observability(args, session.engine, tracer, ledger)
    _finish_live(args, session, server, profiler)
    return 0


def _cmd_compare(args) -> int:
    from repro.baselines import exact_local_sensitivity, flex_local_sensitivity
    from repro.common.errors import FlexUnsupportedError
    from repro.obs.tracing import use_tracer
    from repro.sql import SQLSession
    from repro.tpch.datagen import register_tables
    from repro.workloads import workload_by_name

    workload = workload_by_name(args.workload)
    tables = workload.make_tables(args.scale, args.seed)
    tracer, _ = _setup_observability(
        args, command="compare", workload=args.workload, seed=args.seed,
        scale=args.scale, epsilon=0.1, sample_size=1000,
    )
    config = UPAConfig(sample_size=1000, seed=args.seed)
    session = UPASession(
        config, engine=_make_engine(args, config), tracer=tracer
    )
    _install_events(args, session.engine)
    server, profiler = _start_live(args, session)
    # One ambient tracer scope so the UPA pipeline and both baselines
    # emit into the same trace and can be compared span for span.
    with use_tracer(tracer):
        truth = exact_local_sensitivity(
            workload.query, tables, addition_samples=500
        )
        result = session.run(workload.query, tables, epsilon=0.1)

        flex_text = "unsupported"
        if hasattr(workload.query, "dataframe"):
            sql = SQLSession()
            register_tables(sql, tables)
            try:
                flex_text = flex_local_sensitivity(
                    workload.query.dataframe(sql).plan, tables
                ).sensitivity
            except FlexUnsupportedError:
                pass
    rows = [
        ["brute force (ground truth)", truth.local_sensitivity],
        ["UPA (inferred)", result.estimated_local_sensitivity],
        ["FLEX (static)", flex_text],
    ]
    print(format_table(["system", "local sensitivity"], rows))
    _emit_observability(args, session.engine, tracer, None)
    _finish_live(args, session, server, profiler)
    return 0


def _cmd_report(args) -> int:
    import os

    from repro.obs import ObservedRun

    if not (args.trace or args.ledger or args.profile or args.timeseries):
        print("repro report: pass --trace, --ledger, --profile and/or "
              "--timeseries", file=sys.stderr)
        return 2
    if args.trend and not args.timeseries:
        print("repro report: --trend needs --timeseries PATH",
              file=sys.stderr)
        return 2
    for path in (args.trace, args.ledger, args.profile, args.timeseries):
        if path and not os.path.exists(path):
            print(f"repro report: no such file: {path}", file=sys.stderr)
            return 2
    observed = ObservedRun.from_artifacts(
        trace_path=args.trace, ledger_path=args.ledger,
        profile_path=args.profile, timeseries_path=args.timeseries,
    )
    if args.trend and observed.timeseries is not None:
        from repro.obs import AlertEngine, alert_key

        alert_engine = AlertEngine()
        alert_engine.replay(observed.timeseries)
        seen = {alert_key(a) for a in observed.alerts}
        observed.alerts.extend(
            a for a in alert_engine.to_dicts() if alert_key(a) not in seen
        )
    print(observed.render_json() if args.json else observed.render_text())
    return 0


def _cmd_serve(args) -> int:
    import json
    import os
    import time

    from repro.obs import AlertEngine, ObservabilityServer, PrivacyLedger

    if not args.ledger and not args.trace and not args.timeseries:
        print("repro serve: pass --ledger, --trace and/or --timeseries",
              file=sys.stderr)
        return 2
    for path in (args.ledger, args.trace, args.timeseries):
        if path and not os.path.exists(path):
            print(f"repro serve: no such file: {path}", file=sys.stderr)
            return 2
    # Re-evaluate the rules over each artifact so /healthz and the
    # /dashboard badges show what a live session would have reported.
    alert_engine = None
    if args.ledger or args.timeseries:
        alert_engine = AlertEngine()
    ledger = None
    if args.ledger:
        ledger = PrivacyLedger.read_jsonl(args.ledger)
        alert_engine.replay(ledger)
    timeseries = None
    if args.timeseries:
        from repro.obs.timeseries import TimeSeriesStore

        timeseries = TimeSeriesStore.read_jsonl(args.timeseries)
        alert_engine.replay(timeseries)
    static_trace = None
    if args.trace:
        with open(args.trace, "r", encoding="utf-8") as handle:
            static_trace = json.load(handle)
    server = ObservabilityServer(
        ledger=ledger, alerts=alert_engine, static_trace=static_trace,
        timeseries=timeseries, host=args.host, port=args.port,
    ).start()
    sources = " and ".join(
        p for p in (args.ledger, args.trace, args.timeseries) if p
    )
    print(f"serving {sources} on {server.url}")
    if alert_engine is not None:
        summary = alert_engine.summary()
        if summary:
            print(summary)
    sys.stdout.flush()
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:  # pragma: no cover - interactive
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    server.stop()
    return 0


def _fetch_json(url: str, timeout: float = 10.0):
    """GET ``url`` and parse JSON; error bodies parse too.

    ``/healthz`` answers 503 with a JSON body when alerts have fired —
    that is a successful watch poll, not a transport failure, so HTTP
    errors carrying parseable JSON are returned rather than raised.
    """
    import json
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        body = exc.read().decode("utf-8", "replace")
        try:
            return json.loads(body)
        except ValueError:
            raise exc


def _cmd_watch(args) -> int:
    import os
    import time

    from repro.obs.watch import CLEAR_SCREEN, render_watch

    if bool(args.url) == bool(args.timeseries):
        print("repro watch: pass exactly one of --url or --timeseries",
              file=sys.stderr)
        return 2

    if args.timeseries:
        if not os.path.exists(args.timeseries):
            print(f"repro watch: no such file: {args.timeseries}",
                  file=sys.stderr)
            return 2
        from repro.obs import AlertEngine
        from repro.obs.timeseries import TimeSeriesStore

        store = TimeSeriesStore.read_jsonl(args.timeseries)
        alert_engine = AlertEngine()
        alert_engine.replay(store)
        fired = alert_engine.to_dicts()
        health = {"status": "degraded" if fired else "ok",
                  "alerts": fired}
        sys.stdout.write(render_watch(
            store.to_payload(series=args.series), health,
            series=args.series, source=args.timeseries,
        ))
        return 0

    base = args.url.rstrip("/")
    query = "?series=" + ",".join(args.series) if args.series else ""
    frame = 0
    try:
        while args.iterations is None or frame < args.iterations:
            if frame:
                time.sleep(max(0.0, args.interval))
            frame += 1
            try:
                payload = _fetch_json(base + "/timeseries" + query)
                health = _fetch_json(base + "/healthz")
            except (OSError, ValueError) as exc:
                print(f"repro watch: {base}: {exc}", file=sys.stderr)
                return 1
            text = render_watch(payload, health, series=args.series,
                                source=base)
            if not args.no_clear and sys.stdout.isatty():
                sys.stdout.write(CLEAR_SCREEN)
            sys.stdout.write(text)
            sys.stdout.flush()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 0


def _cmd_lint(args) -> int:
    import os

    from repro.staticcheck import Severity, run_lint
    from repro.workloads import all_workloads

    # Usage errors (typo'd workload, missing path) must not silently
    # lint nothing and exit 0 — CI would never notice.
    if args.workloads:
        known = {w.name for w in all_workloads()}
        unknown = [n for n in args.workloads if n not in known]
        if unknown:
            print(
                f"repro lint: unknown workload(s) {', '.join(unknown)}; "
                f"available: {', '.join(sorted(known))}",
                file=sys.stderr,
            )
            return 2
    for path in args.paths:
        if not os.path.exists(path):
            print(f"repro lint: path does not exist: {path}", file=sys.stderr)
            return 2
        if not os.path.isdir(path) and not path.endswith(".py"):
            print(
                f"repro lint: not a directory or .py file: {path}",
                file=sys.stderr,
            )
            return 2

    report = run_lint(
        workloads=not args.no_workloads,
        workload_names=args.workloads,
        paths=args.paths,
        min_severity=Severity.WARNING if args.quiet else Severity.INFO,
        exclude=args.exclude,
        baseline=args.baseline,
    )
    fmt = args.format or ("json" if args.json else "text")
    if report.baseline_written and fmt == "text":
        print(
            f"repro lint: recorded current findings in {args.baseline}; "
            "future runs fail only on new findings",
            file=sys.stderr,
        )
    print(report.render(format=fmt))
    return report.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "run-sql":
            return _cmd_run_sql(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "watch":
            return _cmd_watch(args)
        if args.command == "lint":
            return _cmd_lint(args)
    except BrokenPipeError:  # e.g. `repro list | head`
        return 0
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
