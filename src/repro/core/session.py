"""UPASession: the end-to-end UPA pipeline (paper Figure 1).

One ``run()`` executes the four phases:

1. **Partition & Sample** — :mod:`repro.core.sampling`.
2. **Parallel Map** — the query's mapper applied to S, S-bar and S'
   on the MapReduce engine.
3. **Union Preserving Reduce** — ``R(M(S'))`` is computed once per
   partition and *reused* for every sampled neighbouring dataset:
   removal neighbours come from prefix/suffix folds over the n mapped
   samples (O(n) combines total instead of O(n * |x|)); addition
   neighbours combine one extra mapped record with f(x)'s aggregate.
4. **iDP Enforcement** — :mod:`repro.core.inference` fits the output
   range and local sensitivity; :mod:`repro.core.range_enforcer` runs
   Algorithm 2; Laplace (or, optionally, Gaussian) noise calibrated to
   the sensitivity is added.

``reuse_intermediate=False`` switches phase 3 to a naive re-reduce per
neighbour (the ablation quantifying the paper's core efficiency claim).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.common.config import EngineConfig
from repro.common.errors import DPError
from repro.common.rng import derive_seed, make_rng
from repro.common.timing import Timer
from repro.core.inference import (
    InferenceConfig,
    InferredRange,
    infer_local_sensitivity,
    infer_output_range,
)
from repro.core.query import MapReduceQuery, Tables
from repro.core.range_enforcer import EnforcementResult, RangeEnforcer
from repro.core.sampling import (
    PartitionedSample,
    partition_and_sample,
    partition_of,
)
from repro.dp.budget import PrivacyAccountant
from repro.dp.mechanisms import GaussianMechanism, LaplaceMechanism
from repro.engine.context import EngineContext
from repro.engine.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.ledger import PrivacyLedger, make_entry
from repro.obs.report import run_header
from repro.obs.timeseries import record_release
from repro.obs.tracing import NULL_SPAN, NULL_TRACER, Tracer, get_tracer


class _RecordMapper:
    """The phase-2 mapper: ``query.map_record`` with broadcast aux.

    A module-level class rather than a local closure so process-backend
    tasks can pickle it and run the parallel-map jobs in worker
    processes (a local function can never cross the boundary, which
    used to force every session job onto the fallback path).
    """

    __slots__ = ("query", "aux")

    def __init__(self, query: "MapReduceQuery", aux):
        self.query = query
        self.aux = aux

    def __call__(self, record):
        return self.query.map_record(record, self.aux.value)


@dataclass(frozen=True)
class UPAConfig:
    """Session configuration.

    Attributes:
        epsilon: default privacy budget per query (paper evaluation: 0.1).
        sample_size: n, the number of sampled differing records (1000).
        seed: master seed (sampling, noise, enforcement randomness).
        inference: sensitivity-inference knobs.
        reuse_intermediate: UPA's union-preserving reuse of R(M(S'));
            False = naive re-reduce per neighbour (ablation).
        validate_queries: check the query's reducer is commutative and
            associative before running (cheap sampled check).
        strict: the full pre-registration gate — runs validate_monoid
            AND the upalint purity pass (repro.staticcheck) the first
            time each query class is submitted; error-severity
            diagnostics raise StaticAnalysisError before any budget is
            spent.
        engine_partitions: parallelism for map/reduce jobs per dataset
            partition.
    """

    epsilon: float = 0.1
    sample_size: int = 1000
    seed: int = 0
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    reuse_intermediate: bool = True
    validate_queries: bool = False
    strict: bool = False
    engine_partitions: int = 2
    #: 'laplace' (paper) or 'gaussian' ((eps, delta)-DP extension; the
    #: L1 range width is used as a conservative L2 bound).
    mechanism: str = "laplace"
    #: delta for the Gaussian mechanism.
    delta: float = 1e-6
    #: return the cached released answer when the *same* query is
    #: resubmitted over the *same* dataset (costs no extra budget and
    #: leaks nothing new — the paper's section VI-E reuse idea).
    answer_cache: bool = False

    def __post_init__(self) -> None:
        if self.mechanism not in ("laplace", "gaussian"):
            raise DPError(f"unknown mechanism {self.mechanism!r}")


@dataclass
class UPAResult:
    """Everything one UPA run produced.

    ``noisy_output`` is what a data analyst receives; all other fields
    exist for evaluation and must not be released under DP.
    """

    noisy_output: np.ndarray
    raw_output: np.ndarray
    plain_output: np.ndarray
    #: range width used to calibrate the mechanism's noise (guaranteed
    #: upper bound after RANGE ENFORCER's clamping).
    local_sensitivity: float
    #: Definition II.1 estimate reported in the Fig. 2(a) comparison.
    estimated_local_sensitivity: float
    inferred_range: InferredRange
    removal_outputs: np.ndarray
    addition_outputs: np.ndarray
    partition_outputs: Tuple[np.ndarray, np.ndarray]
    enforcement: EnforcementResult
    epsilon: float
    sample_size: int
    elapsed_seconds: float
    metrics: MetricsSnapshot

    @property
    def neighbour_outputs(self) -> np.ndarray:
        return np.vstack([self.removal_outputs, self.addition_outputs])

    def noisy_scalar(self) -> float:
        return float(np.asarray(self.noisy_output).reshape(-1)[0])


@dataclass
class _ReducedRun:
    """Everything the shared run/infer_sensitivity preamble produces."""

    state: "_PipelineState"
    removal: np.ndarray
    addition: np.ndarray
    plain: np.ndarray
    population: int
    sample: PartitionedSample

    @property
    def neighbours(self) -> np.ndarray:
        return np.vstack([self.removal, self.addition])


class _PipelineState:
    """Mutable reduce-side state shared with RANGE ENFORCER's callbacks.

    ``mapped_samples`` is a *batch* in the query's batched-monoid
    layout (see :class:`~repro.core.query.MapReduceQuery`); all folds
    go through the batched protocol so vectorized kernels apply to the
    enforcement callbacks too.
    """

    def __init__(self, query: MapReduceQuery, aux: Any,
                 r_sprime_parts: List[Any], mapped_samples: Any,
                 sample_partitions: List[int], rng: random.Random):
        self._query = query
        self._aux = aux
        self._r_sprime_parts = r_sprime_parts
        self._mapped = mapped_samples
        self._parts = list(sample_partitions)
        self._rng = rng

    def _fold_samples_in(self, partition: int) -> Any:
        query = self._query
        indices = [i for i, p in enumerate(self._parts) if p == partition]
        return query.fold_batch(query.batch_select(self._mapped, indices))

    def partition_outputs(self) -> Tuple[np.ndarray, np.ndarray]:
        query = self._query
        aggs = [
            query.combine(self._r_sprime_parts[p], self._fold_samples_in(p))
            for p in range(2)
        ]
        outs = query.finalize_batch(query.batch_stack(aggs), self._aux)
        return (np.asarray(outs[0]), np.asarray(outs[1]))

    def final_aggregate(self) -> Any:
        query = self._query
        agg = query.combine(self._r_sprime_parts[0], self._r_sprime_parts[1])
        return query.combine(agg, query.fold_batch(self._mapped))

    def final_output(self) -> np.ndarray:
        return self._query.finalize(self.final_aggregate(), self._aux)

    def remove_two_records(self) -> bool:
        query = self._query
        if query.batch_length(self._mapped) < 2:
            return False
        keep = list(range(query.batch_length(self._mapped)))
        for _ in range(2):
            idx = self._rng.randrange(len(keep))
            del keep[idx]
            del self._parts[idx]
        self._mapped = query.batch_select(self._mapped, keep)
        return True


#: records per cached element block.  Blocks use *absolute* record
#: indexing (index since the session first saw the table), so retire()
#: — a prefix deletion — leaves every untouched block addressable and
#: only boundary blocks are remapped.
_INCR_BLOCK_RECORDS = 4096


class _IncrementalState:
    """Bookkeeping the append()/retire() fast path carries between runs.

    One instance describes the *last* submission: which query ran over
    which table object, the content-hash partition id of every record
    (so only appended records are fingerprinted), and the block-store
    namespace holding the cached ``map_record`` element blocks.  The
    per-run sample S is redrawn every release, so per-partition
    *aggregates* are never reusable — the cache instead holds the
    mapped elements and replays the identical fold, which is what makes
    an incremental release bitwise-equal to a cold one.
    """

    __slots__ = (
        "query", "tables", "records", "expected_len", "partition_ids",
        "base_offset", "cache_rdd_id", "epoch", "block_records", "primed",
    )

    def __init__(
        self,
        query: MapReduceQuery,
        tables: Tables,
        records: List[Any],
        partition_ids: List[int],
        cache_rdd_id: int,
    ):
        self.query = query
        self.tables = tables
        #: the live protected-table list, identity-checked each run so
        #: any mutation outside append()/retire() forces a cold run.
        self.records = records
        self.expected_len = len(records)
        self.partition_ids = partition_ids
        #: absolute index of records[0] (grows with every retire()).
        self.base_offset = 0
        self.cache_rdd_id = cache_rdd_id
        #: engine cache epoch the blocks were written under; a mismatch
        #: (stop(), backend switch, worker respawn) invalidates them.
        self.epoch: Any = None
        self.block_records = _INCR_BLOCK_RECORDS
        #: set by the first append()/retire(); plain repeated run()
        #: calls stay on the cold path so their cost profile is
        #: unchanged.
        self.primed = False

    def matches(self, query: MapReduceQuery, tables: Tables) -> bool:
        """True iff this state still describes the submission."""
        records = tables.get(query.protected_table)
        return (
            query is self.query
            and tables is self.tables
            and records is self.records
            and len(records) == self.expected_len
        )


class UPASession:
    """Runs queries under epsilon-iDP with automatically inferred sensitivity.

    Example:
        >>> from repro.tpch import TPCHConfig, TPCHGenerator, query_by_name
        >>> tables = TPCHGenerator(TPCHConfig(scale_rows=2000)).generate()
        >>> session = UPASession()
        >>> result = session.run(query_by_name("tpch1"), tables, epsilon=0.5)
        >>> result.local_sensitivity >= 0
        True
    """

    def __init__(
        self,
        config: Optional[UPAConfig] = None,
        engine: Optional[EngineContext] = None,
        enforcer: Optional[RangeEnforcer] = None,
        accountant: Optional[PrivacyAccountant] = None,
        tracer: Optional[Tracer] = None,
        ledger: Optional[PrivacyLedger] = None,
    ):
        self.config = config or UPAConfig()
        self.engine = engine or EngineContext(
            EngineConfig(default_parallelism=self.config.engine_partitions)
        )
        # Explicit None check: an empty RangeEnforcer is falsy (__len__),
        # and a caller-supplied registry must never be silently replaced.
        if enforcer is None:
            enforcer = RangeEnforcer(
                rng=make_rng(self.config.seed, "range-enforcer")
            )
        self.enforcer = enforcer
        self.accountant = accountant
        #: None = follow the ambient tracer (repro.obs.tracing.get_tracer),
        #: so `with use_tracer(t):` observes existing sessions too.
        self._tracer = tracer
        #: privacy audit ledger; None = no auditing.
        self.ledger = ledger
        self._run_counter = 0
        self._answer_cache: dict = {}
        #: last-run bookkeeping backing append()/retire(); None until
        #: the first run() completes.
        self._incr: Optional[_IncrementalState] = None
        #: stats of the last release's incremental phase (None when the
        #: release ran cold); surfaced through the ledger header.
        self._last_incremental: Optional[dict] = None
        #: query classes already cleared by the strict-mode static gate.
        self._lint_cleared: set = set()
        #: alert engine wired by serve() (or attach_alerts()); None
        #: until then.
        self.alert_engine = None
        #: live introspection server, if serve() started one.
        self.obs_server = None
        #: metric time-series store wired by serve() (or
        #: attach_timeseries()); None until then.
        self.timeseries = None

    @property
    def tracer(self) -> Tracer:
        """The effective tracer: explicit if given, else the ambient one."""
        return self._tracer if self._tracer is not None else get_tracer()

    def attach_alerts(self, engine=None):
        """Wire an alert engine to this session's time-series store.

        With no argument, builds one over the default rules (budget
        burn, sensitivity drift, clamp rate, worker health).  The rules
        read the store, so this attaches one if none is yet (without a
        sampler thread: every release ticks it, so every release is
        one evaluation point).  Firings then land in the ledger header,
        the live ``/healthz`` endpoint, and the CLI's exit summary.
        Idempotent: a second call returns the already-attached engine.
        """
        from repro.obs.alerts import AlertEngine

        if self.alert_engine is not None:
            return self.alert_engine
        self.alert_engine = engine if engine is not None else AlertEngine()
        if self.ledger is not None:
            self.alert_engine.attach(self.ledger)
        self.alert_engine.attach_timeseries(
            self.attach_timeseries(alerts=False))
        return self.alert_engine

    def attach_timeseries(self, store=None, *, interval: float = 1.0,
                          start: bool = False, alerts: bool = True):
        """Wire a metric time-series store to this session.

        With no argument, builds a
        :class:`~repro.obs.timeseries.TimeSeriesStore` over the engine
        registry.  Every release then ticks the store (so an
        ``append``/``retire`` loop grows real time series) and — with
        ``alerts`` (the default) — the alert rules evaluate on each
        tick (:meth:`attach_alerts`).  ``start=True`` also starts the
        daemon sampler thread, which keeps sampling between releases;
        the engine's :meth:`~repro.engine.context.EngineContext.stop`
        stops it.  Idempotent: a second call returns the
        already-attached store (starting its sampler if newly asked
        to).
        """
        from repro.obs.timeseries import TimeSeriesStore

        if self.timeseries is None:
            if store is None:
                store = TimeSeriesStore(self.engine.metrics,
                                        interval=interval)
            self.engine.install_timeseries(store)
            self.timeseries = store
        if alerts:
            self.attach_alerts()
        if start:
            self.timeseries.start()
        return self.timeseries

    def serve(self, port: int = 0, host: str = "127.0.0.1",
              alerts: bool = True, profiler=None,
              timeseries: bool = True, timeseries_interval: float = 1.0):
        """Start live monitoring endpoints over this session.

        Wires everything the session owns — engine metrics, the
        effective tracer, the privacy ledger, the accountant, an alert
        engine (built via :meth:`attach_alerts` unless ``alerts`` is
        False), a time-series store with a running sampler (built via
        :meth:`attach_timeseries` unless ``timeseries`` is False; it
        backs ``/timeseries`` and ``/dashboard``) and an optional
        :class:`~repro.obs.profiler.SamplingProfiler` — into one
        :class:`~repro.obs.server.ObservabilityServer`.  ``port=0``
        binds an ephemeral port; read ``.url`` off the returned server.
        Stop it with ``session.obs_server.stop()`` (or let the daemon
        thread die with the process).
        """
        from repro.obs.tracing import NULL_TRACER

        if self.obs_server is not None:
            return self.obs_server
        store = None
        if timeseries:
            store = self.attach_timeseries(
                interval=timeseries_interval, alerts=alerts, start=True,
            )
        engine = self.attach_alerts() if alerts else None
        tracer = self.tracer
        self.obs_server = self.engine.serve(
            port=port, host=host,
            tracer=tracer if tracer is not NULL_TRACER else None,
            ledger=self.ledger,
            accountants=(
                {"session": self.accountant}
                if self.accountant is not None else None
            ),
            alerts=engine,
            profiler=profiler,
            timeseries=store,
        )
        return self.obs_server

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        query: MapReduceQuery,
        tables: Tables,
        epsilon: Optional[float] = None,
    ) -> UPAResult:
        """Answer ``query`` on ``tables`` under epsilon-iDP."""
        epsilon = epsilon if epsilon is not None else self.config.epsilon
        if epsilon <= 0 or not math.isfinite(epsilon):
            raise DPError(
                f"epsilon must be positive and finite, got {epsilon}"
            )
        if self.config.strict:
            self._static_gate(query)
        if self.config.validate_queries or self.config.strict:
            query.validate_monoid(tables)
        tracer = self.tracer
        if tracer.enabled and self.engine.tracer is NULL_TRACER:
            # Auto-wire the engine (scheduler spans + job listener) so
            # one tracer sees the pipeline end to end.
            self.engine.install_tracer(tracer)
        self._last_incremental = None
        cache_key = None
        if self.config.answer_cache:
            cache_key = self._cache_key(query, tables, epsilon)
            cached = self._answer_cache.get(cache_key)
            if cached is not None:
                self.engine.metrics.incr("answer_cache_hits")
                self._observe_release(query, cached, 0.0, 0.0,
                                      cache_hit=True)
                return cached
        delta = self.config.delta if self.config.mechanism == "gaussian" else 0.0
        if self.accountant is not None:
            self.accountant.charge(epsilon, delta=delta, label=query.name)

        metrics_before = self.engine.metrics.snapshot()

        run_span = (
            tracer.span(
                "upa.run", query=query.name, epsilon=epsilon,
                sample_size=self.config.sample_size,
                mechanism=self.config.mechanism,
            )
            if tracer.enabled
            else NULL_SPAN
        )
        with run_span, Timer() as timer:
            reduced = self._sample_and_reduce(query, tables)
            neighbours = reduced.neighbours
            with tracer.span("phase:inference") if tracer.enabled \
                    else NULL_SPAN as inference_span:
                inferred = infer_output_range(
                    neighbours, reduced.population, self.config.inference
                )
                estimated_ls = infer_local_sensitivity(
                    neighbours, reduced.plain, reduced.population,
                    self.config.inference,
                )
                inference_span.set_attribute(
                    "local_sensitivity", inferred.local_sensitivity
                )
                inference_span.set_attribute(
                    "neighbour_outputs", int(neighbours.shape[0])
                )
            with tracer.span("phase:noise") if tracer.enabled \
                    else NULL_SPAN as noise_span:
                partition_outputs = reduced.state.partition_outputs()
                enforcement = self.enforcer.enforce(reduced.state, inferred)
                noisy = self._randomize(
                    enforcement.output, inferred.local_sensitivity, epsilon
                )
                noise_span.set_attribute("clamped", enforcement.clamped)
                noise_span.set_attribute(
                    "records_removed", enforcement.records_removed
                )

        metrics = self.engine.metrics.snapshot().diff(metrics_before)
        result = UPAResult(
            noisy_output=np.asarray(noisy, dtype=float).reshape(-1),
            raw_output=enforcement.output,
            plain_output=reduced.plain,
            local_sensitivity=inferred.local_sensitivity,
            estimated_local_sensitivity=estimated_ls,
            inferred_range=inferred,
            removal_outputs=reduced.removal,
            addition_outputs=reduced.addition,
            partition_outputs=partition_outputs,
            enforcement=enforcement,
            epsilon=epsilon,
            sample_size=reduced.sample.sample_size,
            elapsed_seconds=timer.elapsed,
            metrics=metrics,
        )
        if cache_key is not None:
            self._answer_cache[cache_key] = result
        self._observe_release(query, result, epsilon, delta, cache_hit=False)
        return result

    def append(
        self,
        records: List[Any],
        epsilon: Optional[float] = None,
    ) -> UPAResult:
        """Grow the last run's protected table and release a new answer.

        The appended records are added to the table submitted to the
        previous :meth:`run` and the same query is answered again over
        the grown dataset.  This is a *new release*: it charges a fresh
        ``epsilon`` through the accountant and ledger exactly like a
        cold run, and under fixed seeds the output is bitwise identical
        to re-running the query cold over the grown table.  What the
        incremental path saves is recomputation — cached content-hash
        partition ids and ``map_record`` element blocks mean only the
        appended records are fingerprinted and mapped (for queries with
        ``incremental_safe``; others recompute elements but still skip
        nothing else of the pipeline).
        """
        incr = self._require_incremental("append")
        new_records = list(records)
        if not new_records:
            raise DPError("append() needs at least one record")
        incr.records.extend(new_records)
        incr.partition_ids.extend(partition_of(r) for r in new_records)
        incr.expected_len = len(incr.records)
        incr.primed = True
        self.engine.metrics.incr(MetricsRegistry.INCR_APPENDS)
        return self.run(incr.query, incr.tables, epsilon)

    def retire(
        self,
        count: int,
        epsilon: Optional[float] = None,
    ) -> UPAResult:
        """Drop the ``count`` oldest records (sliding window) and release.

        The complement of :meth:`append`: the oldest ``count`` records
        leave the protected table and the query is answered again over
        the shrunk dataset, charging a fresh ``epsilon`` per release.
        Element blocks use absolute indexing, so only the block
        straddling the new window start is remapped.
        """
        incr = self._require_incremental("retire")
        if count <= 0:
            raise DPError(
                f"retire() count must be a positive int, got {count!r}"
            )
        if count >= len(incr.records):
            raise DPError(
                f"retire({count}) would empty the protected table "
                f"({len(incr.records)} records)"
            )
        del incr.records[:count]
        del incr.partition_ids[:count]
        incr.base_offset += count
        incr.expected_len = len(incr.records)
        incr.primed = True
        self.engine.metrics.incr(MetricsRegistry.INCR_RETIRES)
        return self.run(incr.query, incr.tables, epsilon)

    def _observe_release(
        self,
        query: MapReduceQuery,
        result: UPAResult,
        epsilon_charged: float,
        delta: float,
        *,
        cache_hit: bool,
    ) -> None:
        """Audit one release and fold it into the metrics and time series.

        Runs after the result (and its per-run metrics diff) is fully
        built, so these series never appear inside a run's own
        ``result.metrics`` window.  The final tick pushes the fresh
        values into the attached time-series store, whose listeners
        evaluate the alert rules — this is what makes every release an
        alert-evaluation point.  Pure observation: nothing here touches
        the RNG or the pipeline, so DP outputs are bitwise identical
        with or without it.
        """
        spent = remaining = None
        if self.accountant is not None:
            spent = float(self.accountant.spent()[0])
            remaining = float(self.accountant.remaining_epsilon())
        self._record_ledger(
            query, result, epsilon_charged=epsilon_charged, delta=delta,
            cache_hit=cache_hit, spent=spent, remaining=remaining,
        )
        enforcement = result.enforcement
        record_release(
            self.engine.metrics,
            query=query.name,
            epsilon_charged=epsilon_charged,
            cache_hit=cache_hit,
            clamped=enforcement.clamped,
            records_removed=enforcement.records_removed,
            local_sensitivity=result.local_sensitivity,
            remaining_epsilon=remaining,
            spent_epsilon=spent,
        )
        if self.timeseries is not None:
            self.timeseries.tick()

    def _require_incremental(self, op: str) -> "_IncrementalState":
        incr = self._incr
        if incr is None:
            raise DPError(
                f"{op}() requires a completed run() on this session first"
            )
        table = incr.tables.get(incr.query.protected_table)
        if table is not incr.records or len(table) != incr.expected_len:
            raise DPError(
                f"{op}(): the protected table changed outside "
                "append()/retire(); submit it through run() again"
            )
        return incr

    def _record_ledger(
        self,
        query: MapReduceQuery,
        result: UPAResult,
        *,
        epsilon_charged: float,
        delta: float,
        cache_hit: bool,
        spent: Optional[float],
        remaining: Optional[float],
    ) -> None:
        """Append one audit entry for a release (or cached re-release)."""
        ledger = self.ledger
        if ledger is None:
            return
        metrics = self.engine.metrics
        ledger.ensure_header(run_header(
            epsilon=self.config.epsilon,
            sample_size=self.config.sample_size,
            seed=self.config.seed,
            mechanism=self.config.mechanism,
        ))
        # The CLI pre-fills the header at construction, so these
        # counters must be refreshed on every release, not ensure'd.
        # The execution backend travels in the header too: an audit of
        # a processes-backend run must be distinguishable from a
        # threads run (the DP outputs are bitwise identical, the
        # operational story is not).
        incremental = self._last_incremental
        ledger.update_header(
            sql_plan_cache_hits=int(
                metrics.get(MetricsRegistry.SQL_PLAN_CACHE_HITS)
            ),
            sql_plan_cache_misses=int(
                metrics.get(MetricsRegistry.SQL_PLAN_CACHE_MISSES)
            ),
            sql_plan_cache_evictions=int(
                metrics.get(MetricsRegistry.SQL_PLAN_CACHE_EVICTIONS)
            ),
            backend=self.engine.scheduler.backend,
            max_workers=self.engine.config.max_workers,
            incremental=incremental is not None,
            incremental_blocks_reused=(
                int(incremental["blocks_reused"]) if incremental else 0
            ),
            incremental_partitions_recomputed=(
                int(incremental["blocks_recomputed"]) if incremental else 0
            ),
            incremental_delta_fraction=(
                float(incremental["delta_fraction"]) if incremental else 0.0
            ),
        )
        inferred = result.inferred_range
        enforcement = result.enforcement
        ledger.append(make_entry(
            sequence=ledger.next_sequence(),
            query=query.name,
            epsilon_charged=epsilon_charged,
            delta=delta,
            mechanism=self.config.mechanism,
            sample_size=result.sample_size,
            mean=inferred.mean,
            std=inferred.std,
            lower=inferred.lower,
            upper=inferred.upper,
            local_sensitivity=result.local_sensitivity,
            estimated_local_sensitivity=result.estimated_local_sensitivity,
            clamped=enforcement.clamped,
            matched_prior=enforcement.matched_prior,
            records_removed=enforcement.records_removed,
            accountant_spent_epsilon=spent,
            accountant_remaining_epsilon=remaining,
            cache_hit=cache_hit,
            elapsed_seconds=result.elapsed_seconds,
        ))

    def _static_gate(self, query: MapReduceQuery) -> None:
        """Strict mode: upalint's purity + taint passes at registration.

        Runs once per (query class, name); error-severity diagnostics
        abort the submission before any budget is charged.  Imported
        lazily — the analyzer depends on nothing in this module, but
        sessions should not pay its import cost unless strict.
        """
        key = (type(query).__module__, type(query).__qualname__,
               query.name)
        if key in self._lint_cleared:
            return
        from repro.common.errors import StaticAnalysisError
        from repro.staticcheck import (
            Severity,
            check_query,
            check_query_taint,
            render_text,
        )

        diagnostics = check_query(query)
        diagnostics.extend(check_query_taint(query))
        errors = [
            d for d in diagnostics if d.severity == Severity.ERROR
        ]
        if errors:
            raise StaticAnalysisError(
                f"query {query.name!r} failed static analysis "
                f"({len(errors)} error(s)):\n{render_text(errors)}",
                errors,
            )
        self._lint_cleared.add(key)

    @staticmethod
    def _cache_key(query: MapReduceQuery, tables: Tables,
                   epsilon: float) -> tuple:
        """Identity of a submission: query name + dataset fingerprint.

        Releasing the *same* noisy answer for the same submission is
        standard DP practice (no new information leaves the curator).
        Two queries with the same name but different logic would collide
        — names are unique in the workload registry, and ad-hoc queries
        get their SQL text as the name.
        """
        from repro.core.sampling import record_fingerprint

        dataset_print = (
            len(tables[query.protected_table]),
            sum(
                record_fingerprint(r) for r in tables[query.protected_table]
            ),
        )
        return (query.name, epsilon, dataset_print)

    def run_sql(
        self,
        sql_text: str,
        tables: Tables,
        protected_table: str,
        epsilon: Optional[float] = None,
        domain_sampler=None,
    ) -> UPAResult:
        """Answer a SQL counting/sum query under epsilon-iDP.

        The query text is parsed, checked for linearity in
        ``protected_table``, compiled into a Mapper/Reducer form by
        :mod:`repro.core.sqlbridge`, and run through the ordinary
        pipeline — the paper's "no query modification" workflow.
        """
        from repro.core.sqlbridge import compile_sql

        query = compile_sql(
            sql_text, tables, protected_table, domain_sampler=domain_sampler,
            engine=self.engine,
        )
        return self.run(query, tables, epsilon)

    def run_vanilla(self, query: MapReduceQuery, tables: Tables
                    ) -> Tuple[np.ndarray, float]:
        """Evaluate the query on the engine with no privacy machinery.

        The Fig. 2(b)/4 baselines normalize UPA's time against this.
        """
        with Timer() as timer:
            aux = query.build_aux(tables)
            aux_b = self.engine.broadcast(aux)
            rdd = self.engine.parallelize(
                tables[query.protected_table],
                max(2, self.config.engine_partitions),
            )
            agg = rdd.map(
                lambda r, _q=query, _a=aux_b: _q.map_record(r, _a.value)
            ).aggregate(query.zero(), query.combine, query.combine)
            output = query.finalize(agg, aux)
        return output, timer.elapsed

    def infer_sensitivity(
        self, query: MapReduceQuery, tables: Tables
    ) -> InferredRange:
        """Sensitivity inference only (no enforcement, no noise).

        Used by the accuracy benchmarks; does not register the query
        with RANGE ENFORCER and spends no budget.
        """
        reduced = self._sample_and_reduce(query, tables)
        return infer_output_range(
            reduced.neighbours, reduced.population, self.config.inference
        )

    def _sample_and_reduce(self, query: MapReduceQuery,
                           tables: Tables) -> _ReducedRun:
        """Shared preamble of :meth:`run` and :meth:`infer_sensitivity`.

        Draws the per-run RNG, partitions & samples, builds aux, and
        runs the union-preserving reduce phase.
        """
        self._run_counter += 1
        tracer = self.tracer
        rng = make_rng(self.config.seed, f"upa-run-{self._run_counter}")
        incr = self._incr
        use_incr = (
            incr is not None
            and incr.primed
            and self.config.reuse_intermediate
            and incr.matches(query, tables)
        )
        if incr is not None and incr.primed and not use_incr:
            # The cached state no longer describes this submission
            # (different query, externally mutated table, or the
            # no-reuse ablation): run cold and rebuild below.
            self.engine.metrics.incr(MetricsRegistry.INCR_INVALIDATIONS)
        with tracer.span(
            "phase:partition_sample", query=query.name,
            sample_size=self.config.sample_size,
        ) if tracer.enabled else NULL_SPAN as sample_span:
            sample = partition_and_sample(
                query, tables, self.config.sample_size, rng,
                partition_ids=incr.partition_ids if use_incr else None,
            )
            sample_span.set_attribute("sampled", sample.sample_size)
            sample_span.set_attribute("incremental", bool(use_incr))
        aux = query.build_aux(tables)
        remaining_elements = None
        self._last_incremental = None
        if use_incr:
            with tracer.span(
                "phase:incremental_delta", query=query.name,
            ) if tracer.enabled else NULL_SPAN as delta_span:
                remaining_elements, stats = self._incremental_elements(
                    incr, query, aux, sample
                )
                self._last_incremental = stats
                for key, value in stats.items():
                    delta_span.set_attribute(key, value)
        state, removal, addition, plain = self._reduce_phase(
            query, aux, sample, rng, remaining_elements
        )
        population = len(tables[query.protected_table]) + sample.sample_size
        self._remember_run(query, tables, sample)
        return _ReducedRun(
            state=state,
            removal=removal,
            addition=addition,
            plain=plain,
            population=population,
            sample=sample,
        )

    def _remember_run(
        self, query: MapReduceQuery, tables: Tables,
        sample: PartitionedSample,
    ) -> None:
        """Refresh append()/retire() bookkeeping after a run.

        A matching state continues (append() already maintained its
        partition ids); anything else — first run, new query, new
        tables — replaces the state and evicts the old element blocks.
        The partition ids were computed by this run regardless, so the
        cold path's cost profile is unchanged.
        """
        incr = self._incr
        if incr is not None and incr.matches(query, tables):
            return
        if incr is not None:
            self.engine.block_store.evict_rdd(incr.cache_rdd_id)
        self._incr = _IncrementalState(
            query, tables, tables[query.protected_table],
            sample.partition_ids, self.engine.reserve_cache_id(),
        )

    def _incremental_elements(
        self,
        incr: "_IncrementalState",
        query: MapReduceQuery,
        aux: Any,
        sample: PartitionedSample,
    ) -> Tuple[Tuple[List[Any], List[Any]], dict]:
        """Assemble the mapped elements of S' from cached blocks.

        Element blocks live in the engine's block store, keyed by
        ``(cache namespace, absolute block index)`` and tagged with the
        engine's :meth:`~repro.engine.context.EngineContext.cache_epoch`
        — a block written before a backend switch, worker respawn or
        ``stop()`` reads as a miss and is remapped, never merged stale.
        Only ``incremental_safe`` queries reuse blocks; others (aux
        reads the protected table, so old elements may be wrong under
        the new aux) remap everything each release, which still yields
        the bitwise-identical answer, just without the speedup.
        """
        engine = self.engine
        metrics = engine.metrics
        store = engine.block_store
        records = incr.records
        cacheable = query.incremental_safe
        epoch = engine.cache_epoch()
        if incr.epoch is not None and epoch != incr.epoch:
            metrics.incr(MetricsRegistry.INCR_INVALIDATIONS)
        incr.epoch = epoch
        base = incr.base_offset
        total = len(records)
        size = incr.block_records
        elements: List[Any] = []
        hits = misses = reused = mapped = 0
        for b in range(base // size, (base + total - 1) // size + 1):
            lo = max(b * size, base)
            hi = min((b + 1) * size, base + total)
            key = (incr.cache_rdd_id, b)
            stored = store.get_tagged(key, epoch) if cacheable else None
            if stored is not None:
                abs_start, cached = stored
                covered = abs_start + len(cached)
                if abs_start <= lo and covered >= hi:
                    elements.extend(cached[lo - abs_start:hi - abs_start])
                    hits += 1
                    reused += hi - lo
                    continue
                if abs_start <= lo < covered:
                    # Tail block grown by append(): reuse the cached
                    # prefix, map only the new records.
                    elements.extend(cached[lo - abs_start:])
                    fresh = [
                        query.map_record(records[i - base], aux)
                        for i in range(covered, hi)
                    ]
                    elements.extend(fresh)
                    reused += covered - lo
                    mapped += hi - covered
                    misses += 1
                    store.put_tagged(key, epoch, (abs_start, cached + fresh))
                    continue
            misses += 1
            fresh = [
                query.map_record(records[i - base], aux)
                for i in range(lo, hi)
            ]
            mapped += hi - lo
            elements.extend(fresh)
            if cacheable:
                store.put_tagged(key, epoch, (lo, fresh))
        metrics.incr(MetricsRegistry.INCR_BLOCK_HITS, hits)
        metrics.incr(MetricsRegistry.INCR_BLOCK_MISSES, misses)
        metrics.incr(MetricsRegistry.INCR_RECORDS_REUSED, reused)
        metrics.incr(MetricsRegistry.INCR_RECORDS_MAPPED, mapped)
        delta_fraction = mapped / total if total else 0.0
        metrics.set_gauge(MetricsRegistry.INCR_DELTA_FRACTION, delta_fraction)

        # Split into the S' element lists, mirroring how
        # partition_and_sample splits the records themselves — same
        # order, same partitions, minus the sampled indices.
        sampled_set = set(sample.sampled_indices)
        remaining: Tuple[List[Any], List[Any]] = ([], [])
        for i, pid in enumerate(sample.partition_ids):
            if i not in sampled_set:
                remaining[pid].append(elements[i])
        stats = {
            "blocks_reused": hits,
            "blocks_recomputed": misses,
            "records_reused": reused,
            "records_mapped": mapped,
            "delta_fraction": delta_fraction,
        }
        return remaining, stats

    def _randomize(self, value, sensitivity: float, epsilon: float):
        """Noise the output with the configured mechanism.

        A fresh mechanism per run keeps noise reproducible from
        (seed, run counter) regardless of earlier calls.
        """
        seed = derive_seed(self.config.seed, f"noise-{self._run_counter}")
        if self.config.mechanism == "gaussian":
            mechanism = GaussianMechanism(
                epsilon=epsilon, delta=self.config.delta, seed=seed
            )
            return mechanism.randomize(value, sensitivity)
        mechanism = LaplaceMechanism(epsilon=epsilon, seed=seed)
        return mechanism.randomize(value, sensitivity)

    # ------------------------------------------------------------------
    # Phases 2 + 3
    # ------------------------------------------------------------------

    def _reduce_phase(
        self,
        query: MapReduceQuery,
        aux: Any,
        sample: PartitionedSample,
        rng: random.Random,
        remaining_elements: Optional[Tuple[List[Any], List[Any]]] = None,
    ) -> Tuple[_PipelineState, np.ndarray, np.ndarray, np.ndarray]:
        tracer = self.tracer
        metrics = self.engine.metrics
        with tracer.span("phase:map", query=query.name) if tracer.enabled \
                else NULL_SPAN:
            mapper = None

            # Parallel Map + per-partition reduce of S' (ReduceByPar,
            # Alg.1 l.7).
            r_sprime_parts: List[Any] = []
            if remaining_elements is not None:
                # Incremental fast path: S' is already mapped (cached
                # element blocks).  Feeding the elements through the
                # same parallelize + aggregate pipeline reproduces the
                # cold run's partition slicing and fold order exactly,
                # so the per-partition aggregates are bitwise equal.
                for p in range(2):
                    rdd = self.engine.parallelize(
                        remaining_elements[p],
                        max(1, self.config.engine_partitions),
                    )
                    r_sprime_parts.append(
                        rdd.aggregate(query.zero(), query.combine,
                                      query.combine)
                    )
            else:
                aux_b = self.engine.broadcast(aux)
                mapper = _RecordMapper(query, aux_b)
                for p in range(2):
                    rdd = self.engine.parallelize(
                        sample.remaining[p],
                        max(1, self.config.engine_partitions),
                    )
                    r_sprime_parts.append(
                        rdd.map(mapper).aggregate(query.zero(), query.combine,
                                                  query.combine)
                    )
            r_sprime = query.combine(r_sprime_parts[0], r_sprime_parts[1])

            # S and S-bar are small (n records each) and already live on
            # the driver, so they go through the batched mapper directly —
            # one vectorized call instead of an engine round-trip per
            # batch.
            mapped_s = query.map_batch(sample.sampled, aux)
            mapped_sbar = query.map_batch(sample.domain_samples, aux)
        metrics.observe(
            MetricsRegistry.NEIGHBOUR_BATCH, query.batch_length(mapped_s)
        )
        metrics.observe(
            MetricsRegistry.NEIGHBOUR_BATCH, query.batch_length(mapped_sbar)
        )

        with tracer.span(
            "phase:reduce", reuse_intermediate=self.config.reuse_intermediate,
        ) if tracer.enabled else NULL_SPAN:
            fold_s = query.fold_batch(mapped_s)
            f_x_agg = query.combine(r_sprime, fold_s)
            plain = query.finalize(f_x_agg, aux)

            if self.config.reuse_intermediate:
                removal = self._removal_outputs_reused(
                    query, aux, r_sprime, mapped_s
                )
            else:
                removal = self._removal_outputs_naive(
                    query, aux, sample, mapped_s, mapper
                )
            if query.batch_length(mapped_sbar) > 0:
                addition = np.asarray(
                    query.finalize_batch(
                        query.combine_batch(f_x_agg, mapped_sbar), aux
                    ),
                    dtype=float,
                )
            else:
                addition = np.empty((0, query.output_dim))

        state = _PipelineState(
            query, aux, r_sprime_parts, mapped_s,
            sample.sampled_partitions, rng,
        )
        return state, removal, addition, plain

    def _removal_outputs_reused(
        self, query: MapReduceQuery, aux: Any, r_sprime: Any,
        mapped_s: Any,
    ) -> np.ndarray:
        """o_i = finalize(R(S') + fold(S - s_i)) via prefix/suffix folds.

        ``mapped_s`` is a batch; the all-but-one folds, the combine with
        R(S') and the n finalizations all run through the query's
        batched kernels (vectorized for the built-in workloads).
        """
        n = query.batch_length(mapped_s)
        if n == 0:
            return np.empty((0, query.output_dim))
        all_but_one = query.prefix_suffix_batch(mapped_s)
        outputs = query.finalize_batch(
            query.combine_batch(r_sprime, all_but_one), aux
        )
        return np.asarray(outputs, dtype=float)

    def _removal_outputs_naive(
        self, query: MapReduceQuery, aux: Any, sample: PartitionedSample,
        mapped_s: Any, mapper,
    ) -> np.ndarray:
        """Ablation: re-reduce the whole dataset for every neighbour.

        Mapping is still done once (the reuse claim is about the
        *reduce* side); each neighbour re-folds all |x| - 1 elements —
        deliberately through the scalar monoid, element by element, to
        measure what the union-preserving reuse (and its batched
        kernels) buys.
        """
        all_mapped = []
        for p in range(2):
            rdd = self.engine.parallelize(
                sample.remaining[p], max(1, self.config.engine_partitions)
            )
            all_mapped.extend(rdd.map(mapper).collect())
        base_count = len(all_mapped)
        all_mapped.extend(query.iter_batch(mapped_s))
        rows = []
        for i in range(len(all_mapped) - base_count):
            skip = base_count + i
            agg = query.fold(
                m for j, m in enumerate(all_mapped) if j != skip
            )
            rows.append(query.finalize(agg, aux))
        if not rows:
            return np.empty((0, query.output_dim))
        return np.vstack(rows)
