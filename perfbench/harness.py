"""Closed-loop runner, correctness oracle and metric assembly.

End-to-end metrics come from untraced runs only, and their timings are
reported at reference speed (see ``speed.py``).  A traced run (``--trace
1``) alternates whole cycles of untraced and traced releases: the
untraced ones give the baseline for ``trace.overhead_frac``, the traced
ones the per-layer spans.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import DPError, PrivacyBudgetExceeded
from repro.core import session as session_mod
from repro.core import sampling, sqlbridge
from repro.core.range_enforcer import RangeEnforcer
from repro.dp import PrivacyAccountant
from repro.dp.mechanisms import LaplaceMechanism
from repro.engine.metrics import MetricsRegistry
from repro.engine.rdd import RDD
from repro.obs.alerts import AlertEngine
from repro.obs.ledger import PrivacyLedger
from repro.obs.timeseries import TimeSeriesStore

from speed import local_scales, probe, probes, speed_scale
from spans import (
    END, NAME, START, Patches, SpanRecorder, call_counts, layer_totals,
)
from stats import min_samples_for, tail_percentile
from suite import EPSILON, SAMPLE_SIZE, SESSION_RELEASES, WORKLOADS, Workload

#: the percentile reported as the tail latency.
TAIL_Q = 0.9
#: an untraced run keeps going past ``--seconds`` until the tail
#: percentile has enough samples beyond it.
MIN_RELEASES = min_samples_for(TAIL_Q)
#: set-up is repeated and its median reported.
SETUP_REPEATS = 3
#: speed probes taken before and again after each set-up.
SETUP_PROBES = 15
#: oracle tolerance on ``plain_output``.
RTOL = 1e-9

#: name, unit and direction of every end-to-end metric.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("releases_per_s", "1/s", "higher"),
    ("release_p50_ms", "ms", "lower"),
    ("release_p90_ms", "ms", "lower"),
    ("success_frac", "frac", "higher"),
    ("rel_noise_scale", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: end-to-end metrics that are timings, scaled to reference speed.
TIMINGS = ("setup_s", "releases_per_s", "release_p50_ms", "release_p90_ms")

#: span layer -> per-layer ``*_ms`` metric (self time per traced release).
LAYER_MS = {
    "sampling.fingerprint": "sampling.fingerprint_ms",
    "sampling.domain": "sampling.domain_ms",
    "sampling.split": "sampling.split_ms",
    "engine": "engine.busy_ms",
    "inference": "inference.busy_ms",
    "enforcer": "enforcer.busy_ms",
    "dp.noise": "dp.noise_ms",
    "dp.charge": "dp.charge_ms",
    "sql.compile": "sql.compile_ms",
    "obs.ledger": "obs.ledger_ms",
    "obs.tick": "obs.tick_ms",
    "obs.alert": "obs.alert_ms",
    "release": "session.self_ms",
}

#: name, unit and direction of every per-layer metric; times and
#: counts are per traced release.
PER_LAYER = [(name, "ms", "lower") for name in LAYER_MS.values()] + [
    ("sampling.fingerprint_us_per_record", "us", "lower"),
    ("sampling.records_fingerprinted", "count", "lower"),
    ("engine.jobs", "count", "lower"),
    ("engine.tasks", "count", "lower"),
    ("engine.records_read", "count", "lower"),
    ("enforcer.registry_size", "count", "lower"),
    ("enforcer.matched_frac", "frac", "lower"),
    ("enforcer.records_removed", "count", "lower"),
    ("enforcer.clamped_frac", "frac", "lower"),
    ("sql.plan_cache_hit_ratio", "ratio", "higher"),
    ("incremental.reuse_ratio", "ratio", "higher"),
    ("incremental.block_hits", "count", "higher"),
    ("session.unattributed_frac", "frac", "lower"),
    ("setup.datagen_s", "s", "lower"),
    ("trace.release_ms", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


def patch_targets(workload: Workload) -> List[Tuple[str, Any, Any, bool]]:
    """``(layer, owner, key, per_record)`` for every wrapped entry point.

    Each name is replaced where its caller looks it up: the session
    module imported ``partition_and_sample`` and the inference
    functions into its own namespace, so they are patched there.
    """
    targets = [
        ("sampling.fingerprint", sampling, "partition_of", True),
        ("sampling.fingerprint", session_mod, "partition_of", True),
        ("sampling.split", session_mod, "partition_and_sample", False),
        ("engine", RDD, "aggregate", False),
        ("engine", RDD, "collect", False),
        ("inference", session_mod, "infer_output_range", False),
        ("inference", session_mod, "infer_local_sensitivity", False),
        ("enforcer", RangeEnforcer, "enforce", False),
        ("dp.noise", LaplaceMechanism, "randomize", False),
        ("dp.charge", PrivacyAccountant, "charge", False),
        ("sql.compile", sqlbridge, "compile_sql", False),
        ("obs.ledger", PrivacyLedger, "append", False),
        ("obs.tick", TimeSeriesStore, "tick", False),
        ("obs.alert", AlertEngine, "observe_metrics", False),
        ("obs.alert", AlertEngine, "observe_window", False),
    ]
    targets += [
        ("sampling.domain", cls, "sample_domain_record", True)
        for cls in workload.domain_classes()
    ]
    return targets + workload.extra_patch_targets()


def install(patches: Patches, recorder: SpanRecorder,
            targets: List[Tuple[str, Any, Any, bool]]) -> None:
    for layer, owner, key, per_record in targets:
        wrap = recorder.wrap_per_record if per_record else recorder.wrap
        patches.replace(owner, key, lambda fn, _l=layer, _w=wrap: _w(_l, fn))


def oracle_errors(result: Any, expected: np.ndarray) -> List[str]:
    """Why a release is wrong; empty when it is right.

    Noisy values are never compared, only checked to be finite, so the
    check holds whatever the noise source.
    """
    errors = []
    plain = np.asarray(result.plain_output, dtype=float)
    if plain.shape != expected.shape or not np.allclose(
            plain, expected, rtol=RTOL, atol=0.0):
        errors.append(f"plain_output {plain} != reference {expected}")
    if not result.inferred_range.contains(result.raw_output):
        errors.append("raw_output outside inferred_range")
    if not np.all(np.isfinite(np.asarray(result.noisy_output, dtype=float))):
        errors.append("noisy_output not finite")
    if not result.local_sensitivity >= 0:
        errors.append(f"local_sensitivity {result.local_sensitivity} < 0")
    return errors


def noise_scale(result: Any) -> float:
    """(local_sensitivity / epsilon) / ||plain_output||_1."""
    norm = float(np.sum(np.abs(np.asarray(result.plain_output, dtype=float))))
    return (result.local_sensitivity / result.epsilon) / norm


def geometric_mean(values: List[float]) -> float:
    """Geometric mean; 0 if any value is 0 (a release without noise).

    Each query of a mix then weighs the same: an arithmetic mean over
    lineitem_adhoc is three-quarters tpch6, whose relative noise alone
    varies by a seventh between table seeds.
    """
    if min(values) <= 0.0:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


@dataclass
class LoopStats:
    """What one closed loop saw."""

    latencies: List[float] = field(default_factory=list)
    #: the release index of each entry of ``latencies``.
    latency_releases: List[int] = field(default_factory=list)
    traced_latencies: List[float] = field(default_factory=list)
    noise_scales: List[float] = field(default_factory=list)
    matched: int = 0
    clamped: int = 0
    records_removed: int = 0
    attempted: int = 0
    dp_errors: int = 0
    budget_refusals: int = 0
    mismatches: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    #: seconds of the speed probe taken after each release, by index.
    probes: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.dp_errors + self.budget_refusals + len(self.mismatches)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def run_loop(workload: Workload, seconds: float, min_releases: int,
             recorder: Optional[SpanRecorder] = None) -> LoopStats:
    """Submit releases back to back for ``seconds`` (whole cycles).

    The loop runs on past ``seconds`` until ``min_releases`` releases
    have succeeded, or until twice that many were attempted.  With a
    ``recorder``, odd cycles run with the wrappers installed and even
    cycles without.  A failed release is counted, never retried.  The
    benchmark's own work between releases (fresh rows, reference
    answers, a new session, the speed probe) is left out of ``wall_s``.
    """
    stats = LoopStats()
    before = workload.counters()
    patches = Patches()
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    prep_s = 0.0
    i = 0
    while not (i % workload.cycle == 0 and clock() >= deadline and (
            stats.completed >= min_releases
            or stats.attempted >= 2 * min_releases)):
        slot = i % workload.cycle
        traced = recorder is not None and (i // workload.cycle) % 2 == 1
        if slot == 0:
            patches.restore()
        t0 = clock()
        call, expected = workload.next_release(i)
        prep_s += clock() - t0
        if traced and slot == 0:
            install(patches, recorder, patch_targets(workload))
        stats.attempted += 1
        root = -1
        if traced:
            recorder.release = i
            root = recorder.begin("release")
        t0 = clock()
        try:
            result = call()
        except PrivacyBudgetExceeded:
            stats.budget_refusals += 1
            result = None
        except DPError:
            stats.dp_errors += 1
            result = None
        finally:
            elapsed = clock() - t0
            if traced:
                recorder.end(root)
        i += 1
        t0 = clock()
        stats.probes.append(probe())
        prep_s += clock() - t0
        if result is None:
            continue
        errors = oracle_errors(result, expected)
        if errors:
            stats.mismatches.append(f"release {i - 1}: " + "; ".join(errors))
            continue
        if traced:
            stats.traced_latencies.append(elapsed)
        else:
            stats.latencies.append(elapsed)
            stats.latency_releases.append(i - 1)
        stats.noise_scales.append(noise_scale(result))
        enforcement = result.enforcement
        stats.matched += bool(enforcement.matched_prior)
        stats.clamped += bool(enforcement.clamped)
        stats.records_removed += enforcement.records_removed
    patches.restore()
    stats.wall_s = clock() - start - prep_s
    after = workload.counters()
    stats.counters = {k: v - before.get(k, 0.0) for k, v in after.items()}
    return stats


@dataclass
class Setups:
    """Each set-up's seconds, its speed scale, and its table-generation time."""

    seconds: List[float] = field(default_factory=list)
    scales: List[float] = field(default_factory=list)
    datagen: List[float] = field(default_factory=list)


def setup_workload(name: str, seed: int) -> Tuple[Workload, Setups]:
    """Set the workload up ``SETUP_REPEATS`` times; keep the last one.

    Each set-up's speed scale comes from the probes taken just before
    and just after it.
    """
    setups = Setups()
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None  # let the previous set-up be freed first
        gc.collect()
        samples = probes(SETUP_PROBES)
        workload = WORKLOADS[name]()
        start = time.perf_counter()
        workload.setup(seed)
        setups.seconds.append(time.perf_counter() - start)
        setups.scales.append(speed_scale(samples + probes(SETUP_PROBES)))
        setups.datagen.append(workload.datagen_s)
    workload.build_references()
    return workload, setups


def end_to_end_metrics(stats: LoopStats, setups: Setups,
                       at_reference_speed: bool = True) -> Dict[str, float]:
    """The end-to-end metrics; wall-clock timings when not at reference speed.

    At reference speed each release time is scaled by the speed around
    it, and the loop's wall time by the latency-weighted mean of those
    scales.
    """
    if at_reference_speed:
        at = local_scales(stats.probes)
        scales = [at[i] for i in stats.latency_releases]
        setup_scales = setups.scales
    else:
        scales = [1.0] * len(stats.latencies)
        setup_scales = [1.0] * len(setups.seconds)
    latencies_ms = [t * 1000.0 * s for t, s in zip(stats.latencies, scales)]
    wall_scale = sum(latencies_ms) / (1000.0 * sum(stats.latencies))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(
            t * s for t, s in zip(setups.seconds, setup_scales)),
        "releases_per_s": stats.completed / (stats.wall_s * wall_scale),
        "release_p50_ms": statistics.median(latencies_ms),
        "release_p90_ms": tail_percentile(latencies_ms, TAIL_Q),
        "success_frac": stats.completed / stats.attempted,
        "rel_noise_scale": geometric_mean(stats.noise_scales),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(stats: LoopStats, recorder: SpanRecorder,
                      workload: Workload,
                      datagen_times: List[float]) -> Dict[str, float]:
    """Per-layer metrics; their times are wall-clock, not scaled."""
    spans = recorder.spans
    totals = layer_totals(spans)
    counts = call_counts(spans)
    traced = counts["release"]
    out = {metric: totals.get(layer, 0.0) * 1000.0 / traced
           for layer, metric in LAYER_MS.items()}
    release_ms = sum(
        s[END] - s[START] for s in spans if s[NAME] == "release"
    ) * 1000.0 / traced
    covered = sum(totals.values()) * 1000.0 / traced
    if abs(covered - release_ms) > 1e-6 * release_ms:
        raise RuntimeError(
            f"layers add up to {covered} ms of a {release_ms} ms release"
        )
    fingerprinted = counts.get("sampling.fingerprint", 0)
    c = stats.counters
    done = stats.completed
    reused = c.get(MetricsRegistry.INCR_RECORDS_REUSED, 0.0)
    mapped = c.get(MetricsRegistry.INCR_RECORDS_MAPPED, 0.0)
    hits = c.get(MetricsRegistry.SQL_PLAN_CACHE_HITS, 0.0)
    misses = c.get(MetricsRegistry.SQL_PLAN_CACHE_MISSES, 0.0)
    untraced_rps = _ratio(len(stats.latencies), sum(stats.latencies))
    traced_rps = _ratio(len(stats.traced_latencies),
                        sum(stats.traced_latencies))
    out.update({
        "sampling.fingerprint_us_per_record": _ratio(
            totals.get("sampling.fingerprint", 0.0) * 1e6, fingerprinted),
        "sampling.records_fingerprinted": fingerprinted / traced,
        "engine.jobs": c.get(MetricsRegistry.JOBS, 0.0) / stats.attempted,
        "engine.tasks": c.get(MetricsRegistry.TASKS, 0.0) / stats.attempted,
        "engine.records_read": c.get(MetricsRegistry.RECORDS_READ, 0.0)
        / stats.attempted,
        "enforcer.registry_size": float(len(workload.session.enforcer)),
        "enforcer.matched_frac": _ratio(stats.matched, done),
        "enforcer.records_removed": _ratio(stats.records_removed, done),
        "enforcer.clamped_frac": _ratio(stats.clamped, done),
        "sql.plan_cache_hit_ratio": _ratio(hits, hits + misses),
        "incremental.reuse_ratio": _ratio(reused, reused + mapped),
        "incremental.block_hits": c.get(MetricsRegistry.INCR_BLOCK_HITS, 0.0)
        / stats.attempted,
        "session.unattributed_frac": _ratio(out["session.self_ms"],
                                            release_ms),
        "setup.datagen_s": statistics.median(datagen_times),
        "trace.release_ms": release_ms,
        "trace.overhead_frac": 1.0 - _ratio(traced_rps, untraced_rps),
    })
    return out


def run_record(workload: Workload, seed: int, stats: LoopStats) -> dict:
    """What a baseline needs to be re-measured on the same footing."""
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "table_sizes": workload.table_sizes(),
        "sample_size": SAMPLE_SIZE,
        "epsilon": EPSILON,
        "releases": stats.attempted,
        "session_releases": SESSION_RELEASES,
        "traced_releases": len(stats.traced_latencies),
        "failed": stats.failed,
        "dp_errors": stats.dp_errors,
        "budget_refusals": stats.budget_refusals,
        "oracle_mismatches": len(stats.mismatches),
    }


def write_spans(recorder: SpanRecorder, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(recorder.to_json(), handle)
