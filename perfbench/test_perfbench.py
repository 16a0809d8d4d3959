"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import statistics
import types
from pathlib import Path

import numpy as np
import pytest

import run

run.program_on_path()

import harness  # noqa: E402
import speed  # noqa: E402
from spans import (  # noqa: E402
    Patches,
    SpanRecorder,
    call_counts,
    layer_totals,
    self_times,
    union_length,
)
from stats import (  # noqa: E402
    min_samples_for,
    quartile_spread,
    tail_percentile,
    valid_metric_name,
)
from suite import WORKLOADS  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


def _span(name, start, end, parent=-1, count=1):
    return [name, start, end, parent, 0, count]


# -- self time ---------------------------------------------------------------

def test_self_time_of_nested_spans_adds_up_to_the_root():
    spans = [
        _span("release", 0.0, 10.0),
        _span("sampling.split", 1.0, 5.0, parent=0),
        _span("sampling.fingerprint", 1.5, 3.5, parent=1),
        _span("engine", 6.0, 9.0, parent=0),
        _span("engine", 7.0, 8.0, parent=3),
    ]
    assert self_times(spans) == [3.0, 2.0, 2.0, 2.0, 1.0]
    totals = layer_totals(spans)
    assert totals == {"release": 3.0, "sampling.split": 2.0,
                      "sampling.fingerprint": 2.0, "engine": 3.0}
    assert sum(totals.values()) == 10.0


def test_overlapping_children_are_subtracted_once():
    spans = [
        _span("release", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),
    ]
    assert self_times(spans)[0] == 5.0
    assert union_length([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == 6.0
    assert union_length([]) == 0.0


def test_recorder_nests_spans_and_coalesces_per_record_calls():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    per_record = recorder.wrap_per_record("fp", lambda x: x)
    inner = recorder.wrap("split", lambda: [per_record(x) for x in range(3)])
    recorder.release = 7
    root = recorder.begin("release")
    assert inner() == [0, 1, 2]
    per_record(9)
    recorder.end(root)
    names = [(s[0], s[3], s[5]) for s in recorder.spans]
    assert names == [("release", -1, 1), ("split", 0, 1), ("fp", 1, 3),
                     ("fp", 0, 1)]
    assert call_counts(recorder.spans)["fp"] == 4
    assert all(s[4] == 7 for s in recorder.spans)
    totals = layer_totals(recorder.spans)
    release = recorder.spans[0]
    assert sum(totals.values()) == release[2] - release[1]


def test_patches_restore_module_class_and_list_names():
    module = types.SimpleNamespace(f=lambda: "module")

    class Base:
        def g(self):
            return "base"

    class Child(Base):
        pass

    slots = [lambda: "slot"]
    patches = Patches()
    patches.replace(module, "f", lambda fn: lambda: "wrapped " + fn())
    patches.replace(Child, "g", lambda fn: lambda self: "wrapped " + fn(self))
    patches.replace(slots, 0, lambda fn: lambda: "wrapped " + fn())
    assert (module.f(), Child().g(), slots[0]()) == (
        "wrapped module", "wrapped base", "wrapped slot")
    patches.restore()
    assert (module.f(), Child().g(), slots[0]()) == ("module", "base", "slot")
    assert "g" not in vars(Child)


# -- percentile rule ---------------------------------------------------------

def test_tail_percentile_leaves_ten_samples_beyond_it():
    assert min_samples_for(0.9) == 100
    rng = random.Random(3)
    for n in range(100, 400, 7):
        samples = [rng.random() for _ in range(n)]
        p90 = tail_percentile(samples, 0.9)
        assert sum(1 for s in samples if s > p90) >= 10
        assert p90 >= statistics.median(samples)


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile([float(i) for i in range(99)], 0.9)
    with pytest.raises(ValueError):
        tail_percentile([], 0.9)


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) > 0


def test_geometric_mean():
    assert harness.geometric_mean([0.01, 1.0]) == pytest.approx(0.1)
    assert harness.geometric_mean([0.5, 0.0]) == 0.0


# -- speed scaling -----------------------------------------------------------

def test_local_scales_follow_the_probes_around_each_release():
    ref = speed.REFERENCE_S
    probes = [2 * ref] * 3 + [ref] * 3
    assert speed.local_scales(probes, window=1) == [0.5] * 3 + [1.0] * 3


def test_timings_at_reference_speed_divide_out_a_slow_box():
    n = 100
    stats = harness.LoopStats(
        latencies=[0.05 + 0.001 * i for i in range(n)],
        latency_releases=list(range(n)),
        noise_scales=[0.1] * n,
        attempted=n,
        wall_s=10.0,
        probes=[2 * speed.REFERENCE_S] * n,
    )
    setups = harness.Setups(seconds=[1.0, 2.0, 3.0], scales=[0.5] * 3,
                            datagen=[0.1] * 3)
    scaled = harness.end_to_end_metrics(stats, setups)
    wall = harness.end_to_end_metrics(stats, setups, at_reference_speed=False)
    assert wall["releases_per_s"] == pytest.approx(10.0)
    assert wall["setup_s"] == 2.0
    for name in ("setup_s", "release_p50_ms", "release_p90_ms"):
        assert scaled[name] == pytest.approx(wall[name] / 2)
    assert scaled["releases_per_s"] == pytest.approx(20.0)
    assert scaled["rel_noise_scale"] == wall["rel_noise_scale"]


# -- correctness oracle ------------------------------------------------------

def _release(plain, raw=None, noisy=None, sensitivity=1.0, inside=True):
    return types.SimpleNamespace(
        plain_output=plain, raw_output=plain if raw is None else raw,
        noisy_output=plain if noisy is None else noisy,
        local_sensitivity=sensitivity,
        inferred_range=types.SimpleNamespace(contains=lambda _v: inside),
    )


def test_oracle_accepts_a_right_release_and_names_each_fault():
    ref = np.asarray([1000.0])
    assert harness.oracle_errors(_release(ref * (1 + 1e-12)), ref) == []
    faults = {
        "plain_output": _release(ref * (1 + 1e-8)),
        "inferred_range": _release(ref, inside=False),
        "finite": _release(ref, noisy=np.asarray([np.inf])),
        "local_sensitivity": _release(ref, sensitivity=-1.0),
    }
    for word, release in faults.items():
        (error,) = harness.oracle_errors(release, ref)
        assert word.split("_")[0] in error


# -- metric names ------------------------------------------------------------

def test_metric_names_use_the_allowed_charset():
    names = [n for n, _, _ in harness.END_TO_END + harness.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(valid_metric_name(n) for n in names)
    for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, "é"):
        assert not valid_metric_name(bad)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] \
        == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == harness.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


# -- determinism -------------------------------------------------------------

DETERMINISTIC = (
    "sampling.records_fingerprinted",
    "enforcer.records_removed",
    "incremental.reuse_ratio",
)


def _fixed_run(name: str, seed: int) -> dict:
    workload = WORKLOADS[name]()
    workload.setup(seed)
    workload.build_references()
    recorder = SpanRecorder()
    stats = harness.run_loop(workload, 0.0, 4 * workload.cycle, recorder)
    assert stats.failed == 0 and not stats.mismatches
    layers = harness.per_layer_metrics(stats, recorder, workload,
                                       [workload.datagen_s])
    counts = {k: layers[k] for k in DETERMINISTIC}
    counts["rel_noise_scale"] = harness.geometric_mean(stats.noise_scales)
    counts["releases"] = stats.attempted
    return counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_runs_give_identical_counts(name):
    first = _fixed_run(name, seed=5)
    assert first == _fixed_run(name, seed=5)
    assert first["releases"] == 4 * WORKLOADS[name].cycle
    assert first["rel_noise_scale"] > 0
