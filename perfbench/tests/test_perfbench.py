"""Tests of the benchmark's own code (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from perfbench import tracing, workloads
from repro.core.engine import Engine
from repro.experiments import RunSpec, all_mixes
from repro.experiments import runner as runner_module
from repro.models import zoo


def _clock(*times: float):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_nested_children():
    recorder = tracing.SpanRecorder(clock=_clock(0, 1, 3, 4, 5, 7, 9, 10))
    with recorder.span("sweep"):  # 0 .. 10
        with recorder.span("ShardStore.write"):  # 1 .. 3
            pass
        recorder.call(  # 4 .. 9, of which the submit covers 5 .. 7
            "event:DmaEngine._pump",
            recorder.call,
            "call:DramController.submit",
            lambda: None,
        )
    sweep, write = recorder.spans
    assert (sweep.self_s, write.self_s) == (3, 2)
    assert write.parent == sweep.id
    assert recorder.folded[(sweep.id, "event:DmaEngine._pump")] == [1, 5, 3]
    assert recorder.folded[(sweep.id, "call:DramController.submit")] == [1, 2, 2]
    layers = recorder.self_seconds()
    assert layers["runner"] == 5 and layers["dma"] == 3 and layers["dram"] == 2
    assert sum(layers.values()) == 10  # self times partition the root span


def test_folded_spans_accumulate_per_parent_and_name():
    recorder = tracing.SpanRecorder(clock=_clock(0, 1, 2, 3, 5, 6))
    with recorder.span("Engine.run"):
        recorder.call("event:Channel._kick", lambda: None)
        recorder.call("event:Channel._kick", lambda: None)
    assert recorder.folded[(0, "event:Channel._kick")] == [2, 3, 3]
    assert recorder.counts()["event:Channel._kick"] == 2
    assert recorder.spans[0].self_s == 3


def test_seeded_mixes_are_deterministic_perfect_matchings():
    duals = set(all_mixes(2))
    picks = {seed: workloads.seeded_mixes(seed) for seed in range(8)}
    for seed, mixes in picks.items():
        assert mixes == workloads.seeded_mixes(seed)
        assert len(mixes) == 4 and set(mixes) <= duals
        assert sorted(name for mix in mixes for name in mix) == sorted(zoo.NAMES)
    assert len({tuple(mixes) for mixes in picks.values()}) > 1


def test_digest_check_fails_on_perturbed_payload(tmp_path):
    spec = RunSpec.solo("ncf", channels=4, num_ptw=4, tlb_entries=64)
    payload = {spec: [{"workload": "ncf", "cycles": 1000, "walks": 3}]}
    digest = workloads.results_digest(payload)
    pins = tmp_path / "digests.json"
    pins.write_text(json.dumps({"results": {"sharing": digest}}))
    seed = workloads.DEFAULT_SEED
    assert workloads.check_pinned("sharing", seed, digest, pins) is None

    payload[spec][0]["cycles"] = 1001
    perturbed = workloads.results_digest(payload)
    assert perturbed != digest
    assert "!= pinned" in workloads.check_pinned("sharing", seed, perturbed, pins)
    # Only the default seed is pinned for a seeded workload...
    assert workloads.check_pinned("sharing", seed + 1, perturbed, pins) is None
    # ...but every seed is, for one whose specs ignore the seed.
    pins.write_text(json.dumps({"results": {"serving": digest}}))
    assert workloads.check_pinned("serving", seed + 1, perturbed, pins)


def test_callbacks_attribute_to_layers_by_qualname():
    assert tracing.layer_of("event:Channel._kick") == "dram"
    assert tracing.layer_of("event:DmaEngine._pump") == "dma"
    assert tracing.layer_of("event:WalkerPool._next_level.<locals>.<lambda>") == "mmu"
    assert tracing.layer_of("callback:NpuCore._fetch_next.<locals>.<lambda>") == "npu"
    assert tracing.layer_of("TraceCache.store.write") == "compute"
    assert tracing.layer_of("reduce.fig4") == "runner"
    assert tracing.layer_of("event:keepalive.<locals>.<lambda>") is None
    with pytest.raises(tracing.UnmappedLayerError, match="keepalive"):
        tracing.require_layers(["event:Channel._kick", "event:keepalive"])


def test_unmapped_dispatch_fails_the_layer_split():
    recorder = tracing.SpanRecorder()
    recorder.call("event:partial", lambda: None)
    counts = Counter({"engine.events": 1})
    with pytest.raises(tracing.UnmappedLayerError, match="event:partial"):
        tracing.layer_metrics(recorder, counts, 0, 0)


def test_instrumented_simulation_matches_untraced_and_restores():
    spec = RunSpec.solo("ncf", channels=4, num_ptw=4, tlb_entries=64)
    networks = [zoo.get("ncf", "mini")]
    original_at = Engine.at
    untraced = runner_module._execute_spec(spec, networks, 10**12)
    recorder, counts = tracing.SpanRecorder(), Counter()
    with tracing.instrument(recorder, counts):
        traced = runner_module._execute_spec(spec, networks, 10**12)
    assert Engine.at is original_at
    assert traced == untraced
    metrics = tracing.layer_metrics(recorder, counts, 0, 0)
    assert metrics["engine.events"][0] == counts["engine.events"] > 0
    assert metrics["mmu.lookups"][0] == untraced[0]["tlb_lookups"] > 0
    assert metrics["dram.requests"][0] >= metrics["dma.txns"][0] > 0
    assert all(metrics[f"{layer}.self_s"][0] > 0 for layer in ("engine", "dma", "mmu"))
    assert {span.spec for span in recorder.spans} == {spec.cache_key()[:16]}
