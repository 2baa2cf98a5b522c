"""Tests of the runner's per-instance result memo and the cache-key memo.

A runner reads and validates each result shard from disk at most once:
later lookups of the same spec (a sweep's ``run_many`` followed by each
figure's own batch over its plan) are served from a bounded in-memory
memo.  These tests pin the read counts, the memo's scope and bound, and
that memoization changes no result, failure or quarantine behaviour.
"""

import dataclasses
import gc
import hashlib
import json
import pickle
import sys
import threading
import weakref
from collections import Counter
from pathlib import Path

import pytest

from repro.compute import tracecache
from repro.errors import RunFailedError
from repro.experiments import faults, figures
from repro.experiments import runner as runner_module
from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import RunSpec
from repro.models.layers import DenseLayer, Network
from repro.storage import ShardStore

from tests.conftest import FIGURES, MIXES, REDUCERS, planned, regenerate
from tests.test_golden_equivalence import CORPUS

GOLDEN_PATH = Path(__file__).parent / "golden" / "expected.json"


@pytest.fixture
def read_counter(monkeypatch):
    """Count ``ShardStore.read_validated`` calls by shard name."""
    calls: Counter = Counter()
    original = ShardStore.read_validated

    def counting(self, name, validate):
        calls[name] += 1
        return original(self, name, validate)

    monkeypatch.setattr(ShardStore, "read_validated", counting)
    return calls


@pytest.fixture
def process_cache_state():
    """Snapshot + restore the process-level trace cache around a test."""
    cache = tracecache.process_cache()
    store = cache.store
    enabled = tracecache.is_enabled()
    yield cache
    cache.store = store
    tracecache.configure(enabled=enabled)


def _tiny(name):
    return Network(name, (DenseLayer(f"{name}_l0", 16, 32, 16),))


def _make_runner(cache_dir, **kwargs):
    """A runner with instant backoff, no journal and tiny named networks."""
    kwargs.setdefault("retry_backoff", 0.0)
    kwargs.setdefault("journal", False)
    runner = ExperimentRunner(cache_dir=cache_dir, **kwargs)
    runner._sleep = lambda seconds: None
    for name in ("a", "b", "c", "d"):
        runner.register_network(_tiny(name))
    return runner


def _specs(runner, names):
    return [runner.plan(runner.plan_solo(name)) for name in names]


def _shard(spec):
    return f"{spec.cache_key()}.json"


# --------------------------------------------------------------------- #
# Figure regeneration reads each shard once
# --------------------------------------------------------------------- #


class TestFigureReadCount:
    def test_each_shard_read_once_per_runner(self, filled_cache, read_counter):
        cache_dir, cold_outputs = filled_cache
        runner = ExperimentRunner(cache_dir=cache_dir, journal=False)
        specs = planned(runner)

        first = json.dumps(regenerate(runner), sort_keys=True)
        assert read_counter == Counter({_shard(spec): 1 for spec in specs})
        assert runner.runs_executed == 0
        assert first == cold_outputs

        # A second regeneration on the same runner reads nothing from
        # disk and gives byte-identical outputs: no reducer mutated a
        # shared memoized result in place.
        second = json.dumps(regenerate(runner), sort_keys=True)
        assert second == first
        assert sum(read_counter.values()) == len(specs)

    def test_public_figures_plan_once_and_read_once(
        self, filled_cache, read_counter, monkeypatch
    ):
        # The warm path of a figure function: build each planned spec
        # once, read each distinct shard once, simulate nothing.
        cache_dir, cold_outputs = filled_cache
        runner = ExperimentRunner(cache_dir=cache_dir, journal=False)
        specs = planned(runner)
        planned_per_figure = {
            figure: len(figures.FIGURE_PLANNERS[figure](runner, MIXES, None))
            for figure in FIGURES
        }
        built = Counter()
        post_init = RunSpec.__post_init__

        def counting(spec):
            built["specs"] += 1
            post_init(spec)

        monkeypatch.setattr(RunSpec, "__post_init__", counting)
        outputs = {figure: REDUCERS[figure](runner, MIXES) for figure in FIGURES}

        assert read_counter == Counter({_shard(spec): 1 for spec in specs})
        assert built["specs"] <= sum(planned_per_figure.values())
        assert runner.runs_executed == 0
        assert json.dumps(outputs, sort_keys=True) == cold_outputs

    def test_fresh_runner_reads_from_disk_again(self, filled_cache, read_counter):
        cache_dir, _ = filled_cache
        for _ in range(2):
            runner = ExperimentRunner(cache_dir=cache_dir, journal=False)
            runner.run_many(planned(runner))
        assert set(read_counter.values()) == {2}


# --------------------------------------------------------------------- #
# The cache-key memo
# --------------------------------------------------------------------- #


def _fresh_key(spec):
    payload = json.dumps(spec.descriptor(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


@pytest.fixture(scope="module")
def golden_keys():
    golden = json.loads(GOLDEN_PATH.read_text())
    return {name: entry["cache_key"] for name, entry in golden.items()}


@pytest.mark.parametrize("name,spec", CORPUS, ids=[name for name, _ in CORPUS])
class TestCacheKeyMemo:
    def test_matches_golden_on_first_and_repeated_calls(
        self, name, spec, golden_keys
    ):
        spec = dataclasses.replace(spec)  # an instance with no memo yet
        assert spec.cache_key() == golden_keys[name]
        assert spec.cache_key() == golden_keys[name]

    def test_survives_pickle_round_trip(self, name, spec, golden_keys):
        unkeyed = dataclasses.replace(spec)
        assert pickle.loads(pickle.dumps(unkeyed)).cache_key() == golden_keys[name]
        keyed = dataclasses.replace(spec)
        keyed.cache_key()
        clone = pickle.loads(pickle.dumps(keyed))
        assert clone == keyed
        assert clone.cache_key() == golden_keys[name]

    def test_replace_gets_a_fresh_correct_key(self, name, spec, golden_keys):
        spec.cache_key()
        same = dataclasses.replace(spec)
        assert same.cache_key() == golden_keys[name]
        changed = dataclasses.replace(spec, page_bytes=spec.page_bytes * 2)
        assert changed.cache_key() == _fresh_key(changed)
        assert changed.cache_key() != golden_keys[name]

    def test_equality_hash_and_repr_ignore_the_memo(self, name, spec):
        keyed = dataclasses.replace(spec)
        keyed.cache_key()
        unkeyed = dataclasses.replace(spec)
        assert keyed == unkeyed
        assert hash(keyed) == hash(unkeyed)
        assert repr(keyed) == repr(unkeyed)
        assert keyed.descriptor() == unkeyed.descriptor()
        assert dataclasses.asdict(keyed) == dataclasses.asdict(unkeyed)
        assert keyed.cache_key() not in repr(keyed)


# --------------------------------------------------------------------- #
# Memo invariants: failures, corruption, the bound, trace-cache claims
# --------------------------------------------------------------------- #


class TestMemoInvariants:
    def test_failed_spec_is_never_memoized(self, tmp_path, read_counter):
        runner = _make_runner(tmp_path)
        specs = _specs(runner, ["a", "b"])
        runner.fault_plan = faults.FaultPlan.for_specs(
            {specs[1]: faults.Fault("error")}
        )
        results = runner.run_many(specs)
        assert set(results) == {specs[0]}

        with pytest.raises(RunFailedError, match="injected deterministic failure"):
            runner.run(specs[1])
        # Figures degrade on the same miss: a failed spec is absent from
        # the results of a batch.
        assert specs[1] not in runner.run_many([specs[1]])
        # The failed spec missed on disk each time; the good one was
        # written by the batch and is served from the memo.
        assert runner.run(specs[0]) == results[specs[0]]
        assert read_counter[_shard(specs[1])] == 3
        assert read_counter[_shard(specs[0])] == 1

    def test_cache_hits_count_memo_hits(self, tmp_path, read_counter):
        (spec,) = _specs(_make_runner(tmp_path), ["a"])
        expected = _make_runner(tmp_path).run(spec)
        reader = _make_runner(tmp_path)
        for _ in range(3):
            assert reader.run(spec) == expected
        assert reader.cache_hits == 3
        assert reader.runs_executed == 0
        # One read by the writer (a miss), one by the reader.
        assert read_counter[_shard(spec)] == 2

    @pytest.mark.parametrize("mode", ["truncate", "version", "payload"])
    def test_corruption_after_read_is_invisible_to_that_runner(
        self, tmp_path, mode
    ):
        writer = _make_runner(tmp_path)
        (spec,) = _specs(writer, ["a"])
        expected = writer.run(spec)
        reader = _make_runner(tmp_path)
        assert reader.run(spec) == expected

        faults.corrupt_shard(reader._cache_path(spec), mode)

        assert reader.run(spec) == expected
        assert reader.quarantined == 0
        assert reader.runs_executed == 0
        fresh = _make_runner(tmp_path)
        assert fresh.run(spec) == expected
        assert fresh.quarantined == 1
        assert fresh.runs_executed == 1

    def test_evicted_entries_are_reread_and_revalidated(
        self, tmp_path, monkeypatch, read_counter
    ):
        writer = _make_runner(tmp_path)
        specs = _specs(writer, ["a", "b", "c"])
        expected = writer.run_many(specs)
        monkeypatch.setattr(runner_module, "RESULT_MEMO_ENTRIES", 2)
        read_counter.clear()

        reader = _make_runner(tmp_path)
        for spec in specs:  # "a" is evicted when "c" enters
            assert reader.run(spec) == expected[spec]
        assert reader.run(specs[2]) == expected[specs[2]]
        assert read_counter == Counter({_shard(spec): 1 for spec in specs})

        faults.corrupt_shard(reader._cache_path(specs[0]), "payload")
        assert reader.run(specs[0]) == expected[specs[0]]
        assert read_counter[_shard(specs[0])] == 2
        assert reader.quarantined == 1
        assert reader.runs_executed == 1

    def test_concurrent_lookups_under_constant_eviction(
        self, tmp_path, monkeypatch
    ):
        # The serve daemon probes the memo from request threads while its
        # dispatch thread runs batches on the same runner.
        writer = _make_runner(tmp_path)
        specs = _specs(writer, ["a", "b", "c", "d"])
        writer.run_many(specs)
        expected = {spec: writer.cached_payload(spec) for spec in specs}
        monkeypatch.setattr(runner_module, "RESULT_MEMO_ENTRIES", 2)
        reader = _make_runner(tmp_path)
        errors = []

        def hammer(offset):
            try:
                for index in range(400):
                    spec = specs[(index + offset) % len(specs)]
                    assert reader.cached_payload(spec) == expected[spec]
            except Exception as error:  # surfaced by the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(offset,))
                for offset in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert reader.cache_hits == 6 * 400
        assert reader.quarantined == 0

    def test_dropped_runner_frees_its_memo_without_the_cyclic_gc(
        self, tmp_path
    ):
        writer = _make_runner(tmp_path)
        writer.run_many(_specs(writer, ["a", "b"]))
        gc.disable()
        try:
            reader = _make_runner(tmp_path)
            reader.run_many(_specs(reader, ["a", "b"]))
            alive = weakref.ref(reader)
            del reader
            assert alive() is None
        finally:
            gc.enable()

    def test_warm_lookups_leave_the_trace_cache_pointed_elsewhere(
        self, tmp_path, process_cache_state
    ):
        cache = process_cache_state
        owner = _make_runner(tmp_path / "owner")
        (spec,) = _specs(owner, ["a"])
        owner.run(spec)
        other = _make_runner(tmp_path / "other", trace_cache=False)
        other.run(spec)
        assert cache.store.directory == other.trace_dir

        owner.run(spec)
        owner.run_many([spec])
        assert cache.store.directory == other.trace_dir
        assert not tracecache.is_enabled()
        # Warm batches keep reporting a (zero) trace delta for a runner
        # with the trace cache on, and None for one with it off.
        assert owner.last_trace_stats is not None
        assert owner.last_trace_stats.requests == 0
        other.run_many([spec])
        assert other.last_trace_stats is None

        (cold,) = _specs(owner, ["b"])
        owner.run(cold)
        assert cache.store.directory == owner.trace_dir
        assert tracecache.is_enabled()
