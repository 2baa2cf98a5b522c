"""PhaseProfiler semantics, human-unit formatters, and the CLI surface
(``stats``, ``profile run``, ``profile sweep``, human-readable ``cache
stats`` that tolerate an empty or missing cache directory)."""

from __future__ import annotations

import json

from repro.cli import main
from repro.obs.profiling import (
    PROFILE_SCHEMA,
    PhaseProfiler,
    format_profile,
    human_bytes,
    human_seconds,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestPhaseProfiler:
    def test_phases_accumulate_seconds_and_entries(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        for _ in range(2):
            with profiler.phase("execute"):
                clock.advance(1.5)
        with profiler.phase("cache_read"):
            clock.advance(0.25)
        assert profiler.seconds("execute") == 3.0
        assert profiler.seconds("cache_read") == 0.25
        assert profiler.seconds("missing") == 0.0
        snap = profiler.snapshot()
        assert snap["phases"]["execute"] == {"seconds": 3.0, "entries": 2}
        assert snap["phases"]["cache_read"]["entries"] == 1

    def test_snapshot_schema_and_other_time(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        with profiler.phase("execute"):
            clock.advance(1.0)
        clock.advance(0.5)  # un-phased time
        snap = profiler.snapshot()
        assert snap["schema"] == PROFILE_SCHEMA
        assert snap["elapsed_seconds"] == 1.5
        assert snap["other_seconds"] == 0.5
        assert json.loads(json.dumps(snap)) == snap

    def test_nested_phases_overlap_without_error(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        with profiler.phase("execute"):
            with profiler.phase("cache_write"):
                clock.advance(1.0)
        snap = profiler.snapshot()
        # Both phases saw the same wall second; overlap is documented.
        assert snap["phases"]["execute"]["seconds"] == 1.0
        assert snap["phases"]["cache_write"]["seconds"] == 1.0
        assert snap["other_seconds"] == 0.0

    def test_counts(self):
        profiler = PhaseProfiler(clock=FakeClock())
        profiler.count("cache_hits", 3)
        profiler.count("cache_hits")
        assert profiler.snapshot()["counts"] == {"cache_hits": 4}

    def test_format_profile_renders_rows(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        with profiler.phase("execute"):
            clock.advance(2.0)
        profiler.count("cache_hits", 5)
        text = format_profile(profiler.snapshot())
        assert "execute" in text
        assert "total" in text
        assert "(other)" in text
        assert "cache_hits" in text and "5" in text


class TestHumanUnits:
    def test_human_bytes(self):
        assert human_bytes(0) == "0 B"
        assert human_bytes(512) == "512 B"
        assert human_bytes(1536) == "1.5 KiB"
        assert human_bytes(1024 * 1024) == "1.0 MiB"
        assert human_bytes(3 * 1024**3) == "3.0 GiB"
        assert human_bytes(5 * 1024**4) == "5.0 TiB"

    def test_human_seconds(self):
        assert human_seconds(0.00042) == "420us"
        assert human_seconds(0.0123) == "12.3ms"
        assert human_seconds(5.25) == "5.25s"
        assert human_seconds(75.3) == "1m15s"
        assert human_seconds(-0.5) == "-500.0ms"


class TestCacheStatsCli:
    def test_missing_cache_dir_reports_zero_human_readable(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "nope")]) == 0
        out = capsys.readouterr().out
        assert "0 B" in out
        assert " 0 shard(s)" in out

    def test_empty_cache_dir_ok(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "empty")]) == 0
        assert "0 B" in capsys.readouterr().out


class TestObservabilityCli:
    def test_stats_renders_counter_tree(self, tmp_path, capsys):
        snapshot_path = tmp_path / "counters.json"
        code = main([
            "stats", "ncf", "ncf", "--sharing", "DWT",
            "--json", str(snapshot_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        for namespace in ("dram", "mmu", "ptw", "compute"):
            assert namespace in out
        snapshot = json.loads(snapshot_path.read_text())
        assert snapshot["schema"].startswith("repro-obs-counters/")
        assert any(path.startswith("dram.ch0.") for path in snapshot["metrics"])

    def test_profile_run_exports_trace_and_counters(self, tmp_path, capsys):
        trace_path = tmp_path / "out" / "trace.json"
        counters_path = tmp_path / "out" / "counters.json"
        code = main([
            "profile", "run", "ncf", "ncf",
            "--trace", str(trace_path),
            "--counters", str(counters_path),
            "--depth", "1",
        ])
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"], "trace must contain events"
        snapshot = json.loads(counters_path.read_text())
        namespaces = {path.split(".")[0] for path in snapshot["metrics"]}
        assert {"dram", "mmu", "ptw", "compute"} <= namespaces
        captured = capsys.readouterr()
        assert "cycles" in captured.out
        assert "spans buffered" in captured.err

    def test_profile_sweep_prints_phase_table(self, tmp_path, capsys):
        code = main([
            "profile", "sweep", "fig15",
            "--mixes", "1", "--quiet",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase" in out
        assert "execute" in out
        assert "total" in out
