"""Tests of the engine stall watchdog and the typed simulation errors."""

import pytest

from repro.config.arch import ArchConfig
from repro.config.dram import DramConfig
from repro.config.misc import DEFAULT_STALL_WINDOW_TICKS, MiscConfig
from repro.config.npumem import NpuMemConfig
from repro.config.system import SystemConfig
from repro.core.sharing import SharingLevel
from repro.core.simulator import MultiCoreNPUSim
from repro.errors import (
    CoreDiagnostics,
    SimulationError,
    SimulationStallError,
    SimulatorReuseError,
)
from repro.models.layers import DenseLayer, Network

ARCH = ArchConfig(
    name="t", array_rows=8, array_cols=8, spm_bytes=16 * 1024,
    dram_transaction_bytes=64,
)
NPUMEM = NpuMemConfig(tlb_entries=16, tlb_assoc=4, num_ptw=1, pwc_entries=8)

WINDOW = 50_000


def _net(name="w"):
    return Network(name, (DenseLayer(f"{name}_l0", 32, 64, 32),))


def _system(cores=1, sharing=SharingLevel.DWT):
    return SystemConfig(
        arch=(ARCH,) * cores,
        npumem=(NPUMEM,) * cores,
        dram=DramConfig(channels=2, channel_bytes_per_cycle=16),
        misc=MiscConfig(iterations=1),
        share_dram=sharing.share_dram,
        share_ptw=sharing.share_ptw,
        share_tlb=sharing.share_tlb,
    )


def _wedge(sim):
    """Livelock ``sim``: swallow every DMA transfer, keep events firing."""
    for dma in sim.dmas.values():
        dma.transfer = lambda runs, on_complete: None

    def keepalive():
        sim.engine.after(1_000, keepalive)

    sim.engine.after(1, keepalive)


class TestStallDetection:
    def test_livelock_raises_with_diagnostics(self):
        sim = MultiCoreNPUSim(_system(), [_net()], stall_window_ticks=WINDOW)
        _wedge(sim)
        with pytest.raises(SimulationStallError) as excinfo:
            sim.run(max_ticks=10**9)
        error = excinfo.value
        assert "livelocked" in str(error)
        assert error.total_ticks is not None and error.total_ticks < 10**7
        assert error.events_processed
        assert len(error.diagnostics) == 1
        diag = error.diagnostics[0]
        assert isinstance(diag, CoreDiagnostics)
        assert diag.core == 0
        assert diag.workload == "w"
        assert diag.tiles_computed == 0
        assert diag.completed_iterations == 0

    def test_detail_names_every_core(self):
        sim = MultiCoreNPUSim(
            _system(cores=2), [_net("w0"), _net("w1")], stall_window_ticks=WINDOW
        )
        _wedge(sim)
        with pytest.raises(SimulationStallError) as excinfo:
            sim.run(max_ticks=10**9)
        detail = excinfo.value.detail()
        assert "core 0 (w0)" in detail
        assert "core 1 (w1)" in detail
        assert "dram queues" in detail

    def test_detection_is_prompt_not_max_ticks(self):
        # The watchdog fires within a few windows, not at the tick ceiling.
        sim = MultiCoreNPUSim(_system(), [_net()], stall_window_ticks=WINDOW)
        _wedge(sim)
        with pytest.raises(SimulationStallError) as excinfo:
            sim.run(max_ticks=10**12)
        assert excinfo.value.total_ticks < 10 * WINDOW

    def test_unwatched_wedged_sim_hits_ceiling_instead(self):
        # Without the watchdog the same livelock burns to max_ticks and
        # is only caught by the never-completed check.
        sim = MultiCoreNPUSim(_system(), [_net()])
        _wedge(sim)
        with pytest.raises(SimulationStallError, match="never completed"):
            sim.run(max_ticks=200_000)


class TestWatchdogEquivalence:
    def test_results_identical_with_and_without_watchdog(self):
        plain = MultiCoreNPUSim(_system(), [_net()]).run(max_ticks=10**8)
        watched = MultiCoreNPUSim(
            _system(), [_net()], stall_window_ticks=WINDOW
        ).run(max_ticks=10**8)
        assert watched.cycles_per_core() == plain.cycles_per_core()
        assert watched.total_ticks == plain.total_ticks
        assert watched.dram.requests == plain.dram.requests

    def test_multicore_results_identical(self):
        nets = lambda: [_net("w0"), _net("w1")]
        plain = MultiCoreNPUSim(_system(cores=2), nets()).run(max_ticks=10**8)
        watched = MultiCoreNPUSim(
            _system(cores=2), nets(), stall_window_ticks=WINDOW
        ).run(max_ticks=10**8)
        assert watched.cycles_per_core() == plain.cycles_per_core()
        assert watched.total_ticks == plain.total_ticks

    def test_zero_window_disables_watchdog(self):
        sim = MultiCoreNPUSim(_system(), [_net()], stall_window_ticks=0)
        assert sim.stall_window_ticks is None
        result = sim.run(max_ticks=10**8)
        assert result.workloads[0].completed_iterations == 1

    def test_default_window_constant_is_sane(self):
        assert DEFAULT_STALL_WINDOW_TICKS > 0


class TestTypedErrors:
    def test_stall_error_is_runtime_error(self):
        # Callers written against the old bare-RuntimeError contract
        # (e.g. `except RuntimeError` around run()) must keep working.
        assert issubclass(SimulationStallError, RuntimeError)
        assert issubclass(SimulationStallError, SimulationError)
        assert issubclass(SimulatorReuseError, RuntimeError)

    def test_legacy_runtime_error_handler_catches_stall(self):
        sim = MultiCoreNPUSim(_system(), [_net()], stall_window_ticks=WINDOW)
        _wedge(sim)
        with pytest.raises(RuntimeError):
            sim.run(max_ticks=10**9)

    def test_reuse_raises_typed_error(self):
        sim = MultiCoreNPUSim(_system(), [_net()])
        sim.run(max_ticks=10**8)
        with pytest.raises(SimulatorReuseError, match="runs once"):
            sim.run(max_ticks=10**8)
