"""``repro.obs`` — the unified observability layer.

Three cooperating pieces, all zero-overhead when not enabled:

* :mod:`repro.obs.registry` — a hierarchical :class:`CounterRegistry` of
  counters, gauges and histograms addressed by dotted component paths
  (``dram.ch0.row_hits``, ``mmu.core1.tlb.misses``, ``ptw.queue_depth``).
  Simulator components *register* their existing hot-path stat objects
  into it; snapshots render to a stable JSON schema.
* :mod:`repro.obs.timeline` — a :class:`TimelineTracer` span stream:
  typed spans (DRAM transactions, page walks, tile load/compute/write
  phases, per-core layer activity) recorded into bounded ring buffers
  and exported as Chrome trace-event JSON viewable in Perfetto.  The
  artifact-style :class:`~repro.core.tracing.TraceLogger` is one
  consumer of the same stream.
* :mod:`repro.obs.profiling` — :class:`PhaseProfiler` wall-time/count
  accounting for the experiment runner's phases (compile, execute,
  cache I/O), surfaced through ``mnpusim profile`` and the sweep
  journal.

Enable it per simulation with ``MultiCoreNPUSim(..., observe=True)`` or
from the CLI with ``mnpusim profile run``.
"""
