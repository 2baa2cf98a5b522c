"""Spans, layer attribution and the per-layer split of the traced run.

Spans are recorded only from here: :func:`instrument` wraps the event
callbacks that ``Engine.at`` dispatches and the public entry points of
each layer for the duration of one in-process sweep, and restores them
afterwards.  Nothing in ``src`` knows it is being traced.

Every span has a name, start, end, parent span and spec id.  A layer's
self time is its spans' durations minus the time their child spans
cover.  Coarse spans (sweep, reducers, cache I/O, trace compilation,
one simulation and its engine loop) are kept one by one.  The per-event
and per-transaction spans inside a simulation number in the millions
per sweep, so each closes into a running ``(parent span, name)``
aggregate of count, total and self seconds instead: the self-time
arithmetic is the same, only the individual start and end are dropped.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

#: The simulator's layers, as the per-layer metrics name them.
LAYERS = ("engine", "dma", "mmu", "dram", "compute", "npu", "runner")

#: First ``__qualname__`` component -> layer.  Event callbacks are bound
#: methods or closures defined inside these classes' methods.
OWNER_LAYERS = {
    "Engine": "engine",
    "DmaEngine": "dma",
    "Mmu": "mmu",
    "WalkerPool": "mmu",
    "Channel": "dram",
    "DramController": "dram",
    "NpuCore": "npu",
    "MultiCoreNPUSim": "npu",
    "TraceCache": "compute",
    "compile_trace": "compute",
    "ShardStore": "runner",
    "execute": "runner",
    "sweep": "runner",
    "reduce": "runner",
}

#: Span-name prefixes of the three kinds of folded spans.
EVENT, CALL, CALLBACK = "event:", "call:", "callback:"


class UnmappedLayerError(RuntimeError):
    """A span or dispatched callback kind belongs to no known layer."""


def callback_name(fn: Callable[..., Any]) -> str:
    """The ``__qualname__`` a callback is attributed by."""
    return getattr(fn, "__qualname__", None) or type(fn).__qualname__


def layer_of(name: str) -> str | None:
    """The layer of a span name (kind prefix optional), or ``None``."""
    qualname = name.split(":", 1)[1] if ":" in name else name
    return OWNER_LAYERS.get(qualname.split(".", 1)[0])


def require_layers(names: Iterator[str] | list[str]) -> None:
    """Raise :class:`UnmappedLayerError` naming every unattributable span."""
    unmapped = sorted({name for name in names if layer_of(name) is None})
    if unmapped:
        raise UnmappedLayerError(
            "callback kinds mapped to no layer: " + ", ".join(unmapped)
        )


@dataclass
class Span:
    """One kept span; times are ``time.perf_counter`` seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    spec: str | None
    self_s: float = 0.0


class SpanRecorder:
    """In-memory spans with exact self-time arithmetic.

    The stack holds one frame per open span: ``[child seconds, id of the
    nearest kept span]``.  Closing a span adds its duration to its
    parent frame's child seconds, so ``self = duration - child seconds``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        #: ``(parent span id, name) -> [count, total seconds, self seconds]``.
        self.folded: dict[tuple[int | None, str], list] = {}
        #: Spec id stamped on spans opened from now on.
        self.spec: str | None = None
        self._stack: list[list] = [[0.0, None]]

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record the enclosed block as a kept span."""
        span = Span(
            len(self.spans), name, self.clock(), 0.0, self._stack[-1][1], self.spec
        )
        self.spans.append(span)
        frame = [0.0, span.id]
        self._stack.append(frame)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()
            duration = span.end - span.start
            span.self_s = duration - frame[0]
            self._stack[-1][0] += duration

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)`` recorded as a folded span."""
        stack = self._stack
        frame = [0.0, stack[-1][1]]
        stack.append(frame)
        clock = self.clock
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - start
            stack.pop()
            stack[-1][0] += duration
            key = (frame[1], name)
            entry = self.folded.get(key)
            if entry is None:
                self.folded[key] = [1, duration, duration - frame[0]]
            else:
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]

    # ------------------------------------------------------------------ #

    def names(self) -> list[str]:
        """Every distinct span name recorded."""
        return sorted({span.name for span in self.spans} | {n for _, n in self.folded})

    def counts(self) -> Counter:
        """Spans recorded per name."""
        counts: Counter = Counter(span.name for span in self.spans)
        for (_, name), (count, _, _) in self.folded.items():
            counts[name] += count
        return counts

    def total_seconds(self) -> Counter:
        """Summed span duration per name (inclusive of children)."""
        totals: Counter = Counter()
        for span in self.spans:
            totals[span.name] += span.end - span.start
        for (_, name), (_, total, _) in self.folded.items():
            totals[name] += total
        return totals

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer; raises when a span maps to no layer."""
        require_layers(self.names())
        totals = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            totals[layer_of(span.name)] += span.self_s
        for (_, name), (_, _, self_s) in self.folded.items():
            totals[layer_of(name)] += self_s
        return totals

    def write(self, path: Path) -> None:
        """Write every kept span and folded aggregate as JSON."""
        folded = [
            {
                "parent": parent,
                "name": name,
                "layer": layer_of(name),
                "spec": None if parent is None else self.spans[parent].spec,
                "count": count,
                "total_s": total,
                "self_s": self_s,
            }
            for (parent, name), (count, total, self_s) in self.folded.items()
        ]
        spans = [dict(asdict(span), layer=layer_of(span.name)) for span in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": spans, "folded": folded}))


# ---------------------------------------------------------------------- #
# Instrumentation
# ---------------------------------------------------------------------- #


@contextlib.contextmanager
def instrument(recorder: SpanRecorder, counts: Counter) -> Iterator[None]:
    """Trace the simulator's layers for the enclosed in-process block.

    Patches ``Engine.at`` (every dispatched callback becomes an
    ``event:`` span named by its ``__qualname__``), the entry points of
    DMA, MMU, DRAM, the trace cache and the shard store, and the
    runner's per-spec execution (which stamps the spec id).  After each
    simulation its own counters are added to ``counts``.  Simulators
    must be built inside the block: hot paths bind entry points once,
    at construction.
    """
    from repro import storage
    from repro.compute import tracecache
    from repro.core.dma import DmaEngine
    from repro.core.engine import Engine
    from repro.core.simulator import MultiCoreNPUSim
    from repro.dram.controller import DramController
    from repro.experiments import runner as runner_module
    from repro.mmu.mmu import Mmu
    from repro.mmu.ptw import WalkerPool

    call = recorder.call
    patches: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = vars(owner)[attr]
        patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def kept(name: str) -> Callable[[Any], Any]:
        def make(original: Any) -> Any:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with recorder.span(name):
                    return original(*args, **kwargs)

            return wrapper

        return make

    def folded(name: str) -> Callable[[Any], Any]:
        def make(original: Any) -> Any:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return call(name, original, *args, **kwargs)

            return wrapper

        return make

    def traced_callback(fn: Callable[..., Any]) -> Callable[..., Any]:
        qualname = callback_name(fn)
        name = CALLBACK + qualname

        def callback(*args: Any) -> Any:
            return call(name, fn, *args)

        # Scheduled as an event itself, it must still attribute to its owner.
        callback.__qualname__ = qualname
        return callback

    def make_at(original: Any) -> Any:
        def at(engine: Any, time: int, fn: Callable[[], None]) -> None:
            name = EVENT + callback_name(fn)
            original(engine, time, lambda: call(name, fn))

        return at

    def make_transfer(original: Any) -> Any:
        def transfer(dma: Any, runs: Any, on_complete: Callable[[], None]) -> None:
            callback = traced_callback(on_complete)
            call(CALL + "DmaEngine.transfer", original, dma, runs, callback)

        return transfer

    def make_miss(original: Any) -> Any:
        def miss(mmu: Any, core: int, vaddr: int, on_miss_done: Any) -> None:
            callback = traced_callback(on_miss_done)
            call(CALL + "Mmu.miss", original, mmu, core, vaddr, callback)

        return miss

    def make_run(original: Any) -> Any:
        def run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            with recorder.span("MultiCoreNPUSim.run"):
                result = original(sim, *args, **kwargs)
            counts["engine.events"] += sim.engine.events_processed
            counts["dma.txns"] += sum(d.stats.total_txns for d in sim.dmas.values())
            for stats in sim.mmu.stats.values():
                counts["mmu.lookups"] += stats.lookups
                counts["mmu.hits"] += stats.hits
                counts["mmu.coalesced"] += stats.coalesced
                counts["mmu.walks"] += stats.walks_started
            return result

        return run

    def make_store(method: str) -> Callable[[Any], Any]:
        # Trace shards live in their own store under the result cache.
        names = {runner_module.TRACE_DIR_NAME: f"TraceCache.store.{method}"}

        def make(original: Any) -> Any:
            def wrapper(store: Any, *args: Any, **kwargs: Any) -> Any:
                name = names.get(store.directory.name, f"ShardStore.{method}")
                with recorder.span(name):
                    return original(store, *args, **kwargs)

            return wrapper

        return make

    def make_execute(original: Any) -> Any:
        def execute(spec: Any, *args: Any, **kwargs: Any) -> Any:
            recorder.spec = spec.cache_key()[:16]
            try:
                with recorder.span("execute"):
                    return original(spec, *args, **kwargs)
            finally:
                recorder.spec = None

        return execute

    try:
        patch(Engine, "at", make_at)
        patch(Engine, "run", kept("Engine.run"))
        patch(MultiCoreNPUSim, "__init__", kept("MultiCoreNPUSim.__init__"))
        patch(MultiCoreNPUSim, "run", make_run)
        patch(DmaEngine, "transfer", make_transfer)
        patch(Mmu, "probe", folded(CALL + "Mmu.probe"))
        patch(Mmu, "miss", make_miss)
        patch(WalkerPool, "walk", folded(CALL + "WalkerPool.walk"))
        patch(DramController, "submit", folded(CALL + "DramController.submit"))
        patch(tracecache.TraceCache, "get", kept("TraceCache.get"))
        patch(tracecache, "compile_trace", kept("compile_trace"))
        patch(storage.ShardStore, "read_validated", make_store("read_validated"))
        patch(storage.ShardStore, "write", make_store("write"))
        patch(runner_module, "_execute_spec", make_execute)
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder, counts: Counter, trace_hits: int, trace_requests: int
) -> dict[str, tuple[float, str]]:
    """Per-layer counts, ratios and self times of one traced sweep.

    Raises :class:`UnmappedLayerError` when a dispatched callback kind
    maps to no layer, and ``RuntimeError`` when the traced dispatches
    disagree with the engines' own event counters (an event escaped the
    tracing).
    """
    self_s = recorder.self_seconds()
    spans = recorder.counts()
    totals = recorder.total_seconds()
    events = sum(count for name, count in spans.items() if name.startswith(EVENT))
    if events != counts["engine.events"]:
        raise RuntimeError(
            f"traced {events} event dispatches, "
            f"engines counted {counts['engine.events']}"
        )
    requests = spans[CALL + "DramController.submit"]
    pumps = spans[EVENT + "DmaEngine._pump"]
    lookups = counts["mmu.lookups"]
    walks = counts["mmu.walks"]
    miss_calls = spans[CALL + "Mmu.miss"]
    kicks = spans[EVENT + "Channel._kick"]
    return {
        "engine.events": (events, "count"),
        "engine.events_per_req": (_ratio(events, requests), "1/req"),
        "engine.self_s": (self_s["engine"], "s"),
        "dma.txns": (counts["dma.txns"], "count"),
        "dma.pumps": (pumps, "count"),
        "dma.idle_pump_ratio": (_ratio(pumps - counts["dma.txns"], pumps), "ratio"),
        "dma.self_s": (self_s["dma"], "s"),
        "mmu.lookups": (lookups, "count"),
        "mmu.hit_ratio": (_ratio(counts["mmu.hits"], lookups), "ratio"),
        "mmu.coalesced_ratio": (_ratio(counts["mmu.coalesced"], lookups), "ratio"),
        "mmu.walks": (walks, "count"),
        "mmu.miss_calls_per_walk": (_ratio(miss_calls, walks), "1/walk"),
        "mmu.self_s": (self_s["mmu"], "s"),
        "dram.requests": (requests, "count"),
        "dram.kicks_per_req": (_ratio(kicks, requests), "1/req"),
        "dram.self_s": (self_s["dram"], "s"),
        "compute.compile_s": (totals["compile_trace"], "s"),
        "compute.trace_hit_ratio": (_ratio(trace_hits, trace_requests), "ratio"),
        "compute.self_s": (self_s["compute"], "s"),
        "npu.self_s": (self_s["npu"], "s"),
        "runner.cache_write_s": (totals["ShardStore.write"], "s"),
        "runner.cache_read_s": (totals["ShardStore.read_validated"], "s"),
        "runner.reduce_s": (
            sum(s.self_s for s in recorder.spans if s.name.startswith("reduce.")),
            "s",
        ),
        "runner.self_s": (self_s["runner"], "s"),
    }
