"""Wall-time phase profiling for the experiment runner.

Where the registry and timeline observe the *simulated* machine, the
:class:`PhaseProfiler` observes the *simulator*: how long a run or sweep
spent compiling frontends, reading and writing cache shards, and
executing the event loop, plus how many cache lookups hit.  The runner
feeds it; ``mnpusim profile sweep`` and the sweep journal's ``profile``
event render it.

:class:`TraceCacheStats` counts the compile phase's trace-cache lookups;
it lives here so a warm sweep reports it without the trace compiler.

Also home to the human-unit formatters (:func:`human_bytes`,
:func:`human_seconds`) shared by the CLI.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

#: Version tag embedded in every profiler snapshot.
PROFILE_SCHEMA = "repro-obs-profile/1"

#: Canonical runner phases, in display order.  Phases outside this list
#: are accepted and rendered after these.
RUNNER_PHASES = ("plan", "cache_read", "compile", "execute", "cache_write")


class PhaseProfiler:
    """Accumulates wall time and entry counts per named phase."""

    def __init__(self, clock: Any = time.perf_counter) -> None:
        self._clock = clock
        self._seconds: dict[str, float] = {}
        self._entries: dict[str, int] = {}
        self._counts: dict[str, int] = {}
        self._started = self._clock()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one entry into phase ``name`` (reentrancy-safe: nested
        entries of different phases each accumulate their own wall time,
        so overlapping phases can sum past the elapsed total)."""
        start = self._clock()
        try:
            yield
        finally:
            self._seconds[name] = self._seconds.get(name, 0.0) + (
                self._clock() - start
            )
            self._entries[name] = self._entries.get(name, 0) + 1

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a free-form event counter (e.g. ``cache_hits``)."""
        self._counts[name] = self._counts.get(name, 0) + amount

    # -------------------------------------------------------------- #

    def seconds(self, name: str) -> float:
        return self._seconds.get(name, 0.0)

    def elapsed(self) -> float:
        """Wall time since the profiler was created."""
        return self._clock() - self._started

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable rendering (schema :data:`PROFILE_SCHEMA`).

        ``phases`` maps name → ``{"seconds": s, "entries": n}``;
        ``counts`` holds the free-form counters; ``elapsed_seconds`` is
        total wall time, of which time in no phase is ``other_seconds``.
        """
        phased = sum(self._seconds.values())
        elapsed = self.elapsed()
        return {
            "schema": PROFILE_SCHEMA,
            "elapsed_seconds": elapsed,
            "other_seconds": max(0.0, elapsed - phased),
            "phases": {
                name: {
                    "seconds": self._seconds[name],
                    "entries": self._entries.get(name, 0),
                }
                for name in sorted(self._seconds)
            },
            "counts": {name: self._counts[name] for name in sorted(self._counts)},
        }


def format_profile(snapshot: Mapping[str, Any]) -> str:
    """Render a profiler snapshot as an aligned text table."""
    elapsed = snapshot["elapsed_seconds"]
    lines = [f"{'phase':<14s} {'time':>10s} {'share':>7s} {'entries':>8s}"]

    def row(name: str, seconds: float, entries: int | None) -> None:
        share = f"{seconds / elapsed:6.1%}" if elapsed > 0 else "   n/a"
        count = "" if entries is None else str(entries)
        lines.append(
            f"{name:<14s} {human_seconds(seconds):>10s} {share:>7s} {count:>8s}"
        )

    phases = snapshot["phases"]
    ordered = [name for name in RUNNER_PHASES if name in phases]
    ordered += [name for name in phases if name not in RUNNER_PHASES]
    for name in ordered:
        row(name, phases[name]["seconds"], phases[name]["entries"])
    row("(other)", snapshot["other_seconds"], None)
    row("total", elapsed, None)
    if snapshot["counts"]:
        lines.append("")
        for name, value in snapshot["counts"].items():
            lines.append(f"{name:<24s} {value}")
    return "\n".join(lines)


@dataclass
class TraceCacheStats:
    """Counters of one :class:`~repro.compute.tracecache.TraceCache`
    (monotonic over its lifetime)."""

    memo_hits: int = 0
    disk_hits: int = 0
    compiles: int = 0
    oversize: int = 0
    quarantined: int = 0

    @property
    def requests(self) -> int:
        """Total ``get`` calls resolved."""
        return self.memo_hits + self.disk_hits + self.compiles + self.oversize

    @property
    def hits(self) -> int:
        """Requests served without a (re)compile."""
        return self.memo_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from memo or disk."""
        return self.hits / self.requests if self.requests else 0.0

    def snapshot(self) -> "TraceCacheStats":
        return dataclasses.replace(self)

    def since(self, earlier: "TraceCacheStats") -> "TraceCacheStats":
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        return TraceCacheStats(
            memo_hits=self.memo_hits - earlier.memo_hits,
            disk_hits=self.disk_hits - earlier.disk_hits,
            compiles=self.compiles - earlier.compiles,
            oversize=self.oversize - earlier.oversize,
            quarantined=self.quarantined - earlier.quarantined,
        )

    def summary(self) -> dict[str, float]:
        """JSON-friendly rendering (journal / bench / CLI one-liners)."""
        return {
            "requests": self.requests,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "compiles": self.compiles,
            "oversize": self.oversize,
            "quarantined": self.quarantined,
            "hit_rate": round(self.hit_rate, 4),
        }


def human_bytes(size: float) -> str:
    """``1536`` → ``'1.5 KiB'``; sizes below 1 KiB stay exact."""
    size = float(size)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if size < 1024 or unit == "TiB":
            if unit == "B":
                return f"{int(size)} B"
            return f"{size:.1f} {unit}"
        size /= 1024
    raise AssertionError("unreachable")


def human_seconds(seconds: float) -> str:
    """``0.00042`` → ``'420us'``; ``75.3`` → ``'1m15s'``."""
    if seconds < 0:
        return f"-{human_seconds(-seconds)}"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 60:
        return f"{seconds:.2f}s"
    minutes, rem = divmod(seconds, 60.0)
    return f"{int(minutes)}m{rem:.0f}s"
