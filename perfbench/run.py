"""Figure-regeneration benchmark: set-up, cold and warm sweep time.

Run from the repository root::

    python3 perfbench/run.py --workload sharing --seed 0 --seconds 45 --trace 0

``--workload all`` runs ``sharing``, ``bandwidth`` and ``serving`` in
turn.  With ``--trace 0`` the run times, all with tracing off:

* ``setup_s`` -- median wall time of fresh interpreters that import
  ``repro``, construct the runner and plan the spec set;
* ``cold_s`` -- median wall time of cold sweeps (``run_many`` over the
  spec set plus the figure reducers), each from an empty result cache
  and an empty trace-cache memo, ``jobs=2``;
* ``warm_ms_mean`` / ``warm_ms_p90`` -- per-pass latency of at least
  102 warm passes, each on a fresh runner over the filled disk cache;
* ``peak_rss_mb`` -- peak resident memory of this process plus its
  largest child (pool worker or set-up probe).

With ``--trace 1`` it instead reports the per-layer split of a traced
serial sweep (see ``trace`` and ``tracing.py``).  Every run checks its results
and exits 1 on a mismatch.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: temporary caches and span files.
WORKDIR = ROOT / ".perfbench"

#: Minimum rounds of a run; each is a cold sweep, a set-up probe and warm passes.
ROUNDS = 3
#: Minimum warm passes per round (at least 102 in all).
WARM_PASSES = 34
#: Share of ``--seconds`` given to warm passes, split over the rounds.
WARM_SHARE = 0.35

_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; "
    "from perfbench.workloads import setup; "
    "setup(sys.argv[3], int(sys.argv[4]), sys.argv[5])"
)


@dataclass
class Report:
    """Metrics and correctness of one benchmark invocation."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, prefix: str, metrics: dict[str, tuple[float, str]]) -> None:
        for name, value in metrics.items():
            self.metrics[prefix + name] = value

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


@dataclass
class Sweep:
    """One cold sweep or warm pass."""

    seconds: float
    results_digest: str
    output_digest: str
    attempted: int
    failed: int
    executed: int
    #: The runner's ``execute`` phase seconds (``profile=True`` only).
    execute_s: float = 0.0
    trace_hits: int = 0
    trace_requests: int = 0


def _sweep(
    name: str,
    seed: int,
    cache_dir: Path,
    jobs: int,
    *,
    profile: bool = False,
    recorder: Any = None,
) -> Sweep:
    """Regenerate the workload's figures on a fresh runner over ``cache_dir``.

    The trace-cache memo is cleared first, so a cold sweep compiles its
    frontends and forked workers inherit nothing from earlier sweeps.
    Only ``run_many`` and the reducers are timed.
    """
    from repro.compute import tracecache

    from perfbench import workloads

    cache = tracecache.process_cache()
    cache.clear_memo()
    runner = workloads.make_runner(cache_dir, jobs, profile=profile)
    specs = workloads.plan(name, runner, seed)
    span = recorder.span if recorder is not None else None
    before = cache.stats.snapshot()
    start = time.perf_counter()
    with span("sweep") if span else contextlib.nullcontext():
        results = runner.run_many(specs)
    outputs = workloads.reduce(name, runner, seed, span)
    seconds = time.perf_counter() - start
    delta = cache.stats.since(before)
    return Sweep(
        seconds=seconds,
        results_digest=workloads.results_digest(results),
        output_digest=workloads.output_digest(outputs),
        attempted=len(specs),
        failed=len(runner.failures),
        executed=runner.runs_executed,
        execute_s=runner.profiler.seconds("execute") if profile else 0.0,
        trace_hits=delta.hits,
        trace_requests=delta.requests,
    )


def _setup_probe(name: str, seed: int, scratch: Path) -> float:
    cache_dir = tempfile.mkdtemp(prefix="setup-", dir=scratch)
    args = [str(SRC), str(ROOT), name, str(seed), cache_dir]
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _PROBE, *args],
        check=True,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    seconds = time.perf_counter() - start
    shutil.rmtree(cache_dir)
    return seconds


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _check_results(report: Report, name: str, seed: int, sweeps: list[Sweep]) -> None:
    """Every sweep agrees with the first, and the first with the pin."""
    from perfbench import workloads

    first = sweeps[0]
    for sweep in sweeps[1:]:
        report.check(
            sweep.results_digest == first.results_digest,
            f"{name}: simulated results differ between sweeps",
        )
        report.check(
            sweep.output_digest == first.output_digest,
            f"{name}: figure outputs differ between sweeps",
        )
    mismatch = workloads.check_pinned(name, seed, first.results_digest)
    report.check(mismatch is None, mismatch or "")
    report.notes.append(f"{name} results digest {first.results_digest}")


def measure(
    report: Report, name: str, seed: int, seconds: float, scratch: Path
) -> dict[str, tuple[float, str]]:
    """The untraced end-to-end metrics of one workload.

    The run is a sequence of rounds, each a cold sweep followed by a set-up
    probe and warm passes over the cache that sweep filled, until there
    are :data:`ROUNDS` rounds and ``seconds`` have passed.  Interleaving
    spreads every metric's samples over the whole run, so a slow spell
    of the host weighs on all of them alike instead of on one.
    """
    from perfbench import workloads

    setup: list[float] = []
    cold: list[Sweep] = []
    warm: list[Sweep] = []
    warm_seconds = WARM_SHARE * seconds / ROUNDS
    started = time.perf_counter()
    while len(cold) < ROUNDS or time.perf_counter() - started < seconds:
        cache_dir = Path(tempfile.mkdtemp(prefix=f"cold-{name}-", dir=scratch))
        cold.append(_sweep(name, seed, cache_dir, workloads.JOBS))
        setup.append(_setup_probe(name, seed, scratch))
        block = time.perf_counter()
        passes = 0
        while passes < WARM_PASSES or time.perf_counter() - block < warm_seconds:
            warm.append(_sweep(name, seed, cache_dir, workloads.JOBS))
            passes += 1
        shutil.rmtree(cache_dir)

    _check_results(report, name, seed, cold)
    for sweep in warm:
        report.check(
            sweep.output_digest == cold[0].output_digest,
            f"{name}: warm figure outputs differ from cold",
        )
        report.check(sweep.executed == 0, f"{name}: a warm pass re-simulated specs")
    report.attempted += sum(sweep.attempted for sweep in cold + warm)
    report.failed += sum(sweep.failed for sweep in cold + warm)
    warm_ms = [sweep.seconds * 1000.0 for sweep in warm]
    deciles = statistics.quantiles(warm_ms, n=10)
    report.notes.append(
        f"{name}: {len(cold)} cold sweeps "
        f"{[round(sweep.seconds, 4) for sweep in cold]} s; {len(setup)} set-up "
        f"probes {[round(value, 4) for value in setup]} s; {len(warm)} warm "
        f"passes, deciles {[round(value, 3) for value in deciles]} ms"
    )
    return {
        "setup_s": (statistics.median(setup), "s"),
        "cold_s": (statistics.median(sweep.seconds for sweep in cold), "s"),
        "warm_ms_mean": (statistics.fmean(warm_ms), "ms"),
        "warm_ms_p90": (deciles[8], "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _journal_retries(cache_dir: Path) -> int:
    journal = cache_dir / "journal.jsonl"
    lines = journal.read_text().splitlines() if journal.exists() else []
    return sum(json.loads(line).get("event") == "retry" for line in lines if line)


def trace(
    report: Report, name: str, seed: int, scratch: Path
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one workload, from a traced serial sweep.

    Three cold sweeps: the untraced pool sweep (``jobs=2``) and an
    untraced serial sweep give the pool efficiency and the baselines of
    the tracing overhead; the traced serial sweep gives the split.  All
    three must produce the same results.
    """
    from perfbench import tracing, workloads

    recorder, counts = tracing.SpanRecorder(), Counter()
    sweeps = {}
    retries = 0
    for label, jobs in (("pool", workloads.JOBS), ("serial", 1), ("traced", 1)):
        cache_dir = Path(tempfile.mkdtemp(prefix=f"trace-{name}-", dir=scratch))
        if label == "traced":
            with tracing.instrument(recorder, counts):
                sweeps[label] = _sweep(name, seed, cache_dir, jobs, recorder=recorder)
        else:
            sweeps[label] = _sweep(name, seed, cache_dir, jobs, profile=True)
        retries += _journal_retries(cache_dir)
        shutil.rmtree(cache_dir)

    _check_results(report, name, seed, list(sweeps.values()))
    report.attempted += sum(sweep.attempted for sweep in sweeps.values())
    report.failed += sum(sweep.failed for sweep in sweeps.values())
    spans_path = WORKDIR / f"spans-{name}-seed{seed}.json"
    recorder.write(spans_path)
    report.notes.append(f"{name}: spans written to {spans_path.relative_to(ROOT)}")

    traced = sweeps["traced"]
    metrics = tracing.layer_metrics(
        recorder, counts, traced.trace_hits, traced.trace_requests
    )
    metrics["runner.pool_efficiency"] = (
        sweeps["serial"].execute_s / (workloads.JOBS * sweeps["pool"].execute_s),
        "ratio",
    )
    metrics["runner.retries"] = (retries, "count")
    metrics["trace.overhead_vs_serial"] = (
        traced.seconds / sweeps["serial"].seconds,
        "x",
    )
    metrics["trace.overhead_vs_cold"] = (traced.seconds / sweeps["pool"].seconds, "x")
    return metrics


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--workload", required=True, help="sharing, bandwidth, serving or all"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    # Pool workers started by spawn or forkserver import from these too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(ROOT), os.environ.get("PYTHONPATH")])
    )
    from perfbench import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    WORKDIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORKDIR))
    report = Report()
    try:
        for name in names:
            if args.trace:
                metrics = trace(report, name, args.seed, scratch)
            else:
                metrics = measure(report, name, args.seed, args.seconds, scratch)
            report.add(f"{name}." if len(names) > 1 else "", metrics)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for note in report.notes:
        print(f"# {note}")
    for metric, (value, unit) in report.metrics.items():
        print(f"{metric:32s} {value:>16.6f} {unit}")
    failed_ratio = report.failed / report.attempted
    print(f"{'failed_ratio':32s} {failed_ratio:>16.6f} ratio")
    for error in report.errors:
        print(f"error: {error}", file=sys.stderr)
    correct = not report.errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in report.metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
