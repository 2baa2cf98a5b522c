"""The benchmark's workloads: which figures each one regenerates, and how.

A workload is a set of figure names from
:data:`repro.experiments.figures.FIGURE_PLANNERS`.  Planning and
reduction go through the public API exactly as ``mnpusim sweep`` does
with its default options: the planners collect the spec set, one
``run_many`` executes it, and the figure reducers read the results back.
The workload seed picks the dual mixes; the runner only sees the
planned specs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, ContextManager, Mapping

from repro.experiments import ExperimentRunner, RunSpec, all_mixes, figures
from repro.models import zoo

#: Worker processes of every timed sweep (``mnpusim sweep --jobs 2``).
JOBS = 2

#: The seed whose simulated results are pinned in ``digests.json``.
DEFAULT_SEED = 0

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Workload:
    """One figure set the benchmark regenerates."""

    name: str
    figures: tuple[str, ...]
    #: Whether the workload seed changes the spec set.
    seeded: bool = True


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Why each workload was chosen: see README.md and BENCHMARK.json.
        Workload("sharing", ("fig4", "fig6", "fig13", "fig14")),
        Workload("bandwidth", ("fig9", "fig10")),
        # The serving seed stays at its default: across serving seeds the
        # simulated work differs by up to 2.5x, which would make cold_s
        # measure the seed instead of the simulator.
        Workload("serving", ("serving_colocation",), seeded=False),
    )
}

#: Figure name -> reducer(runner, dual mixes) -> figure data.
REDUCERS: dict[str, Callable[[ExperimentRunner, list], dict[str, Any]]] = {
    "fig4": figures.fig4_dual_performance,
    "fig6": figures.fig6_dual_fairness,
    "fig9": figures.fig9_bandwidth_partition_performance,
    "fig10": figures.fig10_bandwidth_partition_fairness,
    "fig13": figures.fig13_ptw_partition_performance,
    "fig14": figures.fig14_ptw_partition_fairness,
    "serving_colocation": lambda runner, dual: figures.serving_colocation(runner),
}


def seeded_mixes(seed: int) -> list[tuple[str, ...]]:
    """Four dual mixes that pair up the eight zoo models, picked by ``seed``.

    Every model runs in exactly one mix, so each seed simulates the same
    models under different co-runners: the seed changes who contends
    with whom, not how much there is to simulate.  Each pair is one of
    the 36 mixes of :func:`all_mixes`, listed in that order.
    """
    names = list(zoo.NAMES)
    random.Random(f"perfbench-mixes:{seed}").shuffle(names)
    rank = {mix: index for index, mix in enumerate(all_mixes(2))}
    pairs = [
        tuple(sorted(names[index : index + 2], key=zoo.NAMES.index))
        for index in range(0, len(names), 2)
    ]
    return sorted(pairs, key=rank.__getitem__)


def make_runner(
    cache_dir: Path, jobs: int = JOBS, *, profile: bool = False
) -> ExperimentRunner:
    """A runner configured as ``mnpusim sweep --quiet`` configures one."""
    return ExperimentRunner(cache_dir=cache_dir, jobs=jobs, profile=profile)


def plan(name: str, runner: ExperimentRunner, seed: int) -> list[RunSpec]:
    """The workload's distinct planned specs, in planner order."""
    dual = seeded_mixes(seed)
    specs = [
        spec
        for figure in WORKLOADS[name].figures
        for spec in figures.FIGURE_PLANNERS[figure](runner, dual, None)
    ]
    return list(dict.fromkeys(runner.plan(spec) for spec in specs))


def reduce(
    name: str,
    runner: ExperimentRunner,
    seed: int,
    span: Callable[[str], ContextManager[Any]] | None = None,
) -> dict[str, Any]:
    """Every figure of the workload, from the runner's results.

    ``span(label)`` wraps each reducer call when given (the traced run).
    """
    dual = seeded_mixes(seed)
    outputs = {}
    for figure in WORKLOADS[name].figures:
        scope = span(f"reduce.{figure}") if span else contextlib.nullcontext()
        with scope:
            outputs[figure] = REDUCERS[figure](runner, dual)
    return outputs


def setup(name: str, seed: int, cache_dir: Path) -> int:
    """Construct the runner and plan the spec set; the set-up probe's work."""
    return len(plan(name, make_runner(cache_dir), seed))


def _digest(value: Any) -> str:
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def results_digest(results: Mapping[RunSpec, list[dict[str, Any]]]) -> str:
    """Digest of every simulated result, keyed by spec cache key."""
    return _digest(sorted((spec.cache_key(), value) for spec, value in results.items()))


def output_digest(outputs: Mapping[str, Any]) -> str:
    """Digest of the reducers' figure data."""
    return _digest(outputs)


def check_pinned(
    name: str, seed: int, digest: str, path: Path = DIGESTS_PATH
) -> str | None:
    """A mismatch message when ``digest`` differs from the pinned one.

    The pins hold the results at :data:`DEFAULT_SEED`, which are the
    results at every seed for an unseeded workload.  Other seeds of a
    seeded workload pass here and rely on the cold/warm and
    traced/untraced comparisons.
    """
    if seed != DEFAULT_SEED and WORKLOADS[name].seeded:
        return None
    expected = json.loads(path.read_text())["results"].get(name)
    if expected is None:
        return f"{name}: no pinned digest in {path.name}"
    if digest != expected:
        return f"{name}: results digest {digest[:16]} != pinned {expected[:16]}"
    return None
