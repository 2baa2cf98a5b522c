"""Shared fixtures: one real mini-scale figure cache per test session.

Several suites need the same warm cache (every spec of the sharing and
bandwidth-partition figures over one dual mix); simulating it once per
session instead of once per module keeps the tier-1 run short.
"""

import json

import pytest

from repro.experiments import figures
from repro.experiments.runner import ExperimentRunner

#: Figure groups regenerated over the real cache, one sweep each, in
#: order: the sharing figures, then the bandwidth-partition figures.
GROUPS = (("fig4", "fig6", "fig13", "fig14"), ("fig9", "fig10"))
FIGURES = tuple(figure for group in GROUPS for figure in group)
REDUCERS = {
    "fig4": figures.fig4_dual_performance,
    "fig6": figures.fig6_dual_fairness,
    "fig13": figures.fig13_ptw_partition_performance,
    "fig14": figures.fig14_ptw_partition_fairness,
    "fig9": figures.fig9_bandwidth_partition_performance,
    "fig10": figures.fig10_bandwidth_partition_fairness,
}
#: The one real dual mix the shared cache holds.
MIXES = [("ncf", "dlrm")]


def planned(runner, group=FIGURES):
    """The distinct specs the figures of ``group`` plan, in planner order."""
    specs = [
        spec
        for figure in group
        for spec in figures.FIGURE_PLANNERS[figure](runner, MIXES, None)
    ]
    return list(dict.fromkeys(runner.plan(spec) for spec in specs))


def regenerate(runner):
    """Every figure's output, each group after one ``run_many`` of its plan."""
    outputs = {}
    for group in GROUPS:
        runner.run_many(planned(runner, group))
        for figure in group:
            outputs[figure] = REDUCERS[figure](runner, MIXES)
    return outputs


@pytest.fixture(scope="session")
def filled_cache(tmp_path_factory):
    """``(cache_dir, outputs JSON)`` of a cache holding every spec of FIGURES."""
    cache_dir = tmp_path_factory.mktemp("figure_cache")
    filler = ExperimentRunner(cache_dir=cache_dir, jobs=2, journal=False)
    outputs = regenerate(filler)
    assert not filler.failures
    return cache_dir, json.dumps(outputs, sort_keys=True)
