"""Pinned figure outputs: every cached figure's reduction, byte for byte.

``perfbench/digests.json`` and the golden corpus pin *simulated* results;
this suite pins what the figures make of them.  Every figure in
:data:`~repro.experiments.figures.FIGURE_PLANNERS` is regenerated through
its public function on :class:`SyntheticRunner`, whose results are a pure
function of each planned spec's descriptor, twice: healthy, and with one
mix (or, for a figure without mixes, one workload) failed.  The
bandwidth- and PTW-partition figures and fig4/6 are pinned once more
over a real dual mix at mini scale.  Each pin is the sha256 of the
output's ``json.dumps(..., sort_keys=True)``.

Refreshing the pins is an intentional act, only when a figure's output
is meant to change::

    PYTHONPATH=src:. python -m tests.test_figure_outputs
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import RunFailure
from repro.experiments import figures
from repro.experiments.runner import ExperimentRunner
from repro.models import zoo

from tests.conftest import FIGURES

PINS_PATH = Path(__file__).parent / "golden" / "figure_outputs.json"

DUAL = [("ncf", "res"), ("alex", "gpt2"), ("yt", "yt"), ("dlrm", "ncf")]
QUAD = [("ncf", "res", "alex", "gpt2"), ("yt", "yt", "dlrm", "ds2")]

#: Figure name -> its public function over (runner, dual, quad).
PUBLIC = {
    "fig4": lambda runner, dual, quad: figures.fig4_dual_performance(runner, dual),
    "fig5": lambda runner, dual, quad: figures.fig5_quad_performance(runner, quad),
    "fig6": lambda runner, dual, quad: figures.fig6_dual_fairness(runner, dual),
    "fig7": lambda runner, dual, quad: figures.fig7_quad_fairness(runner, quad),
    "fig8": lambda runner, dual, quad: figures.fig8_sensitivity(runner, dual),
    "fig9": lambda runner, dual, quad: (
        figures.fig9_bandwidth_partition_performance(runner, dual)
    ),
    "fig10": lambda runner, dual, quad: (
        figures.fig10_bandwidth_partition_fairness(runner, dual)
    ),
    "fig11": lambda runner, dual, quad: figures.fig11_bandwidth_sweep(runner),
    "fig13": lambda runner, dual, quad: (
        figures.fig13_ptw_partition_performance(runner, dual)
    ),
    "fig14": lambda runner, dual, quad: (
        figures.fig14_ptw_partition_fairness(runner, dual)
    ),
    "fig15": lambda runner, dual, quad: figures.fig15_pagesize_single(runner),
    "fig16": lambda runner, dual, quad: figures.fig16_pagesize_multi(runner, 2, dual),
    "dataflow_compare": lambda runner, dual, quad: figures.dataflow_compare(runner),
    "serving_colocation": lambda runner, dual, quad: (
        figures.serving_colocation(runner)
    ),
}


def synthetic_results(spec):
    """Per-workload results derived from nothing but the spec's descriptor.

    Each core's cycles are a per-workload base scaled by up to +50%, so
    speedups and slowdowns stay in the range where every metric
    (fairness included) is defined.
    """
    seed = hashlib.sha256(
        json.dumps(spec.descriptor(), sort_keys=True).encode()
    ).digest()
    bases = [
        10000 * (1 + sorted(zoo.NAMES).index(name.split(":")[0]))
        for name in spec.workloads
    ]
    return [
        {"cycles": base + base * seed[core] // 500}
        for core, base in enumerate(bases)
    ]


class SyntheticRunner(ExperimentRunner):
    """A runner that answers every batch without simulating it.

    Specs for which ``fails(spec)`` holds fail terminally: absent from
    the batch's results and recorded in :attr:`failures`, exactly as a
    supervised batch records them.
    """

    def __init__(self, cache_dir, fails=lambda spec: False):
        super().__init__(cache_dir=cache_dir, journal=False)
        self.fails = fails

    def run_many(self, specs, jobs=None, progress=None, **kwargs):
        results = {}
        for spec in dict.fromkeys(self.plan(spec) for spec in specs):
            self.failures.pop(spec, None)
            if self.fails(spec):
                self.failures[spec] = RunFailure(
                    spec=spec, kind="crash", attempts=3, error="synthetic failure"
                )
            else:
                results[spec] = synthetic_results(spec)
        return results


def degraded_runner(figure, tmp_path):
    """A runner on which a figure's first planned mix fails.

    Every run of that mix's workloads fails; a figure without mixes
    loses every run of its first planned workload instead.
    """
    specs = figures.FIGURE_PLANNERS[figure](SyntheticRunner(tmp_path), DUAL, QUAD)
    mixes = [spec for spec in specs if spec.kind == "mix"]
    failed = (mixes or specs)[0].workloads
    return SyntheticRunner(tmp_path, fails=lambda spec: spec.workloads == failed)


def output_digest(output):
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def synthetic_digests(tmp_path):
    """``{figure: {"healthy": digest, "failed": digest}}`` for every figure."""
    digests = {}
    for figure in figures.FIGURE_PLANNERS:
        healthy = PUBLIC[figure](SyntheticRunner(tmp_path), DUAL, QUAD)
        degraded = PUBLIC[figure](degraded_runner(figure, tmp_path), DUAL, QUAD)
        assert "failures" not in healthy
        assert degraded["failures"]
        digests[figure] = {
            "healthy": output_digest(healthy),
            "failed": output_digest(degraded),
        }
    return digests


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


def test_every_cached_figure_has_a_public_function():
    assert set(PUBLIC) == set(figures.FIGURE_PLANNERS)


@pytest.mark.parametrize("figure", sorted(figures.FIGURE_PLANNERS))
def test_synthetic_outputs_match_pins(figure, pins, tmp_path):
    runner = SyntheticRunner(tmp_path)
    healthy = PUBLIC[figure](runner, DUAL, QUAD)
    assert output_digest(healthy) == pins["synthetic"][figure]["healthy"]

    degraded = PUBLIC[figure](degraded_runner(figure, tmp_path), DUAL, QUAD)
    assert degraded["failures"]
    assert output_digest(degraded) == pins["synthetic"][figure]["failed"]


def test_each_figure_reports_only_its_own_failures(tmp_path):
    healthy = figures.fig4_dual_performance(SyntheticRunner(tmp_path), DUAL)
    # A 1-of-8 channel share with translation off: planned by fig9 only.
    runner = SyntheticRunner(
        tmp_path, fails=lambda spec: not spec.translation and spec.channels == 1
    )
    fig9 = figures.fig9_bandwidth_partition_performance(runner, DUAL)
    fig4 = figures.fig4_dual_performance(runner, DUAL)
    assert len(fig9["failures"]) == len(runner.failures) == 8
    assert "failures" not in fig4
    assert output_digest(fig4) == output_digest(healthy)


def test_real_mix_outputs_match_pins(filled_cache, pins):
    _, outputs = filled_cache
    outputs = json.loads(outputs)
    assert set(outputs) == set(FIGURES)
    assert {
        figure: output_digest(output) for figure, output in outputs.items()
    } == pins["real"]


if __name__ == "__main__":
    import tempfile

    from tests.conftest import regenerate

    with tempfile.TemporaryDirectory() as scratch:
        synthetic = synthetic_digests(Path(scratch) / "synthetic")
        filler = ExperimentRunner(
            cache_dir=Path(scratch) / "real", jobs=2, journal=False
        )
        real = {
            figure: output_digest(output)
            for figure, output in regenerate(filler).items()
        }
    PINS_PATH.write_text(
        json.dumps({"synthetic": synthetic, "real": real}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {PINS_PATH}")
