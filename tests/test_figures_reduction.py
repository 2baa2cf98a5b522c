"""Unit tests of the figure reducers' math, using a stubbed runner.

These verify the reductions (normalization, geomeans, fairness, CDFs,
best-static selection) without paying for simulations: the stub returns
synthetic cycle counts with known relationships.
"""

import math

import pytest

from repro.core.sharing import SharingLevel
from repro.experiments import figures
from repro.experiments.runner import ExperimentRunner
from repro.models import zoo


class StubRunner:
    """Deterministic fake: cycles derived from workload name + config.

    Planning is pure spec construction, so the stub borrows the real
    runner's ``plan_*`` methods and stubs only the execution side:
    ``run_many`` answers every planned spec with synthetic cycles.
    """

    scale = "mini"
    dataflow = "os"
    phase = None
    serving = None
    plan_solo = ExperimentRunner.plan_solo
    plan_ideal = ExperimentRunner.plan_ideal
    plan_static_equal = ExperimentRunner.plan_static_equal
    plan_mix = ExperimentRunner.plan_mix
    _plan_serving = ExperimentRunner._plan_serving

    def __init__(self):
        self.per_core = {"channels": 4, "num_ptw": 1, "tlb_entries": 64}
        self.failures = {}
        self._base = {
            name: 1000 * (index + 1) for index, name in enumerate(zoo.NAMES)
        }

    def run_many(self, specs, jobs=None, progress=None):
        return {spec: self.results(spec) for spec in specs}

    def results(self, spec):
        if spec.kind == "solo":
            return [self.solo_cycles(spec.workloads[0], spec.channels, spec.page_bytes)]
        return self.mix_cycles(spec)

    # -- solo ---------------------------------------------------------- #
    def solo_cycles(self, workload, channels=4, page_bytes=4096):
        base = self._base[workload]
        # More channels help sub-linearly; bigger pages shave 10%.
        factor = 1.0 + 4.0 / channels
        if page_bytes > 4096:
            factor *= 0.9
        return {"cycles": int(base * factor)}

    def ideal_cycles(self, workload, num_cores):
        return self.solo_cycles(workload, channels=4 * num_cores)["cycles"]

    def static_cycles(self, workload):
        return self.solo_cycles(workload)["cycles"]

    # -- mix ------------------------------------------------------------ #
    def mix_cycles(self, spec):
        # Sharing recovers a fixed fraction of the static loss; walker
        # splits skew the two cores.
        recover = {
            SharingLevel.D: 0.5,
            SharingLevel.DW: 0.75,
            SharingLevel.DWT: 0.80,
        }[spec.sharing_level]
        results = []
        for index, name in enumerate(spec.workloads):
            ideal = self.ideal_cycles(name, len(spec.workloads))
            static = self.static_cycles(name)
            cycles = static - recover * (static - ideal)
            if spec.ptw_split is not None:
                total = sum(spec.ptw_split)
                share = spec.ptw_split[index] / total
                cycles *= 1.0 + max(0.0, 0.5 - share)  # starved side slows
            if spec.page_bytes > 4096:
                cycles *= 0.92
            results.append({"cycles": int(cycles), "workload": name})
        return results


@pytest.fixture()
def runner():
    return StubRunner()


MIXES2 = [("res", "yt"), ("alex", "gpt2"), ("ncf", "ncf")]


class TestSharingSweepReduction:
    def test_fig4_ordering_follows_recovery_fractions(self, runner):
        data = figures.fig4_dual_performance(runner, MIXES2)
        overall = data["overall"]
        assert overall["Static"] < overall["+D"] < overall["+DW"] < overall["+DWT"]

    def test_fig4_identical_pair_has_equal_speedups(self, runner):
        data = figures.fig4_dual_performance(runner, [("ncf", "ncf")])
        speeds = data["sweep"]["speedups"]["ncf+ncf"]["+DWT"]
        assert speeds[0] == pytest.approx(speeds[1])

    def test_fig6_fairness_is_one_for_uniform_recovery(self, runner):
        # The stub slows both mix members by the same slowdown factor
        # only for identical pairs.
        data = figures.fig6_dual_fairness(runner, [("ncf", "ncf")])
        assert data["per_mix"]["ncf+ncf"]["+DWT"] == pytest.approx(1.0)

    def test_fig5_cdf_fraction_axis(self, runner):
        data = figures.fig5_quad_performance(
            runner, [("res", "yt", "alex", "gpt2"), ("ncf",) * 4]
        )
        for level, points in data["cdf"].items():
            assert points[-1][1] == 1.0
            values = [v for v, _ in points]
            assert values == sorted(values)


class TestPagesizeReduction:
    def test_fig15_speedup_matches_stub_factor(self, runner):
        data = figures.fig15_pagesize_single(runner)
        for name in zoo.NAMES:
            assert data["per_workload"][name]["64KB"] == pytest.approx(
                1 / 0.9, rel=0.01
            )

    def test_fig16_performance_normalized_to_4kb(self, runner):
        data = figures.fig16_pagesize_multi(runner, 2, MIXES2)
        for mix_label, values in data["performance"].items():
            assert values["4KB"] == pytest.approx(1.0)
            assert values["64KB"] == pytest.approx(1 / 0.92, rel=0.01)


class TestPtwPartitionReduction:
    def test_fig13_equal_split_beats_skew_in_stub(self, runner):
        data = figures.fig13_ptw_partition_performance(runner, MIXES2)
        overall = data["overall"]
        assert overall["2:2"] > overall["1:3"]
        assert overall["2:2"] > overall["3:1"]

    def test_fig14_fairness_penalizes_skew(self, runner):
        data = figures.fig14_ptw_partition_fairness(runner, MIXES2)
        overall = data["overall"]
        assert overall["1:3"] < overall["2:2"]


class TestMixSpeedupsHelper:
    def test_static_level_uses_solo_results(self, runner):
        data = figures.fig4_dual_performance(runner, [("res", "yt")])
        speeds = data["sweep"]["speedups"]["res+yt"]["Static"]
        ideal = runner.ideal_cycles("res", 2)
        static = runner.static_cycles("res")
        assert speeds[0] == pytest.approx(ideal / static)

    def test_geomean_of_speedups_matches_manual(self, runner):
        data = figures.fig4_dual_performance(runner, [("res", "yt")])
        speeds = data["sweep"]["speedups"]["res+yt"]["+D"]
        manual = math.sqrt(speeds[0] * speeds[1])
        assert data["per_mix"]["res+yt"]["+D"] == pytest.approx(manual)
