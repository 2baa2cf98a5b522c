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
    ``run_many`` (the figures' prefetch hook) is a no-op and ``solo`` /
    ``mix`` answer directly with synthetic cycles.
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
        self._base = {
            name: 1000 * (index + 1) for index, name in enumerate(zoo.NAMES)
        }

    def run_many(self, specs, jobs=None, progress=None):
        list(specs)  # planners must at least produce valid specs
        return {}

    # -- solo ---------------------------------------------------------- #
    def solo(self, workload, *, channels=4, num_ptw=None, tlb_entries=None,
             page_bytes=4096, translation=True):
        base = self._base[workload]
        # More channels help sub-linearly; bigger pages shave 10%.
        factor = 1.0 + 4.0 / channels
        if page_bytes > 4096:
            factor *= 0.9
        return {"cycles": int(base * factor)}

    def ideal(self, workload, num_cores, *, page_bytes=4096, translation=True):
        return self.solo(
            workload, channels=4 * num_cores, page_bytes=page_bytes,
            translation=translation,
        )

    def static_equal(self, workload, *, page_bytes=4096, translation=True):
        return self.solo(
            workload, page_bytes=page_bytes, translation=translation
        )

    # -- mix ------------------------------------------------------------ #
    def mix(self, names, sharing, *, page_bytes=4096, translation=True,
            ptw_split=None, num_ptw_per_core=None, tlb_entries_per_core=None):
        # Sharing recovers a fixed fraction of the static loss; walker
        # splits skew the two cores.
        recover = {
            SharingLevel.D: 0.5,
            SharingLevel.DW: 0.75,
            SharingLevel.DWT: 0.80,
        }[sharing]
        results = []
        for index, name in enumerate(names):
            ideal = self.ideal(name, len(names))["cycles"]
            static = self.static_equal(name)["cycles"]
            cycles = static - recover * (static - ideal)
            if ptw_split is not None:
                total = sum(ptw_split)
                share = ptw_split[index] / total
                cycles *= 1.0 + max(0.0, 0.5 - share)  # starved side slows
            if page_bytes > 4096:
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
        ideal = {n: runner.ideal(n, 2)["cycles"] for n in zoo.NAMES}
        static = {n: runner.static_equal(n)["cycles"] for n in zoo.NAMES}
        speeds = figures.mix_speedups(
            runner, ("res", "yt"), SharingLevel.STATIC, ideal, static
        )
        assert speeds[0] == pytest.approx(ideal["res"] / static["res"])

    def test_geomean_of_speedups_matches_manual(self, runner):
        data = figures.fig4_dual_performance(runner, [("res", "yt")])
        speeds = data["sweep"]["speedups"]["res+yt"]["+D"]
        manual = math.sqrt(speeds[0] * speeds[1])
        assert data["per_mix"]["res+yt"]["+D"] == pytest.approx(manual)
