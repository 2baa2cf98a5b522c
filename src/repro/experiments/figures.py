"""Per-figure/table reducers: each function regenerates one paper result.

Every function returns plain dicts/lists ready for printing (see
``repro.experiments.report``) or plotting.  Simulation results come from
an :class:`~repro.experiments.runner.ExperimentRunner`, so repeated calls
are served from the on-disk cache.

Every cached figure is two parts, registered together in :data:`FIGURES`:

* a **plan** naming each run the figure needs as ``{key: RunSpec}``,
  where a key is a small tuple such as ``("ideal", name)`` or
  ``("mix", mix, level)``;
* a pure **reduce** from ``{key: results}`` to the figure's output, in
  which a missing key is a failed run (the figure degrades instead of
  aborting).

A public ``figN_*`` function plans its figure once, executes the plan in
one :meth:`ExperimentRunner.run_many` batch (in parallel when the
runner's ``jobs > 1``; every spec a cache hit when warm) and reduces the
results.  :data:`FIGURE_PLANNERS` exposes the plans as spec lists, so
``mnpusim sweep`` can batch *several* figures into one parallel fan-out.

Index (paper -> function):

====== =============================================
Fig 2b :func:`fig2_burstiness`
Fig 4  :func:`fig4_dual_performance`
Fig 5  :func:`fig5_quad_performance`
Fig 6  :func:`fig6_dual_fairness`
Fig 7  :func:`fig7_quad_fairness`
Fig 8  :func:`fig8_sensitivity`
Fig 9  :func:`fig9_bandwidth_partition_performance`
Fig 10 :func:`fig10_bandwidth_partition_fairness`
Fig 11 :func:`fig11_bandwidth_sweep`
Fig 12 :func:`fig12_bandwidth_utilization`
Fig 13 :func:`fig13_ptw_partition_performance`
Fig 14 :func:`fig14_ptw_partition_fairness`
Fig 15 :func:`fig15_pagesize_single`
Fig 16 :func:`fig16_pagesize_multi`
Fig 17 :func:`repro.mapping.mapper.fig17_mapping_performance`
Fig 18 :func:`repro.mapping.mapper.fig18_mapping_fairness`
Tab 1  :func:`table1_models`
Tab 2  :func:`table2_configuration`
====== =============================================
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, NamedTuple, Sequence

from repro.config import presets
from repro.config.misc import MiscConfig
from repro.core.metrics import box_stats, cdf_points, fairness, geomean
from repro.core.sharing import CONTENDED_LEVELS, SWEEP_LEVELS, SharingLevel
from repro.experiments.mixes import all_mixes, mix_label
from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import RunSpec
from repro.models import zoo
from repro.models.serving import ServingParams

#: DRAM-bandwidth ratio splits of section 4.3 (eight channels, dual-core).
BW_SPLITS = ((1, 7), (2, 6), (4, 4), (6, 2), (7, 1))

#: ``{key: RunSpec}``: every run one figure needs, by plan key.
Plan = dict[Hashable, RunSpec]
#: ``{key: per-workload results}`` of the planned runs that succeeded.
Results = dict[Hashable, list[dict[str, Any]]]
Mixes = Sequence[Sequence[str]] | None


# --------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------- #


def _mixes(mixes: Mixes, num_cores: int) -> list[tuple[str, ...]]:
    """The requested mixes as tuples; every mix of the core count if none."""
    if mixes is None:
        return all_mixes(num_cores)
    return [tuple(mix) for mix in mixes]


def _safe_geomean(values: Sequence[float]) -> float | None:
    """Geomean over the present values; ``None`` when all are missing."""
    present = [value for value in values if value is not None]
    return geomean(present) if present else None


def _fairness(speedups: Sequence[float]) -> float:
    """Equation 1 fairness of a mix, from its per-workload speedups."""
    return fairness([1.0 / value for value in speedups])


def _cycles(results: Results, key: Hashable) -> int | None:
    """Cycles of a planned solo run; ``None`` when it failed."""
    runs = results.get(key)
    return None if runs is None else runs[0]["cycles"]


def _mix_cycles(results: Results, key: Hashable) -> list[int] | None:
    """Per-core cycles of a planned mix run; ``None`` when it failed."""
    runs = results.get(key)
    return None if runs is None else [run["cycles"] for run in runs]


def _speedups(
    baselines: Sequence[int | None], cycles: Sequence[int | None] | None
) -> list[float]:
    """Each core's speedup ``baseline / cycles``.

    ``[]`` (the missing-data marker reducers degrade on) when the run or
    any baseline failed.
    """
    if cycles is None or None in cycles or None in baselines:
        return []
    return [base / value for base, value in zip(baselines, cycles)]


def _reduce_schemes(
    speedups: dict[str, dict[str, list[float]]],
    labels: Sequence[str],
    schemes: Sequence[str],
    metric: Callable[[Sequence[float]], float],
) -> dict[str, Any]:
    """Per-mix and overall ``metric`` of each partitioning scheme."""
    overall = {}
    per_mix: dict[str, dict[str, float]] = {}
    for scheme in schemes:
        values = []
        for label in labels:
            speeds = speedups[label].get(scheme)
            if not speeds:
                continue
            value = metric(speeds)
            per_mix.setdefault(label, {})[scheme] = value
            values.append(value)
        overall[scheme] = _safe_geomean(values)
    return {"per_mix": per_mix, "overall": overall, "schemes": list(schemes)}


def _regenerate(
    runner: ExperimentRunner,
    specs: Plan,
    reduce: Callable[[Results], dict[str, Any]],
) -> dict[str, Any]:
    """Execute a figure's plan as one batch, then reduce what succeeded.

    Summaries of the figure's own failed runs are appended under
    ``"failures"`` — only its planned specs count, since a runner shared
    by several figures (a sweep, the benchmark) records every figure's
    failures.  A fully-successful output has no such key.
    """
    done = runner.run_many(specs.values())
    results = {
        key: runs
        for key, spec in specs.items()
        if (runs := done.get(spec)) is not None
    }
    output = reduce(results)
    if runner.failures:
        planned = set(specs.values())
        summaries = [
            failure.summary()
            for spec, failure in runner.failures.items()
            if spec in planned
        ]
        if summaries:
            output["failures"] = summaries
    return output


def _regenerate_figure(
    name: str, runner: ExperimentRunner, dual: Mixes = None, quad: Mixes = None
) -> dict[str, Any]:
    """Figure ``name`` of :data:`FIGURES` over the given dual/quad mixes."""
    plan, reduce = FIGURES[name]
    return _regenerate(
        runner,
        plan(runner, dual, quad),
        lambda results: reduce(results, dual, quad),
    )


# --------------------------------------------------------------------- #
# Tables 1 & 2
# --------------------------------------------------------------------- #


def table1_models(scale: str = "mini") -> list[dict[str, Any]]:
    """Table 1: the benchmark models, with their topology statistics."""
    rows = []
    for name in zoo.NAMES:
        network = zoo.get(name, scale)
        rows.append(
            {
                "type": zoo.CATEGORIES[name],
                "model": name,
                "layers": len(network.layers),
                "macs": network.total_macs,
                "unique_bytes": network.total_bytes,
                "arithmetic_intensity": round(network.arithmetic_intensity, 2),
            }
        )
    return rows


def table2_configuration(scale: str = "mini") -> dict[str, Any]:
    """Table 2: the baseline single-core NPU + DRAM configuration."""
    arch = presets.cloud_arch(scale)
    npumem = presets.cloud_npumem(scale)
    dram = presets.hbm2_dram(scale)
    return {
        "scale": scale,
        "systolic_array": f"{arch.array_rows}x{arch.array_cols}",
        "spm_bytes": arch.spm_bytes,
        "core_freq_mhz": arch.freq_mhz,
        "tlb_associativity": npumem.tlb_assoc,
        "tlb_entries_per_npu": npumem.tlb_entries,
        "ptw_per_npu": npumem.num_ptw,
        "dram_model": dram.preset,
        "bandwidth_per_npu_gbs": dram.peak_bandwidth_bytes_per_sec() / 1e9,
        "dram_capacity_bytes": dram.capacity_bytes,
        "dram_freq_mhz": dram.freq_mhz,
    }


# --------------------------------------------------------------------- #
# Figure 2(b): burstiness
# --------------------------------------------------------------------- #


def fig2_burstiness(
    workload: str = "ncf",
    scale: str = "mini",
    window: int = 1000,
) -> dict[str, Any]:
    """Moving count of DRAM requests per window for a single-core run."""
    from repro.core.simulator import MultiCoreNPUSim

    system = presets.solo_slice(
        scale=scale, misc=MiscConfig(iterations=1, trace_window_cycles=window)
    )
    sim = MultiCoreNPUSim(system, [zoo.get(workload, scale)], trace_bandwidth=True)
    result = sim.run()
    trace = sim.dram.traces[0]
    txn = system.arch[0].dram_transaction_bytes
    series = [(start, nbytes // txn) for start, nbytes in trace.series()]
    counts = [count for _, count in series]
    peak = max(counts)
    mean = sum(counts) / len(counts)
    return {
        "workload": workload,
        "window_cycles": window,
        "series": series,
        "peak_requests_per_window": peak,
        "mean_requests_per_window": mean,
        "burst_ratio": peak / mean if mean else 0.0,
        "total_cycles": result.workloads[0].cycles,
    }


# --------------------------------------------------------------------- #
# Figures 4-7: sharing levels, performance and fairness
# --------------------------------------------------------------------- #


def plan_sharing(runner: ExperimentRunner, mixes: Mixes, num_cores: int) -> Plan:
    """Every run behind Figures 4-7: Ideal/Static solos + contended mixes."""
    specs: Plan = {}
    for name in zoo.NAMES:
        specs["ideal", name] = runner.plan_ideal(name, num_cores)
    for name in zoo.NAMES:
        specs["static", name] = runner.plan_static_equal(name)
    for mix in _mixes(mixes, num_cores):
        for level in CONTENDED_LEVELS:
            specs["mix", mix, level] = runner.plan_mix(mix, level)
    return specs


def reduce_sharing(
    results: Results,
    mixes: Mixes,
    num_cores: int,
    metric: Callable[[Sequence[float]], float],
) -> dict[str, Any]:
    """Figures 4-7: each mix's ``metric`` of its speedups per sweep level.

    ``metric`` is :func:`geomean` for the performance figures (4/5), which
    also carry the raw speedups, or :func:`_fairness` for 6/7; the
    quad-core figures add a CDF per level.
    """
    mixes = _mixes(mixes, num_cores)
    labels = [mix_label(mix) for mix in mixes]
    speedups: dict[str, dict[str, list[float]]] = {}
    for mix, label in zip(mixes, labels):
        ideal = [_cycles(results, ("ideal", name)) for name in mix]
        static = [_cycles(results, ("static", name)) for name in mix]
        by_level = speedups[label] = {
            SharingLevel.STATIC.label: _speedups(ideal, static)
        }
        for level in CONTENDED_LEVELS:
            by_level[level.label] = _speedups(
                ideal, _mix_cycles(results, ("mix", mix, level))
            )
    # Empty speedup lists are failed runs: the level is simply absent
    # from that mix's reduction.
    per_mix = {
        label: {level: metric(speeds) for level, speeds in by_level.items() if speeds}
        for label, by_level in speedups.items()
    }
    cdf, overall = {}, {}
    for level in SWEEP_LEVELS:
        values = [
            per_mix[label][level.label]
            for label in labels
            if level.label in per_mix[label]
        ]
        cdf[level.label] = cdf_points(values) if values else []
        overall[level.label] = _safe_geomean(values)
    output: dict[str, Any] = {"per_mix": per_mix}
    if num_cores > 2:
        output["cdf"] = cdf
    output["overall"] = overall
    if metric is geomean:
        output["sweep"] = {
            "num_cores": num_cores,
            "mixes": labels,
            "mix_tuples": [list(mix) for mix in mixes],
            "levels": [level.label for level in SWEEP_LEVELS],
            "speedups": speedups,
        }
    return output


def fig4_dual_performance(
    runner: ExperimentRunner, mixes: Mixes = None
) -> dict[str, Any]:
    """Dual-core per-mix geomean speedups for Static/+D/+DW/+DWT."""
    return _regenerate_figure("fig4", runner, dual=mixes)


def fig5_quad_performance(
    runner: ExperimentRunner, mixes: Mixes = None
) -> dict[str, Any]:
    """Quad-core CDF of per-mix geomean speedups per sharing level."""
    return _regenerate_figure("fig5", runner, quad=mixes)


def fig6_dual_fairness(
    runner: ExperimentRunner, mixes: Mixes = None
) -> dict[str, Any]:
    """Dual-core fairness (Equation 1) per mix and sharing level."""
    return _regenerate_figure("fig6", runner, dual=mixes)


def fig7_quad_fairness(
    runner: ExperimentRunner, mixes: Mixes = None
) -> dict[str, Any]:
    """Quad-core fairness CDF per sharing level."""
    return _regenerate_figure("fig7", runner, quad=mixes)


# --------------------------------------------------------------------- #
# Figure 8: per-workload contention sensitivity
# --------------------------------------------------------------------- #


def plan_fig8(runner: ExperimentRunner, mixes: Mixes) -> Plan:
    """Every run behind Figure 8: dual-core Ideal solos + DWT mixes."""
    specs: Plan = {("ideal", name): runner.plan_ideal(name, 2) for name in zoo.NAMES}
    for mix in _mixes(mixes, 2):
        specs["mix", mix] = runner.plan_mix(mix, SharingLevel.DWT)
    return specs


def reduce_fig8(results: Results, mixes: Mixes) -> dict[str, Any]:
    """Figure 8: each workload's +DWT speedups across its co-runners."""
    samples: dict[str, list[float]] = {name: [] for name in zoo.NAMES}
    for mix in _mixes(mixes, 2):
        cycles = _mix_cycles(results, ("mix", mix))
        if cycles is None:
            continue
        for name, value in zip(mix, cycles):
            ideal = _cycles(results, ("ideal", name))
            if ideal is not None:
                samples[name].append(ideal / value)
    boxes = {
        name: box_stats(values) for name, values in samples.items() if values
    }
    spread = {
        name: box["max"] - box["min"] for name, box in boxes.items()
    }
    return {"samples": samples, "boxes": boxes, "range": spread}


def fig8_sensitivity(
    runner: ExperimentRunner, mixes: Mixes = None
) -> dict[str, Any]:
    """Distribution of each workload's +DWT speedup across co-runners."""
    return _regenerate_figure("fig8", runner, dual=mixes)


# --------------------------------------------------------------------- #
# Figures 9-10: DRAM bandwidth partitioning (translation disabled)
# --------------------------------------------------------------------- #

#: Static channel shares (of eight) a core takes in some split.
BW_SHARES = tuple(sorted({part for split in BW_SPLITS for part in split}))
#: The schemes of Figures 9-10, in plotting order.
BW_SCHEMES = (*(f"{a}:{b}" for a, b in BW_SPLITS), "Static Best", "Dynamic")


def plan_bandwidth(runner: ExperimentRunner, mixes: Mixes) -> Plan:
    """Every run behind Figures 9-10: channel-share solos + +D mixes."""
    channels = runner.per_core["channels"]
    specs: Plan = {
        ("ideal", name): runner.plan_ideal(name, 2, translation=False)
        for name in zoo.NAMES
    }
    for share in BW_SHARES:
        for name in zoo.NAMES:
            specs["share", share, name] = runner.plan_solo(
                name, channels=channels * 2 * share // 8, translation=False
            )
    for mix in _mixes(mixes, 2):
        specs["mix", mix] = runner.plan_mix(mix, SharingLevel.D, translation=False)
    return specs


def reduce_bandwidth(
    results: Results, mixes: Mixes, metric: Callable[[Sequence[float]], float]
) -> dict[str, Any]:
    """Figures 9-10: ``metric`` per bandwidth-partitioning scheme."""
    mixes = _mixes(mixes, 2)
    speedups: dict[str, dict[str, list[float]]] = {}
    for mix in mixes:
        ideal = [_cycles(results, ("ideal", name)) for name in mix]
        schemes = {}
        for left, right in BW_SPLITS:
            shares = [
                _cycles(results, ("share", left, mix[0])),
                _cycles(results, ("share", right, mix[1])),
            ]
            if speeds := _speedups(ideal, shares):
                schemes[f"{left}:{right}"] = speeds
        if schemes:
            best = max(schemes, key=lambda scheme: geomean(schemes[scheme]))
            schemes["Static Best"] = schemes[best]
        if dynamic := _speedups(ideal, _mix_cycles(results, ("mix", mix))):
            schemes["Dynamic"] = dynamic
        speedups[mix_label(mix)] = schemes
    labels = [mix_label(mix) for mix in mixes]
    return _reduce_schemes(speedups, labels, BW_SCHEMES, metric)


def fig9_bandwidth_partition_performance(
    runner: ExperimentRunner, mixes: Mixes = None
) -> dict[str, Any]:
    """Geomean performance per bandwidth-partitioning scheme (dual-core)."""
    return _regenerate_figure("fig9", runner, dual=mixes)


def fig10_bandwidth_partition_fairness(
    runner: ExperimentRunner, mixes: Mixes = None
) -> dict[str, Any]:
    """Geomean fairness per bandwidth-partitioning scheme (dual-core)."""
    return _regenerate_figure("fig10", runner, dual=mixes)


# --------------------------------------------------------------------- #
# Figure 11: bandwidth sweep
# --------------------------------------------------------------------- #


#: Channel counts of the Figure 11 bandwidth sweep (32-256 GB/s at full
#: scale: every channel is one 32 GB/s share).
FIG11_CHANNEL_COUNTS = (1, 2, 4, 6, 8)


def plan_fig11(runner: ExperimentRunner) -> Plan:
    """Every run behind Figure 11: solos at each channel count."""
    return {
        (name, count): runner.plan_solo(name, channels=count)
        for name in zoo.NAMES
        for count in FIG11_CHANNEL_COUNTS
    }


def reduce_fig11(results: Results) -> dict[str, Any]:
    """Figure 11: speedup over the smallest channel count, per workload."""
    counts = FIG11_CHANNEL_COUNTS
    per_workload: dict[str, list[tuple[int, float]]] = {}
    for name in zoo.NAMES:
        base = _cycles(results, (name, counts[0]))
        if base is None:
            continue
        per_workload[name] = [
            (count, base / cycles)
            for count in counts
            if (cycles := _cycles(results, (name, count))) is not None
        ]
    return {"channel_counts": counts, "speedup": per_workload}


def fig11_bandwidth_sweep(runner: ExperimentRunner) -> dict[str, Any]:
    """Single-core speedup vs DRAM bandwidth, normalized to the smallest.

    Channel counts 1/2/4/6/8 reproduce the paper's 32-256 GB/s sweep
    (every channel is one 32 GB/s share at full scale).
    """
    return _regenerate_figure("fig11", runner)


# --------------------------------------------------------------------- #
# Figure 12: bandwidth utilization over time
# --------------------------------------------------------------------- #


def fig12_bandwidth_utilization(
    workloads: tuple[str, str] = ("ds2", "gpt2"),
    scale: str = "mini",
    window: int = 1000,
) -> dict[str, Any]:
    """Per-workload bandwidth utilization under Ideal, plus their sum.

    Each workload runs alone on the dual-core Ideal resource pool; the
    summed series shows how often the combined demand exceeds half (and
    even all) of the peak — the paper's argument for dynamic sharing.
    """
    from repro.core.simulator import MultiCoreNPUSim

    per = presets.per_core_resources(scale)
    series: dict[str, list[tuple[int, float]]] = {}
    for name in workloads:
        system = presets.solo_slice(
            scale=scale,
            channels=per["channels"] * 2,
            num_ptw=per["num_ptw"] * 2,
            tlb_entries=per["tlb_entries"] * 2,
            misc=MiscConfig(iterations=1, trace_window_cycles=window),
        )
        sim = MultiCoreNPUSim(system, [zoo.get(name, scale)], trace_bandwidth=True)
        sim.run()
        peak = sim.dram.peak_bytes_per_tick()
        series[name] = sim.dram.traces[0].utilization_series(peak)
    length = max(len(values) for values in series.values())
    combined = []
    for index in range(length):
        total = 0.0
        for values in series.values():
            if index < len(values):
                total += values[index][1]
        combined.append((index * window, total))
    label = "+".join(workloads)
    over_half = sum(1 for _, value in combined if value > 0.5) / len(combined)
    over_peak = sum(1 for _, value in combined if value > 1.0) / len(combined)
    return {
        "series": series,
        "combined": {label: combined},
        "fraction_over_half_peak": over_half,
        "fraction_over_peak": over_peak,
    }


# --------------------------------------------------------------------- #
# Figures 13-14: PTW partitioning
# --------------------------------------------------------------------- #


#: Walker splits of section 4.4.1.  The paper splits its 16-walker dual
#: pool at ratios 1:7..7:1; the mini system's baseline pool (1 walker per
#: core) cannot express ratios, so this study doubles the per-core walker
#: count to a 4-walker pool and splits it 1:3 / 2:2 / 3:1 — analogous to
#: how the bandwidth study of section 4.3 disables translation to
#: isolate its resource.
PTW_SPLITS = ((1, 3), (2, 2), (3, 1))
_PTW_PER_CORE_FACTOR = 2
#: The schemes of Figures 13-14: each split under +D, then +DW sharing.
PTW_SCHEMES = (*(f"{a}:{b}" for a, b in PTW_SPLITS), "Dynamic")


def plan_ptw(runner: ExperimentRunner, mixes: Mixes) -> Plan:
    """Every run behind Figures 13-14: big-pool solos + split/DW mixes."""
    per_core = runner.per_core["num_ptw"] * _PTW_PER_CORE_FACTOR
    specs: Plan = {
        ("ideal", name): runner.plan_solo(
            name,
            channels=runner.per_core["channels"] * 2,
            num_ptw=per_core * 2,
            tlb_entries=runner.per_core["tlb_entries"] * 2,
        )
        for name in zoo.NAMES
    }
    for mix in _mixes(mixes, 2):
        for left, right in PTW_SPLITS:
            specs["mix", mix, f"{left}:{right}"] = runner.plan_mix(
                mix,
                SharingLevel.D,
                ptw_split=(left, right),
                num_ptw_per_core=per_core,
            )
        specs["mix", mix, "Dynamic"] = runner.plan_mix(
            mix, SharingLevel.DW, num_ptw_per_core=per_core
        )
    return specs


def reduce_ptw(
    results: Results, mixes: Mixes, metric: Callable[[Sequence[float]], float]
) -> dict[str, Any]:
    """Figures 13-14: ``metric`` per walker-partitioning scheme."""
    mixes = _mixes(mixes, 2)
    speedups: dict[str, dict[str, list[float]]] = {}
    for mix in mixes:
        ideal = [_cycles(results, ("ideal", name)) for name in mix]
        speedups[mix_label(mix)] = {
            scheme: speeds
            for scheme in PTW_SCHEMES
            if (speeds := _speedups(ideal, _mix_cycles(results, ("mix", mix, scheme))))
        }
    labels = [mix_label(mix) for mix in mixes]
    return _reduce_schemes(speedups, labels, PTW_SCHEMES, metric)


def fig13_ptw_partition_performance(
    runner: ExperimentRunner, mixes: Mixes = None
) -> dict[str, Any]:
    """Geomean performance per walker-partitioning scheme (dual-core)."""
    return _regenerate_figure("fig13", runner, dual=mixes)


def fig14_ptw_partition_fairness(
    runner: ExperimentRunner, mixes: Mixes = None
) -> dict[str, Any]:
    """Geomean fairness per walker-partitioning scheme (dual-core)."""
    return _regenerate_figure("fig14", runner, dual=mixes)


# --------------------------------------------------------------------- #
# Figures 15-16: page sizes
# --------------------------------------------------------------------- #

PAGE_SIZES = (4096, 65536, 1048576)
_PAGE_LABELS = {4096: "4KB", 65536: "64KB", 1048576: "1MB"}


def plan_fig15(runner: ExperimentRunner) -> Plan:
    """Every run behind Figure 15: solos at each page size."""
    return {
        (name, size): runner.plan_solo(name, page_bytes=size)
        for name in zoo.NAMES
        for size in PAGE_SIZES
    }


def reduce_fig15(results: Results) -> dict[str, Any]:
    """Figure 15: speedup of each larger page over 4KB, per workload."""
    per_workload: dict[str, dict[str, float]] = {}
    for name in zoo.NAMES:
        base = _cycles(results, (name, 4096))
        if base is None:
            continue
        per_workload[name] = {
            _PAGE_LABELS[size]: base / cycles
            for size in PAGE_SIZES[1:]
            if (cycles := _cycles(results, (name, size))) is not None
        }
    overall = {
        label: _safe_geomean(
            [
                per_workload[name][label]
                for name in per_workload
                if label in per_workload[name]
            ]
        )
        for label in ("64KB", "1MB")
    }
    return {"per_workload": per_workload, "overall": overall}


def fig15_pagesize_single(runner: ExperimentRunner) -> dict[str, Any]:
    """Single-core speedup of 64KB/1MB pages over 4KB, per workload."""
    return _regenerate_figure("fig15", runner)


def plan_fig16(runner: ExperimentRunner, mixes: Mixes, num_cores: int) -> Plan:
    """Every run behind Figure 16: per-page-size Ideal solos + DWT mixes."""
    specs: Plan = {
        ("ideal", size, name): runner.plan_ideal(name, num_cores, page_bytes=size)
        for size in PAGE_SIZES
        for name in zoo.NAMES
    }
    for mix in _mixes(mixes, num_cores):
        for size in PAGE_SIZES:
            specs["mix", mix, size] = runner.plan_mix(
                mix, SharingLevel.DWT, page_bytes=size
            )
    return specs


def reduce_fig16(results: Results, mixes: Mixes, num_cores: int) -> dict[str, Any]:
    """Figure 16: +DWT performance and fairness per page size."""
    perf: dict[str, dict[str, float]] = {}
    fair: dict[str, dict[str, float]] = {}
    for mix in _mixes(mixes, num_cores):
        by_size = {
            size: _mix_cycles(results, ("mix", mix, size)) for size in PAGE_SIZES
        }
        base = by_size[4096]
        if base is None:
            continue  # the normalization baseline failed: mix is missing
        label = mix_label(mix)
        perf[label] = {}
        fair[label] = {}
        for size, cycles in by_size.items():
            if cycles is None:
                continue
            perf[label][_PAGE_LABELS[size]] = geomean(
                [b / c for b, c in zip(base, cycles)]
            )
            ideal = [_cycles(results, ("ideal", size, name)) for name in mix]
            if None not in ideal:
                fair[label][_PAGE_LABELS[size]] = fairness(
                    [c / i for c, i in zip(cycles, ideal)]
                )
    labels = [_PAGE_LABELS[size] for size in PAGE_SIZES]
    overall_perf = {
        label: _safe_geomean(
            [perf[m][label] for m in perf if label in perf[m]]
        )
        for label in labels
    }
    overall_fair = {
        label: _safe_geomean(
            [fair[m][label] for m in fair if label in fair[m]]
        )
        for label in labels
    }
    return {
        "num_cores": num_cores,
        "performance": perf,
        "fairness": fair,
        "overall_performance": overall_perf,
        "overall_fairness": overall_fair,
    }


def fig16_pagesize_multi(
    runner: ExperimentRunner, num_cores: int, mixes: Mixes = None
) -> dict[str, Any]:
    """Multi-core (+DWT) page-size performance and fairness.

    Performance is normalized to the 4KB page (per mix geomean of cycle
    ratios); fairness baseline is Ideal at the matching page size.
    """
    return _regenerate(
        runner,
        plan_fig16(runner, mixes, num_cores),
        lambda results: reduce_fig16(results, mixes, num_cores),
    )


# --------------------------------------------------------------------- #
# Dataflow comparison (engine ablation)
# --------------------------------------------------------------------- #


def _dataflow_axes(
    workloads: Sequence[str] | None, dataflows: Sequence[str] | None
) -> tuple[list[str], list[str]]:
    if dataflows is None:
        from repro.compute.dataflow import registered_dataflows

        dataflows = registered_dataflows()
    names = list(workloads) if workloads is not None else list(zoo.NAMES)
    return names, list(dataflows)


def plan_dataflow_compare(
    runner: ExperimentRunner,
    workloads: Sequence[str] | None = None,
    dataflows: Sequence[str] | None = None,
) -> Plan:
    """Every run behind the dataflow comparison: one solo per engine.

    Each workload runs on the equal Static slice under every registered
    dataflow engine (or an explicit subset), so the figure isolates the
    compute-side effect of the tiling/timing model with the memory
    system held fixed.
    """
    names, engines = _dataflow_axes(workloads, dataflows)
    return {
        (name, engine): runner.plan_solo(name, dataflow=engine)
        for name in names
        for engine in engines
    }


def reduce_dataflow_compare(
    results: Results,
    workloads: Sequence[str] | None = None,
    dataflows: Sequence[str] | None = None,
) -> dict[str, Any]:
    """The dataflow comparison: cycles and speedup vs ``os`` per engine."""
    names, engines = _dataflow_axes(workloads, dataflows)
    cycles: dict[str, dict[str, int]] = {
        name: {
            engine: value
            for engine in engines
            if (value := _cycles(results, (name, engine))) is not None
        }
        for name in names
    }
    speedup_vs_os: dict[str, dict[str, float]] = {}
    for name, by_engine in cycles.items():
        base = by_engine.get("os")
        if base is None:
            continue
        speedup_vs_os[name] = {
            engine: base / value for engine, value in by_engine.items()
        }
    overall = {
        engine: _safe_geomean(
            [
                speedup_vs_os[name][engine]
                for name in speedup_vs_os
                if engine in speedup_vs_os[name]
            ]
        )
        for engine in engines
    }
    return {
        "workloads": names,
        "dataflows": engines,
        "cycles": cycles,
        "speedup_vs_os": speedup_vs_os,
        "overall": overall,
    }


def dataflow_compare(
    runner: ExperimentRunner,
    workloads: Sequence[str] | None = None,
    dataflows: Sequence[str] | None = None,
) -> dict[str, Any]:
    """Per-workload cycles and speedup of each dataflow engine vs ``os``.

    The paper evaluates output stationary and names other dataflows as
    future work; this figure sweeps the registered engines over the model
    zoo and reports, per workload, total cycles under each engine plus
    the speedup relative to the ``os`` baseline (values above 1 mean the
    engine finished faster than output stationary).
    """
    return _regenerate(
        runner,
        plan_dataflow_compare(runner, workloads, dataflows),
        lambda results: reduce_dataflow_compare(results, workloads, dataflows),
    )


# --------------------------------------------------------------------- #
# LLM-serving co-location (prefill/decode phases x MoE skew x sharing)
# --------------------------------------------------------------------- #


#: The serving phases as runnable workload names.
SERVING_PHASE_NAMES = ("gpt2:prefill", "gpt2:decode")

#: Co-location pairs of the serving study: phase-homogeneous and mixed.
SERVING_PAIRS = (
    ("gpt2:prefill", "gpt2:prefill"),
    ("gpt2:prefill", "gpt2:decode"),
    ("gpt2:decode", "gpt2:decode"),
)

#: The shared-vs-private-TLB axis: +DW keeps TLBs private, +DWT shares.
SERVING_SHARINGS = (SharingLevel.DW, SharingLevel.DWT)

#: MoE routing skews swept by the serving figure.
SERVING_SKEWS = ("uniform", "zipf")


def plan_serving_colocation(
    runner: ExperimentRunner, skews: Sequence[str] = SERVING_SKEWS
) -> Plan:
    """Every run behind the serving co-location figure.

    Per MoE skew: a dual-pool Ideal solo of each phase (the speedup
    baseline) plus every phase pair under +DW (private TLBs) and +DWT
    (shared TLB) — 8 specs per skew.  Uniform skew normalizes to the
    default :class:`ServingParams`, so its specs share cache keys with
    any other default-parameter serving run.
    """
    specs: Plan = {}
    for skew in skews:
        params = ServingParams(moe_skew=skew)
        for name in SERVING_PHASE_NAMES:
            specs["ideal", skew, name] = runner.plan_ideal(name, 2, serving=params)
        for pair in SERVING_PAIRS:
            for level in SERVING_SHARINGS:
                specs["mix", skew, pair, level] = runner.plan_mix(
                    pair, level, serving=params
                )
    return specs


def _pair_label(pair: Sequence[str]) -> str:
    return "+".join(name.split(":", 1)[1] for name in pair)


def reduce_serving_colocation(
    results: Results, skews: Sequence[str] = SERVING_SKEWS
) -> dict[str, Any]:
    """The serving figure: +DW/+DWT speedups and their ratio per scenario."""
    per_scenario: dict[str, dict[str, Any]] = {}
    level_values: dict[str, list[float]] = {
        level.label: [] for level in SERVING_SHARINGS
    }
    dwt_gains: list[float] = []
    for skew in skews:
        for pair in SERVING_PAIRS:
            ideal = [_cycles(results, ("ideal", skew, name)) for name in pair]
            entry: dict[str, Any] = {}
            for level in SERVING_SHARINGS:
                cycles = _mix_cycles(results, ("mix", skew, pair, level))
                speeds = _speedups(ideal, cycles)
                if not speeds:
                    continue
                entry[level.label] = geomean(speeds)
                level_values[level.label].append(entry[level.label])
            if "+DW" in entry and "+DWT" in entry:
                entry["dwt_gain"] = entry["+DWT"] / entry["+DW"]
                entry["verdict"] = (
                    "helps" if entry["dwt_gain"] >= 1.0 else "hurts"
                )
                dwt_gains.append(entry["dwt_gain"])
            per_scenario[f"{skew}/{_pair_label(pair)}"] = entry
    overall: dict[str, Any] = {
        level.label: _safe_geomean(level_values[level.label])
        for level in SERVING_SHARINGS
    }
    overall["dwt_gain"] = _safe_geomean(dwt_gains)
    if overall["dwt_gain"] is not None:
        overall["verdict"] = (
            "helps" if overall["dwt_gain"] >= 1.0 else "hurts"
        )
    return {
        "skews": list(skews),
        "pairs": [_pair_label(pair) for pair in SERVING_PAIRS],
        "sharings": [level.label for level in SERVING_SHARINGS],
        "per_scenario": per_scenario,
        "overall": overall,
    }


def serving_colocation(
    runner: ExperimentRunner,
    skews: Sequence[str] = SERVING_SKEWS,
) -> dict[str, Any]:
    """Does sharing the TLB (+DWT over +DW) help or hurt serving mixes?

    The question the paper's DNN study never reaches: with co-runners
    that are prefill (GEMM-bursty), decode (KV-cache streaming) or
    Zipf-skewed MoE, per-scenario geomean speedups vs the dual-pool
    Ideal are reported for private TLBs (+DW) and the shared TLB
    (+DWT); ``dwt_gain`` is their ratio (>1: sharing helps).
    """
    return _regenerate(
        runner,
        plan_serving_colocation(runner, skews),
        lambda results: reduce_serving_colocation(results, skews),
    )


# --------------------------------------------------------------------- #
# The figure table
# --------------------------------------------------------------------- #


class Figure(NamedTuple):
    """A cached figure as a plan plus a pure reduction of its results.

    ``plan(runner, dual, quad)`` and ``reduce(results, dual, quad)`` take
    the dual- and quad-core mix lists of a sweep (``None``: every mix)
    and use the one their figure is drawn over.
    """

    plan: Callable[[ExperimentRunner, Mixes, Mixes], Plan]
    reduce: Callable[[Results, Mixes, Mixes], dict[str, Any]]


def _on_dual(function: Callable[..., Any], *args: Any) -> Callable[..., Any]:
    """``function(first, dual, *args)`` as a ``(first, dual, quad)`` part."""
    return lambda first, dual, quad: function(first, dual, *args)


def _on_quad(function: Callable[..., Any], *args: Any) -> Callable[..., Any]:
    """``function(first, quad, *args)`` as a ``(first, dual, quad)`` part."""
    return lambda first, dual, quad: function(first, quad, *args)


def _unmixed(function: Callable[..., Any]) -> Callable[..., Any]:
    """``function(first)`` (no mixes) as a ``(first, dual, quad)`` part."""
    return lambda first, dual, quad: function(first)


#: Every cached figure by name.  Performance/fairness twins share a plan
#: and a reducer, which takes the metric.  Figures 2 and 12 trace
#: bandwidth inside one ad-hoc simulation and have no cacheable spec set;
#: figures 17/18 live in :mod:`repro.mapping`.
FIGURES: dict[str, Figure] = {
    "fig4": Figure(_on_dual(plan_sharing, 2), _on_dual(reduce_sharing, 2, geomean)),
    "fig5": Figure(_on_quad(plan_sharing, 4), _on_quad(reduce_sharing, 4, geomean)),
    "fig6": Figure(_on_dual(plan_sharing, 2), _on_dual(reduce_sharing, 2, _fairness)),
    "fig7": Figure(_on_quad(plan_sharing, 4), _on_quad(reduce_sharing, 4, _fairness)),
    "fig8": Figure(_on_dual(plan_fig8), _on_dual(reduce_fig8)),
    "fig9": Figure(_on_dual(plan_bandwidth), _on_dual(reduce_bandwidth, geomean)),
    "fig10": Figure(_on_dual(plan_bandwidth), _on_dual(reduce_bandwidth, _fairness)),
    "fig11": Figure(_unmixed(plan_fig11), _unmixed(reduce_fig11)),
    "fig13": Figure(_on_dual(plan_ptw), _on_dual(reduce_ptw, geomean)),
    "fig14": Figure(_on_dual(plan_ptw), _on_dual(reduce_ptw, _fairness)),
    "fig15": Figure(_unmixed(plan_fig15), _unmixed(reduce_fig15)),
    "fig16": Figure(_on_dual(plan_fig16, 2), _on_dual(reduce_fig16, 2)),
    "dataflow_compare": Figure(
        _unmixed(plan_dataflow_compare), _unmixed(reduce_dataflow_compare)
    ),
    "serving_colocation": Figure(
        _unmixed(plan_serving_colocation), _unmixed(reduce_serving_colocation)
    ),
}


def _spec_list(plan: Callable[..., Plan]) -> Callable[..., list[RunSpec]]:
    return lambda runner, dual, quad: list(plan(runner, dual, quad).values())


#: ``figure name -> planner(runner, dual_mixes, quad_mixes) -> [RunSpec]``:
#: the plans of :data:`FIGURES` as spec lists, for batching several
#: figures into one ``run_many``.
FIGURE_PLANNERS = {
    name: _spec_list(figure.plan) for name, figure in FIGURES.items()
}
