"""The cost-count gate's budget file and comparison logic (no benchmark run)."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "check_cost_budget", ROOT / "scripts" / "check_cost_budget.py"
)
check_cost_budget = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_cost_budget)

COUNTS = {
    "engine.events",
    "engine.events_per_req",
    "dma.idle_pump_ratio",
    "dram.kicks_per_req",
    "mmu.miss_calls_per_walk",
}


def test_budget_covers_the_gated_workloads_and_counts():
    budget = check_cost_budget.load_budget()
    assert set(budget) == {"sharing", "bandwidth"}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {metric["name"] for metric in benchmark["per_layer"]}
    for ceilings in budget.values():
        assert set(ceilings) == COUNTS
        assert COUNTS <= per_layer


def test_counts_at_or_below_their_ceilings_pass():
    ceilings = {"engine.events": 10, "dram.kicks_per_req": 1.5}
    assert check_cost_budget.over_budget(ceilings, ceilings) == []
    lower = {"engine.events": 9, "dram.kicks_per_req": 1.25}
    assert check_cost_budget.over_budget(lower, ceilings) == []


def test_a_count_above_its_ceiling_or_missing_fails():
    ceilings = {"engine.events": 10, "dram.kicks_per_req": 1.5}
    problems = check_cost_budget.over_budget({"engine.events": 11}, ceilings)
    assert len(problems) == 2
    assert problems[0].startswith("engine.events: 11 is above")
    assert problems[1] == "dram.kicks_per_req: missing from the benchmark output"


def test_metrics_come_from_the_last_json_line():
    stdout = (
        "# notes\n"
        "engine.events 5.0 count\n"
        + json.dumps({"correct": True, "metrics": {"engine.events": {"value": 5}}})
        + "\n"
    )
    assert check_cost_budget.parse_metrics(stdout) == {"engine.events": 5}
