"""Fail when an exact cost count of the benchmark rises above its ceiling.

Run from the repository root::

    python3 scripts/check_cost_budget.py

For each workload in ``scripts/cost_budget.json`` this runs
``python3 perfbench/run.py --workload W --seed 0 --trace 1 --seconds 1``,
parses the JSON object on the last line of its standard output, and
compares each budgeted count (total engine events, events per DRAM
request, idle-pump share, kicks per request, ``Mmu.miss`` calls per walk)
with its ceiling.  The counts are exact, not timed, so the gate holds on
noisy hosts.  Exits 1 when a count is above its ceiling or missing, or
when the benchmark run itself fails; a traced run takes a few minutes.

``mmu.miss_calls_per_walk`` is the one count on which this budget and
``BENCHMARK.json`` disagree: the benchmark lists it as better when
higher, but it counts calls into ``Mmu.miss`` per page walk, a cost that
ROADMAP.md's MMU item sets out to cut (bar: at most 2 on ``sharing``).
The budget's ceiling wins; a change that raises the count fails here.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Mapping

ROOT = Path(__file__).resolve().parent.parent
BUDGET_PATH = Path(__file__).resolve().parent / "cost_budget.json"


def load_budget(path: Path = BUDGET_PATH) -> dict[str, dict[str, float]]:
    """Workload name -> count name -> ceiling."""
    return json.loads(path.read_text())["workloads"]


def parse_metrics(stdout: str) -> dict[str, float]:
    """Metric name -> value, from the benchmark's last JSON line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the benchmark printed nothing")
    report = json.loads(lines[-1])
    return {name: entry["value"] for name, entry in report["metrics"].items()}


def over_budget(
    metrics: Mapping[str, float], ceilings: Mapping[str, float]
) -> list[str]:
    """One message per count that is missing or above its ceiling."""
    problems = []
    for name, ceiling in ceilings.items():
        value = metrics.get(name)
        if value is None:
            problems.append(f"{name}: missing from the benchmark output")
        elif value > ceiling:
            problems.append(f"{name}: {value!r} is above its ceiling {ceiling!r}")
    return problems


def traced_run(workload: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", "0",
            "--trace", "1",
            "--seconds", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )


def check(workload: str, ceilings: Mapping[str, Any]) -> list[str]:
    """The budget problems of one workload (empty when within budget)."""
    run = traced_run(workload)
    if run.returncode != 0:
        return [f"perfbench exited {run.returncode}:\n{run.stdout}{run.stderr}"]
    metrics = parse_metrics(run.stdout)
    for name, ceiling in ceilings.items():
        print(f"{workload}: {name} = {metrics.get(name)!r} (ceiling {ceiling!r})")
    return over_budget(metrics, ceilings)


def main() -> int:
    failed = False
    for workload, ceilings in load_budget().items():
        for problem in check(workload, ceilings):
            print(f"error: {workload}: {problem}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
