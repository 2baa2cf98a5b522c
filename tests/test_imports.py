"""Import-cost guards for the set-up path.

Every ``mnpusim`` invocation and every sweep imports the package before
it does any work, so a heavy module pulled onto that path is paid on
every start.  The package is split into two import layers (see "Import
layers" in DESIGN.md): planning a sweep and reading a warm cache load
only the planning layer, and the execution layer (simulator, trace
compiler, process pool) loads when cold work starts.  Each case runs in
a fresh interpreter and counts modules, never seconds, so it is
deterministic on any machine.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

#: Execution-layer modules the planning layer must not load.
EXECUTION_MODULES = (
    "repro.core.simulator",
    "repro.core.dma",
    "repro.dram.controller",
    "repro.mmu.mmu",
    "repro.compute.tracecache",
    "repro.obs.registry",
    "concurrent.futures.process",
    "multiprocessing",
)

#: Ceiling on ``repro.*`` modules loaded by the set-up path (27 when set).
MAX_PLANNING_MODULES = 30

#: Prints the loaded modules as JSON; appended to each probe.
_REPORT = "import json, sys; print(json.dumps(sorted(sys.modules)))\n"


def _python(code: str, *args: str) -> str:
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def _loaded(code: str, *args: str) -> list[str]:
    return json.loads(_python(code + _REPORT, *args).splitlines()[-1])


def test_runner_and_simulator_do_not_import_numpy():
    modules = _loaded("import repro.experiments.runner, repro.core.simulator\n")
    assert "numpy" not in modules


def test_setup_path_loads_only_the_planning_layer(tmp_path):
    modules = _loaded(
        """
        import sys
        from repro.experiments import ExperimentRunner, figures, mixes_for

        runner = ExperimentRunner(cache_dir=sys.argv[1])
        dual = mixes_for(2, 2)
        for name in ("fig4", "fig6", "fig13", "fig14", "fig9", "fig10"):
            assert figures.FIGURE_PLANNERS[name](runner, dual, None)
        """,
        str(tmp_path / "cache"),
    )
    assert [name for name in EXECUTION_MODULES if name in modules] == []
    planning = [name for name in modules if name.split(".")[0] == "repro"]
    assert len(planning) <= MAX_PLANNING_MODULES, planning


def test_cli_help_loads_only_the_planning_layer():
    modules = _loaded(
        """
        from repro.cli import main

        try:
            main(["--help"])
        except SystemExit:
            pass
        """
    )
    assert "repro.cli" in modules
    assert [name for name in EXECUTION_MODULES if name in modules] == []


@pytest.mark.parametrize("enabled", [False, True])
def test_trace_cache_adopts_the_newest_runner_when_it_loads(tmp_path, enabled):
    """Runners built before the trace cache loads configure it on load.

    The planning layer never imports :mod:`repro.compute.tracecache`, so
    the constructor's ``configure`` is deferred; the module must then
    see what the newest runner set, as if each had configured it eagerly.
    """
    out = _python(
        """
        import json, sys
        from repro.experiments import ExperimentRunner

        first, second, third = sys.argv[1:4]
        enabled = sys.argv[4] == "1"
        ExperimentRunner(cache_dir=first, trace_cache=enabled)
        ExperimentRunner(cache_dir=second, trace_cache=not enabled)
        newest = ExperimentRunner(cache_dir=third, trace_cache=enabled)
        assert "repro.compute.tracecache" not in sys.modules

        from repro.compute import tracecache

        store = tracecache.process_cache().store
        print(json.dumps({
            "enabled": tracecache.is_enabled(),
            "directory": str(store.directory) if store else None,
            "expected": str(newest.trace_dir),
        }))
        """,
        str(tmp_path / "first"),
        str(tmp_path / "second"),
        str(tmp_path / "third"),
        "1" if enabled else "0",
    )
    seen = json.loads(out.splitlines()[-1])
    assert seen["enabled"] is enabled
    assert seen["directory"] == seen["expected"]
    assert seen["expected"].startswith(str(tmp_path / "third"))


def test_pool_workers_start_with_the_simulator_imported(tmp_path):
    """The parent loads the simulator stack before the pool forks."""
    out = _python(
        """
        import os, sys
        from repro.experiments import ExperimentRunner
        from repro.experiments import runner as runner_module

        assert "repro.core.simulator" not in sys.modules
        log = sys.argv[2]
        original = runner_module._init_worker

        def init_worker(*args):
            with open(log, "a") as handle:
                loaded = "repro.core.simulator" in sys.modules
                handle.write(f"{os.getpid()} {loaded}\\n")
            original(*args)

        runner_module._init_worker = init_worker
        runner = ExperimentRunner(cache_dir=sys.argv[1], jobs=2)
        specs = [runner.plan_solo(name) for name in ("ncf", "dlrm")]
        results = runner.run_many(specs)
        assert set(results) == set(specs) and not runner.failures
        print(runner.runs_executed)
        """,
        str(tmp_path / "cache"),
        str(tmp_path / "workers.log"),
    )
    assert out.split() == ["2"]
    records = (tmp_path / "workers.log").read_text().split("\n")
    starts = [line.split() for line in records if line]
    assert len({pid for pid, _ in starts}) == 2, starts
    assert all(loaded == "True" for _, loaded in starts), starts
