"""Import-cost guard for the runner and simulator set-up path.

Every sweep worker and every ``mnpusim`` invocation imports the runner
and the simulator before simulating anything, so a heavy dependency
pulled onto that path is paid on every start.  numpy is the one heavy
dependency in the tree (``repro.mapping.predictor`` needs it); it must
stay off this path.  The check counts modules, not seconds, so it is
deterministic on any machine.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def test_runner_and_simulator_do_not_import_numpy():
    code = (
        "import sys\n"
        "import repro.experiments.runner, repro.core.simulator\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
