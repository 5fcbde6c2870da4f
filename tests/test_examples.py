"""The example scripts run to completion.

They construct the MoE layers and plan searches end to end, so a reshaped
API that breaks them fails here instead of on a reader's first run.
``scripts/check_doc_sync.py`` fails when an example is not named here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script",
    [
        ["examples/quickstart.py"],
        ["examples/train_small_moe.py", "--steps", "3"],
        ["examples/memory_planning.py"],
        ["examples/autotune_plan.py"],
        ["examples/plan_545b_on_frontier.py"],
    ],
    ids=lambda args: Path(args[0]).stem,
)
def test_example_exits_cleanly(script):
    run_example(script)


def test_rbd_dispatch_demo_matches_flat():
    """The demo drives the interpreting engine over flat and RBD dispatch."""
    result = run_example(["examples/rbd_dispatch_demo.py"])
    assert "outputs bit-identical    : True" in result.stdout.splitlines()


def run_example(script):
    """Run one example script from the repo root; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, *script],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result
