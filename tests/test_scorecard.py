"""The reproduction scorecard: every expected shape must hold."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.bench.scorecard import SCORECARD, run_scorecard


def test_every_driver_has_a_check():
    assert set(SCORECARD) == {
        "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8",
        "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10",
        "A1", "A2", "A3",
    }


def test_full_scorecard_passes():
    """Everything — the one-assert reproduction statement."""
    card = run_scorecard()
    assert card.data["failures"] == 0, card.render()
    assert len(card.rows) == 21


def test_the_benchmark_and_test_trees_collect_together():
    """One invocation may name files of both trees: no benchmark module
    imports a helper out of whichever ``conftest`` came first."""
    root = Path(__file__).parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "benchmarks/test_drivers.py", "tests/test_scorecard.py"],
        cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr

