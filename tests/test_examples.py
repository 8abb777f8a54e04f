"""Smoke tests: every example script runs to completion."""

from __future__ import annotations

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("script", [
    "quickstart.py",
    "chip_planning_team.py",
    "failure_recovery.py",
    "cooperative_exchange.py",
    "software_engineering.py",
    "negotiation_session.py",
    "recursive_planning.py",
    "concurrent_team.py",
])
def test_example_runs(script, capsys):
    path = EXAMPLES / script
    assert path.exists(), f"missing example {script}"
    runpy.run_path(str(path), run_name="__main__")
    captured = capsys.readouterr()
    assert captured.out.strip(), "examples must print their findings"


def run_experiments(monkeypatch, *ids) -> int:
    monkeypatch.setattr(sys, "argv", ["run_experiments.py", *ids])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(EXAMPLES / "run_experiments.py"),
                       run_name="__main__")
    return exited.value.code


def test_run_experiments_single(capsys, monkeypatch):
    assert run_experiments(monkeypatch, "F7") == 0
    captured = capsys.readouterr()
    assert "F7" in captured.out
    assert "T1" not in captured.out
    # an unknown id lists the valid ones and fails, as python -m repro
    assert run_experiments(monkeypatch, "T99") == 2
    assert "unknown experiments: ['T99']" in capsys.readouterr().out
