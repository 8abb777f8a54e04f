"""What a run imports: a scenario run and the scenario/trace CLI load
the code they call, not the experiment harness.

Each check runs in a fresh interpreter, because this test session has
long since imported everything.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

#: the experiment harness and the analytic simulator behind it
HARNESS = ("repro.bench.experiments", "repro.bench.scorecard",
           "repro.bench.figures", "repro.bench.ablations",
           "repro.baselines", "repro.workload.simulator")

#: ``repro*`` modules a ``campaign`` run loads (it must not grow)
CAMPAIGN_CLOSURE = 52
#: ``repro*`` modules a ``concurrent_delegation`` run loads (it must
#: not grow)
DELEGATION_CLOSURE = 61


def repro_modules_after(code: str) -> list[str]:
    """The ``repro*`` modules in ``sys.modules`` after *code* ran in a
    fresh interpreter (its stdout is discarded)."""
    probe = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps(sorted(m for m in sys.modules\n"
          "                        if m.split('.')[0] == 'repro')))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], check=True,
                          env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    return json.loads(done.stdout)


def run_canonical(name: str) -> str:
    return ("from repro.scenario import canonical_scenarios, "
            "compile_scenario\n"
            f"compile_scenario(canonical_scenarios()[{name!r}]).run()")


def test_a_delegation_run_does_not_load_the_harness():
    loaded = repro_modules_after(run_canonical("t7_concurrent_team"))
    assert "repro.scenario.delegation" in loaded
    assert [name for name in loaded
            if name.startswith("repro.bench")] == []
    assert len(loaded) <= DELEGATION_CLOSURE, loaded


def test_the_campaign_closure_does_not_grow():
    loaded = repro_modules_after(run_canonical("campaign_design_week"))
    assert len(loaded) <= CAMPAIGN_CLOSURE, loaded
    assert [name for name in HARNESS if name in loaded] == []


@pytest.mark.parametrize("argv", [
    ["scenario", "list"],
    ["trace", "replay", "tests/data/traces/t7_concurrent_team.jsonl"],
])
def test_the_scenario_and_trace_commands_do_not_load_the_harness(argv):
    loaded = repro_modules_after(
        f"from repro.__main__ import main\nassert main({argv!r}) == 0")
    assert [name for name in HARNESS if name in loaded] == []


def test_the_scenario_package_does_not_import_the_harness():
    """Every scenario kind's runner lives in ``repro.scenario``: no
    module of the DSL imports anything from ``repro.bench``."""
    offenders = []
    for path in sorted((ROOT / "src" / "repro" / "scenario").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}"
                          for name in names
                          if name.split(".")[:2] == ["repro", "bench"]]
    assert offenders == []
