"""What a run imports: a scenario run and the scenario/trace CLI load
the code they call, not the experiment harness, and a run loads only
its own kind's runner, at compile time.

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
from typing import Any

import pytest

ROOT = Path(__file__).parent.parent

#: the experiment harness and the analytic simulator behind it
HARNESS = ("repro.bench.experiments", "repro.bench.scorecard",
           "repro.bench.figures", "repro.bench.ablations",
           "repro.baselines", "repro.workload.simulator")

#: ``repro*`` modules a run of each kind loads (none may grow)
CAMPAIGN_CLOSURE = 36
DELEGATION_CLOSURE = 56
SHIPPING_CLOSURE = 38
FEDERATION_CLOSURE = 29
#: the ``cm_cooperation`` workload of ``benchmarks/e2e``: the AC level
#: and the VLSI DOTs, not the cell hierarchies and the methodology
COOPERATION_CLOSURE = 50

#: what a TE-only campaign has no use for: the AC and DC levels, the
#: VLSI domain, and the federation with its decision log
ABOVE_THE_TE_LEVEL = ("repro.core", "repro.dc", "repro.vlsi",
                      "repro.repository.federation",
                      "repro.txn.decision_log")


def json_after(code: str, expression: str) -> Any:
    """The value of *expression*, through JSON, after *code* ran in a
    fresh interpreter (its stdout is discarded)."""
    probe = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + f"print(json.dumps({expression}))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], check=True,
                          env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    return json.loads(done.stdout)


def repro_modules_after(code: str) -> list[str]:
    """The ``repro*`` modules in ``sys.modules`` after *code* ran in a
    fresh interpreter."""
    return json_after(code, "sorted(m for m in sys.modules "
                            "if m.split('.')[0] == 'repro')")


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


@pytest.mark.parametrize("name, bound", [
    ("t8_object_buffers", SHIPPING_CLOSURE),
    ("t10_federated_commit", FEDERATION_CLOSURE),
])
def test_the_shipping_and_federation_closures_do_not_grow(name, bound):
    loaded = repro_modules_after(run_canonical(name))
    assert len(loaded) <= bound, loaded


def test_a_shipping_run_does_not_load_the_harness():
    """T8/T9 draw their sessions from ``repro.workload.generator``:
    the workload package resolves its names on first access, so the
    analytic simulator and the baselines stay unloaded."""
    loaded = repro_modules_after(run_canonical("t8_object_buffers"))
    assert "repro.workload.generator" in loaded
    assert [name for name in HARNESS if name in loaded] == []


def test_the_cooperation_closure_does_not_grow(tmp_path):
    """``cm_cooperation`` imports ``repro.vlsi.tools`` for the DOTs
    alone: the package resolves its names on first access, so the
    import loads no VLSI module that ``tools`` does not import."""
    config = tmp_path / "cm_cooperation.toml"
    loaded = repro_modules_after(
        "from pathlib import Path\n"
        f"sys.path.insert(0, {str(ROOT / 'benchmarks' / 'e2e')!r})\n"
        "import workloads\n"
        "workload = workloads.WORKLOADS['cm_cooperation']\n"
        f"config = Path({str(config)!r})\n"
        "config.write_text(workload.generate(0, True))\n"
        "state = workload.setup(config)\n"
        "assert workload.judge(state, workload.run(state)).problems == []")
    assert "repro.core.cooperation_manager" in loaded
    assert [name for name in loaded if name in (
        "repro.vlsi.cells", "repro.vlsi.methodology")] == []
    assert len(loaded) <= COOPERATION_CLOSURE, loaded


def test_a_campaign_loads_nothing_above_the_te_level():
    loaded = repro_modules_after(run_canonical("campaign_design_week"))
    above = [name for name in loaded
             for prefix in ABOVE_THE_TE_LEVEL
             if name == prefix or name.startswith(prefix + ".")]
    assert above == []


@pytest.mark.parametrize("name", sorted(
    path.stem for path in (ROOT / "scenarios").glob("*.toml")))
def test_a_compiled_run_imports_nothing(name):
    """``compile_scenario`` imports the kind's runner, so ``run()``
    adds no module to ``sys.modules``."""
    added = json_after(
        "from repro.scenario import canonical_scenarios, "
        "compile_scenario\n"
        f"compiled = compile_scenario(canonical_scenarios()[{name!r}])\n"
        "before = set(sys.modules)\n"
        "compiled.run()\n",
        "sorted(set(sys.modules) - before)")
    assert added == []


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


def test_the_vlsi_package_resolves_its_names_on_first_access():
    """``import repro.vlsi`` loads no module of the domain; each public
    name is its module's object, listed by ``dir``, and an unknown name
    is an AttributeError."""
    assert repro_modules_after("import repro.vlsi") \
        == ["repro", "repro.vlsi"]
    import importlib

    import repro.vlsi as vlsi

    for name in vlsi.__all__:
        module = importlib.import_module(vlsi._EXPORTS[name])
        assert getattr(vlsi, name) is getattr(module, name), name
        assert name in dir(vlsi), name
    with pytest.raises(AttributeError, match="no_such_name"):
        vlsi.no_such_name


def test_the_workload_package_resolves_its_names_on_first_access():
    """``import repro.workload`` loads no module of the package; each
    public name is its module's object, and an unknown name is an
    AttributeError."""
    assert repro_modules_after("import repro.workload") \
        == ["repro", "repro.workload"]
    import importlib

    import repro.workload as workload

    for name in workload.__all__:
        module = importlib.import_module(workload._EXPORTS[name])
        assert getattr(workload, name) is getattr(module, name), name
        assert name in dir(workload), name
    with pytest.raises(AttributeError, match="no_such_name"):
        workload.no_such_name


def test_the_root_package_resolves_its_names_on_first_access():
    """``repro`` holds each public name of a subpackage, resolved on
    first access: the same object, listed by ``dir``, and an unknown
    name is an AttributeError."""
    import importlib

    import repro

    held = {}
    for package in ("core", "dc", "repository", "sim", "te", "util"):
        module = importlib.import_module(f"repro.{package}")
        held.update((name, getattr(module, name))
                    for name in module.__all__)
    for name in repro.__all__:
        if name != "__version__":
            assert getattr(repro, name) is held[name], name
        assert name in dir(repro), name
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
