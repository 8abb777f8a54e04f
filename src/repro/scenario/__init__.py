"""The scenario DSL: TOML workload definitions compiled to runners.

``repro.scenario`` turns the hand-written experiment scenarios into
data: a ``.toml`` file describes the team shape, object pool,
locality, write mix, traffic profile, crash schedule and flush/lease
knobs; :func:`parse_scenario` validates it into a frozen
:class:`ScenarioConfig`; :func:`compile_scenario` binds it to the
concrete runner; and :mod:`repro.sim.trace` records/replays the
resulting kernel event stream as a regression oracle.  See
``docs/scenarios.md`` and the shipped library under ``scenarios/``.
"""

from repro.scenario.compiler import (
    KIND_RUNNERS,
    CompiledScenario,
    canonical_scenarios,
    compile_scenario,
)
from repro.scenario.schema import (
    SCENARIO_KINDS,
    SCENARIO_SCHEMA,
    ScenarioConfig,
    ScenarioError,
    dump_scenario,
    load_scenario,
    parse_scenario,
    validate_scenario,
)

__all__ = [
    "CompiledScenario",
    "KIND_RUNNERS",
    "SCENARIO_KINDS",
    "SCENARIO_SCHEMA",
    "ScenarioConfig",
    "ScenarioError",
    "canonical_scenarios",
    "compile_scenario",
    "dump_scenario",
    "load_scenario",
    "parse_scenario",
    "validate_scenario",
]
