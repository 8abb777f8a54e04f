"""Compile validated scenario configs to the concrete runners.

The compiler is the bridge between the DSL and the code that runs a
scenario *kind*.  Every kind's runner takes the config itself and
reads its tables where it needs them: the three session kinds
(:mod:`repro.scenario.sessions`, :mod:`repro.scenario.campaign`), the
delegation (:mod:`repro.scenario.delegation`) and the federation
(:mod:`repro.scenario.federation`); the last two are imported on first
use, so a session run never loads them.
Compilation is pure — a :class:`CompiledScenario` holds only the
frozen config and a kind entry, and every
:meth:`CompiledScenario.run` builds the entire world (kernel,
network, repository, RNG streams) from scratch, so back-to-back runs
of the same compiled scenario are byte-identical and never bleed
state into each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable

from repro.scenario.campaign import design_campaign_scenario
from repro.scenario.schema import ScenarioConfig, ScenarioError
from repro.scenario.sessions import (
    object_buffer_scenario,
    write_back_scenario,
)
from repro.sim.kernel import Kernel


#: kind -> runner taking ``(config, on_kernel)`` (the compiler's whole
#: dispatch table); a ``module:function`` string is imported on the
#: kind's first run
KIND_RUNNERS: dict[str, Callable[..., Any] | str] = {
    "object_buffers": object_buffer_scenario,
    "write_back": write_back_scenario,
    "concurrent_delegation":
        "repro.scenario.delegation:delegation_report",
    "campaign": design_campaign_scenario,
    "federated_commit": "repro.scenario.federation:crash_matrix",
}


@dataclass(frozen=True)
class CompiledScenario:
    """A scenario bound to its runner, ready to execute.

    ``run`` may be called any number of times; each call builds a
    fresh world from the frozen config (the no-state-leakage
    guarantee the DSL tests pin down).
    """

    config: ScenarioConfig

    def run(self,
            on_kernel: Callable[[Kernel], None] | None = None) -> Any:
        """Execute the scenario and return its report.

        *on_kernel* is invoked with the run's kernel as soon as it
        exists, before any event executes — the capture hook of
        :mod:`repro.sim.trace`.
        """
        runner = KIND_RUNNERS[self.config.kind]
        if isinstance(runner, str):
            module, name = runner.split(":")
            runner = getattr(import_module(module), name)
        return runner(self.config, on_kernel)


def compile_scenario(config: ScenarioConfig) -> CompiledScenario:
    """Bind *config* to its kind's runner."""
    if config.kind not in KIND_RUNNERS:
        raise ScenarioError(
            f"[scenario].kind: no runner for {config.kind!r}")
    return CompiledScenario(config=config)


def canonical_scenarios() -> dict[str, ScenarioConfig]:
    """The shipped scenario library, as in-code source of truth.

    The ``scenarios/*.toml`` files in the repository are the dumped
    form of exactly these configs — a sync test asserts the files
    equal ``dump_scenario`` of each entry, so the library cannot
    drift from the DSL.
    """
    from repro.scenario.schema import validate_scenario

    return {
        "t7_concurrent_team": validate_scenario({
            "scenario": {
                "name": "t7-concurrent-team",
                "kind": "concurrent_delegation",
                "description": "Fig.5 team: three delegated subcell "
                               "planners interleaved on one kernel",
                "seed": 0,
            },
            "team": {"subcells": ["A", "B", "C"]},
        }),
        "t8_object_buffers": validate_scenario({
            "scenario": {
                "name": "t8-object-buffers",
                "kind": "object_buffers",
                "description": "T8 data shipping: cached re-reads vs "
                               "re-shipped payloads",
                "seed": 11,
            },
            "team": {"size": 3, "steps_per_session": 4,
                     "mean_step": 60.0},
            "objects": {"pool": 4, "payload_bytes": 4000},
            "locality": {"reads_per_step": 2, "reread": 0.6},
            "writes": {"ratio": 0.3},
            "buffers": {"caching": True},
            "traffic": {"bandwidth": 400.0, "lan_latency": 0.05},
        }),
        "t9_write_back": validate_scenario({
            "scenario": {
                "name": "t9-write-back",
                "kind": "write_back",
                "description": "T9 write-back: staged dirty checkins "
                               "group-flushed at End-of-DOP",
                "seed": 13,
            },
            "team": {"size": 3, "steps_per_session": 4,
                     "mean_step": 60.0},
            "objects": {"pool": 4, "payload_bytes": 4000},
            "locality": {"reads_per_step": 2, "reread": 0.6},
            "writes": {"ratio": 0.6, "write_back": True},
            "crashes": {"server_restart": True},
        }),
        "t9_write_through": validate_scenario({
            "scenario": {
                "name": "t9-write-through",
                "kind": "write_back",
                "description": "T9 reference: every checkin ships "
                               "eagerly through its own 2PC",
                "seed": 13,
            },
            "team": {"size": 3, "steps_per_session": 4,
                     "mean_step": 60.0},
            "objects": {"pool": 4, "payload_bytes": 4000},
            "locality": {"reads_per_step": 2, "reread": 0.6},
            "writes": {"ratio": 0.6, "write_back": False},
            "crashes": {"server_restart": True},
        }),
        "t10_federated_commit": validate_scenario({
            "scenario": {
                "name": "t10-federated-commit",
                "kind": "federated_commit",
                "description": "T10 crash matrix: cross-member "
                               "batches under member/coordinator "
                               "crashes converge to one durable "
                               "state",
                "seed": 17,
            },
            "federation": {"members": 3, "batches": 4},
        }),
        "campaign_design_week": validate_scenario({
            "scenario": {
                "name": "campaign-design-week",
                "kind": "campaign",
                "description": "soak: a five-day design week with "
                               "diurnal load, hotspot objects and "
                               "designer churn",
                "seed": 29,
            },
            "team": {"size": 4, "steps_per_session": 3,
                     "mean_step": 40.0},
            "objects": {"pool": 6, "payload_bytes": 4000,
                        "hotspots": 2, "hotspot_bias": 0.5},
            "locality": {"reads_per_step": 2, "reread": 0.5},
            "writes": {"ratio": 0.3},
            "leases": {"ttl": 120.0},
            "campaign": {"days": 5, "sessions_per_day": 3,
                         "day_length": 480.0, "diurnal_peak": 2.0,
                         "churn": 0.25},
        }),
    }
