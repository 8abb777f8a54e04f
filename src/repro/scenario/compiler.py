"""Compile validated scenario configs to the concrete runners.

The compiler is the bridge between the DSL and the code that runs a
scenario *kind*.  The three session kinds
(:mod:`repro.scenario.sessions`, :mod:`repro.scenario.campaign`) take
the config itself and read its tables where they need them; the two
kinds that drive the whole AC/DC/TE stack or a federation
(:mod:`repro.bench.scenarios`) are reached through an adapter that
imports them on first use, so a session run never loads them.
Compilation is pure — a :class:`CompiledScenario` holds only the
frozen config and a kind entry, and every
:meth:`CompiledScenario.run` builds the entire world (kernel,
network, repository, RNG streams) from scratch, so back-to-back runs
of the same compiled scenario are byte-identical and never bleed
state into each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.scenario.campaign import design_campaign_scenario
from repro.scenario.schema import ScenarioConfig, ScenarioError
from repro.scenario.sessions import (
    object_buffer_scenario,
    write_back_scenario,
)
from repro.sim.kernel import Kernel


def _run_concurrent_delegation(config: ScenarioConfig,
                               on_kernel: Callable[[Kernel], None]
                               | None) -> Any:
    from repro.bench.scenarios import concurrent_delegation_scenario

    crash = None
    schedule = config.get("crashes", "schedule")
    if schedule:  # validation admits at most one entry
        entry = schedule[0]
        crash = (entry["node"], entry["at"], entry["restart_after"])
    __, report = concurrent_delegation_scenario(
        subcells=tuple(config.get("team", "subcells")),
        concurrent=True,
        crash=crash,
        jitter=config.get("traffic", "jitter"),
        seed=config.seed,
        on_kernel=on_kernel)
    return report


def _run_federated_commit(config: ScenarioConfig,
                          on_kernel: Callable[[Kernel], None] | None
                          ) -> Any:
    """The T10 crash matrix as a scenario: every crash placement of
    the federated atomic commit on one config, plus the
    all-or-nothing verdict.  The federation runs outside the kernel
    (its crashes are injected directly), so *on_kernel* has nothing
    to hook."""
    from dataclasses import asdict

    from repro.bench.scenarios import federated_commit_scenario

    reports = {
        crash: asdict(federated_commit_scenario(
            crash=crash,
            members=config.get("federation", "members"),
            batches=config.get("federation", "batches"),
            seed=config.seed))
        for crash in ("none", "before", "after", "coordinator")}
    states = {crash: report["state"]
              for crash, report in reports.items()}
    return {
        "crashes": reports,
        "states_identical":
            len({tuple(state) for state in states.values()}) == 1,
    }


#: kind -> runner taking ``(config, on_kernel)`` (the compiler's whole
#: dispatch table)
KIND_RUNNERS: dict[str, Callable[..., Any]] = {
    "object_buffers": object_buffer_scenario,
    "write_back": write_back_scenario,
    "concurrent_delegation": _run_concurrent_delegation,
    "campaign": design_campaign_scenario,
    "federated_commit": _run_federated_commit,
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
        return KIND_RUNNERS[self.config.kind](self.config, on_kernel)


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
