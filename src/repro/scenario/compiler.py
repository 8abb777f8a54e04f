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
from pathlib import Path
from typing import Any, Callable

from repro.scenario.campaign import design_campaign_scenario
from repro.scenario.schema import (
    ScenarioConfig,
    ScenarioError,
    load_scenario,
)
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
    """The shipped scenario library: every ``scenarios/*.toml`` file of
    the repository, loaded and validated, keyed by file stem in
    file-name order."""
    library = Path(__file__).resolve().parents[3] / "scenarios"
    return {path.stem: load_scenario(path)
            for path in sorted(library.glob("*.toml"))}
