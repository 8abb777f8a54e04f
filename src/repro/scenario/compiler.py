"""Compile validated scenario configs to the concrete runners.

The compiler is the bridge between the DSL and the code that runs a
scenario *kind*.  Every kind's runner takes the config itself and
reads its tables where it needs them: T8 and T9
(:mod:`repro.scenario.shipping`), the campaign
(:mod:`repro.scenario.campaign`), the delegation
(:mod:`repro.scenario.delegation`) and the federation
(:mod:`repro.scenario.federation`).  :data:`KIND_RUNNERS` names each
one as a ``module:function`` string, and :func:`compile_scenario`
imports the kind's module and binds its runner, so a run loads only
its own kind's code, compilation pays for that import, and a runner
that does not resolve is a :class:`ScenarioError` before anything
runs.  A :class:`CompiledScenario` holds only the frozen config and
that runner, and every :meth:`CompiledScenario.run` builds the entire
world (kernel, network, repository, RNG streams) from scratch, so
back-to-back runs of the same compiled scenario are byte-identical,
never bleed state into each other and import nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Any, Callable

from repro.scenario.schema import (
    ScenarioConfig,
    ScenarioError,
    load_scenario,
)
from repro.sim.kernel import Kernel


#: kind -> ``module:function`` of its runner, which takes ``(config,
#: on_kernel)`` (the compiler's whole dispatch table)
KIND_RUNNERS: dict[str, str] = {
    "object_buffers": "repro.scenario.shipping:object_buffer_scenario",
    "write_back": "repro.scenario.shipping:write_back_scenario",
    "concurrent_delegation":
        "repro.scenario.delegation:delegation_report",
    "campaign": "repro.scenario.campaign:design_campaign_scenario",
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
    #: the kind's runner, imported by :func:`compile_scenario`
    runner: Callable[..., Any]

    def run(self,
            on_kernel: Callable[[Kernel], None] | None = None) -> Any:
        """Execute the scenario and return its report.

        *on_kernel* is invoked with the run's kernel as soon as it
        exists, before any event executes — the capture hook of
        :mod:`repro.sim.trace`.
        """
        return self.runner(self.config, on_kernel)


def compile_scenario(config: ScenarioConfig) -> CompiledScenario:
    """Bind *config* to its kind's runner, importing the runner's
    module."""
    target = KIND_RUNNERS.get(config.kind)
    if target is None:
        raise ScenarioError(
            f"[scenario].kind: no runner for {config.kind!r}")
    module, _, name = target.partition(":")
    try:
        runner = getattr(import_module(module), name)
    except (ImportError, AttributeError) as exc:
        raise ScenarioError(
            f"[scenario].kind: the runner {target!r} of "
            f"{config.kind!r} does not resolve: {exc}") from exc
    return CompiledScenario(config=config, runner=runner)


def canonical_scenarios() -> dict[str, ScenarioConfig]:
    """The shipped scenario library: every ``scenarios/*.toml`` file of
    the repository, loaded and validated, keyed by file stem in
    file-name order."""
    library = Path(__file__).resolve().parents[3] / "scenarios"
    return {path.stem: load_scenario(path)
            for path in sorted(library.glob("*.toml"))}
