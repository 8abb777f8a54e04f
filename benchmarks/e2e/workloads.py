"""The four workloads: generated inputs, the timed run, the verdict.

Three workloads are scenario-DSL files under ``workloads/`` run through
``load_scenario`` + ``compile_scenario(...).run()``; the fourth drives
the cooperation manager through ``ConcordSystem`` directly, because the
AC level has no DSL kind.  Each workload has exactly one size
parameter; its frozen value and the time measured for it sit in the
workload file.

Every workload splits into the same three steps so one repetition
(``rep.py``) can time them apart: ``setup`` (everything up to the
point the first designer operation could be issued), ``run`` (the
timed region) and ``judge`` (operation count, failures, invariants).
The designer-operation count comes from the workload's input, never
from a counter inside the program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import tomllib
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: ``--seed`` picks the block of offsets (``run.SEED_BLOCK`` wide) that
#: are added to every workload's own ``[scenario].seed``
DEFAULT_SEED = 0
#: never used while a change is written; a claim must also hold here
HELD_OUT_SEED = 1009


@dataclasses.dataclass
class Verdict:
    """What one repetition did, judged from its inputs and outputs."""

    attempted: int
    failed: int
    #: broken invariants, one line each (any makes the run incorrect)
    problems: list[str]
    #: simulated-side end-to-end metrics this workload can observe
    sim: dict[str, float]
    #: everything two repetitions at one seed must agree on
    report: dict[str, Any]


def _digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class ScenarioWorkload:
    """A scenario-DSL file run through the public compile-and-run path."""

    def __init__(self, name: str, size: tuple[str, str], smoke: Any
                 ) -> None:
        self.name = name
        #: the one (table, key) the builder may scale
        self.size = size
        #: its value at ``--smoke`` size
        self.smoke = smoke

    @property
    def path(self) -> Path:
        return HERE / "workloads" / f"{self.name}.toml"

    def generate(self, seed: int, smoke: bool) -> str:
        """The config text the program will see: the workload file with
        the seed offset applied (and the smoke size, when asked)."""
        from repro.scenario import dump_scenario, validate_scenario

        raw = tomllib.loads(self.path.read_text(encoding="utf-8"))
        raw["scenario"]["seed"] += seed
        if smoke:
            table, key = self.size
            raw[table][key] = self.shrunk(raw[table][key])
        return dump_scenario(validate_scenario(raw))

    def shrunk(self, size: Any) -> Any:
        """The smoke value of the size parameter."""
        return self.smoke

    def setup(self, config_path: Path) -> Any:
        from repro.scenario import compile_scenario, load_scenario

        return compile_scenario(load_scenario(config_path))

    def run(self, compiled: Any) -> Any:
        return compiled.run()

    def judge(self, compiled: Any, report: Any) -> Verdict:
        raise NotImplementedError


class CampaignWorkload(ScenarioWorkload):
    """DSL kind ``campaign``: sessions of checkout/tool-step/checkin."""

    def judge(self, compiled: Any, report: Any) -> Verdict:
        config = compiled.config
        reads = config.get("locality", "reads_per_step")
        sessions = config.get("campaign", "days") \
            * config.get("team", "size") \
            * config.get("campaign", "sessions_per_day")
        steps = sessions * config.get("team", "steps_per_session")
        # begin + commit per session, one tool step and its checkouts
        # per step, and the checkins the seeded plan asked for
        attempted = 2 * sessions + steps * (1 + reads) + report.checkins
        done = 2 * report.sessions + report.steps * (1 + reads) \
            + report.checkins
        problems = []
        if report.sessions != sessions:
            problems.append(f"{report.sessions} of {sessions} planned "
                            f"sessions completed")
        if report.steps != steps:
            problems.append(f"{report.steps} of {steps} planned steps ran")
        if report.hits + report.misses != steps * reads:
            problems.append(f"{report.hits + report.misses} buffer lookups "
                            f"for {steps * reads} planned checkouts")
        if not 0 < report.checkins <= steps:
            problems.append(f"{report.checkins} checkins in {steps} steps")
        if len(report.bytes_by_day) != config.get("campaign", "days"):
            problems.append("per-day byte profile is incomplete")
        facts = dataclasses.asdict(report)
        facts["signature"] = _digest(report.signature)
        return Verdict(
            attempted=attempted, failed=attempted - done,
            problems=problems,
            sim={"sim_makespan": report.makespan,
                 "sim_bytes_per_op": report.bytes_shipped / attempted,
                 "sim_msgs_per_op": report.messages / attempted},
            report=facts)


class DelegationWorkload(ScenarioWorkload):
    """DSL kind ``concurrent_delegation``: the whole AC/DC/TE stack."""

    #: per sub-DA: create, start, four tool steps, Evaluate,
    #: Ready_To_Commit, terminate; the top DA: init, start, four tool
    #: steps, Evaluate
    OPS_PER_SUB, OPS_TOP = 9, 7

    def shrunk(self, size: list[str]) -> list[str]:
        # the first cells, so the crash schedule still names one
        return size[:self.smoke]

    def judge(self, compiled: Any, report: Any) -> Verdict:
        subcells = compiled.config.get("team", "subcells")
        problems = []
        if sorted(report.sub_das) != sorted(subcells):
            problems.append(f"{len(report.sub_das)} sub-DAs for "
                            f"{len(subcells)} subcells")
        unfinished = [
            cell for cell, da_id in report.sub_das.items()
            if report.final_states.get(da_id) != "terminated"
            or not report.devolved.get(da_id)]
        if unfinished:
            problems.append(f"sub-DAs not terminated and devolved: "
                            f"{', '.join(sorted(unfinished))}")
        top_ok = report.final_states.get(report.top_da) == "active"
        if not top_ok:
            problems.append("the top-level DA did not stay active")
        attempted = self.OPS_PER_SUB * len(subcells) + self.OPS_TOP
        failed = self.OPS_PER_SUB * len(unfinished) \
            + (0 if top_ok else self.OPS_TOP)
        facts = dataclasses.asdict(report)
        facts["signature"] = _digest(report.signature)
        # the report carries no traffic counters: bytes and messages
        # per op are only seen by the traced pass (net.bytes, ...)
        return Verdict(attempted=attempted, failed=failed,
                       problems=problems,
                       sim={"sim_makespan": report.makespan},
                       report=facts)


class CooperationWorkload:
    """AC level only: the paper's cooperation operations on a hierarchy
    of one top-level DA, ``leads`` sub-DAs and ``leaves`` under each."""

    name = "cm_cooperation"
    #: ``[hierarchy].leads`` is the size parameter; its ``--smoke`` value
    smoke = 2

    @property
    def path(self) -> Path:
        return HERE / "workloads" / f"{self.name}.toml"

    def generate(self, seed: int, smoke: bool) -> str:
        raw = tomllib.loads(self.path.read_text(encoding="utf-8"))
        leads = self.smoke if smoke else raw["hierarchy"]["leads"]
        return (f"[scenario]\nname = \"{raw['scenario']['name']}\"\n"
                f"seed = {raw['scenario']['seed'] + seed}\n\n"
                f"[hierarchy]\nleads = {leads}\n"
                f"leaves = {raw['hierarchy']['leaves']}\n")

    def setup(self, config_path: Path) -> Any:
        from repro.core.system import ConcordSystem
        from repro.vlsi.tools import vlsi_dots

        config = tomllib.loads(config_path.read_text(encoding="utf-8"))
        system = ConcordSystem(trace=False,
                               seed=config["scenario"]["seed"])
        for index in range(config["hierarchy"]["leads"] + 1):
            system.add_workstation(f"ws-{index}")
        dots = vlsi_dots()
        for dot in dots.values():
            system.repository.register_dot(dot)
        return _CooperationRun(system, dots, config)

    def run(self, state: "_CooperationRun") -> "_CooperationRun":
        from repro.util.errors import ConcordError

        try:
            state.drive()
        except ConcordError as exc:
            state.problems.append(f"operation {state.done + 1} raised "
                                  f"{type(exc).__name__}: {exc}")
        return state

    def judge(self, state: "_CooperationRun",
              outcome: "_CooperationRun") -> Verdict:
        system = state.system
        traffic = system.network.traffic_stats()
        return Verdict(
            attempted=state.planned, failed=state.planned - state.done,
            problems=state.problems,
            # CM messages are zero-size control traffic handed over at
            # one simulated instant: no makespan, no payload bytes
            sim={"sim_msgs_per_op":
                 traffic["messages_sent"] / state.planned},
            report={"cm": system.cm.stats(),
                    "hierarchy": _digest(state.after),
                    "messages": traffic["messages_sent"],
                    "stable_writes": system.server.stable.writes,
                    "done": state.done})


class _CooperationRun:
    """State and driver of one ``cm_cooperation`` repetition."""

    OPS_PER_PAIR = 6

    def __init__(self, system: Any, dots: dict[str, Any],
                 config: dict[str, Any]) -> None:
        self.system = system
        self.dots = dots
        self.leads = config["hierarchy"]["leads"]
        self.leaves = config["hierarchy"]["leaves"]
        self.rng = random.Random(config["scenario"]["seed"])
        das = 1 + self.leads * (1 + self.leaves)
        self.pairs = self.leads * (self.leaves // 2)
        #: init/create + start per DA, the sibling-pair protocol, and
        #: the server crash + restart
        self.planned = 2 * das + self.OPS_PER_PAIR * self.pairs + 2
        self.done = 0
        self.problems: list[str] = []
        self.after: Any = None

    def op(self, operation: Any, *args: Any, **kwargs: Any) -> Any:
        result = operation(*args, **kwargs)
        self.done += 1
        return result

    def drive(self) -> None:
        from repro.core.features import DesignSpecification, RangeFeature
        from repro.dc.script import DopStep, Script, Sequence

        system, cm, rng, op = self.system, self.system.cm, self.rng, self.op
        noop = Script(Sequence(DopStep("structure_synthesis")), "noop")

        def spec(limit: float) -> DesignSpecification:
            return DesignSpecification([
                RangeFeature("width-limit", "width", hi=limit),
                RangeFeature("height-limit", "height", hi=limit)])

        top = op(system.init_design, self.dots["Chip"], spec(1000.0),
                 "chief", noop, "ws-0",
                 initial_data={"cell": "chip", "level": "chip"})
        op(system.start, top.da_id)
        teams: list[list[str]] = []
        for lead_index in range(self.leads):
            station = f"ws-{lead_index + 1}"
            lead = op(system.create_sub_da, top.da_id, self.dots["Module"],
                      spec(400.0), f"lead-{lead_index}", noop, station)
            op(system.start, lead.da_id)
            team = []
            for leaf_index in range(self.leaves):
                leaf = op(system.create_sub_da, lead.da_id,
                          self.dots["Block"], spec(100.0),
                          f"designer-{lead_index}-{leaf_index}", noop,
                          station)
                op(system.start, leaf.da_id)
                team.append(leaf.da_id)
            teams.append(team)

        for team in teams:
            rng.shuffle(team)
            for supporting, requiring in zip(team[0::2], team[1::2]):
                self._cooperate(supporting, requiring)

        before = cm.hierarchy_snapshot()
        op(system.crash_server)
        op(system.restart_server)
        self.after = cm.hierarchy_snapshot()
        if self.after != before:
            self.problems.append("the DA hierarchy after server recovery "
                                 "differs from the one before the crash")
            self.done -= 2

    def _cooperate(self, supporting: str, requiring: str) -> None:
        """One sibling pair: a usage relationship served by a
        propagation, then a negotiated move of their common border."""
        from repro.core.features import RangeFeature

        system, cm, rng, op = self.system, self.system.cm, self.rng, self.op
        width = rng.uniform(10.0, 40.0)
        dov = system.repository.checkin(
            supporting, "Block",
            {"cell": supporting, "level": "block", "width": width,
             "height": rng.uniform(10.0, 40.0)})
        quality = op(cm.evaluate, supporting, dov.dov_id)
        delivered = op(cm.require, requiring, supporting, {"width-limit"})
        receivers = op(cm.propagate, supporting, dov.dov_id)
        border = rng.uniform(width, 90.0)
        proposal = op(cm.propose, requiring, supporting, {
            supporting: [RangeFeature("width-limit", "width", hi=border)],
            requiring: [RangeFeature("width-limit", "width",
                                     hi=200.0 - border)]})
        op(cm.agree, supporting, proposal.proposal_id)
        kinds = [message.kind
                 for message in op(cm.pop_messages, requiring)]
        if not quality.is_final or delivered is not None \
                or receivers != [requiring] or "dov_delivered" not in kinds:
            self.problems.append(
                f"propagation {supporting} -> {requiring} not delivered")
            self.done -= 1
        states = {cm.da(da_id).state.value
                  for da_id in (supporting, requiring)}
        if states != {"active"}:
            self.problems.append(
                f"{supporting}/{requiring} did not resume after Agree")
            self.done -= 1


#: why each was chosen is recorded in ``BENCHMARK.json`` and the README
WORKLOADS = {w.name: w for w in (
    CampaignWorkload("campaign_reads", ("campaign", "days"), 2),
    CampaignWorkload("campaign_writes", ("campaign", "days"), 2),
    DelegationWorkload("team_delegation", ("team", "subcells"), 3),
    CooperationWorkload(),
)}
