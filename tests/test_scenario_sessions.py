"""The one session driver: plans are data, the loop is shared.

T8, T9 and the campaign soak hand :class:`SessionDriver` a list of
:class:`SessionPlan`; what a plan says — DOP per step or per session,
which step writes what — is all that tells the scenarios apart.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

from repro.repository.versions import FrozenDict, payload_sizeof
from repro.scenario import load_scenario, validate_scenario
from repro.scenario.campaign import DAY_LENGTH, DIURNAL_PEAK, _draw_plan
from repro.scenario.sessions import (
    SessionDriver,
    SessionPlan,
    StepPlan,
    session_rig,
)
from repro.util.rng import SeededRng

ROOT = Path(__file__).resolve().parent.parent


def team_plans(dop_per_step: bool) -> list[SessionPlan]:
    """Two designers, three steps each, over a shared library: both
    read ``lib-0`` throughout, each derives versions of its own cell
    and ws-1 a new ``lib-1`` in the middle."""
    def steps(own: str, other: str) -> tuple[StepPlan, ...]:
        return (StepPlan(("lib-0", own), 30.0, own),
                StepPlan(("lib-0", "lib-1", other), 45.0,
                         "lib-1" if own == "cell-1" else None),
                StepPlan(("lib-1", own), 20.0, own))

    return [SessionPlan(start=5.0 * index, workstation=f"ws-{index}",
                        da_id=f"da-{index}", kind="test",
                        stem=f"designer-{index}",
                        steps=steps(f"cell-{index}",
                                    f"cell-{1 - index}"),
                        dop_per_step=dop_per_step)
            for index in range(2)]


def run(plans: list[SessionPlan], **te) -> SessionDriver:
    driver = SessionDriver(session_rig(None, bandwidth=400.0, **te),
                           payload_bytes=2000)
    driver.seed_library(["lib-0", "lib-1", "cell-0", "cell-1"])
    driver.add_designers(2)
    driver.schedule(plans)
    driver.rig.kernel.run_until_quiescent()
    return driver


def counted(driver: SessionDriver) -> dict:
    return {"steps": driver.steps, "sessions": driver.sessions,
            "checkins": driver.checkins,
            "generations": driver.generations,
            "versions": {obj: driver.rig.repository.read(dov_id).data
                         ["blob"][:1]
                         for obj, dov_id in driver.current.items()}}


def test_the_same_plans_twice_give_the_same_trace():
    first, second = run(team_plans(False)), run(team_plans(False))
    signature = first.rig.kernel.trace_signature()
    assert signature == second.rig.kernel.trace_signature()
    # labels come from the plan: <kind>-begin:<stem>, -step:<stem>:<n>
    assert "test-begin:designer-1" in signature[2]
    assert "test-step:designer-0:2" in signature[2]


def test_dop_per_step_and_per_session_differ_in_the_dops_begun_only():
    per_step, per_session = run(team_plans(True)), run(team_plans(False))
    assert counted(per_step) == counted(per_session)
    assert per_step.steps == 6 and per_step.checkins == 5
    assert per_step.dops == per_step.steps
    assert per_session.dops == per_session.sessions == 2


def test_write_back_publishes_the_durable_version_at_end_of_dop():
    through = run(team_plans(False))
    back = run(team_plans(False), write_back=True)
    assert counted(back) == counted(through)
    client = back.rig.client_tm("ws-0")
    # two checkins of cell-0 inside one DOP coalesced into one flush
    assert client.flushes == 1 and back.rig.buffers()[0].coalesced == 1
    assert all(dov_id in back.rig.repository
               for dov_id in back.current.values())


def test_a_session_without_steps_begins_nothing():
    plan = replace(team_plans(True)[0], steps=())
    driver = run([plan])
    assert (driver.dops, driver.steps, driver.sessions) == (0, 0, 0)


def test_a_payload_is_built_once_per_object_and_letter():
    """An object has 26 payloads, one per letter: ``payload_for`` hands
    back the one frozen payload of a letter for every generation that
    has it, equal to the plain ``{"name", "blob"}`` dict it stands for
    and sized as that dict would be."""
    driver = SessionDriver(session_rig(None), payload_bytes=2000)
    for obj, index in (("lib-0", 0), ("cell-3", 3)):
        for generation in (0, 1, 25, 26, 27, 51, 52):
            payload = driver.payload_for(obj, generation)
            plain = {"name": obj,
                     "blob": chr(ord("a") + generation % 26)
                     * (2000 + 256 * index)}
            assert type(payload) is FrozenDict
            assert payload == plain
            assert list(payload) == list(plain)
            assert payload._frozen_size == payload_sizeof(plain)
            assert driver.payload_for(obj, generation + 26) is payload
    assert driver.payload_for("lib-0", 1) \
        is not driver.payload_for("lib-1", 1)
    assert driver.payload_for("lib-0", 1) != driver.payload_for("lib-0", 2)


def test_the_library_is_seeded_with_the_cached_payloads():
    driver = SessionDriver(session_rig(None), payload_bytes=2000)
    driver.seed_library(["lib-0", "cell-3"])
    for name in ("lib-0", "cell-3"):
        dov = driver.rig.repository.read(driver.current[name])
        assert dov.data is driver.payload_for(name, 0)


#: the tables of the read-heavy e2e campaign, at two days
CAMPAIGN_READS_TWO_DAYS = {
    "scenario": {"name": "campaign-reads", "kind": "campaign", "seed": 101},
    "team": {"size": 12, "steps_per_session": 6, "mean_step": 15.0},
    "objects": {"pool": 48, "payload_bytes": 4000, "hotspots": 6,
                "hotspot_bias": 0.5},
    "locality": {"reads_per_step": 4, "reread": 0.85},
    "writes": {"ratio": 0.05},
    "leases": {"ttl": 120.0},
    "campaign": {"days": 2, "sessions_per_day": 4, "churn": 0.25},
}

#: sha256 of ``repr`` of the drawn plans, as the draw through
#: ``SeededRng``'s ``bernoulli`` / ``bounded_normal`` / ``randint``
#: wrappers gave them
PLAN_DIGESTS = {
    "campaign_design_week":
        "d89e4c90207ce423750b2381f720afdf954de6d835c80e41b49740503b05ce48",
    "campaign_reads_two_days":
        "c0971777e1bed6c708e5bf81e1b35465cae2b8c24da83d6cd50b7e66ff1c995c",
}


@pytest.mark.parametrize("name", sorted(PLAN_DIGESTS))
def test_the_campaign_draw_is_pinned(name):
    if name == "campaign_design_week":
        config = load_scenario(ROOT / "scenarios" / f"{name}.toml")
    else:
        config = validate_scenario(CAMPAIGN_READS_TWO_DAYS)
    plans, hotspot_reads = _draw_plan(
        Random(SeededRng(config.seed).fork(1).seed), config)
    assert hashlib.sha256(repr(plans).encode()).hexdigest() \
        == PLAN_DIGESTS[name]
    hotspots = {f"lib-{index}"
                for index in range(config.get("objects", "hotspots"))}
    assert hotspot_reads == sum(obj in hotspots for plan in plans
                                for step in plan.steps
                                for obj in step.reads) > 0


def _reference_draw_plan(rng, config):
    """The campaign draw as the stdlib's ``randrange`` and ``choice``
    make it: what :func:`_draw_plan` inlines must draw the same."""
    team, campaign = config["team"], config["campaign"]
    mean_step = team["mean_step"]
    pool = config.get("objects", "pool")
    hotspots = config.get("objects", "hotspots")
    bias = config.get("objects", "hotspot_bias")
    reread = config.get("locality", "reread")
    sd, lo, hi = mean_step / 3.0, mean_step / 10.0, mean_step * 3.0
    plans, hotspot_reads = [], 0
    working = [[] for _ in range(team["size"])]
    for day in range(campaign["days"]):
        for designer, ws in enumerate(working):
            for slot in range(campaign["sessions_per_day"]):
                offset = DAY_LENGTH * (
                    0.5 + (rng.random() - 0.5) * (1.0 / DIURNAL_PEAK))
                start = day * DAY_LENGTH + offset
                durations = [max(lo, min(hi, rng.gauss(mean_step, sd)))
                             for _ in range(team["steps_per_session"])]
                steps = []
                for duration in durations:
                    reads = []
                    for _ in range(config.get("locality",
                                              "reads_per_step")):
                        if ws and rng.random() < reread:
                            index = rng.choice(ws)
                        elif hotspots and rng.random() < bias:
                            index = rng.randrange(hotspots)
                        else:
                            index = rng.randrange(pool)
                        reads.append(f"lib-{index}")
                        hotspot_reads += index < hotspots
                        if index not in ws:
                            ws.append(index)
                            del ws[:-4]
                    writes = bool(reads) and rng.random() \
                        < config.get("writes", "ratio")
                    steps.append(StepPlan(tuple(reads), duration,
                                          reads[0] if writes else None))
                plans.append(SessionPlan(
                    start=start, workstation=f"ws-{designer}",
                    da_id=f"da-{designer}", kind="campaign",
                    stem=f"d{day}:w{designer}:s{slot}",
                    steps=tuple(steps)))
    return plans, hotspot_reads


@pytest.mark.parametrize("pool,hotspots", [
    (pool, hotspots) for pool in (1, 2, 8, 48)
    for hotspots in (1, 2, 8, 48) if hotspots <= pool])
def test_the_inlined_draw_is_the_stdlib_draw(pool, hotspots):
    for seed in (0, 1, 101, 1009):
        tables = {**CAMPAIGN_READS_TWO_DAYS,
                  "scenario": {**CAMPAIGN_READS_TWO_DAYS["scenario"],
                               "seed": seed},
                  "objects": {**CAMPAIGN_READS_TWO_DAYS["objects"],
                              "pool": pool, "hotspots": hotspots}}
        config = validate_scenario(tables)
        stream = SeededRng(config.seed).fork(1).seed
        assert _draw_plan(Random(stream), config) \
            == _reference_draw_plan(Random(stream), config)
