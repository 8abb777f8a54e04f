"""The design-campaign soak runner: days of diurnal team load.

Where T8/T9 measure one session burst, a *campaign* runs the same TE
stack (client-TMs, object buffers, server-TM, 2PC checkins, lease
invalidations) for simulated **days**: session start times concentrate
around midday (:data:`DIURNAL_PEAK`), a subset of the library is hot
(``hotspots`` / ``hotspot_bias``), and a fraction of the team churns
at each day boundary — the replacement designer starts with a cold
object buffer, which is exactly the warm-cache value the campaign
quantifies.

The whole multi-day plan (start offsets, read sets, durations, write
decisions, churn victims) is drawn from the seed before the first
event runs, so a campaign is as deterministic and replayable as every
other kernel scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.scenario.schema import ScenarioConfig
from repro.scenario.sessions import (
    SessionPlan,
    StepPlan,
    session_driver,
)
from repro.sim.kernel import Kernel
from repro.util.rng import SeededRng

#: simulated time units per campaign day
DAY_LENGTH = 480.0
#: midday load multiplier: session starts fall in the middle
#: 1/DIURNAL_PEAK of the day (1 would spread them over the whole day)
DIURNAL_PEAK = 2.0


@dataclass
class CampaignReport:
    """Chronicle of one multi-day design-campaign soak."""

    days: int = 0
    team: int = 0
    #: designer sessions completed / tool steps executed
    sessions: int = 0
    steps: int = 0
    #: simulated completion time of the whole campaign
    makespan: float = 0.0
    bytes_shipped: int = 0
    messages: int = 0
    hits: int = 0
    misses: int = 0
    hit_rate: float = 0.0
    #: reads that landed on the hotspot subset
    hotspot_reads: int = 0
    checkins: int = 0
    invalidations_sent: int = 0
    invalidations_applied: int = 0
    #: day-boundary churn events (each clears one designer's buffer)
    churn_events: int = 0
    #: buffer entries dropped cold by churn
    churned_entries: int = 0
    fetch_time: float = 0.0
    #: per-day payload bytes (diurnal traffic profile)
    bytes_by_day: list[int] = field(default_factory=list)
    #: deterministic kernel fingerprint of the run
    signature: tuple[Any, ...] = ()


def _draw_plan(rng: SeededRng, config: ScenarioConfig
               ) -> list[SessionPlan]:
    """Draw the whole campaign up front from one seeded stream."""
    team, campaign = config["team"], config["campaign"]
    steps_per_session, mean_step = \
        team["steps_per_session"], team["mean_step"]
    object_pool = config.get("objects", "pool")
    hotspots = config.get("objects", "hotspots")
    hotspot_bias = config.get("objects", "hotspot_bias")
    reads_per_step = config.get("locality", "reads_per_step")
    reread_locality = config.get("locality", "reread")
    write_ratio = config.get("writes", "ratio")
    plans: list[SessionPlan] = []
    working: dict[int, list[str]] = {i: [] for i in range(team["size"])}
    # diurnal concentration: the start window narrows symmetrically
    # around midday
    spread = 1.0 / DIURNAL_PEAK
    for day in range(campaign["days"]):
        for designer in range(team["size"]):
            for slot in range(campaign["sessions_per_day"]):
                offset = DAY_LENGTH * (0.5 + (rng.random() - 0.5)
                                       * spread)
                start = day * DAY_LENGTH + offset
                durations = tuple(
                    rng.bounded_normal(mean_step, mean_step / 3.0,
                                       mean_step / 10.0, mean_step * 3.0)
                    for _ in range(steps_per_session))
                steps: list[StepPlan] = []
                for duration in durations:
                    step_reads: list[str] = []
                    for _ in range(reads_per_step):
                        ws = working[designer]
                        if ws and rng.bernoulli(reread_locality):
                            obj = rng.choice(ws)
                        elif hotspots and rng.bernoulli(hotspot_bias):
                            obj = f"lib-{rng.randint(0, hotspots - 1)}"
                        else:
                            obj = f"lib-{rng.randint(0, object_pool - 1)}"
                        step_reads.append(obj)
                        if obj not in ws:
                            ws.append(obj)
                            del ws[:-4]  # bounded working set
                    # a step that reads checks in a derived version of
                    # its first input with probability write_ratio
                    writes = bool(step_reads) \
                        and rng.bernoulli(write_ratio)
                    steps.append(StepPlan(
                        tuple(step_reads), duration,
                        step_reads[0] if writes else None))
                plans.append(SessionPlan(
                    start=start, workstation=f"ws-{designer}",
                    da_id=f"da-{designer}", kind="campaign",
                    stem=f"d{day}:w{designer}:s{slot}",
                    steps=tuple(steps)))
    return plans


def design_campaign_scenario(config: ScenarioConfig,
                             on_kernel: Callable[[Kernel], None]
                             | None = None) -> CampaignReport:
    """Run a multi-day design campaign on the real TE stack."""
    team = config.get("team", "size")
    days = config.get("campaign", "days")
    caching = config.get("buffers", "caching")
    driver = session_driver(config, on_kernel, object_buffers=caching)
    kernel, network = driver.rig.kernel, driver.rig.network
    plans = _draw_plan(SeededRng(config.seed).fork(1), config)
    driver.schedule(plans)
    buffers = driver.rig.buffers()

    report = CampaignReport(days=days, team=team)
    # -- churn: at each day boundary a rotating subset of the team is
    # replaced; the successor inherits the workstation but none of the
    # warm buffer state
    victims_per_day = int(team * config.get("campaign", "churn") + 1e-9)
    if caching and victims_per_day:
        for day in range(1, days):
            for slot in range(victims_per_day):
                victim = ((day - 1) * victims_per_day + slot) % team

                def churn_designer(index: int = victim) -> None:
                    report.churn_events += 1
                    report.churned_entries += buffers[index].clear()

                kernel.at(day * DAY_LENGTH, churn_designer,
                          label=f"campaign-churn:d{day}:w{victim}",
                          priority=-1)

    # -- per-day traffic profile, sampled at each boundary
    day_marks: list[int] = []
    for day in range(1, days + 1):
        kernel.at(day * DAY_LENGTH,
                  lambda: day_marks.append(network.bytes_shipped),
                  label=f"campaign-day-mark:{day}", priority=1)

    kernel.run_until_quiescent()

    driver.fill(report)
    report.sessions = driver.sessions
    report.steps = driver.steps
    hotspot_names = {f"lib-{index}" for index
                     in range(config.get("objects", "hotspots"))}
    report.hotspot_reads = sum(
        obj in hotspot_names
        for plan in plans for step in plan.steps for obj in step.reads)
    report.invalidations_applied = sum(b.invalidations for b in buffers)
    prev = 0
    for sample in day_marks:
        report.bytes_by_day.append(sample - prev)
        prev = sample
    return report
