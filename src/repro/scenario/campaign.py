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
from random import Random
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


def _draw_plan(rng: Random, config: ScenarioConfig
               ) -> tuple[list[SessionPlan], int]:
    """Draw the whole campaign up front from one seeded stream.

    Returns the plans and how many of their reads land on the hotspot
    subset.  *rng* is the stream ``SeededRng(seed).fork(1)`` wraps, and
    the draws are that wrapper's: ``random() < p`` is ``bernoulli(p)``,
    a clamped ``gauss`` is ``bounded_normal`` and an index below *n*
    is the draw ``randint(0, n - 1)`` makes.  That index is drawn
    here as ``randrange(n)`` and ``choice`` draw it — ``getrandbits``
    of ``n.bit_length()`` bits until one falls below *n* — without
    their two Python frames per read.
    """
    team, campaign = config["team"], config["campaign"]
    steps_per_session, mean_step = \
        team["steps_per_session"], team["mean_step"]
    object_pool = config.get("objects", "pool")
    hotspots = config.get("objects", "hotspots")
    hotspot_bias = config.get("objects", "hotspot_bias")
    reads_per_step = config.get("locality", "reads_per_step")
    reread_locality = config.get("locality", "reread")
    write_ratio = config.get("writes", "ratio")
    random, gauss, getrandbits = rng.random, rng.gauss, rng.getrandbits
    hot_bits, pool_bits = hotspots.bit_length(), object_pool.bit_length()
    sd, lo, hi = mean_step / 3.0, mean_step / 10.0, mean_step * 3.0
    # hotspots <= pool: every drawn index names one of these
    names = [f"lib-{index}" for index in range(object_pool)]
    plans: list[SessionPlan] = []
    hotspot_reads = 0
    # per designer, the indexes of its last four distinct objects
    working: list[list[int]] = [[] for _ in range(team["size"])]
    # diurnal concentration: the start window narrows symmetrically
    # around midday
    spread = 1.0 / DIURNAL_PEAK
    for day in range(campaign["days"]):
        for designer, ws in enumerate(working):
            for slot in range(campaign["sessions_per_day"]):
                offset = DAY_LENGTH * (0.5 + (random() - 0.5) * spread)
                start = day * DAY_LENGTH + offset
                durations = [max(lo, min(hi, gauss(mean_step, sd)))
                             for _ in range(steps_per_session)]
                steps: list[StepPlan] = []
                for duration in durations:
                    step_reads: list[str] = []
                    for _ in range(reads_per_step):
                        if ws and random() < reread_locality:
                            # choice(ws)
                            bits = len(ws).bit_length()
                            index = getrandbits(bits)
                            while index >= len(ws):
                                index = getrandbits(bits)
                            index = ws[index]
                        elif hotspots and random() < hotspot_bias:
                            # randrange(hotspots)
                            index = getrandbits(hot_bits)
                            while index >= hotspots:
                                index = getrandbits(hot_bits)
                        else:
                            # randrange(object_pool)
                            index = getrandbits(pool_bits)
                            while index >= object_pool:
                                index = getrandbits(pool_bits)
                        step_reads.append(names[index])
                        hotspot_reads += index < hotspots
                        if index not in ws:
                            ws.append(index)
                            del ws[:-4]  # bounded working set
                    # a step that reads checks in a derived version of
                    # its first input with probability write_ratio
                    writes = bool(step_reads) \
                        and random() < write_ratio
                    steps.append(StepPlan(
                        tuple(step_reads), duration,
                        step_reads[0] if writes else None))
                plans.append(SessionPlan(
                    start=start, workstation=f"ws-{designer}",
                    da_id=f"da-{designer}", kind="campaign",
                    stem=f"d{day}:w{designer}:s{slot}",
                    steps=tuple(steps)))
    return plans, hotspot_reads


def design_campaign_scenario(config: ScenarioConfig,
                             on_kernel: Callable[[Kernel], None]
                             | None = None) -> CampaignReport:
    """Run a multi-day design campaign on the real TE stack."""
    team = config.get("team", "size")
    days = config.get("campaign", "days")
    caching = config.get("buffers", "caching")
    driver = session_driver(config, on_kernel, object_buffers=caching)
    kernel, network = driver.rig.kernel, driver.rig.network
    plans, hotspot_reads = _draw_plan(
        Random(SeededRng(config.seed).fork(1).seed), config)
    driver.schedule(plans)
    # from here on a plan lives in its begin event, then in its
    # session, and goes with the session's last event
    del plans
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
    report.hotspot_reads = hotspot_reads
    report.invalidations_applied = sum(b.invalidations for b in buffers)
    prev = 0
    for sample in day_marks:
        report.bytes_by_day.append(sample - prev)
        prev = sample
    return report
