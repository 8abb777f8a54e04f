"""The T8 and T9 kinds: a designer team's burst of sessions on the TE stack.

``object_buffers`` (T8) measures data shipping with and without
workstation object buffers; ``write_back`` (T9) measures write-back
against write-through checkins, then a server restart.  Both draw one
burst of seeded team sessions (:func:`_team_sessions`, from
:func:`~repro.workload.generator.team_workload`) and hand them to the
one session loop of :mod:`repro.scenario.sessions` as
:class:`~repro.scenario.sessions.SessionPlan` lists.  They live apart
from that loop so a campaign, which runs the loop too, loads neither
them nor ``repro.workload``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.scenario.schema import ScenarioConfig
from repro.scenario.sessions import SessionPlan, StepPlan, session_driver
from repro.sim.kernel import Kernel
from repro.util.rng import SeededRng
from repro.workload.generator import team_workload


def _team_sessions(config: ScenarioConfig,
                   write_ratio: float = 0.0) -> list[Any]:
    """T8 / T9's seeded sessions (read sets, durations, write steps)."""
    team, locality = config["team"], config["locality"]
    return team_workload(
        team["size"], team["steps_per_session"], team["mean_step"],
        config.seed, reads_per_step=locality["reads_per_step"],
        reread_locality=locality["reread"],
        object_pool=config.get("objects", "pool"),
        write_ratio=write_ratio).sessions


@dataclass
class ShippingReport:
    """Chronicle of one T8 data-shipping run on the real TE stack."""

    caching: bool = True
    #: simulated completion time of the last designer session
    makespan: float = 0.0
    #: total payload bytes shipped over the LAN
    bytes_shipped: int = 0
    #: object-buffer lookups served locally / from the server
    hits: int = 0
    misses: int = 0
    hit_rate: float = 0.0
    #: lease invalidations the server scheduled / the buffers applied
    invalidations_sent: int = 0
    invalidations_applied: int = 0
    #: LAN messages of the whole run (control + data + invalidations)
    messages: int = 0
    #: simulated time the designers spent waiting on payload fetches
    fetch_time: float = 0.0
    #: committed checkins (superseding writes) across the team
    checkins: int = 0
    #: deterministic kernel fingerprint of the run
    signature: tuple[Any, ...] = ()
    #: per-node payload bytes received (workstation fetch profile)
    bytes_received_by: dict[str, int] = field(default_factory=dict)


def object_buffer_scenario(config: ScenarioConfig,
                           on_kernel: Callable[[Kernel], None]
                           | None = None) -> ShippingReport:
    """A designer team exercising the data-shipping path end to end.

    Runs the *implemented* TE protocol — client-TMs, server-TM,
    repository, 2PC checkin — on the unified kernel: one workstation
    per designer, every session a sequence of tool steps that check
    shared library objects out of the server (re-read locality per
    :func:`~repro.workload.generator.team_workload`), occasionally
    deriving and checking in a new version (``[writes].ratio``), which
    supersedes the old one and triggers lease invalidations of the
    buffered copies elsewhere.  With ``[buffers].caching`` each
    workstation has a DOV object buffer, so re-reads are local;
    without, every checkout re-ships its payload, so network cost
    scales with reads instead of working-set size.

    The workload (read sets, durations, write plan) is drawn from the
    seed before the run starts, so caching on/off compare the exact
    same design sessions.  Session dependencies are not enforced here
    — T8 measures data shipping, not visibility policies (that is T1).
    """
    caching = config.get("buffers", "caching")
    driver = session_driver(config, on_kernel, object_buffers=caching)
    rig = driver.rig
    # the write plan is drawn up front so caching on/off runs execute
    # the identical sequence of designer decisions
    write_rng = SeededRng(config.seed * 7919 + 23)
    write_mix = config.get("writes", "ratio")
    plans = []
    for index, spec in enumerate(_team_sessions(config)):
        steps = []
        for step, duration in enumerate(spec.step_durations):
            reads = tuple(spec.reads_at(step))
            writes = write_rng.bernoulli(write_mix) and reads
            steps.append(StepPlan(reads, duration,
                                  reads[0] if writes else None))
        plans.append(SessionPlan(
            start=0.0, workstation=f"ws-{index}", da_id=f"da-{index}",
            kind="t8", stem=spec.session_id, steps=tuple(steps),
            dop_per_step=True))
    driver.schedule(plans)
    rig.kernel.run_until_quiescent()

    report = ShippingReport(caching=caching)
    driver.fill(report)
    report.bytes_received_by = dict(rig.network.bytes_received_by)
    report.invalidations_applied = sum(b.invalidations
                                       for b in rig.buffers())
    return report


@dataclass
class WriteBackReport:
    """Chronicle of one T9 write-back vs write-through run."""

    write_back: bool = False
    #: simulated completion time of the last designer session
    makespan: float = 0.0
    #: total payload bytes shipped over the LAN
    bytes_shipped: int = 0
    #: LAN messages of the whole run (control + data + invalidations)
    messages: int = 0
    #: batched (group-checkin) messages / payloads they carried
    batches: int = 0
    batched_payloads: int = 0
    #: logical checkins the designers issued (identical in both modes)
    checkins: int = 0
    #: group flushes executed / checkins they shipped
    flushes: int = 0
    flushed_checkins: int = 0
    #: dirty provisional versions that never crossed the LAN because a
    #: later checkin superseded them first (write-back's byte saving)
    coalesced: int = 0
    invalidations_sent: int = 0
    hits: int = 0
    misses: int = 0
    hit_rate: float = 0.0
    #: simulated time the designers spent waiting on payload fetches
    fetch_time: float = 0.0
    #: server-restart episode: entries kept warm via stamp
    #: re-validation / dropped, and the bytes a re-read round shipped
    #: afterwards (0 = the warm entries really were served locally)
    revalidated: int = 0
    revalidation_drops: int = 0
    post_restart_bytes: int = 0
    #: deterministic kernel fingerprint of the run
    signature: tuple[Any, ...] = ()


def write_back_scenario(config: ScenarioConfig,
                        on_kernel: Callable[[Kernel], None]
                        | None = None) -> WriteBackReport:
    """A designer team exercising write-back vs write-through checkins.

    Both modes run the implemented TE protocol with object buffers on;
    the only difference is the checkin path.  Every designer session
    is **one long DOP**: each step checks shared library objects and
    the neighbour's design object out of the server, works, and — per
    the workload's seeded ``[writes].ratio`` plan — derives and checks
    in a new version of the designer's own object.  Without
    ``[writes].write_back`` each checkin ships its payload and runs
    its own 2PC immediately; with it checkins stage dirty buffer
    entries that coalesce and ship as one batched group checkin at
    End-of-DOP.  The workload (read sets, durations, write plan) is
    drawn from the seed before the run, so both modes execute
    identical designer decisions.

    After the team finishes, the scenario runs a server-crash /
    restart episode: the server-TM re-validates the resident buffer
    entries against fresh repository stamps (warm cache survives
    recovery), and a follow-up re-read round measures how many bytes
    that saved (`post_restart_bytes` stays 0 when every re-read hits
    the re-validated buffer).
    """
    team, writes = config.get("team", "size"), config["writes"]
    driver = session_driver(
        config, on_kernel,
        own_objects=tuple(f"cell-{n}" for n in range(team)),
        write_back=writes["write_back"])
    rig = driver.rig
    # every step also reads the neighbour's design object, and writes
    # go to the designer's own
    driver.schedule([SessionPlan(
        start=0.0, workstation=f"ws-{index}", da_id=f"da-{index}",
        kind="t9", stem=spec.session_id,
        steps=tuple(
            StepPlan((*spec.reads_at(step),
                      f"cell-{(index - 1) % team}"), duration,
                     f"cell-{index}" if spec.writes_at(step) else None)
            for step, duration in enumerate(spec.step_durations)))
        for index, spec in enumerate(
            _team_sessions(config, writes["ratio"]))])
    rig.kernel.run_until_quiescent()

    report = WriteBackReport(write_back=writes["write_back"])
    driver.fill(report)
    clients, buffers = rig.client_tms(), rig.buffers()
    report.batches = rig.network.batches_sent
    report.batched_payloads = rig.network.batched_payloads
    report.flushes = sum(c.flushes for c in clients)
    report.flushed_checkins = sum(c.flushed_checkins for c in clients)
    report.coalesced = sum(b.coalesced for b in buffers)

    # the server-restart episode: warm buffers survive via stamp
    # re-validation, then a re-read round shows the kept entries serve
    # locally (every re-shipped byte is counted)
    rig.crash_server()
    rig.restart_server()
    report.revalidated = sum(b.revalidated for b in buffers)
    report.revalidation_drops = sum(b.revalidation_drops
                                    for b in buffers)
    before = rig.network.bytes_shipped
    for index, client in enumerate(clients):
        dop = client.begin_dop(f"da-{index}", tool="t9-reread")
        for dov_id in driver.last_reads.get(client.workstation, []):
            client.checkout(dop, dov_id)
        client.commit_dop(dop)
    report.post_restart_bytes = rig.network.bytes_shipped - before
    return report
