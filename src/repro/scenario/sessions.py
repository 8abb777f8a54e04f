"""One session loop for every seeded designer-session scenario.

T8 (data shipping), T9 (write-back) and the multi-day campaign all run
the same thing on a :class:`~repro.te.rig.TeRig`: designers whose
sessions are sequences of tool steps, each step checking shared
library objects out of the server, working for a while, and sometimes
checking a derived version back in.  What differs between them is
*data* — which objects, how long, who writes what, one DOP per step or
one per session — so a scenario draws a list of :class:`SessionPlan`
from its seed and hands it to the one :class:`SessionDriver`.

A scenario's only parameter list is its validated
:class:`~repro.scenario.schema.ScenarioConfig`: :func:`session_driver`
builds rig, library and designers from the tables every kind reads,
and each kind (:func:`object_buffer_scenario`,
:func:`write_back_scenario` here,
:func:`~repro.scenario.campaign.design_campaign_scenario` next door)
reads the rest where it needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.scenario.schema import ScenarioConfig
from repro.sim.kernel import Kernel
from repro.te.rig import TeRig
from repro.util.rng import SeededRng

#: the one DOT every session scenario designs: a named opaque blob
SHARED_OBJECT = DesignObjectType("SharedObject", attributes=[
    AttributeDef("name", AttributeKind.STRING),
    AttributeDef("blob", AttributeKind.STRING),
])

#: the one workstation/server LAN every session scenario runs on
#: (Sect.5.1): payload bytes per time unit, and the per-hop latency
LAN_BANDWIDTH = 400.0
LAN_LATENCY = 0.05


def session_rig(on_kernel: Callable[[Kernel], None] | None,
                **te: Any) -> TeRig:
    """The TE-only rig of a session scenario: untraced, open scope
    (the library pool is shared by construction; these scenarios
    measure shipping, not authorization), its kernel shown to
    *on_kernel* before any event exists."""
    rig = TeRig(trace=False, **te)
    rig.open_scope()
    if on_kernel is not None:
        on_kernel(rig.kernel)
    return rig


class StepPlan(NamedTuple):
    """One tool step of a session."""

    #: object names checked out before the tool runs
    reads: tuple[str, ...]
    #: simulated tool time (payload fetch waits come on top)
    duration: float
    #: object the step derives and checks in a new version of, if any
    write: str | None = None


@dataclass(frozen=True)
class SessionPlan:
    """One pre-drawn designer session (fully deterministic)."""

    #: simulated instant the session begins at
    start: float
    workstation: str
    da_id: str
    #: scenario family — prefix of the tool name and the event labels
    #: (``<kind>-tool``, ``<kind>-begin:<stem>``,
    #: ``<kind>-step:<stem>:<step>``; labels are part of the kernel's
    #: ``trace_signature``)
    kind: str
    stem: str
    steps: tuple[StepPlan, ...]
    #: True = every step is its own DOP (T8); False = the whole
    #: session is one long DOP (T9, campaign)
    dop_per_step: bool = False


class SessionDriver:
    """Executes session plans on a rig and keeps the shared books."""

    def __init__(self, rig: TeRig, payload_bytes: int) -> None:
        self.rig = rig
        self.payload_bytes = payload_bytes
        #: object name -> id of its current durable (frontier) version
        self.current: dict[str, str] = {}
        #: object name -> how many versions were derived from it
        self.generations: dict[str, int] = {}
        #: workstation -> the DOV ids its latest step checked out
        self.last_reads: dict[str, list[str]] = {}
        self.dops = 0
        self.steps = 0
        self.sessions = 0
        self.checkins = 0
        rig.repository.register_dot(SHARED_OBJECT)
        rig.repository.create_graph("lib")

    def blob_for(self, obj: str, generation: int) -> str:
        """The payload of *obj*'s n-th version: sized by the object's
        index, lettered by the generation."""
        index = int(obj.rsplit("-", 1)[-1])
        return chr(ord("a") + generation % 26) \
            * (self.payload_bytes + 256 * index)

    def seed_library(self, names: list[str]) -> None:
        """Check generation 0 of every named object into the library."""
        for name in names:
            dov = self.rig.repository.checkin(
                "lib", SHARED_OBJECT.name,
                {"name": name, "blob": self.blob_for(name, 0)}, ())
            self.current[name] = dov.dov_id

    def add_designers(self, team: int) -> None:
        """Workstation ``ws-<i>`` and derivation graph ``da-<i>`` per
        designer."""
        for index in range(team):
            self.rig.add_workstation(f"ws-{index}")
            self.rig.repository.create_graph(f"da-{index}")

    def schedule(self, plans: list[SessionPlan]) -> None:
        """File every session's begin event, in plan order."""
        for plan in plans:
            self.rig.kernel.at(plan.start,
                               lambda p=plan: _Session(self, p).begin(),
                               label=f"{plan.kind}-begin:{plan.stem}")

    def fill(self, report: Any) -> None:
        """The fields every session report shares: makespan, traffic,
        buffer hits and misses, invalidations sent, fetch time, the
        checkin count and the kernel's fingerprint."""
        rig = self.rig
        buffers = rig.buffers()
        report.makespan = rig.clock.now
        report.bytes_shipped = rig.network.bytes_shipped
        report.messages = rig.network.messages_sent
        report.hits = sum(b.hits for b in buffers)
        report.misses = sum(b.misses for b in buffers)
        looked_up = report.hits + report.misses
        report.hit_rate = report.hits / looked_up if looked_up else 0.0
        report.invalidations_sent = rig.server_tm.invalidations_sent
        report.fetch_time = sum(c.fetch_time for c in rig.client_tms())
        report.checkins = self.checkins
        report.signature = rig.kernel.trace_signature()


class _Session:
    """One running session: its plan, its client-TM and the open DOP.

    Kernel events hold the session, never the other way round, so a
    finished session is freed with its last event.
    """

    __slots__ = ("driver", "plan", "client", "dop", "unflushed")

    def __init__(self, driver: SessionDriver, plan: SessionPlan) -> None:
        self.driver = driver
        self.plan = plan
        self.client = driver.rig.client_tm(plan.workstation)
        self.dop: Any = None
        #: object -> this DOP's unflushed (provisional) version of it
        self.unflushed: dict[str, str] = {}

    def begin(self) -> None:
        if self.plan.steps:
            if not self.plan.dop_per_step:
                self.begin_dop()
            self.start_step(0)

    def begin_dop(self) -> None:
        self.driver.dops += 1
        self.dop = self.client.begin_dop(
            self.plan.da_id, tool=f"{self.plan.kind}-tool")

    def end_dop(self) -> None:
        self.client.commit_dop(self.dop)
        # write-back flushed at End-of-DOP: publish the durable
        # frontier (the identity under write-through)
        for obj, dov_id in self.unflushed.items():
            self.driver.current[obj] = self.client.resolve(dov_id)
        self.unflushed.clear()

    def start_step(self, step: int) -> None:
        plan, client, driver = self.plan, self.client, self.driver
        if plan.dop_per_step:
            self.begin_dop()
        reads, duration, _ = plan.steps[step]
        fetched_before = client.fetch_time
        current = driver.current
        dov_ids = [current[obj] for obj in reads]
        for dov_id in dov_ids:
            client.checkout(self.dop, dov_id)
        driver.last_reads[plan.workstation] = dov_ids
        driver.rig.kernel.after(
            client.fetch_time - fetched_before + duration,
            lambda: self.finish_step(step),
            label=f"{plan.kind}-step:{plan.stem}:{step}")

    def finish_step(self, step: int) -> None:
        plan, driver = self.plan, self.driver
        driver.steps += 1
        target = plan.steps[step].write
        if target is not None:
            generation = driver.generations.get(target, 0) + 1
            driver.generations[target] = generation
            result = self.client.checkin(
                self.dop, SHARED_OBJECT.name,
                data={"name": target,
                      "blob": driver.blob_for(target, generation)},
                parents=[self.unflushed.get(target)
                         or driver.current[target]])
            if result.success:
                driver.checkins += 1
                if result.provisional:
                    self.unflushed[target] = result.dov.dov_id
                else:
                    driver.current[target] = result.dov.dov_id
        last = step == len(plan.steps) - 1
        if plan.dop_per_step or last:
            self.end_dop()
        if last:
            driver.sessions += 1
        else:
            self.start_step(step + 1)


def session_driver(config: ScenarioConfig,
                   on_kernel: Callable[[Kernel], None] | None,
                   own_objects: tuple[str, ...] = (),
                   **te: Any) -> SessionDriver:
    """What every session kind sets up the same way: the rig on the
    sessions' LAN with ``[traffic].jitter`` and ``[leases]`` (0 =
    recall-only) plus the kind's own *te* options, the ``[objects]``
    library (and *own_objects*) checked in, one workstation per
    ``[team].size`` designer."""
    rig = session_rig(on_kernel, seed=config.seed,
                      lease_ttl=config.get("leases", "ttl") or None,
                      bandwidth=LAN_BANDWIDTH, lan_latency=LAN_LATENCY,
                      jitter=config.get("traffic", "jitter"), **te)
    driver = SessionDriver(rig, config.get("objects", "payload_bytes"))
    driver.seed_library(
        [f"lib-{n}" for n in range(config.get("objects", "pool"))]
        + list(own_objects))
    driver.add_designers(config.get("team", "size"))
    return driver


def _team_sessions(config: ScenarioConfig,
                   write_ratio: float = 0.0) -> list[Any]:
    """T8 / T9's seeded sessions (read sets, durations, write steps).
    Imported here so the campaign kind never loads ``repro.workload``."""
    from repro.workload.generator import team_workload

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
