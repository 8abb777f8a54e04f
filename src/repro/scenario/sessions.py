"""One session loop for every seeded designer-session scenario.

T8 (data shipping), T9 (write-back) and the multi-day campaign all run
the same thing on a :class:`~repro.te.rig.TeRig`: designers whose
sessions are sequences of tool steps, each step checking shared
library objects out of the server, working for a while, and sometimes
checking a derived version back in.  What differs between them is
*data* — which objects, how long, who writes what, one DOP per step or
one per session — so a scenario draws a list of :class:`SessionPlan`
from its seed and hands it to the one :class:`SessionDriver`.

This module holds only that loop.  A scenario's only parameter list
is its validated :class:`~repro.scenario.schema.ScenarioConfig`:
:func:`session_driver` builds rig, library and designers from the
tables every kind reads, and each kind's runner reads the rest where
it needs it — T8 and T9 in :mod:`repro.scenario.shipping`, the
campaign in :mod:`repro.scenario.campaign` — so a run loads the loop
and its own kind's runner, never another kind's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.scenario.schema import ScenarioConfig
from repro.sim.kernel import Kernel
from repro.te.rig import TeRig

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
        #: (object, letter) -> its payload string, built once: an
        #: object has only 26 distinct payloads
        self._blobs: dict[tuple[str, int], str] = {}
        rig.repository.register_dot(SHARED_OBJECT)
        rig.repository.create_graph("lib")

    def blob_for(self, obj: str, generation: int) -> str:
        """The payload of *obj*'s n-th version: sized by the object's
        index, lettered by the generation (the same string object for
        every generation of one letter)."""
        letter = generation % 26
        blob = self._blobs.get((obj, letter))
        if blob is None:
            index = int(obj.rsplit("-", 1)[-1])
            blob = self._blobs[obj, letter] = chr(ord("a") + letter) \
                * (self.payload_bytes + 256 * index)
        return blob

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
