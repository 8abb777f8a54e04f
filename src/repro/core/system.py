"""The CONCORD system facade: wires all three levels together.

:class:`ConcordSystem` assembles the architecture of Fig.8 — CM at the
server, one DM per DA on its workstation, client-TM per workstation,
server-TM + repository at the server — over the simulated LAN, and
offers the high-level operations examples and experiments use:
creating DAs (with their DMs), running their work flows, injecting
crashes, and recovering.

This is the main entry point of the library::

    system = ConcordSystem()
    system.add_workstation("ws-1")
    da = system.init_design(dot, spec, "alice", script, "ws-1",
                            initial_data={...})
    system.start(da.da_id)
    system.run(da.da_id)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.activity import DesignActivity
from repro.core.cooperation_manager import CooperationManager
from repro.core.features import DesignSpecification
from repro.dc.constraints import DomainConstraintSet
from repro.dc.design_manager import (
    DesignManager,
    DesignerPolicy,
    DmStatus,
    PendingDop,
    ToolRegistry,
)
from repro.dc.rules import RuleEngine
from repro.dc.script import DopStep, Script
from repro.repository.schema import DesignObjectType
from repro.te.recovery import RecoveryPointPolicy
from repro.te.rig import TeRig
from repro.te.transaction_manager import ClientTM
from repro.util.errors import ConcordError, NodeDownError, RpcError


class ActivityBinding:
    """Adapter giving a DM its DA-specific context (DaBinding impl)."""

    def __init__(self, da: DesignActivity, cm: CooperationManager) -> None:
        #: the CM's object for the bound DA; a server restart builds a
        #: new one, and the system puts it here (nobody else keeps one)
        self.da = da
        self._cm = cm

    @property
    def da_id(self) -> str:
        """The bound DA's id."""
        return self.da.da_id

    @property
    def dot_name(self) -> str:
        """New DOVs are checked in under the DA's DOT."""
        return self.da.dot.name

    def pick_inputs(self, step: DopStep) -> list[str]:
        """Default input choice: continue from the newest design state.

        Prefers the most recent leaf of the DA's derivation graph,
        falls back to the initial DOV (DOV0) and otherwise to DOVs
        delivered along usage relationships; an empty list means the
        tool starts from scratch.
        """
        explicit = step.params.get("inputs")
        if explicit:
            return list(explicit)
        repo = self._cm.repository
        if repo.has_graph(self.da_id):
            leaves = repo.graph(self.da_id).leaves()
            if leaves:
                newest = max(leaves, key=lambda d: d.created_at)
                return [newest.dov_id]
        if self.da.vector.initial_dov is not None:
            return [self.da.vector.initial_dov]
        delivered = sorted(
            self._cm.locks.scope_of(self.da_id))
        if delivered:
            return [delivered[0]]
        return []

    def _resolve_dov(self, params: dict[str, Any]) -> str:
        dov = params.get("dov", "latest")
        if dov != "latest":
            return dov
        repo = self._cm.repository
        leaves = repo.graph(self.da_id).leaves() \
            if repo.has_graph(self.da_id) else []
        if not leaves:
            raise ConcordError(
                f"DA {self.da_id!r} has no DOV to operate on yet")
        return max(leaves, key=lambda d: d.created_at).dov_id

    def da_operation(self, operation: str, params: dict[str, Any]) -> Any:
        """Dispatch an embedded DA operation to the CM."""
        cm = self._cm
        if operation == "Evaluate":
            return cm.evaluate(self.da_id, self._resolve_dov(params))
        if operation == "Propagate":
            return cm.propagate(self.da_id, self._resolve_dov(params))
        if operation == "Require":
            return cm.require(self.da_id, params["supporting"],
                              set(params["features"]))
        if operation == "Sub_DA_Ready_To_Commit":
            return cm.sub_da_ready_to_commit(self.da_id)
        if operation == "Sub_DA_Impossible_Specification":
            return cm.sub_da_impossible_specification(
                self.da_id, params.get("reason", ""))
        raise ConcordError(f"unsupported embedded DA operation "
                           f"{operation!r}")


@dataclass
class DaRuntime:
    """Everything attached to one living DA."""

    dm: DesignManager
    binding: ActivityBinding
    client_tm: ClientTM

    @property
    def da(self) -> DesignActivity:
        """The DA, as the CM holds it now."""
        return self.binding.da


class ConcordSystem(TeRig):
    """A complete CONCORD installation on one simulated LAN: the TE
    rig (:class:`~repro.te.rig.TeRig`) plus the AC and DC levels."""

    def __init__(self, trace: bool = True,
                 recovery_policy: RecoveryPointPolicy | None = None,
                 lan_latency: float = 0.010,
                 repository: Any = None,
                 jitter: float = 0.0,
                 seed: int = 0,
                 object_buffers: bool = True,
                 bandwidth: float = 1_000_000.0,
                 write_back: bool = False,
                 flush_interval: int | None = None,
                 lease_ttl: float | None = None) -> None:
        super().__init__(
            trace=trace, recovery_policy=recovery_policy,
            lan_latency=lan_latency, repository=repository,
            jitter=jitter, seed=seed, object_buffers=object_buffers,
            bandwidth=bandwidth, write_back=write_back,
            flush_interval=flush_interval, lease_ttl=lease_ttl)
        self.cm = CooperationManager(self.repository, self.locks,
                                     self.network, ids=self.ids,
                                     trace=self.trace)
        self.cm.install_scope_check(self.server_tm)
        self.tools = ToolRegistry()
        self._runtimes: dict[str, DaRuntime] = {}
        self.constraints = DomainConstraintSet()
        #: installed by :meth:`run_concurrent` — called with a node id
        #: after its restart so the driver can resume the DAs on it
        self._concurrent_resume: Any = None
        #: per-DA reports of the most recent workstation recovery (the
        #: kernel restart path has no caller to hand them to)
        self.last_recovery_reports: dict[str, Any] = {}
        # CM state reload on server restart: after the repository's
        # recovery and the server-TM's re-validation (the rig's hooks)
        self.server.on_restart.append(self._recover_cm)

    def _recover_cm(self) -> None:
        """Replay the CM's state log, then hand every binding the DA
        object recovery built: the one it held died with the server."""
        self.cm.recover()
        for da_id, runtime in self._runtimes.items():
            runtime.binding.da = self.cm.da(da_id)

    # -- DA lifecycle -----------------------------------------------------------

    def _attach_runtime(self, da: DesignActivity) -> DaRuntime:
        client_tm = self.client_tm(da.workstation)
        binding = ActivityBinding(da, self.cm)
        dm = DesignManager(binding, client_tm, da.script, self.tools,
                           constraints=self.constraints,
                           rules=RuleEngine(), trace=self.trace)
        self.cm.register_dm(da.da_id, dm)
        runtime = DaRuntime(dm, binding, client_tm)
        self._runtimes[da.da_id] = runtime
        return runtime

    def init_design(self, dot: DesignObjectType,
                    spec: DesignSpecification, designer: str,
                    script: Script, workstation: str,
                    initial_data: dict[str, Any] | None = None
                    ) -> DesignActivity:
        """Create the top-level DA together with its design manager."""
        da = self.cm.init_design(dot, spec, designer, script, workstation,
                                 initial_data)
        self._attach_runtime(da)
        return da

    def create_sub_da(self, super_id: str, dot: DesignObjectType,
                      spec: DesignSpecification, designer: str,
                      script: Script, workstation: str,
                      initial_dov: str | None = None) -> DesignActivity:
        """Delegate a subtask: sub-DA plus its DM on *workstation*."""
        da = self.cm.create_sub_da(super_id, dot, spec, designer, script,
                                   workstation, initial_dov)
        self._attach_runtime(da)
        return da

    def runtime(self, da_id: str) -> DaRuntime:
        """The runtime bundle (DA, DM, client-TM) of a DA."""
        try:
            return self._runtimes[da_id]
        except KeyError:
            raise ConcordError(f"no runtime for DA {da_id!r}") from None

    def start(self, da_id: str) -> None:
        """Start a generated DA."""
        self.cm.start(da_id)

    def run(self, da_id: str, policy: DesignerPolicy | None = None,
            max_steps: int = 10_000) -> DmStatus:
        """Drive a DA's work flow until done / stopped / max_steps."""
        return self.runtime(da_id).dm.run(policy, max_steps)

    # -- asynchronous cooperation events ----------------------------------------------

    #: message kind -> ECA event name dispatched on the receiving DM
    EVENT_NAMES = {
        "require": "Require",
        "proposal": "Propose",
        "dov_delivered": "Delivered",
        "withdrawal": "Withdrawal",
        "ready_to_commit": "Ready_To_Commit",
        "impossible_specification": "Impossible_Specification",
        "specification_conflict": "Specification_Conflict",
        "specification_modified": "Specification_Modified",
        "disagree": "Disagree",
    }

    def _dispatch_message(self, recipient: str, message: Any) -> None:
        """Dispatch one CM message to the recipient DM's rule engine.

        "Cooperation relationships among DAs lead to asynchronously
        occurring events within a DA ... generally asking the
        receiving DA to react or reply" (Sect.4.2): the message
        becomes an (event, env) pair whose env carries the payload,
        the sender and handles to the system.
        """
        event = self.EVENT_NAMES.get(message.kind, message.kind)
        env = {
            "system": self,
            "da_id": recipient,
            "sender": message.sender,
            "message": message,
            **message.payload,
        }
        self._runtimes[recipient].dm.rules.dispatch(event, env)

    # -- concurrent execution on the shared kernel ------------------------------------

    def run_concurrent(self, da_ids: list[str]) -> dict[str, DmStatus]:
        """Execute several DAs concurrently on the shared kernel.

        This is the concurrent counterpart of :meth:`run`: every DM
        work-flow action becomes a timed kernel event.  Instantaneous
        actions (script decisions, embedded DA operations) execute at
        the current instant; a DOP occupies the real span ``[start,
        start + tool duration]`` of simulated time, so the tool steps
        of different DAs genuinely interleave on the shared clock.
        CM cooperation messages are delivered asynchronously through
        the network (latency + jitter) and dispatched to the
        recipient DM's rule engine on arrival.  Crashes armed with
        :meth:`schedule_crash` interrupt steps mid-flight; after the
        restart the affected DMs run forward recovery and the driver
        resumes them (re-finishing an interrupted DOP from its
        recovery point).

        A DM waits, it is not polled: it gets a ``da-step`` event only
        when something it waits on happens — its own step finished
        and left it work, a message addressed to it was dispatched,
        the CM called its :class:`~repro.core.cooperation_manager.DmHook`
        (a specification modification restarts its script, a
        withdrawal may stop it), or its workstation or the server
        restarted.  A DM whose script is done or that is stopped gets
        none until one of those happens.

        Runs until quiescence (every DA done/stopped, no message in
        flight); the kernel's event budget is the guard against a run
        that never gets there.  Returns the DM statuses.
        """
        da_ids = [d for d in da_ids if d in self._runtimes]
        in_run = set(da_ids)
        kernel = self.kernel
        #: per-DA count of queued drive/finish continuations (a crash
        #: can leave a stale finish event queued next to the recovery's
        #: replacement, so a boolean is not enough)
        live: dict[str, int] = {}
        #: (da_id, pending) pairs waiting for the server to come back;
        #: a parked DA keeps its `live` mark until the retry runs
        server_parked: list[tuple[str, PendingDop | None]] = []

        def mark(da_id: str) -> None:
            live[da_id] = live.get(da_id, 0) + 1

        def unmark(da_id: str) -> None:
            live[da_id] = live.get(da_id, 0) - 1

        def schedule(da_id: str, delay: float = 0.0) -> None:
            mark(da_id)
            kernel.defer(delay, lambda: drive(da_id),
                         label=f"da-step:{da_id}")

        def schedule_finish(da_id: str, pending: PendingDop,
                            delay: float) -> None:
            mark(da_id)
            kernel.defer(delay, lambda: finish(da_id, pending),
                         label=f"dop-finish:{da_id}:{pending.step.tool}")

        def drive(da_id: str) -> None:
            unmark(da_id)
            dm = self._runtimes[da_id].dm
            if not dm.node.up:
                return  # a restart resumes this DA
            try:
                outcome = dm.start_step()
            except (NodeDownError, RpcError):
                # the server is down: drop the half-begun DOP (nothing
                # reached the server yet) and retry the whole step once
                # the server is back
                dm.abandon_start()
                mark(da_id)
                server_parked.append((da_id, None))
                return
            if isinstance(outcome, PendingDop):
                schedule_finish(da_id, outcome, outcome.remaining)
            elif outcome and dm.has_work():
                schedule(da_id)

        def finish(da_id: str, pending: PendingDop) -> None:
            unmark(da_id)
            dm = self._runtimes[da_id].dm
            if not dm.node.up:
                return  # crashed mid-step; recovery reschedules
            try:
                progressed = dm.finish_step(pending, advance_clock=False)
            except (NodeDownError, RpcError):
                # tool work is done, the checkin needs the server back
                mark(da_id)
                server_parked.append((da_id, pending))
                return
            if progressed and dm.has_work():
                schedule(da_id)

        def resume_node(name: str) -> None:
            """Restart hook: resume DAs parked on the restarted node."""
            if name == self.server.node_id:
                parked, server_parked[:] = list(server_parked), []
                for da_id, pending in parked:
                    # the park kept its mark; schedule the retry
                    # directly so the count stays balanced
                    if pending is not None:
                        kernel.after(
                            0.0, lambda d=da_id, p=pending: finish(d, p),
                            label=f"dop-finish:{da_id}:"
                                  f"{pending.step.tool}")
                    else:
                        kernel.after(0.0,
                                     lambda d=da_id: drive(d),
                                     label=f"da-step:{da_id}")
                return
            for da_id in da_ids:
                runtime = self._runtimes[da_id]
                if runtime.da.workstation != name \
                        or runtime.da.state.value == "terminated":
                    continue
                pending = runtime.dm.resume_pending()
                if pending is not None:
                    schedule_finish(da_id, pending, pending.remaining)
                else:
                    schedule(da_id)

        def wake(da_id: str) -> None:
            """Something *da_id*'s DM waits on happened: give it a step
            unless one is queued (a DA outside this run gets none)."""
            if live.get(da_id, 0) <= 0 and da_id in in_run \
                    and self._runtimes[da_id].dm.node.up:
                schedule(da_id)

        def auto_dispatch(recipient: str, message: Any) -> bool:
            """Hand an arriving message to its recipient's rules, then
            wake the recipient — no other DM: a rule that reaches
            another DA's DM does so through the CM, whose hook call
            wakes that one."""
            if recipient not in self._runtimes:
                return False
            self._dispatch_message(recipient, message)
            wake(recipient)
            return True

        previous = (self.cm.on_deliver, self.cm.on_dm_event,
                    self._concurrent_resume)
        self.cm.on_deliver = auto_dispatch
        self.cm.on_dm_event = wake
        self._concurrent_resume = resume_node
        try:
            for da_id in da_ids:
                schedule(da_id)
            kernel.run_until_quiescent()
        finally:
            (self.cm.on_deliver, self.cm.on_dm_event,
             self._concurrent_resume) = previous
        return {da_id: self._runtimes[da_id].dm.status()
                for da_id in da_ids}

    def schedule_crash(self, node_id: str, at: float,
                       restart_after: float | None = 1.0) -> None:
        """Arm a kernel-injected crash of a workstation or the server.

        The crash fires at simulated instant *at* (interrupting any
        DOP in flight there); the restart — *restart_after* time units
        later, unless None — runs the component recovery chain
        (repository redo + CM reload for the server, DM forward
        recovery for a workstation) exactly like the manual
        :meth:`restart_workstation` / :meth:`restart_server` path.
        """
        if node_id == self.server.node_id:
            restart_action: Any = self.restart_server
        else:
            restart_action = lambda: self.restart_workstation(node_id)
        self.kernel.crash_at(self.network, node_id, at,
                             restart_after=restart_after,
                             restart_action=restart_action)

    # -- failure injection -----------------------------------------------------------

    def crash_workstation(self, name: str) -> None:
        """Crash a workstation: DOP contexts + DM volatile state vanish."""
        self.network.crash_node(name)

    def restart_workstation(self, name: str) -> dict[str, Any]:
        """Restart a workstation and run DM forward recovery on it.

        Returns the per-DA recovery reports.
        """
        self.network.restart_node(name)
        reports: dict[str, Any] = {}
        for da_id, runtime in self._runtimes.items():
            if runtime.da.workstation == name \
                    and runtime.da.state.value != "terminated":
                reports[da_id] = runtime.dm.recover()
        self.last_recovery_reports = reports
        if self._concurrent_resume is not None:
            self._concurrent_resume(name)
        return reports

    def restart_server(self) -> None:
        """Restart the server (repository redo, buffer re-validation
        and CM state reload run via the registered restart hooks, in
        that order), then resume the DAs parked on it."""
        super().restart_server()
        if self._concurrent_resume is not None:
            self._concurrent_resume(self.server.node_id)

    # -- reporting ----------------------------------------------------------------------

    def level_summary(self) -> dict[str, int]:
        """Events per architectural level (the Fig.1 regeneration)."""
        return {level.value: count for level, count
                in self.trace.count_by_level().items()}
