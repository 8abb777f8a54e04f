"""The cooperation manager (CM) — Sect.4.1 semantics, Sect.5.4 realisation.

"The CM embodies the mediator between cooperating DAs.  It enforces
that cooperation takes place only along established cooperation
relationships, and it further checks each cooperative activity to
comply with the integrity constraints of the underlying cooperation
relationship."  It is "a centralized component located at the server
site, thus exploiting the global DBMS as information repository."

Implemented responsibilities:

* the full operation set of Fig.7 (Init_Design ... Sub_DAs_
  Specification_Conflict) with state-machine enforcement;
* delegation semantics: DOT part-of checks, subgoal specification,
  ready-to-commit / terminate handshake, devolution of final DOVs;
* usage semantics: Require/Propagate with quality gating, delivery
  bookkeeping, invalidation with replacement, withdrawal with
  notification of affected DMs;
* negotiation semantics: sibling-only relationships, proposals,
  agree/disagree, escalation to the common super-DA;
* dissemination control via scope locks with inheritance (Sect.5.4's
  modified nested-transaction locking scheme): "every DOV in a DA's
  scope carries a scope lock held by that DA".  Unlike nested
  transactions [Mo81], (a) only locks on *final* DOVs are inherited
  upward when a sub-DA terminates, and (b) a scope lock may be granted
  to an *additional* DA when a usage relationship to the retaining DA
  exists and the DOV was propagated with sufficient quality.  A scope
  lock is an entry of the visibility registry (dov -> DAs), the one
  table of them: ``propagate``'s quality gate decides the sharing
  before a second DA is entered;
* failure handling: every cooperative operation forces one record to
  the CM's state log — the after-images of the DAs, relationships,
  visibility sets and inboxes it touched, and the operation's audit
  entry with them — and a server restart replays that log from its
  last checkpoint.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

from repro.core.activity import DescriptionVector, DesignActivity
from repro.core.features import DesignSpecification, QualityState
from repro.core.relationships import (
    Delegation,
    Message,
    Negotiation,
    Proposal,
    ProposalStatus,
    Usage,
)
from repro.core.state_log import AuditEntry, Registries, StateLog
from repro.core.states import DaOperation, DaState
from repro.dc.script import Script
from repro.net.network import SERVER, Network
from repro.repository.repository import DesignDataRepository
from repro.repository.schema import DesignObjectType
from repro.util.errors import (
    CooperationError,
    DelegationError,
    NegotiationError,
    RelationshipError,
    ScopeViolationError,
)
from repro.util.ids import IdGenerator
from repro.util.trace import EventTrace, Level


class DmHook(Protocol):
    """What the CM needs from a DA's design manager (external events)."""

    def on_specification_modified(self,
                                  restart_dov: str | None = None) -> None:
        """Spec reformulated by the super-DA: restart the work flow."""
        ...

    def on_withdrawal(self, dov_id: str) -> bool:
        """A pre-released DOV was withdrawn; returns True if affected."""
        ...


class CooperationManager:
    """Centralised mediator of the DA hierarchy (runs at the server)."""

    def __init__(self, repository: DesignDataRepository,
                 network: Network,
                 ids: IdGenerator | None = None,
                 trace: EventTrace | None = None) -> None:
        self.repository = repository
        self.network = network
        self.ids = ids or IdGenerator()
        self.trace = trace if trace is not None else EventTrace(enabled=False)
        self.clock = network.clock

        self._das: dict[str, DesignActivity] = {}
        self._delegations: list[Delegation] = []
        self._usages: dict[tuple[str, str], Usage] = {}
        self._negotiations: dict[str, Negotiation] = {}
        #: dov_id -> the DAs holding a scope lock on it: the scope-lock
        #: table, durable in the state log
        self._visibility: dict[str, set[str]] = {}
        #: da_id -> the DOVs it holds a scope lock on: the table by
        #: holder, volatile (:meth:`recover` rebuilds it)
        self._scope_locks: dict[str, set[str]] = {}
        self._inboxes: dict[str, list[Message]] = {}
        #: indexes over the two relationship registries, each in its
        #: registry's order: supporting DA -> its usages, DA -> the
        #: negotiations it is a party to
        self._supported_by: dict[str, list[Usage]] = {}
        self._negotiations_by_da: dict[str, list[Negotiation]] = {}
        self._dm_hooks: dict[str, DmHook] = {}
        #: optional delivery interceptor; returning True consumes the
        #: message instead of queueing it (the auto-dispatch path)
        self.on_deliver: Callable[[str, Message], bool] | None = None
        #: optional observer, called with a DA id after the CM invoked
        #: that DA's :class:`DmHook` (the concurrent driver wakes the DM)
        self.on_dm_event: Callable[[str], None] | None = None

        #: the CM's one log: mutators mark the entities they change,
        #: ``_persist`` forces their after-images and the operation's
        #: audit entry as one record
        self.state_log = StateLog()
        self._registries = self._registries_now()

        node = self.network.node(SERVER)
        node.on_crash.append(self._on_server_crash)

    # ======================================================================
    # infrastructure
    # ======================================================================

    def _record(self, operation: str, subject: str, **detail: Any) -> None:
        if self.trace.enabled:
            self.trace.record(self.clock.now, Level.AC, "CM", operation,
                              subject, **detail)

    def _send(self, kind: str, sender: str, recipient: str,
              **payload: Any) -> Message:
        """Send a cooperation message to *recipient*'s workstation.

        Delivery goes through the network's queued asynchronous path:
        under a running kernel the message arrives after the modelled
        transport delay (and is parked across a crash of the
        recipient's workstation); otherwise it is handed over
        synchronously.  On arrival the message lands in the inbox
        unless an :attr:`on_deliver` hook consumes it — the system
        installs one to auto-dispatch messages to the DM rule engines
        during concurrent runs.
        """
        message = Message(kind, sender, recipient, payload, self.clock.now)
        da = self._das.get(recipient)
        destination = da.workstation if da is not None else SERVER
        in_operation = True

        def deliver() -> None:
            hook = self.on_deliver
            if hook is not None and hook(recipient, message):
                return
            if not self.network.node(SERVER).up:
                return  # the inboxes are server state: none to queue in
            self._inboxes.setdefault(recipient, []).append(message)
            self.state_log.mark("inboxes", recipient)
            if not in_operation:
                # the sending operation's record is long forced
                self._persist()

        self.network.post(SERVER, destination, deliver,
                          label=f"msg:{kind}:{sender}->{recipient}")
        in_operation = False
        return message

    def register_dm(self, da_id: str, hook: DmHook) -> None:
        """Attach a design manager to receive external-event callbacks."""
        self._dm_hooks[da_id] = hook

    def _dm_event(self, da_id: str) -> None:
        """Tell the :attr:`on_dm_event` observer a hook call reached
        *da_id*'s DM."""
        if self.on_dm_event is not None:
            self.on_dm_event(da_id)

    def install_scope_check(self, server_tm: Any) -> None:
        """Make the server-TM use the CM's full scope semantics."""
        server_tm.scope_check = self.in_scope

    # -- lookups -------------------------------------------------------------

    def da(self, da_id: str) -> DesignActivity:
        """Look up a registered DA."""
        try:
            return self._das[da_id]
        except KeyError:
            raise CooperationError(f"unknown DA {da_id!r}") from None

    def _touch(self, da_id: str) -> DesignActivity:
        """Look up a DA an operation is about to change: its
        after-image goes into the operation's state record."""
        da = self.da(da_id)
        self.state_log.mark("das", da_id)
        return da

    def _transition(self, operation: DaOperation, *da_ids: str) -> None:
        """The DAs make *operation*'s transition, all or none: one that
        may not refuses it before any has moved."""
        for da_id in da_ids:
            self.da(da_id).machine.check(operation)
        for da_id in da_ids:
            self._touch(da_id).machine.apply(operation)

    def das(self) -> list[DesignActivity]:
        """All DAs, in creation order."""
        return list(self._das.values())

    def children_of(self, da_id: str) -> list[DesignActivity]:
        """Direct sub-DAs of *da_id* that have not terminated."""
        return [self._das[c] for c in self.da(da_id).children
                if self._das[c].state is not DaState.TERMINATED]

    def hierarchy_depth(self, da_id: str) -> int:
        """Depth of *da_id* in the DA hierarchy (top level = 0)."""
        depth = 0
        current = self.da(da_id)
        while current.parent is not None:
            depth += 1
            current = self.da(current.parent)
        return depth

    def common_super(self, da_a: str, da_b: str) -> str | None:
        """The shared parent when *da_a* and *da_b* are siblings."""
        parent_a = self.da(da_a).parent
        parent_b = self.da(da_b).parent
        if parent_a is not None and parent_a == parent_b:
            return parent_a
        return None

    # -- scope --------------------------------------------------------------------

    def scope_of(self, da_id: str) -> set[str]:
        """A DA's scope: own derivation graph + scope-locked DOVs.

        "a DA's scope has been defined to include the DOVs of its
        derivation graph, the final DOVs of its terminated sub-DAs, and
        the DOVs that became visible along its usage relationships"
        (Sect.5.4 footnote) — the latter two are held as scope locks.
        """
        self.da(da_id)
        scope = set(self._scope_locks.get(da_id, ()))
        if self.repository.has_graph(da_id):
            scope |= self.repository.graph(da_id).ids()
        return scope

    def in_scope(self, da_id: str, dov_id: str) -> bool:
        """Scope membership test (installed as the server-TM check):
        :meth:`scope_of`'s answer for one DOV, without building it."""
        if da_id not in self._das:
            return False
        repository = self.repository
        return (repository.has_graph(da_id)
                and dov_id in repository.graph(da_id)) \
            or da_id in self._visibility.get(dov_id, ())

    def _show(self, da_id: str, dov_id: str) -> None:
        """Grant *da_id* a scope lock on *dov_id* (idempotent)."""
        self._visibility.setdefault(dov_id, set()).add(da_id)
        self._scope_locks.setdefault(da_id, set()).add(dov_id)
        self.state_log.mark("visibility", dov_id)

    def _hide(self, da_id: str, dov_id: str) -> None:
        """Release *da_id*'s scope lock on *dov_id*, if it holds one."""
        holders = self._visibility.get(dov_id)
        if holders is None:
            return
        holders.discard(da_id)
        if not holders:
            del self._visibility[dov_id]
        held = self._scope_locks.get(da_id)
        if held is not None:
            held.discard(dov_id)
            if not held:
                del self._scope_locks[da_id]
        self.state_log.mark("visibility", dov_id)

    # ======================================================================
    # hierarchy operations (delegation)
    # ======================================================================

    def init_design(self, dot: DesignObjectType,
                    spec: DesignSpecification, designer: str,
                    script: Script, workstation: str,
                    initial_data: dict[str, Any] | None = None
                    ) -> DesignActivity:
        """Init_Design: create the top-level DA (Fig.4a).

        ``initial_data``, when given, is checked in as DOV0 — "It is
        possible to initialize the scope of a newly created DA with a
        first DOV (DOV0) serving as a basis for the DA's work."
        """
        if dot.name not in {d.name for d in self.repository.dots()}:
            self.repository.register_dot(dot)
        da_id = self.ids.next("da")
        vector = DescriptionVector(dot, spec, designer, script)
        da = DesignActivity(da_id, vector, workstation,
                            created_at=self.clock.now)
        self._das[da_id] = da
        self.state_log.mark("das", da_id)
        self.state_log.mark("described", da_id)
        self.repository.create_graph(da_id)
        if initial_data is not None:
            dov0 = self.repository.checkin(da_id, dot.name, initial_data,
                                           created_at=self.clock.now)
            vector.initial_dov = dov0.dov_id
        self._record("Init_Design", da_id, designer=designer)
        self._persist(DaOperation.INIT_DESIGN, da_id, dot=dot.name,
                      designer=designer)
        return da

    def create_sub_da(self, super_id: str, dot: DesignObjectType,
                      spec: DesignSpecification, designer: str,
                      script: Script, workstation: str,
                      initial_dov: str | None = None) -> DesignActivity:
        """Create_Sub_DA: delegate a subtask (Sect.4.1, Fig.4b).

        Checks: the super-DA must be able to delegate (state machine),
        the sub-DA's DOT must be a *part* of the super-DA's DOT, and an
        initial DOV must come from the super-DA's scope.
        """
        super_da = self.da(super_id)
        super_da.machine.check(DaOperation.CREATE_SUB_DA)
        if not dot.is_part_of(super_da.dot):
            raise DelegationError(
                f"DOT {dot.name!r} is not a part of the super-DA's DOT "
                f"{super_da.dot.name!r}")
        if initial_dov is not None and not self.in_scope(super_id,
                                                         initial_dov):
            raise ScopeViolationError(
                f"initial DOV {initial_dov!r} is not in the scope of "
                f"super-DA {super_id!r}")
        self._touch(super_id).machine.apply(DaOperation.CREATE_SUB_DA)
        if dot.name not in {d.name for d in self.repository.dots()}:
            self.repository.register_dot(dot)
        da_id = self.ids.next("da")
        vector = DescriptionVector(dot, spec, designer, script,
                                   initial_dov=initial_dov)
        sub = DesignActivity(da_id, vector, workstation, parent=super_id,
                             created_at=self.clock.now)
        self._das[da_id] = sub
        self.state_log.mark("das", da_id)
        self.state_log.mark("described", da_id)
        super_da.children.append(da_id)
        self._delegations.append(
            Delegation(super_id, da_id, self.clock.now))
        self.repository.create_graph(da_id)
        if initial_dov is not None:
            self._show(da_id, initial_dov)
        self._record("Create_Sub_DA", da_id, super_da=super_id)
        self._persist(DaOperation.CREATE_SUB_DA, super_id, sub=da_id,
                      dot=dot.name, designer=designer)
        return sub

    def start(self, da_id: str) -> None:
        """Start: the DA begins its design work (GENERATED -> ACTIVE)."""
        da = self._touch(da_id)
        da.machine.apply(DaOperation.START)
        self._record("Start", da_id)
        self._persist(DaOperation.START, da_id)

    def evaluate(self, da_id: str, dov_id: str) -> QualityState:
        """Evaluate: determine the quality state of a DOV in scope."""
        da = self.da(da_id)
        da.machine.check(DaOperation.EVALUATE)
        if not self.in_scope(da_id, dov_id):
            raise ScopeViolationError(
                f"DA {da_id!r} cannot evaluate DOV {dov_id!r}: not in "
                f"scope")
        self._touch(da_id).machine.apply(DaOperation.EVALUATE)
        dov = self.repository.read(dov_id)
        quality = da.spec.evaluate(dov.data)
        da.record_quality(dov_id, quality)
        self._record("Evaluate", dov_id, da=da_id,
                     distance=quality.distance)
        self._persist(DaOperation.EVALUATE, da_id, dov=dov_id,
                      fulfilled=tuple(sorted(quality.fulfilled)),
                      final=quality.is_final)
        return quality

    def sub_da_ready_to_commit(self, sub_id: str) -> None:
        """Sub_DA_Ready_To_Commit: the sub-DA reached one+ final DOVs.

        "As soon as a sub-DA completes its work by reaching one or more
        final DOVs, it has to send a message to its super-DA. ... The
        sub-DA must not terminate without the agreement of the
        super-DA."  From this state on the super-DA may already read
        the final DOVs (Sect.5.4).
        """
        sub = self._touch(sub_id)
        if sub.is_top_level:
            raise CooperationError(
                f"top-level DA {sub_id!r} has no super-DA to notify")
        if not sub.has_final_dov():
            raise CooperationError(
                f"DA {sub_id!r} has no final DOV; Evaluate must confirm "
                f"the specification first")
        sub.machine.apply(DaOperation.SUB_DA_READY_TO_COMMIT)
        for dov_id in sub.final_dovs:
            # the sub holds scope locks on its finals (they are in its
            # graph); authorise the super to share them already now
            self._show(sub_id, dov_id)
            self._show(sub.parent, dov_id)
        self._send("ready_to_commit", sub_id, sub.parent,
                   final_dovs=list(sub.final_dovs))
        self._record("Sub_DA_Ready_To_Commit", sub_id)
        self._persist(DaOperation.SUB_DA_READY_TO_COMMIT, sub_id,
                      final_dovs=tuple(sub.final_dovs))

    def sub_da_impossible_specification(self, sub_id: str,
                                        reason: str = "") -> None:
        """Sub_DA_Impossible_Specification: goal cannot be reached.

        "informs a super-DA that a sub-DA will not be able to fulfill
        the requirements of its specification and therefore asks for a
        reaction of its super-DA."
        """
        sub = self._touch(sub_id)
        if sub.is_top_level:
            raise CooperationError(
                f"top-level DA {sub_id!r} has no super-DA to notify")
        sub.machine.apply(DaOperation.SUB_DA_IMPOSSIBLE_SPEC)
        self._send("impossible_specification", sub_id, sub.parent,
                   reason=reason)
        self._record("Sub_DA_Impossible_Specification", sub_id,
                     reason=reason)
        self._persist(DaOperation.SUB_DA_IMPOSSIBLE_SPEC, sub_id,
                      reason=reason)

    def modify_sub_da_specification(self, super_id: str, sub_id: str,
                                    new_spec: DesignSpecification,
                                    restart_dov: str | None = None) -> None:
        """Modify_Sub_DA_Specification: the super-DA reformulates a goal.

        "reformulations of design goals are typical in design
        applications."  The sub-DA keeps its derivation graph and may
        restart from any previously derived DOV; evaluations are redone
        under the new specification and propagations whose features are
        no longer part of the new spec are withdrawn (Sect.5.4).
        """
        sub = self._touch(sub_id)
        if sub.parent != super_id:
            raise DelegationError(
                f"{super_id!r} is not the super-DA of {sub_id!r}")
        sub.machine.apply(DaOperation.MODIFY_SUB_DA_SPEC)
        sub.spec = new_spec
        self.state_log.mark("described", sub_id)

        # re-evaluate everything previously evaluated under the old spec
        sub.final_dovs = []
        for dov_id in list(sub.quality):
            dov = self.repository.read(dov_id)
            sub.quality[dov_id] = new_spec.evaluate(dov.data)
            if sub.quality[dov_id].is_final:
                sub.final_dovs.append(dov_id)

        # withdrawal of propagations that lost their required features
        for dov_id in list(sub.propagated):
            quality = sub.quality.get(dov_id)
            if quality is None:
                dov = self.repository.read(dov_id)
                quality = new_spec.evaluate(dov.data)
                sub.quality[dov_id] = quality
            for usage in self._usages_supporting(sub_id):
                if dov_id in usage.delivered \
                        and not quality.covers(usage.required_features):
                    self._withdraw_delivery(usage, dov_id)

        self._send("specification_modified", super_id, sub_id,
                   restart_dov=restart_dov)
        hook = self._dm_hooks.get(sub_id)
        if hook is not None:
            hook.on_specification_modified(restart_dov)
            self._dm_event(sub_id)
        self._record("Modify_Sub_DA_Specification", sub_id,
                     super_da=super_id)
        self._persist(DaOperation.MODIFY_SUB_DA_SPEC, super_id, sub=sub_id)

    def terminate_sub_da(self, super_id: str, sub_id: str) -> list[str]:
        """Terminate_Sub_DA: commit/cancel a sub-DA.

        On commit "the final DOVs devolve to the scope of the
        super-DA" — realised as scope-lock inheritance (only locks on
        *final* DOVs are inherited, Sect.5.4).  Pre-released DOVs that
        will not be ancestors of an inherited final DOV are withdrawn.
        Returns the inherited DOV ids.
        """
        sub = self._touch(sub_id)
        if sub.parent != super_id:
            raise DelegationError(
                f"{super_id!r} is not the super-DA of {sub_id!r}")
        sub.machine.apply(DaOperation.TERMINATE_SUB_DA)

        final = set(sub.final_dovs)
        # the sub holds scope locks on its finals, gives up every lock
        # it holds and hands those on its finals on: "a super-DA
        # inherits the scope-locks on the final DOVs of its terminated
        # sub-DAs and then retains these locks" (Sect.5.4)
        for dov_id in final:
            self._show(sub_id, dov_id)
        given_up = sorted(self._scope_locks.get(sub_id, ()))
        for dov_id in given_up:
            self._hide(sub_id, dov_id)
        inherited = [dov_id for dov_id in given_up if dov_id in final]
        for dov_id in inherited:
            self._show(super_id, dov_id)

        # withdrawal: propagated DOVs that are not ancestors of a final
        graph = self.repository.graph(sub_id)
        for dov_id in list(sub.propagated):
            is_kept = any(
                dov_id == f or (f in graph and dov_id in graph
                                and graph.is_ancestor(dov_id, f))
                for f in final)
            if not is_kept:
                for usage in self._usages_supporting(sub_id):
                    if dov_id in usage.delivered:
                        self._withdraw_delivery(usage, dov_id)

        # close any negotiations the sub was part of
        for negotiation in self._negotiations_by_da.get(sub_id, ()):
            if not negotiation.closed:
                negotiation.closed = True
                self.state_log.mark("negotiations",
                                    negotiation.negotiation_id)

        self._record("Terminate_Sub_DA", sub_id, super_da=super_id,
                     inherited=len(inherited))
        self._persist(DaOperation.TERMINATE_SUB_DA, super_id, sub=sub_id,
                      inherited=tuple(sorted(inherited)))
        return sorted(inherited)

    def finish_top_level(self, da_id: str) -> None:
        """Close the whole design: "After finishing the top-level DA all
        locks are released."  All sub-DAs must be terminated."""
        da = self._touch(da_id)
        if da.parent is not None:
            raise CooperationError(f"DA {da_id!r} is not top-level")
        alive = [c.da_id for c in self.children_of(da_id)]
        if alive:
            raise CooperationError(
                f"cannot finish {da_id!r}: sub-DAs still alive: {alive}")
        da.machine.state = DaState.TERMINATED
        for dov_id in sorted(self._scope_locks.get(da_id, ())):
            self._hide(da_id, dov_id)
        self._record("Finish_Top_Level", da_id)
        self._persist()

    # ======================================================================
    # usage relationships (Require / Propagate / invalidation / withdrawal)
    # ======================================================================

    def _usages_supporting(self, supporting_id: str) -> list[Usage]:
        # a copy: a DM reached from a delivery may require meanwhile
        return list(self._supported_by.get(supporting_id, ()))

    def usage(self, requiring_id: str, supporting_id: str) -> Usage:
        """Look up an established usage relationship."""
        try:
            return self._usages[(requiring_id, supporting_id)]
        except KeyError:
            raise RelationshipError(
                f"no usage relationship {requiring_id!r} -> "
                f"{supporting_id!r}") from None

    def usages(self) -> list[Usage]:
        """All established usage relationships."""
        return list(self._usages.values())

    def require(self, requiring_id: str, supporting_id: str,
                features: set[str]) -> str | None:
        """Require: ask a supporting DA for a DOV with given features.

        Establishes (or reuses) the usage relationship.  When an
        already-propagated DOV qualifies, it is delivered immediately
        and its id returned; otherwise the supporting DA is notified
        and None is returned.
        """
        requiring = self.da(requiring_id)
        supporting = self._touch(supporting_id)
        if requiring_id == supporting_id:
            raise RelationshipError("a DA cannot require from itself")
        if requiring.state is not DaState.ACTIVE:
            raise CooperationError(
                f"requiring DA {requiring_id!r} must be active, is "
                f"{requiring.state.value!r}")
        # precondition: the requiring DA knows the supporting DA's spec;
        # the requested quality must be expressed in its features
        unknown = set(features) - set(supporting.spec.names())
        if unknown:
            raise RelationshipError(
                f"required features {sorted(unknown)} are not part of "
                f"the specification of {supporting_id!r}")
        supporting.machine.apply(DaOperation.REQUIRE)

        key = (requiring_id, supporting_id)
        usage = self._usages.get(key)
        if usage is None:
            usage = Usage(requiring_id, supporting_id,
                          frozenset(features), self.clock.now)
            self._usages[key] = usage
            self._supported_by.setdefault(supporting_id, []).append(usage)
        else:
            usage.required_features = frozenset(features)
        self.state_log.mark("usages", key)
        self._record("Require", supporting_id, requiring=requiring_id)

        delivered = self._try_deliver(usage)
        if delivered is None:
            self._send("require", requiring_id, supporting_id,
                       features=sorted(features))
        self._persist(DaOperation.REQUIRE, requiring_id,
                      supporting=supporting_id,
                      features=tuple(sorted(features)))
        return delivered

    def _try_deliver(self, usage: Usage) -> str | None:
        """Deliver the best already-propagated qualifying DOV, if any."""
        supporting = self.da(usage.supporting_da)
        for dov_id in supporting.propagated:
            if dov_id in usage.delivered or dov_id in usage.withdrawn:
                continue
            quality = supporting.quality.get(dov_id)
            if quality is not None \
                    and quality.covers(usage.required_features):
                self._deliver(usage, dov_id)
                return dov_id
        return None

    def _deliver(self, usage: Usage, dov_id: str) -> None:
        self._show(usage.requiring_da, dov_id)
        usage.delivered.append(dov_id)
        self.state_log.mark("usages", usage.key())
        self._send("dov_delivered", usage.supporting_da,
                   usage.requiring_da, dov=dov_id)
        self._record("Deliver", dov_id, to=usage.requiring_da)

    def propagate(self, da_id: str, dov_id: str) -> list[str]:
        """Propagate: pre-release a DOV along usage relationships.

        "A DOV becomes only visible along usage relationships, if it
        was propagated by its DA. ... The Propagate operation gives a
        DA control over which of its DOVs are pre-released."  Returns
        the requiring DAs the DOV was delivered to.
        """
        da = self.da(da_id)
        da.machine.check(DaOperation.PROPAGATE)
        if not self.repository.has_graph(da_id) \
                or dov_id not in self.repository.graph(da_id):
            raise ScopeViolationError(
                f"DA {da_id!r} may only propagate DOVs of its own "
                f"derivation graph, not {dov_id!r}")
        self._touch(da_id).machine.apply(DaOperation.PROPAGATE)
        # propagated DOVs carry a quality state determined by Evaluate
        if dov_id not in da.quality:
            dov = self.repository.read(dov_id)
            da.record_quality(dov_id, da.spec.evaluate(dov.data))
        if dov_id not in da.propagated:
            da.propagated.append(dov_id)

        receivers = []
        for usage in self._usages_supporting(da_id):
            if dov_id in usage.delivered or dov_id in usage.withdrawn:
                continue
            if da.quality[dov_id].covers(usage.required_features):
                self._deliver(usage, dov_id)
                receivers.append(usage.requiring_da)
        self._record("Propagate", dov_id, da=da_id,
                     receivers=len(receivers))
        self._persist(DaOperation.PROPAGATE, da_id, dov=dov_id,
                      receivers=tuple(receivers))
        return receivers

    def invalidate_propagation(self, supporting_id: str,
                               dov_id: str) -> dict[str, str | None]:
        """Invalidation with replacement (Sect.5.4).

        "another DOV from the scope of that DA which fulfills all the
        required (and possibly more) features of the previously
        propagated DOV will be propagated by the CM to the requiring DA
        for replacement" — when no replacement exists, the delivery is
        withdrawn instead.  Returns {requiring_da: replacement or None}.
        """
        # a replacement found among the evaluated DOVs joins `propagated`
        supporting = self._touch(supporting_id)
        result: dict[str, str | None] = {}
        for usage in self._usages_supporting(supporting_id):
            if dov_id not in usage.delivered:
                continue
            replacement = self._find_replacement(supporting, usage, dov_id)
            if replacement is not None:
                usage.delivered.remove(dov_id)
                self._hide(usage.requiring_da, dov_id)
                self._deliver(usage, replacement)
                result[usage.requiring_da] = replacement
            else:
                self._withdraw_delivery(usage, dov_id)
                result[usage.requiring_da] = None
        self._record("Invalidate", dov_id, da=supporting_id,
                     replacements=sum(1 for v in result.values() if v))
        self._persist()
        return result

    def _find_replacement(self, supporting: DesignActivity, usage: Usage,
                          invalid_dov: str) -> str | None:
        candidates = [d for d in supporting.propagated
                      if d != invalid_dov and d not in usage.withdrawn
                      and d not in usage.delivered]
        # also consider any evaluated DOV of the supporting scope
        candidates += [d for d in supporting.quality
                       if d not in candidates and d != invalid_dov
                       and d not in usage.withdrawn
                       and d not in usage.delivered]
        for dov_id in candidates:
            quality = supporting.quality.get(dov_id)
            if quality is not None \
                    and quality.covers(usage.required_features):
                if dov_id not in supporting.propagated:
                    supporting.propagated.append(dov_id)
                return dov_id
        return None

    def withdraw(self, supporting_id: str, dov_id: str) -> list[str]:
        """Withdraw a pre-released DOV from every requiring DA.

        "This causes the CM to send a notification to all the
        (requiring) DAs that have seen that DOV."  The withdrawal
        propagates transitively: versions a requiring DA derived
        *from* the withdrawn DOV and pre-released onward are
        invalidated as well — "the CONCORD system has to
        react properly in order to guarantee a minimum of consistency"
        (Sect.5.4).  Returns the DAs that reported being affected.
        """
        affected = []
        for usage in self._usages_supporting(supporting_id):
            if dov_id in usage.delivered:
                requiring = usage.requiring_da
                if self._withdraw_delivery(usage, dov_id):
                    affected.append(requiring)
                affected.extend(
                    self._cascade_withdrawal(requiring, dov_id))
        self._persist()
        return affected

    def _cascade_withdrawal(self, da_id: str,
                            withdrawn: str) -> list[str]:
        """Invalidate the DA's own propagations derived from *withdrawn*."""
        affected: list[str] = []
        da = self.da(da_id)
        for derived in list(da.propagated):
            if self._derived_from(da_id, derived, withdrawn):
                result = self.invalidate_propagation(da_id, derived)
                affected.extend(requiring
                                for requiring, replacement
                                in result.items()
                                if replacement is None)
        return affected

    def _derived_from(self, da_id: str, dov_id: str,
                      ancestor: str) -> bool:
        """Reachability over parents, including cross-graph links."""
        if not self.repository.has_graph(da_id) \
                or dov_id not in self.repository.graph(da_id):
            return False
        seen: set[str] = set()
        stack = [dov_id]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if current == ancestor:
                return True
            if current in self.repository:
                stack.extend(self.repository.read(current).parents)
        return False

    def _withdraw_delivery(self, usage: Usage, dov_id: str) -> bool:
        usage.delivered.remove(dov_id)
        usage.withdrawn.append(dov_id)
        self.state_log.mark("usages", usage.key())
        self._hide(usage.requiring_da, dov_id)
        self._send("withdrawal", usage.supporting_da, usage.requiring_da,
                   dov=dov_id)
        self._record("Withdraw", dov_id, frm=usage.supporting_da,
                     to=usage.requiring_da)
        hook = self._dm_hooks.get(usage.requiring_da)
        if hook is None:
            return False
        used = bool(hook.on_withdrawal(dov_id))
        self._dm_event(usage.requiring_da)
        return used

    # ======================================================================
    # negotiation
    # ======================================================================

    def negotiation(self, negotiation_id: str) -> Negotiation:
        """Look up a negotiation relationship."""
        try:
            return self._negotiations[negotiation_id]
        except KeyError:
            raise NegotiationError(
                f"unknown negotiation {negotiation_id!r}") from None

    def negotiations_of(self, da_id: str) -> list[Negotiation]:
        """Open negotiations involving *da_id*."""
        return [n for n in self._negotiations_by_da.get(da_id, ())
                if not n.closed]

    def _add_negotiation(self, negotiation: Negotiation) -> None:
        self._negotiations[negotiation.negotiation_id] = negotiation
        self._index_negotiation(negotiation)

    def _index_negotiation(self, negotiation: Negotiation) -> None:
        index = self._negotiations_by_da
        index.setdefault(negotiation.da_a, []).append(negotiation)
        if negotiation.da_b != negotiation.da_a:  # Propose to oneself
            index.setdefault(negotiation.da_b, []).append(negotiation)

    def _require_siblings(self, da_a: str, da_b: str) -> str:
        super_id = self.common_super(da_a, da_b)
        if super_id is None:
            raise NegotiationError(
                f"negotiation allowed only between sub-DAs of the same "
                f"super-DA; {da_a!r} and {da_b!r} are not siblings")
        return super_id

    def create_negotiation_relationship(self, creator_id: str, da_a: str,
                                        da_b: str,
                                        subject: str = "") -> Negotiation:
        """Create_Negotiation_Relationship: set explicitly by the super.

        "Negotiation relationships can be ... explicitly set by their
        super-DA."
        """
        super_id = self._require_siblings(da_a, da_b)
        if creator_id != super_id:
            raise NegotiationError(
                f"only the common super-DA {super_id!r} may set a "
                f"negotiation relationship explicitly")
        self._transition(DaOperation.CREATE_NEGOTIATION_REL, da_a, da_b)
        negotiation = Negotiation(self.ids.next("neg"), da_a, da_b,
                                  subject, created_by=creator_id)
        self._add_negotiation(negotiation)
        self.state_log.mark("negotiations", negotiation.negotiation_id)
        self._record("Create_Negotiation_Relationship",
                     negotiation.negotiation_id, da_a=da_a, da_b=da_b)
        self._persist(DaOperation.CREATE_NEGOTIATION_REL, creator_id,
                      da_a=da_a, da_b=da_b, subject=subject)
        return negotiation

    def propose(self, proposer_id: str, other_id: str,
                changes: dict[str, list[Any]],
                note: str = "") -> Proposal:
        """Propose: suggest specification refinements to a sibling.

        Both parties move to the *negotiating* state; "as soon as a DA
        changes to the state negotiating, its internal processing is
        suspended."  ``changes`` maps DA ids to replacement features.
        A refused Propose establishes nothing: the sibling check and
        both parties' transition checks run before the negotiation is
        set up.
        """
        negotiation = next(
            (n for n in self._negotiations_by_da.get(proposer_id, ())
             if not n.closed and n.involves(other_id)), None)
        if negotiation is None:
            self._require_siblings(proposer_id, other_id)
        elif negotiation.open_proposal() is not None:
            raise NegotiationError(
                f"negotiation {negotiation.negotiation_id!r} already has "
                f"an open proposal")
        # ACTIVE -> NEGOTIATING, or NEGOTIATING stays (counter-proposal)
        self._transition(DaOperation.PROPOSE, proposer_id, other_id)
        if negotiation is None:  # dynamic establishment via Propose
            negotiation = Negotiation(self.ids.next("neg"), proposer_id,
                                      other_id, created_by=proposer_id)
            self._add_negotiation(negotiation)
        proposal = Proposal(self.ids.next("prop"), proposer_id,
                            changes, note)
        negotiation.proposals.append(proposal)
        self.state_log.mark("negotiations", negotiation.negotiation_id)
        self._send("proposal", proposer_id, other_id,
                   proposal=proposal.proposal_id, note=note)
        self._record("Propose", proposal.proposal_id, frm=proposer_id,
                     to=other_id)
        self._persist(DaOperation.PROPOSE, proposer_id, other=other_id,
                      proposal=proposal.proposal_id)
        return proposal

    def agree(self, da_id: str, proposal_id: str) -> None:
        """Agree: accept the open proposal; both DAs resume work.

        The agreed feature changes are applied to each target DA's
        specification, previous evaluations are redone, and
        propagations that lost their features are withdrawn.
        """
        negotiation, proposal = self._open_proposal(da_id, proposal_id)
        if proposal.proposer == da_id:
            raise NegotiationError(
                f"proposer {da_id!r} cannot agree to its own proposal")
        proposal.status = ProposalStatus.AGREED
        proposal.responded_by = da_id
        for target_id, features in proposal.changes.items():
            target = self._touch(target_id)
            new_spec = target.spec
            for feature in features:
                new_spec = new_spec.replaced(feature)
            self._apply_spec_change(target, new_spec)
        for party in (negotiation.da_a, negotiation.da_b):
            self._touch(party).machine.apply(DaOperation.AGREE)
        self._record("Agree", proposal_id, da=da_id)
        self._persist(DaOperation.AGREE, da_id, proposal=proposal_id)

    def disagree(self, da_id: str, proposal_id: str) -> None:
        """Disagree: reject the open proposal (negotiation continues)."""
        __, proposal = self._open_proposal(da_id, proposal_id)
        if proposal.proposer == da_id:
            raise NegotiationError(
                f"proposer {da_id!r} cannot disagree with its own "
                f"proposal")
        proposal.status = ProposalStatus.REJECTED
        proposal.responded_by = da_id
        self._touch(da_id).machine.apply(DaOperation.DISAGREE)
        self._send("disagree", da_id, proposal.proposer,
                   proposal=proposal_id)
        self._record("Disagree", proposal_id, da=da_id)
        self._persist(DaOperation.DISAGREE, da_id, proposal=proposal_id)

    def sub_das_specification_conflict(self, da_id: str,
                                       negotiation_id: str) -> str:
        """Sub_DAs_Specification_Conflict: escalate to the super-DA.

        "If two negotiating sub-DAs are not able to reach an agreement,
        the super-DA has to be informed, which then has to resolve this
        conflict."  Both parties return to *active*; returns the
        super-DA id.
        """
        negotiation = self.negotiation(negotiation_id)
        if not negotiation.involves(da_id):
            raise NegotiationError(
                f"DA {da_id!r} is not part of negotiation "
                f"{negotiation_id!r}")
        super_id = self._require_siblings(negotiation.da_a,
                                          negotiation.da_b)
        open_proposal = negotiation.open_proposal()
        if open_proposal is not None:
            open_proposal.status = ProposalStatus.ESCALATED
        negotiation.escalations += 1
        self.state_log.mark("negotiations", negotiation_id)
        for party in (negotiation.da_a, negotiation.da_b):
            if self.da(party).state is DaState.NEGOTIATING:
                self._touch(party).machine.apply(
                    DaOperation.SUB_DA_SPEC_CONFLICT)
        self._send("specification_conflict", da_id, super_id,
                   negotiation=negotiation_id)
        self._record("Sub_DAs_Specification_Conflict", negotiation_id,
                     super_da=super_id)
        self._persist(DaOperation.SUB_DA_SPEC_CONFLICT, da_id,
                      negotiation=negotiation_id, super_da=super_id)
        return super_id

    def _open_proposal(self, da_id: str,
                       proposal_id: str) -> tuple[Negotiation, Proposal]:
        for negotiation in self.negotiations_of(da_id):
            for proposal in negotiation.proposals:
                if proposal.proposal_id == proposal_id:
                    if proposal.status is not ProposalStatus.OPEN:
                        raise NegotiationError(
                            f"proposal {proposal_id!r} is "
                            f"{proposal.status.value}, not open")
                    # Agree / Disagree set the proposal's status
                    self.state_log.mark("negotiations",
                                        negotiation.negotiation_id)
                    return negotiation, proposal
        raise NegotiationError(
            f"no open proposal {proposal_id!r} involving {da_id!r}")

    def _apply_spec_change(self, da: DesignActivity,
                           new_spec: DesignSpecification) -> None:
        """Spec change without restart (negotiated modification)."""
        da.spec = new_spec
        self.state_log.mark("described", da.da_id)
        da.final_dovs = []
        for dov_id in list(da.quality):
            dov = self.repository.read(dov_id)
            da.quality[dov_id] = new_spec.evaluate(dov.data)
            if da.quality[dov_id].is_final:
                da.final_dovs.append(dov_id)
        for dov_id in list(da.propagated):
            quality = da.quality.get(dov_id)
            if quality is None:
                continue
            for usage in self._usages_supporting(da.da_id):
                if dov_id in usage.delivered \
                        and not quality.covers(usage.required_features):
                    self._withdraw_delivery(usage, dov_id)

    # ======================================================================
    # inboxes
    # ======================================================================

    def pop_messages(self, da_id: str,
                     kind: str | None = None) -> list[Message]:
        """Consume (and return) a DA's pending messages.

        What was taken stays taken across a server crash: the shortened
        inbox is forced to the state log before the messages are handed
        out."""
        pending = self._inboxes.get(da_id, [])
        if kind is None:
            taken, kept = pending, []
        else:
            taken = [m for m in pending if m.kind == kind]
            kept = [m for m in pending if m.kind != kind]
        if taken:
            self._inboxes[da_id] = kept
            self.state_log.mark("inboxes", da_id)
            self._persist()
        return taken

    # ======================================================================
    # failure handling (server crash)
    # ======================================================================

    def _persist(self, operation: DaOperation | None = None,
                 actor: str = "", **detail: Any) -> None:
        """Force what this operation changed to the state log — one
        record with the after-images of the entities it marked and,
        for an operation of Fig.7, its audit entry (see
        :mod:`repro.core.state_log`)."""
        # the operations name their ids one by one or in tuples: the
        # entry takes them as they are
        audit = None if operation is None else tuple.__new__(
            AuditEntry, (operation, actor, tuple(detail.items())))
        self.state_log.persist(self._registries, audit)

    def _registries_now(self) -> Registries:
        return Registries(self._das, self._delegations, self._usages,
                          self._negotiations, self._visibility,
                          self._inboxes)

    def _on_server_crash(self) -> None:
        """Volatile registries vanish with the server process, the
        scope-lock table's holder index with them."""
        self._das = {}
        self._delegations = []
        self._usages = {}
        self._negotiations = {}
        self._visibility = {}
        self._scope_locks = {}
        self._inboxes = {}
        self._supported_by = {}
        self._negotiations_by_da = {}
        self._registries = self._registries_now()
        self.state_log.crash()

    def recover(self) -> None:
        """Server restart: replay the state log, rebuild the indexes."""
        state = self.state_log.replay(self.repository.dot)
        if state is None:
            return
        (self._das, self._delegations, self._usages, self._negotiations,
         self._visibility, self._inboxes) = self._registries = state
        for usage in self._usages.values():
            self._supported_by.setdefault(usage.supporting_da,
                                          []).append(usage)
        for negotiation in self._negotiations.values():
            self._index_negotiation(negotiation)
        rebuilt = 0
        for dov_id, holders in self._visibility.items():
            for da_id in holders:
                self._scope_locks.setdefault(da_id, set()).add(dov_id)
            rebuilt += len(holders)
        self._record("CM_recovered", SERVER,
                     das=len(self._das), scope_locks=rebuilt)

    # ======================================================================
    # reporting
    # ======================================================================

    def hierarchy_snapshot(self) -> dict[str, Any]:
        """Nested dict of the current DA hierarchy (for F4/F5 output)."""

        def subtree(da: DesignActivity) -> dict[str, Any]:
            return {
                "da": da.da_id,
                "dot": da.dot.name,
                "state": da.state.value,
                "designer": da.designer,
                "final_dovs": list(da.final_dovs),
                "children": [subtree(self._das[c]) for c in da.children],
            }

        roots = [d for d in self._das.values() if d.is_top_level]
        return {"roots": [subtree(r) for r in roots]}

    def stats(self) -> dict[str, int]:
        """Counters for experiment T6."""
        return {
            "das": len(self._das),
            "delegations": len(self._delegations),
            "usages": len(self._usages),
            "negotiations": len(self._negotiations),
            "protocol_log_records": self.state_log.operations,
            "messages_pending": sum(len(v) for v in self._inboxes.values()),
        }
