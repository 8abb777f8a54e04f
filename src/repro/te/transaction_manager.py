"""The transaction manager (TM): client-TM and server-TM.

Sect.5.1/5.2: the TM "is split into two subcomponents.  The server-TM
handles checkout/checkin and controls concurrent access to DOVs, thus
residing on the server, whereas the client-TM resides on the
workstation managing the internal structure of DOPs."  Their critical
interaction, checkin, is atomic: the server-TM is the sole participant
of every checkin, so it commits in one exchange ([SBCM93]'s one-phase
commit, see :meth:`ServerTM.checkin`).

* :class:`ServerTM` — scope-checked checkout with derivation locking,
  one-phase checkin against the repository (it is the sole
  participant, and decides), derivation-lock release on End-of-DOP,
  WAL-backed durability (delegated to the repository), and the
  **lease table** of the data-shipping protocol (the txn layer's
  :class:`~repro.txn.leases.LeaseTable`): every version shipped to a
  buffering workstation is leased per ``(workstation, dov_id)``; a
  committed checkin revokes the leases on the versions it supersedes
  with asynchronous invalidation messages over the simulated LAN, and
  with ``lease_ttl`` set the regime becomes **TTL renewal**: an
  unrenewed lease expires via a kernel timer event and the expiry
  behaves exactly like a recall, while renewals are metadata-only
  messages.
* :class:`ClientTM` — Begin/End-of-DOP, checkout of a read set
  (buffer-first: a hit in the workstation's
  :class:`~repro.te.object_buffer.ObjectBuffer` costs zero network
  events, a miss ships the payload size-aware), the mandatory
  post-checkout recovery point (one per checkout operation),
  tool-work application with periodic recovery points, Save/Restore,
  Suspend/Resume, and workstation-crash recovery from the most recent
  recovery point (the buffer is volatile: a crash drops it and
  recovery re-fetches through the normal chain).

Both TMs are **thin participants of the txn layer**
(:mod:`repro.txn`): the client side of a commit — txn ids, sized
payload shipment, the one control RPC and its outcome — belongs to
the :class:`~repro.txn.gateway.CommitGateway` each client-TM owns; the
server-TM stages, commits and replies.

Checkin runs in one of two modes:

* **write-through** (default, the seed behaviour): every checkin ships
  its payload and commits immediately;
* **write-back** (``ClientTM(write_back=True)``): checkins stage
  *dirty* provisional versions in the object buffer and ship later as
  one batched, sized **group checkin** under a single decision and
  a single forced WAL write — triggered
  by End-of-DOP, a lease recall touching dirty lineage, or an explicit
  :meth:`ClientTM.flush`.
  Successive checkins of the same lineage coalesce before shipping,
  and a workstation crash drops unflushed dirty data (recovered from
  repository state, not from the buffer).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, NamedTuple

from repro.net.network import SERVER, Network
from repro.net.rpc import TransactionalRpc
from repro.net.two_phase_commit import CommitOutcome
from repro.txn.gateway import CheckinRecord, CommitGateway, GroupCommitResult
from repro.txn.leases import LeaseTable
from repro.repository.repository import DesignDataRepository
from repro.repository.versions import (
    DesignObjectVersion,
    freeze_payload,
    payload_sizeof,
)
from repro.sim.clock import SimClock
from repro.te.context import DopContext, SavepointStack
from repro.te.dop import DesignOperation, DopState
from repro.te.object_buffer import ObjectBuffer
from repro.te.locks import LockManager, LockMode
from repro.te.recovery import POINT_INTERVAL, RecoveryManager
from repro.util.errors import (
    LockConflictError,
    RecoveryError,
    ScopeViolationError,
    TransactionError,
)
from repro.util.ids import IdGenerator
from repro.util.trace import EventTrace, Level


#: the one state a DOP checks out in
_ACTIVE = DopState.ACTIVE


def _nothing() -> None:
    """The delivery of a payload shipped to a workstation without a
    buffer: the bytes are paid, nothing is installed."""


class CheckinResult(NamedTuple):
    """Outcome of a checkin reported to the DM (Sect.5.2/5.3): a
    tuple, built in one allocation.

    In write-back mode a successful checkin is *provisional*: the
    version lives only in the workstation buffer (``dov`` carries a
    provisional id) until a flush ships it; integrity validation is
    deferred to the flush, whose
    :class:`~repro.txn.gateway.GroupCommitResult` carries any rejection.
    """

    success: bool
    dov: DesignObjectVersion | None = None
    reason: str = ""
    outcome: CommitOutcome | None = None
    #: True when the version is an unflushed write-back entry
    provisional: bool = False


class ServerTM:
    """Server-side transaction manager: shared access to the repository."""

    def __init__(self, repository: DesignDataRepository,
                 locks: LockManager, network: Network,
                 trace: EventTrace | None = None,
                 clock: SimClock | None = None,
                 lease_ttl: float | None = None) -> None:
        self.repository = repository
        self.locks = locks
        self.network = network
        #: the node of the sole participant of every checkin
        self.node_id = SERVER
        self.node = network.node(SERVER)
        self.trace = trace if trace is not None else EventTrace(enabled=False)
        self.clock = clock or SimClock()
        #: callback(da_id, dov_id) -> bool installed by the CM; the default
        #: admits only the DA's own derivation graph (Sect.4.1's rule that
        #: "without further authorization a DA is only allowed to read
        #: DOVs of its own derivation graph").
        self.scope_check: Callable[[str, str], bool] = self._default_scope
        #: lease time-to-live (None keeps the PR 2 recall-only regime;
        #: a number switches to TTL renewal leases: unrenewed leases
        #: expire via kernel timer events, and expiry behaves exactly
        #: like a recall)
        self.lease_ttl = lease_ttl
        #: read leases of the data-shipping protocol, per
        #: ``(workstation, dov_id)`` — the txn layer's lease table
        self.leases = LeaseTable(
            clock=self.clock, ttl=lease_ttl,
            kernel_source=lambda: network.kernel)
        self.leases.on_expire = self._on_lease_expired
        #: workstation -> its object buffer (invalidation delivery target)
        self._buffers: dict[str, ObjectBuffer] = {}
        #: invalidation messages scheduled over the LAN
        self.invalidations_sent = 0
        #: renewals that rode along on checkout/checkin control
        #: messages instead of a dedicated renewal message
        self.renewals_piggybacked = 0
        #: modelled size of one lease-invalidation control message
        self.invalidation_bytes = 16
        #: checkin requests committed (each one exchange over a
        #: group of one or more records)
        self.group_checkins = 0
        # supersession notices: every committed version revokes the
        # leases on its parents
        repository.on_commit = self._on_repository_commit
        # the lease table is volatile server state and died with the
        # server; a restart re-validates the registered workstation
        # buffers against fresh repository stamps — an unleased,
        # unvalidated copy could never be revoked again
        self.node.on_crash.append(self.clear_leases)
        self.node.on_restart.append(self._on_server_restart)

    def _default_scope(self, da_id: str, dov_id: str) -> bool:
        if not self.repository.has_graph(da_id):
            return False
        return dov_id in self.repository.graph(da_id)

    def _record(self, operation: str, subject: str, **detail: Any) -> None:
        if self.trace.enabled:
            self.trace.record(self.clock.now, Level.TE, "server-TM",
                              operation, subject, **detail)

    # -- checkout ---------------------------------------------------------------

    def checkout(self, da_id: str, dop_id: str, dov_id: str,
                 derivation_lock: bool = False,
                 workstation: str | None = None,
                 lease: bool = False,
                 renew: bool = False) -> DesignObjectVersion:
        """Scope-checked read of a DOV with optional derivation lock.

        Implements Sect.5.2's checkout: "it has to be tested that,
        firstly, the DOV belongs to the scope of the DOP's DA, and,
        secondly, there is no incompatible derivation lock on the DOV."
        The critical section itself is protected by a short read lock;
        on a DOV that carries no lock nothing could conflict with it,
        and the pair is only counted.  With ``lease=True`` the server
        additionally records a read lease for *workstation* — the
        promise to invalidate the shipped copy when a later checkin
        supersedes it.

        Runs synchronously on the RPC's stack; the payload shipment
        (a sized async message, i.e. a timed kernel event under the
        concurrent kernel) is the *caller's* doing — see
        :meth:`ClientTM._ship_payload`.
        """
        if not self.node.up:
            self.node.require_up()
        if not self.scope_check(da_id, dov_id):
            self._record("checkout_denied", dov_id, da=da_id,
                         reason="scope")
            raise ScopeViolationError(
                f"DOV {dov_id!r} is not in the scope of DA {da_id!r}")
        locks = self.locks
        if not derivation_lock and locks.pass_short_lock(dov_id):
            dov = self.repository.read(dov_id)
        else:
            grant = locks.blocker(dov_id, da_id, LockMode.DERIVATION)
            if grant is not None:
                raise LockConflictError(
                    f"DOV {dov_id!r} derivation-locked by "
                    f"{grant.holder!r}", holder=grant.holder)
            locks.acquire(dov_id, dop_id, LockMode.SHORT_READ)
            try:
                dov = self.repository.read(dov_id)
                if derivation_lock:
                    locks.acquire(dov_id, da_id, LockMode.DERIVATION)
            finally:
                locks.release(dov_id, dop_id, LockMode.SHORT_READ)
        if workstation is not None:
            if renew:
                # renewal metadata folded onto this control message —
                # the workstation's whole lease set extends without a
                # dedicated renewal message on the LAN
                self._piggyback_renewal(workstation)
            if lease:
                self.leases.grant(workstation, dov_id)
        if self.trace.enabled:
            self._record("checkout", dov_id, da=da_id, dop=dop_id,
                         derivation_lock=derivation_lock,
                         leased=bool(lease and workstation))
        return dov

    # -- checkin (one-phase commit) ---------------------------------------------

    def checkin(self, txn_id: str, records: list[CheckinRecord],
                workstation: str, lease: bool, renew: bool
                ) -> tuple[dict[str, str], list[DesignObjectVersion]] | str:
        """The checkin endpoint: one request commits a record list or
        refuses it.

        The server-TM is the sole participant of every checkin, so it
        decides itself — [SBCM93]'s one-phase commit: the request
        carries the records, :meth:`prepare` stages all of them or
        none, :meth:`commit` makes them durable with the repository's
        one forced WAL write, and the reply carries the outcome.  A
        write-through checkin is a list of one whose
        ``provisional_id`` is the transaction id; a write-back flush
        sends the workstation's dirty set in its checkin order.

        The request also carries the workstation's lease renewal when
        one is due (*renew*), and with *lease* the committed versions
        are leased to *workstation*, which keeps them in its buffer.
        Returns ``(mapping, dovs)`` — provisional id -> durable id and
        the durable versions in batch order — or, when staging failed
        and :meth:`abort` un-staged the request, the reason.
        """
        if not self.node.up:
            self.node.require_up()
        if renew:
            self._piggyback_renewal(workstation)
        mapping: dict[str, str] = {}
        try:
            self.prepare(txn_id, records, mapping)
        except Exception as exc:  # noqa: BLE001 - any failure refuses
            return self.abort(txn_id, mapping, exc)
        dovs = self.commit(txn_id, mapping)
        if lease:
            grant = self.leases.grant
            for dov in dovs:
                grant(workstation, dov.dov_id)
        return mapping, dovs

    def prepare(self, txn_id: str, records: list[CheckinRecord],
                mapping: dict[str, str]) -> None:
        """Stage every record of a checkin request, in batch order.

        Each staged record enters *mapping* (provisional id -> the id
        the server assigned it), so a parent naming an earlier
        record's provisional id resolves to its staged version and an
        unflushed lineage ships as one consistent chain.  The
        modification of a DA's derivation graph is protected by a
        short (write) lock on the graph resource (Sect.5.2: "the TM
        has to protect the proliferation of the DA's derivation graph
        ... employing a locking protocol based on short locks"), one
        per distinct DA for the whole request, all taken before the
        first record is staged.  The staging runs synchronously, so no
        grant can arrive on a graph meanwhile: a graph nobody holds a
        grant on has its short lock only counted
        (:meth:`~repro.te.locks.LockManager.pass_short_lock`), any
        other is acquired and released around the staging.  A failure
        (integrity violation, unknown parent, lock conflict) raises,
        with what was staged so far left in *mapping* for
        :meth:`abort`.
        """
        locks = self.locks
        graphs: list[str] = []
        acquired: list[str] = []
        try:
            for record in records:
                graph = "graph:" + record.da_id
                if graph not in graphs:
                    graphs.append(graph)
                    if not locks.pass_short_lock(graph):
                        locks.acquire(graph, txn_id, LockMode.SHORT_WRITE)
                        acquired.append(graph)
            stage = self.repository.stage_checkin
            now = self.clock.now
            for provisional_id, da_id, dot_name, data, parents, _ in records:
                if mapping:
                    # a parent naming an earlier record resolves to the
                    # version just staged for it
                    parents = map(mapping.get, parents, parents)
                dov = stage(da_id, dot_name, data, tuple(parents), now)
                mapping[provisional_id] = dov.dov_id
        finally:
            for graph in acquired:
                locks.release(graph, txn_id, LockMode.SHORT_WRITE)

    def commit(self, txn_id: str, mapping: dict[str, str]
               ) -> list[DesignObjectVersion]:
        """Make the staged versions durable; returns them in batch
        order.

        They commit through the repository's atomic single-force path,
        whose commit observer fires the supersession invalidations for
        each new version's parents — asynchronous sized LAN messages
        (ordinary timed kernel events under the concurrent kernel,
        scheduled in deterministic batch order).
        """
        dovs = self.repository.commit_group(list(mapping.values()))
        self.group_checkins += 1
        if self.trace.enabled:
            self._record("checkin_committed", txn_id, count=len(dovs))
        return dovs

    def abort(self, txn_id: str, mapping: dict[str, str],
              error: Exception) -> str:
        """Un-stage what a failed :meth:`prepare` staged — all or
        nothing at the staging level (the durability level is the
        repository's single-force group commit) — and return the
        refusal's reason."""
        self.repository.abort_group(list(mapping.values()))
        reason = str(error) or type(error).__name__
        self._record("checkin_aborted", txn_id, error=reason,
                     staged_rolled_back=len(mapping))
        return reason

    # -- End-of-DOP support ---------------------------------------------------------

    def release_derivation_locks(self, da_id: str,
                                 dov_ids: list[str] | None = None) -> int:
        """Release derivation locks at End-of-DOP (commit *and* abort).

        "the server-TM is firstly asked to release the derivation locks
        held (if any)" (Sect.5.2).  A DA that holds no lock at all has
        none to release.
        """
        if not self.locks.holds_any(da_id):
            return 0
        if dov_ids is None:
            released = self.locks.release_all(da_id, LockMode.DERIVATION)
        else:
            # a DOP names every input, once per checkout of it
            released = 0
            for dov_id in dict.fromkeys(dov_ids):
                released += self.locks.release(dov_id, da_id,
                                               LockMode.DERIVATION)
        if released:
            self._record("derivation_locks_released", da_id, count=released)
        return released

    # -- object-buffer leases (data-shipping coherence) -----------------------------

    def register_buffer(self, workstation: str,
                        buffer: ObjectBuffer) -> None:
        """Make *workstation*'s buffer the target of its invalidations.

        Registration order is the order restart re-validation walks
        the buffers in, part of the determinism contract.
        """
        self._buffers[workstation] = buffer

    def drop_leases(self, workstation: str) -> int:
        """Forget every lease of one workstation (its crash dropped the
        buffered copies, so there is nothing left to invalidate)."""
        return self.leases.drop_workstation(workstation)

    def clear_leases(self) -> None:
        """Server crash: the (volatile) lease table vanishes."""
        self.leases.clear()

    def _piggyback_renewal(self, workstation: str) -> int:
        """Renewal metadata carried by an in-flight control message.

        Same lease-table effect as :meth:`renew_leases`, zero extra
        LAN traffic — the fallback dedicated renewal message is only
        needed when no checkout/checkin is in flight to carry it.
        """
        renewed = self.leases.renew_workstation(workstation)
        if renewed:
            self.renewals_piggybacked += 1
            if self.trace.enabled:
                self._record("leases_renewed_piggyback", workstation,
                             count=renewed)
        return renewed

    def renew_leases(self, workstation: str) -> int:
        """Handle a workstation's metadata-only renewal message.

        Extends every lease the workstation holds by one fresh TTL; a
        lease that already expired (or was recalled) while the message
        was in flight stays dead — a renewal never resurrects, which
        is what makes expiry racing an in-flight renewal safe.
        Returns the number of leases extended.
        """
        renewed = self.leases.renew_workstation(workstation)
        self._record("leases_renewed", workstation, count=renewed)
        return renewed

    def _on_lease_expired(self, workstation: str, dov_id: str) -> None:
        """A TTL lease ran out unrenewed: expiry behaves like a recall.

        The buffered copy is invalidated with the same asynchronous
        LAN message an explicit supersession recall would send — the
        workstation cannot tell the difference, by design.
        """
        self._post_invalidation(workstation, dov_id,
                                superseded_by="<lease-expired>")

    def _on_server_restart(self) -> None:
        """Restart hook: re-validate the registered buffers.

        The only restart path.  It reads repository stamps, so the
        repository must already have recovered — which
        :class:`~repro.te.rig.TeRig` guarantees by registering the
        repository's hooks before it constructs the server-TM.
        """
        self.revalidate_buffers()

    def revalidate_buffers(self) -> dict[str, dict[str, int]]:
        """Server restart: stamp-based buffer re-validation.

        Each registered buffer's clean resident ids are checked
        against fresh repository stamps
        (:meth:`~repro.repository.repository.DesignDataRepository.describe_many`
        — metadata only, no payload shipping).  Entries whose stamp
        still matches stay resident and get a **new read lease**, so
        coherence is restored without re-shipping a byte; stale or
        vanished entries drop.  Buffers are processed in registration
        order and ids in residence order — deterministic, and purely
        synchronous (no kernel events: re-validation is part of the
        restart instant).  Returns ``{workstation: {kept, dropped}}``.
        """
        report: dict[str, dict[str, int]] = {}
        for workstation, buffer in self._buffers.items():
            clean = buffer.clean_ids()
            kept = buffer.revalidate(self.repository.describe_many(clean))
            for dov_id in buffer.clean_ids():
                self.leases.grant(workstation, dov_id)
            dropped = len(clean) - kept
            report[workstation] = {"kept": kept, "dropped": dropped}
            self._record("buffers_revalidated", workstation,
                         kept=kept, dropped=dropped)
        return report

    def _on_repository_commit(self, dov: DesignObjectVersion) -> None:
        """A version became durable: revoke the leases it supersedes.

        The new DOV's parents are no longer the frontier of the design
        state; every workstation buffering one of them gets an
        asynchronous invalidation over the LAN (an ordinary timed
        kernel event under the concurrent kernel, a synchronous
        handoff otherwise).  The lease itself is revoked immediately —
        the server stops promising coherence the moment it schedules
        the notice.
        """
        for dov_id in self.repository.invalidation_targets(dov):
            # revoke BEFORE posting: a synchronous delivery can recall
            # a dirty dependent whose flush re-enters this observer —
            # with the lease already gone it cannot double-send
            recipients = sorted(self.leases.release_all(dov_id))
            for workstation in recipients:
                self._post_invalidation(workstation, dov_id,
                                        superseded_by=dov.dov_id)

    def _post_invalidation(self, workstation: str, dov_id: str,
                           superseded_by: str) -> None:
        # a lease is only granted to a workstation whose client-TM
        # registered its buffer, so the holder of a revoked one has one
        self.invalidations_sent += 1
        self.network.post(self.node_id, workstation,
                          partial(self._buffers[workstation].invalidate,
                                  dov_id),
                          label=f"invalidate:{dov_id}->{workstation}",
                          size=self.invalidation_bytes)
        if self.trace.enabled:
            self._record("lease_invalidated", dov_id,
                         workstation=workstation,
                         superseded_by=superseded_by)


class ClientTM:
    """Workstation-side transaction manager for one workstation.

    Manages the internal structure of the DOPs running on its machine:
    contexts, savepoints, recovery points, suspend/resume, and the
    client side of every checkin.

    Kernel-event contract: local DOP bookkeeping (begin, work, save,
    restore, suspend, resume, recovery points) schedules **no** kernel
    events and touches **no** network state — it is invisible to the
    event trace.  Network activity happens only on the checkout miss
    path (one RPC + one sized async shipment), on write-through
    checkin (one sized upload + one control RPC), and on
    :meth:`flush` (one batched sized message + one control RPC).  All
    of it is deterministic:
    message order follows program order, async deliveries are kernel
    events ordered by ``(time, priority, seq)``, so identically
    seeded runs are trace-identical.
    """

    def __init__(self, workstation: str, server_tm: ServerTM,
                 rpc: TransactionalRpc, clock: SimClock,
                 ids: IdGenerator | None = None,
                 trace: EventTrace | None = None,
                 buffer: ObjectBuffer | None = None,
                 write_back: bool = False) -> None:
        self.workstation = workstation
        self.server_tm = server_tm
        self.rpc = rpc
        self.clock = clock
        self.ids = ids or IdGenerator()
        self.trace = trace if trace is not None else EventTrace(enabled=False)
        self._component = f"client-TM:{workstation}"
        #: the workstation's DOV object buffer (None = caching off:
        #: every checkout re-ships its payload over the LAN)
        self.buffer = buffer
        #: write-back mode: checkins stage dirty buffer entries and
        #: ship later as one group checkin (requires a buffer)
        self.write_back = write_back and buffer is not None
        if buffer is not None:
            server_tm.register_buffer(workstation, buffer)
            if self.write_back:
                # a lease recall that touches dirty lineage flushes
                buffer.on_recall = self.flush
        #: payload bytes fetched from the server (buffer misses and,
        #: with caching off, every checkout)
        self.bytes_fetched = 0
        #: simulated time spent shipping checkout payloads
        self.fetch_time = 0.0
        #: group checkins shipped / checkins they carried / their bytes
        self.flushes = 0
        self.flushed_checkins = 0
        self.bytes_flushed = 0
        #: provisional id -> the later provisional id that coalesced it
        self._superseded: dict[str, str] = {}
        #: provisional id -> durable id (committed group checkins)
        self._resolved: dict[str, str] = {}
        #: the renewal window, ttl/2; infinite when this client never
        #: renews (no TTL or no buffer)
        ttl = server_tm.lease_ttl
        self._renewal_half = ttl / 2 \
            if ttl is not None and buffer is not None else math.inf
        #: simulated instant of the last lease-renewal message (TTL
        #: leases only; renewals are rate-limited to ttl/2): -inf until
        #: the first use anchors the window.  A client that never
        #: renews starts anchored, so its window never opens and no
        #: checkout or checkin of it asks for one
        self._last_renewal = -math.inf \
            if self._renewal_half < math.inf else 0.0
        #: renewals this client folded onto outgoing control messages
        self.renewals_piggybacked = 0
        node = rpc.network.node(workstation)
        self.node = node
        self.recovery = RecoveryManager(node.stable)
        #: the txn layer's commit gateway: every commit shape of this
        #: workstation (single checkin, group flush) is driven through it
        self.gateway = CommitGateway(rpc, server_tm, workstation,
                                     ids=self.ids)
        #: volatile table of running DOPs — lost on workstation crash
        self._active: dict[str, DesignOperation] = {}
        node.on_crash.append(self._on_crash)

    # -- infrastructure -----------------------------------------------------------

    def _record(self, operation: str, subject: str, **detail: Any) -> None:
        if self.trace.enabled:
            self.trace.record(self.clock.now, Level.TE, self._component,
                              operation, subject, **detail)

    def _on_crash(self) -> None:
        # volatile DOP table vanishes with the workstation, and so
        # does the object buffer; the server forgets the leases (there
        # is no buffered copy left to invalidate) and recovery
        # re-fetches through the normal checkout chain
        self._active.clear()
        if self.buffer is not None:
            self.buffer.clear()
            self.server_tm.drop_leases(self.workstation)

    def active_dops(self) -> list[DesignOperation]:
        """The DOPs currently running on this workstation."""
        return list(self._active.values())

    def _require_running(self, dop: DesignOperation) -> None:
        """Refuse a handle that is not the running DOP of its id.

        A workstation crash empties the DOP table; the object a caller
        still holds carries the volatile state the crash lost, and a
        recovery point taken from it would overwrite the durable one.
        """
        if self._active.get(dop.dop_id) is not dop:
            raise TransactionError(
                f"DOP {dop.dop_id!r}: this handle is not a DOP active "
                f"on {self.workstation!r} (crashed, recovered or "
                f"finished?)")

    def _take_recovery_point(self, dop: DesignOperation,
                             reason: str) -> None:
        """A full-image point (interval, savepoint, restore, suspend);
        a checkout's point is :meth:`checkout`'s."""
        dop.delta_base = self.recovery.take(
            dop.dop_id, dop.context, dop.savepoints, self.clock.now,
            reason)
        dop.work_since_recovery_point = 0.0
        if self.trace.enabled:
            self._record("recovery_point", dop.dop_id, reason=reason)

    # -- Begin-of-DOP -----------------------------------------------------------------

    def begin_dop(self, da_id: str, tool: str) -> DesignOperation:
        """Begin-of-DOP: create and activate a new design operation."""
        self.node.require_up()
        dop = DesignOperation(
            dop_id=self.ids.next("dop"),
            da_id=da_id,
            workstation=self.workstation,
            tool=tool,
            started_at=self.clock.now,
        )
        dop.require("activate")
        dop.transition(DopState.ACTIVE)
        self._active[dop.dop_id] = dop
        self._record("begin_dop", dop.dop_id, da=da_id, tool=tool)
        return dop

    # -- checkout -----------------------------------------------------------------------

    def checkout(self, dop: DesignOperation, *dov_ids: str,
                 derivation_lock: bool = False
                 ) -> tuple[DesignObjectVersion, ...]:
        """Check a read set of DOVs out into the DOP's context,
        buffer-first; returns their versions in order.

        With an object buffer, a resident version the DOP's DA is
        authorized for is served locally — zero network events.  A
        miss (or a derivation-lock request, which always needs the
        server) goes through the server's scope + derivation-lock
        checks, then the payload is shipped size-aware over the LAN
        and installed in the buffer under a read lease.  The DOVs are
        fetched and installed one after the other, as separate
        checkouts would; afterwards ONE recovery point covers the set,
        so a crash never repeats a request (Sect.5.2).  When a DOV
        fails, the point covering those installed before it is stored
        before the error propagates; an empty set stores nothing.
        """
        if dop.state is not _ACTIVE or self._active.get(dop.dop_id) is not dop:
            dop.require("checkout")     # raises: checkout needs ACTIVE
            self._require_running(dop)  # raises
        now = self.clock.now
        # the versions installed so far, and the positions among them
        # that the server shipped
        buf, dovs, fetched = None if derivation_lock else self.buffer, (), ()
        try:
            for dov_id in dov_ids:
                if buf is None or (dov := buf.get(dov_id, dop.da_id)) is None:
                    dov = self.rpc.call(
                        self.workstation, self.server_tm.node_id,
                        "checkout", dop.da_id, dop.dop_id, dov_id,
                        derivation_lock, workstation=self.workstation,
                        lease=self.buffer is not None,
                        renew=(now - self._last_renewal >= self._renewal_half
                               and self._consume_renewal_window(now)))
                    self._ship_payload(dov, dop.da_id)
                    fetched += (len(dovs),)
                elif now - self._last_renewal >= self._renewal_half \
                        and self._claim_renewal_window(now):
                    # a hit shows the buffer is live: renew the leases
                    # once the TTL budget is half spent (renew_leases)
                    self.renew_leases()
                # the frozen payload is shared; a tool writes the
                # context's own keys, never into it
                dop.context.data.update(dov.data)
                dovs += (dov,)
        finally:
            # one point for the DOVs installed, also when one of the
            # set failed: none of them is requested twice
            if dovs:
                dop.input_dovs += dov_ids[:len(dovs)]
                dop.context.checked_out += dov_ids[:len(dovs)]
                dop.delta_base = self.recovery.take(
                    dop.dop_id, dop.context, dop.savepoints, now,
                    "checkout", dop.delta_base, dovs)
                dop.work_since_recovery_point = 0.0
                if self.trace.enabled:
                    # the set's rows come with its point: a set of one
                    # traces as a single checkout always did
                    for index, dov_id in enumerate(dov_ids[:len(dovs)]):
                        self._record("checkout", dov_id, dop=dop.dop_id,
                                     cached=index not in fetched)
                    self._record("recovery_point", dop.dop_id,
                                 reason="checkout")
        return dovs

    def _ship_payload(self, dov: DesignObjectVersion, da_id: str) -> None:
        """Account the size-aware shipment of a fetched DOV payload.

        The checkout RPC itself is control traffic; the version's data
        travels as a separate sized message whose delay scales with
        the payload bytes.  With a buffer the delivery installs the
        version (an ordinary timed kernel event under the concurrent
        kernel); without one the bytes are still shipped — and paid —
        on every read.
        """
        deliver = _nothing if self.buffer is None \
            else partial(self.buffer.put, dov, da_id)
        size = dov.payload_size
        delay = self.rpc.network.post(
            self.server_tm.node_id, self.workstation, deliver,
            label=f"dov-ship:{dov.dov_id}->{self.workstation}",
            size=size)
        self.bytes_fetched += size
        self.fetch_time += delay

    def _consume_renewal_window(self, now: float) -> bool:
        """True when an outgoing control message should carry renewal
        metadata (the piggyback path).

        Same ttl/2 window as the dedicated renewal a buffer hit sends,
        and claiming it stamps the window — so a buffer hit right after
        a piggybacked renewal does NOT also send the dedicated message.
        The dedicated message stays the fallback for workstations that
        only hit their buffer (no control message in flight to ride).
        """
        if not self._claim_renewal_window(now):
            return False
        self.renewals_piggybacked += 1
        return True

    def _claim_renewal_window(self, now: float) -> bool:
        """True, and the window stamped, when ttl/2 of simulated time
        has passed at *now* since the last renewal; TTL regime with a
        buffer only.

        Renewals are driven by actual buffer use and outgoing control
        messages, so an idle workstation stops renewing and its leases
        decay out of the table by expiry — the bound the TTL design
        buys.
        """
        last = self._last_renewal
        if last == -math.inf:
            # anchor the window at first use: the leases were granted
            # moments ago, their budget is essentially unspent
            self._last_renewal = now
            return False
        if now - last < self._renewal_half:
            return False
        self._last_renewal = now
        return True

    def renew_leases(self) -> float:
        """Send one metadata-only renewal message for ALL held leases.

        A single small LAN message (no payload bytes re-ship) extends
        every lease this workstation holds by a fresh TTL; delivery is
        an ordinary timed kernel event, so an expiry racing the
        in-flight renewal resolves deterministically — and a lease
        that expired first stays dead (renewals never resurrect).
        Returns the transport delay of the message.
        """
        server = self.server_tm
        workstation = self.workstation
        delay = self.rpc.network.post(
            workstation, server.node_id,
            lambda: server.renew_leases(workstation),
            label=f"lease-renew:{workstation}",
            size=server.invalidation_bytes)
        self._record("lease_renewal", workstation)
        return delay

    # -- tool processing ----------------------------------------------------------------

    def work(self, dop: DesignOperation, effort: float,
             mutate: Callable[[DopContext], None] | None = None,
             advance_clock: bool = True) -> None:
        """Apply *effort* simulated minutes of tool work to the context.

        Advances the simulated clock, applies the tool's mutation, and
        takes a periodic recovery point every :data:`POINT_INTERVAL`.
        Under the concurrent kernel the clock is driven by the event
        times themselves — those callers pass ``advance_clock=False``
        because the kernel already sits at the work's finish instant.
        """
        dop.require("work")
        self._require_running(dop)
        self.node.require_up()
        if advance_clock:
            self.clock.advance(effort)
        if mutate is not None:
            # the tool may change anything: the next point is an image
            dop.delta_base = None
            mutate(dop.context)
        dop.context.work_done += effort
        dop.work_since_recovery_point += effort
        if dop.work_since_recovery_point >= POINT_INTERVAL:
            self._take_recovery_point(dop, "interval")

    # -- savepoints -------------------------------------------------------------------------

    def save(self, dop: DesignOperation, name: str) -> None:
        """Designer-initiated Save (Sect.4.3)."""
        dop.require("save")
        self._require_running(dop)
        dop.savepoints.save(name, dop.context)
        # savepoints are implemented with the recovery-point mechanism
        self._take_recovery_point(dop, f"savepoint:{name}")
        self._record("save", dop.dop_id, savepoint=name)

    def restore(self, dop: DesignOperation, name: str | None = None) -> None:
        """Designer-initiated Restore: roll back to a marked state."""
        dop.require("restore")
        self._require_running(dop)
        dop.context = dop.savepoints.restore(name)
        # make the wipe-out durable: without a point here a crash would
        # resurrect the work and the savepoints the restore discarded
        self._take_recovery_point(
            dop, f"restore:{dop.savepoints.names()[-1]}")
        self._record("restore", dop.dop_id, savepoint=name or "<latest>")

    # -- suspend / resume ----------------------------------------------------------------------

    def suspend(self, dop: DesignOperation) -> None:
        """Suspend the DOP; its context is made persistent."""
        dop.require("suspend")
        self._require_running(dop)
        self._take_recovery_point(dop, "suspend")
        dop.transition(DopState.SUSPENDED)
        self._record("suspend", dop.dop_id)

    def resume(self, dop: DesignOperation) -> None:
        """Resume a suspended DOP; state equals the suspend-time state."""
        dop.require("resume")
        self._require_running(dop)
        context, savepoints, _ = self.recovery.restore(dop.dop_id)
        dop.context = context
        dop.savepoints = savepoints
        dop.delta_base = None
        dop.transition(DopState.ACTIVE)
        self._record("resume", dop.dop_id)

    # -- checkin -----------------------------------------------------------------------------------

    def checkin(self, dop: DesignOperation, dot_name: str,
                data: dict[str, Any] | None = None,
                parents: list[str] | None = None) -> CheckinResult:
        """Check in the derived DOV.

        **Write-through** (default): ships the payload as a sized LAN
        message and commits it immediately — one sized upload and one
        control RPC per checkin, three messages.  On success the
        new DOV id is recorded on the DOP.  On an integrity violation
        the result carries the server's reason — the 'checkin failure'
        situation the client-TM "has to indicate ... to the DM"
        (Sect.5.2).

        **Write-back** (``write_back=True``): zero network and zero
        kernel events here — the version is staged as a *dirty*,
        provisional buffer entry and ships with the next group flush
        (End-of-DOP, lease recall, or explicit :meth:`flush`).
        Integrity validation is deferred to the flush; a workstation
        crash before the flush drops the entry (recovered from
        repository state).
        """
        if dop.state is not DopState.ACTIVE:
            dop.require("checkin")      # raises: checkin needs ACTIVE
        if self._active.get(dop.dop_id) is not dop:
            self._require_running(dop)  # raises
        payload = data if data is not None else dict(dop.context.data)
        # freeze once on the workstation: the upload sizing below,
        # the server's staging walk and the durable DOV all reuse
        # this one canonical form (and its cached size)
        payload = freeze_payload(payload)
        lineage = parents if parents is not None else list(dop.input_dovs)
        buffer = self.buffer
        if self.write_back and buffer is not None:
            return self._checkin_write_back(dop, dot_name, payload,
                                            lineage)
        # one clock read: nothing in the commit drive moves the clock
        now = self.clock.now
        # the request carries a renewal once the TTL budget is half spent
        renew = now - self._last_renewal >= self._renewal_half \
            and self._consume_renewal_window(now)
        result = self.gateway.single_checkin(
            dop.da_id, dot_name, payload, lineage,
            lease=buffer is not None, renew=renew)
        if result.committed:
            dov = result.dov
            dop.output_dov = dov.dov_id
            if buffer is not None:
                # checkin results stay resident: the workstation just
                # produced these bytes, so the next checkout of the new
                # frontier is a local hit
                buffer.put(dov, dop.da_id)
            if self.trace.enabled:
                self._record("checkin", dov.dov_id, dop=dop.dop_id)
            return tuple.__new__(CheckinResult, (
                True, dov, "", result.outcome, False))
        self._record("checkin_failed", dop.dop_id, reason=result.reason)
        return CheckinResult(False, reason=result.reason,
                             outcome=result.outcome)

    # -- write-back: deferred checkin + group flush ---------------------------------

    def _checkin_write_back(self, dop: DesignOperation, dot_name: str,
                            payload: dict[str, Any],
                            lineage: list[str]) -> CheckinResult:
        """Stage a checkin as a dirty provisional buffer entry."""
        resolved_lineage = [self.resolve(p) for p in lineage]
        provisional_id = self.ids.next(f"wb-{self.workstation}")
        dov = DesignObjectVersion(
            dov_id=provisional_id, dot_name=dot_name,
            data=payload,
            created_by=dop.da_id,
            created_at=self.clock.now,
            parents=tuple(resolved_lineage))
        # the provisional DOV's (frozen) payload — the flush ships this
        # exact object and the server stages it without a copy or
        # re-walk, so the durable version shares it too
        record = CheckinRecord(provisional_id, dop.da_id, dot_name,
                               dov.data, resolved_lineage, dop.dop_id)
        before = set(self.buffer.dirty_ids())
        self.buffer.put_dirty(dov, dop.da_id, record)
        # record which provisional ids this entry coalesced away, so
        # stale handles (an earlier DOP's output_dov) keep resolving
        for parent in resolved_lineage:
            if parent in before \
                    and parent not in self.buffer:
                self._superseded[parent] = provisional_id
        dop.output_dov = provisional_id
        self._record("checkin_deferred", provisional_id,
                     dop=dop.dop_id,
                     dirty=self.buffer.dirty_count)
        return CheckinResult(True, dov=dov, provisional=True)

    def flush(self) -> GroupCommitResult | None:
        """Ship the buffer's dirty set as one batched group checkin.

        Collect the dirty records, hand them to the gateway's
        :meth:`~repro.txn.gateway.CommitGateway.group_checkin` (one
        sized batch message and ONE control RPC that commits it — the
        control RPC also carries this workstation's lease renewal when one is
        due), apply the outcome.  On commit the buffer rebinds the
        provisional entries to the durable versions the server
        assigned (they stay resident under fresh leases) and
        :meth:`resolve` learns the id mapping.  On abort — integrity
        rejection or a server crash mid-batch — *nothing* becomes
        durable; the entries stay dirty so a later flush (e.g. after
        the server restarts) can retry.  Returns None when there is
        nothing to ship or a flush is already running (a recall
        raised by the flush's own commit).

        Under the concurrent kernel the batch message and the
        resulting lease invalidations are ordinary timed events in
        deterministic batch order, so identically seeded runs remain
        trace-identical.
        """
        if not (self.write_back and self.buffer.dirty_count) \
                or self.gateway.flushing:
            return None
        dirty = self.buffer.dirty_entries()
        records = [entry.record for entry in dirty]
        sizes = [entry.size for entry in dirty]
        result = self.gateway.group_checkin(
            records, sizes,
            renew=self._consume_renewal_window(self.clock.now))
        if not result.committed:
            self._record("flush_failed", self.workstation,
                         reason=result.reason, count=len(records))
            return result
        durable = {dov.dov_id: dov for dov in result.dovs}
        self.buffer.rebind({provisional: durable[durable_id]
                            for provisional, durable_id
                            in result.mapping.items()})
        self._resolved.update(result.mapping)
        for dop in self._active.values():
            if dop.output_dov in result.mapping:
                dop.output_dov = result.mapping[dop.output_dov]
        self.flushes += 1
        self.flushed_checkins += len(records)
        self.bytes_flushed += sum(sizes)
        self._record("flush", self.workstation, count=len(records),
                     bytes=sum(sizes))
        return result

    def resolve(self, dov_id: str) -> str:
        """The durable id a provisional (write-back) id ended up as.

        Follows coalescing (a provisional version superseded before it
        shipped forwards to its successor) and then the flush mapping;
        ids that were never provisional come back unchanged.  Useful
        to callers that stored a provisional handle (e.g. a DOP's
        ``output_dov`` logged before the flush).
        """
        seen: set[str] = set()
        while dov_id in self._superseded and dov_id not in seen:
            seen.add(dov_id)
            dov_id = self._superseded[dov_id]
        return self._resolved.get(dov_id, dov_id)

    # -- End-of-DOP ------------------------------------------------------------------------------------

    def _finish(self, dop: DesignOperation, state: DopState) -> None:
        # release derivation locks first, then drop savepoints and the
        # recovery point — the Sect.5.2 order; the DM learns the
        # outcome from the End-of-DOP call itself.
        self.rpc.call(self.workstation, self.server_tm.node_id,
                      "release_derivation_locks", dop.da_id,
                      list(dop.input_dovs))
        dop.savepoints.clear()
        self.recovery.remove(dop.dop_id)
        dop.transition(state)
        dop.finished_at = self.clock.now
        self._active.pop(dop.dop_id, None)
        self._record("end_dop", dop.dop_id, state=state.value)

    def drop_dop(self, dop: DesignOperation) -> None:
        """Forget a DOP whose start could not complete (server down
        before the first checkout).  Purely local volatile cleanup —
        nothing reached the server, so there is nothing to abort
        there; the caller begins a fresh DOP on retry."""
        self._require_running(dop)
        del self._active[dop.dop_id]
        self.recovery.remove(dop.dop_id)
        self._record("drop_dop", dop.dop_id)

    def commit_dop(self, dop: DesignOperation) -> None:
        """End-of-DOP (commit): close processing after a final state.

        In write-back mode this is flush trigger 1: the workstation's
        dirty set ships as one group checkin *before* the Sect.5.2
        close-out sequence runs, so the DOP's results are durable by
        the time the DM is messaged.  The DOP's ``output_dov`` is
        rewritten from its provisional to its durable id.

        A *failed* flush (deferred integrity violation)
        raises :class:`TransactionError` instead of committing: the
        DOP stays ACTIVE with its dirty entries intact, so the caller
        can correct and retry the checkin — or :meth:`abort_dop`,
        which discards them.  This is where write-back's deferred
        validation surfaces; write-through reports the same failure
        earlier, on the checkin itself.
        """
        dop.require("commit")
        self._require_running(dop)
        flushed = self.flush()
        if flushed is not None and not flushed.committed:
            raise TransactionError(
                f"End-of-DOP flush of {dop.dop_id!r} aborted: "
                f"{flushed.reason}")
        if dop.output_dov is not None:
            dop.output_dov = self.resolve(dop.output_dov)
        self._finish(dop, DopState.COMMITTED)

    def abort_dop(self, dop: DesignOperation) -> None:
        """End-of-DOP (abort): the DOP "will abort its activities".

        Unflushed write-back checkins of this DOP are discarded — they
        never reached the server, so there is nothing to undo there.
        The coalescing forward map retires the discarded ids too, so
        :meth:`resolve` never forwards to an id that can no longer
        become durable.
        """
        dop.require("abort")
        self._require_running(dop)
        if self.write_back and self.buffer is not None:
            discarded = set(self.buffer.discard_dirty(dop.dop_id))
            if discarded:
                self._superseded = {
                    key: value for key, value
                    in self._superseded.items()
                    if key not in discarded
                    and value not in discarded}
        self._finish(dop, DopState.ABORTED)

    # -- workstation-crash recovery -----------------------------------------------------------------------

    def recover_dop(self, dop_id: str, da_id: str, tool: str
                    ) -> tuple[DesignOperation, float]:
        """Rebuild a crashed DOP from its most recent recovery point.

        Returns the re-activated DOP and the simulated time the recovery
        point was taken at (the caller knows the crash time and derives
        the lost work as ``context.work_done`` deltas).  Raises
        :class:`RecoveryError` when no point exists — then the DOP is
        lost entirely and must restart from its beginning.  The new
        object carries no ``delta_base``: the first point it takes is a
        full image again.
        """
        self.node.require_up()
        context, savepoints, point = self.recovery.restore(dop_id)
        dop = DesignOperation(
            dop_id=dop_id, da_id=da_id, workstation=self.workstation,
            tool=tool, started_at=point.taken_at,
        )
        dop.transition(DopState.ACTIVE)
        dop.context = context
        dop.savepoints = savepoints
        dop.input_dovs = list(context.checked_out)
        self._active[dop_id] = dop
        self._record("recover_dop", dop_id, from_point=point.reason,
                     taken_at=point.taken_at)
        return dop, point.taken_at


def register_server_endpoints(rpc: TransactionalRpc,
                              server_tm: ServerTM) -> None:
    """Expose the server-TM operations as transactional RPC endpoints."""
    rpc.register(server_tm.node_id, "checkout", server_tm.checkout)
    rpc.register(server_tm.node_id, "checkin", server_tm.checkin)
    rpc.register(server_tm.node_id, "release_derivation_locks",
                 server_tm.release_derivation_locks)
