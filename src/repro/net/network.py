"""Simulated workstation/server LAN.

"Design is generally performed on a network of machines, where the
prevailing architecture is a workstation/server environment (connected
via a local area network)" (Sect.5.1).  This module models that
environment deterministically:

* :class:`Node` — a workstation or the server, with *stable storage*
  (survives crashes) plus registered crash/restart hooks, through which
  components (TMs, DMs, repository) drop the volatile state they own
  and recover;
* :class:`Network` — synchronous message transport with per-hop cost
  accounting (LAN vs same-machine), used by the RPC and 2PC layers and
  by experiment T3's message/latency counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.clock import SimClock
from repro.util.errors import NetworkError, NodeDownError, StorageError
from repro.util.rng import SeededRng

if TYPE_CHECKING:  # avoid the net <-> sim package-init cycle
    from repro.sim.kernel import Kernel


class NodeKind(str, Enum):
    """Role of a machine in the workstation/server architecture."""

    WORKSTATION = "workstation"
    SERVER = "server"


#: the node id of the (single logical) server
SERVER = "server"

_IMMUTABLE_SCALARS = (str, int, float, bool, bytes, type(None))

#: recursion cap for :func:`_is_immutable`.  Nesting deeper than this
#: is conservatively treated as *mutable*: the walk stays bounded and a
#: value it cannot vouch for is refused, never stored on trust.
IMMUTABLE_CHECK_MAX_DEPTH = 4


def _is_immutable(value: Any, _depth: int = 0) -> bool:
    """True when *value* cannot be mutated through any reference.

    Covers the scalar types plus tuples/frozensets of immutables, up
    to :data:`IMMUTABLE_CHECK_MAX_DEPTH` levels of nesting.  At the
    cap the answer deliberately flips to False, so the guard can never
    vouch for a live reference it did not inspect.

    A type whose instances are immutable by construction says so with
    the structural marker ``__frozen_payload__`` (frozen design
    payloads, DOVs, recovery images, scripts) and answers in O(1) — no
    recursive inspection, and no import of the marked type's package:
    the marker is the whole protocol.
    """
    if type(value) in _IMMUTABLE_SCALARS:
        # exact types only: subclasses (str-enums, ...) may carry state
        return True
    if getattr(type(value), "__frozen_payload__", False):
        return True
    if _depth < IMMUTABLE_CHECK_MAX_DEPTH \
            and type(value) in (tuple, frozenset):
        return all(_is_immutable(item, _depth + 1) for item in value)
    return False


class StableStorage:
    """Crash-surviving key/value storage local to one node.

    A store of immutable values: :meth:`put` keeps the reference it is
    given and :meth:`get` hands the same object back, which is safe
    because no holder of it can change it.  A value that
    :func:`_is_immutable` cannot vouch for is refused — a component
    keeping a live reference to "persistent" state is exactly the bug
    class crash recovery must be robust against, so writers freeze
    what they persist once, where they produce it.
    """

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}
        self.writes = 0

    def put(self, key: str, value: Any) -> None:
        """Durably store the immutable *value* under *key*."""
        # the marker answers for the common record types without a
        # call; everything else goes through the full check
        if not getattr(type(value), "__frozen_payload__", False) \
                and not _is_immutable(value):
            raise StorageError(
                f"stable storage key {key!r}: refusing a mutable "
                f"{type(value).__name__} (freeze it before the put)")
        self._data[key] = value
        self.writes += 1

    def get(self, key: str, default: Any = None) -> Any:
        """Read back a durable value (the stored object itself)."""
        return self._data.get(key, default)

    def delete(self, key: str) -> bool:
        """Remove a key; True when it existed."""
        return self._data.pop(key, None) is not None

    def keys(self) -> list[str]:
        """All keys, sorted."""
        return sorted(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)


@dataclass
class Node:
    """One machine: id, role, stable storage, crash/restart hooks."""

    node_id: str
    kind: NodeKind
    stable: StableStorage = field(default_factory=StableStorage)
    up: bool = True
    #: callbacks invoked on crash (components drop volatile state here)
    on_crash: list[Callable[[], None]] = field(default_factory=list)
    #: callbacks invoked on restart (components run recovery here)
    on_restart: list[Callable[[], None]] = field(default_factory=list)
    crash_count: int = 0

    def crash(self) -> None:
        """Crash this node: the hooks drop their volatile state."""
        self.up = False
        self.crash_count += 1
        for hook in self.on_crash:
            hook()

    def restart(self) -> None:
        """Bring the node back up and run registered recovery hooks."""
        self.up = True
        for hook in self.on_restart:
            hook()

    def require_up(self) -> None:
        """Raise :class:`NodeDownError` unless the node is up."""
        if not self.up:
            raise NodeDownError(self.node_id)


class Network:
    """Message transport between registered nodes.

    Two delivery modes share one cost model:

    * **synchronous handoff** (:meth:`send`) — the classic
      request/response accounting used by the RPC and 2PC layers;
    * **queued asynchronous delivery** (:meth:`post`) — when a
      :class:`~repro.sim.kernel.Kernel` is attached *and running*, a
      posted message is scheduled as a kernel event at ``now +
      per-hop cost + seeded jitter``; deliveries to a crashed node are
      parked and flushed when it restarts.  Outside a kernel run,
      :meth:`post` degrades to immediate handoff, so sequential
      callers keep their synchronous semantics.
    """

    def __init__(self, clock: SimClock | None = None,
                 lan_latency: float = 0.010,
                 local_latency: float = 0.001,
                 jitter: float = 0.0,
                 seed: int = 0,
                 bandwidth: float = 1_000_000.0) -> None:
        # validated once, here: a bad number would otherwise surface
        # as a raw fault on the first sized message, or not at all
        for name, value in (("lan_latency", lan_latency),
                            ("local_latency", local_latency),
                            ("jitter", jitter)):
            if isinstance(value, bool) \
                    or not (math.isfinite(value) and value >= 0):
                raise NetworkError(
                    f"{name}={value!r}: must be finite and >= 0")
        if isinstance(bandwidth, bool) \
                or not (math.isfinite(bandwidth) and bandwidth > 0):
            raise NetworkError(
                f"bandwidth={bandwidth!r}: must be finite and > 0")
        self.clock = clock or SimClock()
        self.lan_latency = lan_latency
        self.local_latency = local_latency
        #: upper bound of the uniform per-message delivery jitter
        self.jitter = jitter
        #: modelled LAN throughput in payload bytes per simulated time
        #: unit — a message of *size* bytes adds ``size / bandwidth``
        #: to its transport delay (the data-shipping cost model)
        self.bandwidth = bandwidth
        self._rng = SeededRng(seed)
        #: the shared execution kernel, when one is attached
        self.kernel: "Kernel | None" = None
        self._nodes: dict[str, Node] = {}
        #: deliveries addressed to a crashed node, flushed on restart
        self._parked: dict[str, list[tuple[str, Callable[[], None]]]] = {}
        #: total messages sent (requests and responses each count once)
        self.messages_sent = 0
        #: asynchronous messages actually delivered
        self.messages_delivered = 0
        #: accumulated transport latency (simulated time units)
        self.total_latency = 0.0
        #: total payload bytes shipped over the LAN
        self.bytes_shipped = 0
        #: payload bytes sent, per source node
        self.bytes_sent_by: dict[str, int] = {}
        #: payload bytes received, per destination node
        self.bytes_received_by: dict[str, int] = {}
        #: batched messages sent (one LAN message, many payloads)
        self.batches_sent = 0
        #: payloads that travelled inside batched messages
        self.batched_payloads = 0

    # -- topology -------------------------------------------------------------

    def add_node(self, node_id: str, kind: NodeKind) -> Node:
        """Register a machine on the LAN."""
        if node_id in self._nodes:
            raise NetworkError(f"node {node_id!r} already registered")
        node = Node(node_id, kind)
        self._nodes[node_id] = node
        return node

    def add_server(self) -> Node:
        """Convenience: register the (single logical) server."""
        return self.add_node(SERVER, NodeKind.SERVER)

    def add_workstation(self, node_id: str) -> Node:
        """Convenience: register a designer workstation."""
        return self.add_node(node_id, NodeKind.WORKSTATION)

    def node(self, node_id: str) -> Node:
        """Look up a registered node."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node {node_id!r}") from None

    def nodes(self) -> list[Node]:
        """All nodes, in registration order."""
        return list(self._nodes.values())

    # -- kernel attachment -------------------------------------------------------

    def attach_kernel(self, kernel: "Kernel") -> "Network":
        """Schedule asynchronous deliveries on *kernel* from now on."""
        self.kernel = kernel
        return self

    # -- transport --------------------------------------------------------------
    #
    # One cost model: a message costs the hop latency — local when src
    # and dst are the same machine (the paper's DM-TM "main memory
    # communication"), LAN otherwise — plus ``size / bandwidth`` when
    # it carries *size* payload bytes (how workstation object buffers
    # turn working-set size into network cost), plus, when it is
    # queued on a running kernel, a seeded uniform jitter.  ``send``
    # and ``post`` read the tables and counters themselves: they run
    # once per message.

    def send(self, src: str, dst: str) -> float:
        """Account one control message src->dst (an RPC or 2PC hop);
        raises when either end is down.

        Returns the hop latency so callers can advance their own cost
        model; the network also accumulates it in
        :attr:`total_latency`.  Payload bytes travel by :meth:`post` /
        :meth:`post_batch`.
        """
        nodes = self._nodes
        node = nodes.get(src) or self.node(src)
        if not node.up:
            node.require_up()
        node = nodes.get(dst) or self.node(dst)
        if not node.up:
            node.require_up()
        self.messages_sent += 1
        latency = self.local_latency if src == dst else self.lan_latency
        self.total_latency += latency
        return latency

    def post(self, src: str, dst: str, deliver: Callable[[], None],
             label: str = "", size: int = 0) -> float:
        """Queued asynchronous delivery of one message src -> dst.

        While the attached kernel is running, *deliver* is scheduled as
        a kernel event after the latency-modelled delay; when *dst* is
        down at delivery time the message is parked and flushed on the
        node's restart ("reliable communication protocols ... insulate
        the cooperation protocols from ... workstation crashes",
        Sect.5.4).  Outside a kernel run the message is handed over
        synchronously — the sequential compatibility path.  Returns
        the transport delay accounted for this message.
        """
        self.messages_sent += 1
        delay = self.local_latency if src == dst else self.lan_latency
        if size > 0:
            self.bytes_shipped += size
            sent = self.bytes_sent_by
            sent[src] = sent.get(src, 0) + size
            received = self.bytes_received_by
            received[dst] = received.get(dst, 0) + size
            delay += size / self.bandwidth
        kernel = self.kernel
        if kernel is None or not kernel.running:
            # per-hop cost is accounted either way so sequential and
            # concurrent runs report comparable transport metrics
            # (jitter only applies to genuinely queued deliveries)
            self.total_latency += delay
            deliver()
            self.messages_delivered += 1
            return delay
        if self.jitter > 0.0:
            delay += self._rng.uniform(0.0, self.jitter)
        self.total_latency += delay
        label = label or f"deliver:{src}->{dst}"
        kernel.defer(delay, partial(self._deliver, dst, deliver, label),
                     label=label)
        return delay

    def post_batch(self, src: str, dst: str, deliver: Callable[[], None],
                   sizes: list[int], label: str = "") -> float:
        """Ship several payloads as **one** sized message src -> dst.

        The batching primitive of the write-back protocol: a group
        checkin ships the payload bytes of every deferred checkin in
        a single LAN message, so the per-message hop latency is paid
        once for the whole batch instead of once per payload (the
        byte-proportional part of the delay is unchanged — bandwidth
        is bandwidth).  Accounting: one message, ``sum(sizes)`` bytes,
        and the batch counters (:attr:`batches_sent`,
        :attr:`batched_payloads`) record the bundling.  Delivery
        semantics are exactly :meth:`post` — a kernel event when the
        kernel is running, synchronous handoff otherwise.
        """
        self.batches_sent += 1
        self.batched_payloads += len(sizes)
        return self.post(src, dst, deliver,
                         label=label or f"batch:{src}->{dst}",
                         size=sum(sizes))

    def _deliver(self, dst: str, deliver: Callable[[], None],
                 label: str) -> None:
        node = self._nodes.get(dst) or self.node(dst)
        if not node.up:
            self._parked.setdefault(dst, []).append((label, deliver))
            return
        self.messages_delivered += 1
        deliver()

    # -- failures -----------------------------------------------------------------

    def crash_node(self, node_id: str) -> None:
        """Crash one machine."""
        self.node(node_id).crash()

    def restart_node(self, node_id: str) -> None:
        """Restart one machine (runs its recovery hooks), then flush
        the asynchronous deliveries parked while it was down."""
        self.node(node_id).restart()
        for label, deliver in self._parked.pop(node_id, []):
            if self.kernel is not None and self.kernel.running:
                self.kernel.defer(0.0,
                                  partial(self._deliver, node_id,
                                          deliver, label),
                                  label=f"flush:{label}")
            else:
                self.messages_delivered += 1
                deliver()

    # -- traffic statistics --------------------------------------------------------

    def traffic_stats(self) -> dict[str, Any]:
        """Snapshot of every traffic counter (messages, latency, bytes)."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "total_latency": self.total_latency,
            "bytes_shipped": self.bytes_shipped,
            "bytes_sent_by": dict(self.bytes_sent_by),
            "bytes_received_by": dict(self.bytes_received_by),
            "batches_sent": self.batches_sent,
            "batched_payloads": self.batched_payloads,
        }

