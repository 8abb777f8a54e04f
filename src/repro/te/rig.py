"""The TE stack, wired in one place.

The paper has exactly one TE architecture: a client-TM per
workstation, one server-TM in front of the repository (Sect.5.1),
insulated from crashes by the network (Sect.5.4).  :class:`TeRig`
builds it — kernel, clock, LAN with its server node, repository,
server-TM, transactional RPC, and per workstation an object buffer
plus a client-TM — and every user of the stack constructs this class: :class:`~repro.core.system.ConcordSystem` *is*
a rig with the AC/DC levels on top, the TE-only scenarios (T8, T9,
the campaign soak, the perf microbenchmarks) use it bare.

Two things are guaranteed by construction rather than by convention:

* the repository's crash/recover hooks sit on the server node
  **before** the server-TM's own, so a server crash always takes the
  staged checkins with it and, on restart, the repository has redone
  its WAL by the time the server-TM re-validates the workstation
  buffers against its stamps;
* the numbers that reach the cost model are validated once, here and
  in :class:`~repro.net.network.Network`.
"""

from __future__ import annotations

from typing import Any

from repro.net.network import Network, Node
from repro.net.rpc import TransactionalRpc
from repro.repository.repository import DesignDataRepository
from repro.sim.clock import SimClock
from repro.sim.kernel import Kernel
from repro.te.object_buffer import ObjectBuffer
from repro.te.transaction_manager import (
    ClientTM,
    ServerTM,
    register_server_endpoints,
)
from repro.util.errors import ConcordError
from repro.util.ids import IdGenerator
from repro.util.trace import EventTrace


class TeRig:
    """Client/server-TM stack over one repository, LAN and kernel."""

    def __init__(self, trace: bool = True,
                 lan_latency: float = 0.010,
                 repository: Any = None,
                 jitter: float = 0.0,
                 seed: int = 0,
                 object_buffers: bool = True,
                 bandwidth: float = 1_000_000.0,
                 write_back: bool = False,
                 lease_ttl: float | None = None) -> None:
        if lease_ttl is not None and (isinstance(lease_ttl, bool)
                                      or not lease_ttl > 0):
            raise ConcordError(
                f"lease_ttl={lease_ttl!r}: must be > 0, or None for "
                f"recall-only leases")
        if write_back and not object_buffers:
            raise ConcordError(
                "write_back=True needs object_buffers=True: deferred "
                "checkins are staged in the workstation's buffer")
        self.clock = SimClock()
        self.ids = IdGenerator()
        self.trace = EventTrace(enabled=trace)
        #: the unified discrete-event kernel every layer schedules on
        self.kernel = Kernel(self.clock)
        self.network = Network(self.clock, lan_latency=lan_latency,
                               jitter=jitter, seed=seed,
                               bandwidth=bandwidth)
        self.network.attach_kernel(self.kernel)
        self.server: Node = self.network.add_server()
        self.rpc = TransactionalRpc(self.network)
        # any object with the DesignDataRepository interface works here,
        # e.g. a FederatedRepository — the paper's Sect.6 claim that
        # distributed data management "does not influence the major
        # model of operation"
        self.repository = repository if repository is not None \
            else DesignDataRepository(self.ids)
        # registered BEFORE the server-TM's own hooks: on restart the
        # repository has redone its WAL by the time the server-TM
        # re-validates the workstation buffers against its stamps
        self.server.on_crash.append(lambda: self.repository.crash())
        self.server.on_restart.append(lambda: self.repository.recover())
        self.server_tm = ServerTM(self.repository, self.network,
                                  trace=self.trace, clock=self.clock,
                                  lease_ttl=lease_ttl)
        register_server_endpoints(self.rpc, self.server_tm)
        #: False = caching off: every checkout re-ships its payload
        self._object_buffers = object_buffers
        #: every client-TM of this rig checks in write-back (or not)
        self._write_back = write_back
        self._buffers: dict[str, ObjectBuffer] = {}
        self._client_tms: dict[str, ClientTM] = {}

    def open_scope(self) -> None:
        """Admit every DA to every DOV.

        For rigs whose object pool is shared by construction: they
        measure data shipping, not authorization (scope checks are the
        CM's business and F-series ground).
        """
        self.server_tm.scope_check = lambda da_id, dov_id: True

    # -- topology ------------------------------------------------------------

    def add_workstation(self, name: str) -> ClientTM:
        """Register a designer workstation with its client-TM.

        With object buffers on, the workstation gets its DOV object
        buffer; the client-TM serves checkout hits from it and the
        server-TM tracks its read leases for invalidation.
        """
        self.network.add_workstation(name)
        buffer = None
        if self._object_buffers:
            buffer = self._buffers[name] = ObjectBuffer(name)
        client_tm = self._client_tms[name] = ClientTM(
            name, self.server_tm, self.rpc, self.clock, ids=self.ids,
            trace=self.trace, buffer=buffer, write_back=self._write_back)
        return client_tm

    def client_tm(self, workstation: str) -> ClientTM:
        """The client-TM of a workstation."""
        try:
            return self._client_tms[workstation]
        except KeyError:
            raise ConcordError(
                f"unknown workstation {workstation!r}") from None

    def client_tms(self) -> list[ClientTM]:
        """Every client-TM, in workstation registration order."""
        return list(self._client_tms.values())

    def object_buffer(self, workstation: str) -> ObjectBuffer | None:
        """The DOV object buffer of a workstation (None = caching off)."""
        if workstation not in self._client_tms:
            raise ConcordError(f"unknown workstation {workstation!r}")
        return self._buffers.get(workstation)

    def buffers(self) -> list[ObjectBuffer]:
        """Every object buffer, in workstation registration order."""
        return list(self._buffers.values())

    # -- server failure ------------------------------------------------------

    def crash_server(self) -> None:
        """Crash the server: the repository's staged checkins, the
        lease table and every other volatile server state vanish."""
        self.network.crash_node(self.server.node_id)

    def restart_server(self) -> None:
        """Restart the server; the registered hooks run in order.

        The repository redoes its WAL first; then the server-TM — whose
        lease table died with the server — re-validates each registered
        buffer against fresh repository stamps (``describe_many``,
        metadata only): entries whose stamp still matches stay resident
        under a new read lease, so warm caches survive recovery without
        re-shipping a byte, and stale or vanished entries drop.
        """
        self.network.restart_node(self.server.node_id)
