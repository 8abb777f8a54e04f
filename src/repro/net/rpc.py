"""Transactional RPC.

The paper assumes "reliable communication protocols (transactional RPC
...) which insulate the cooperation protocols from network failures and
workstation crashes" (Sect.5.4).  :class:`TransactionalRpc` provides
that abstraction over the simulated LAN:

* **at-most-once execution** — every call carries a unique call id; the
  callee keeps a durable reply cache, so a retried call returns the
  cached reply instead of re-executing;
* **durable handler dispatch** — handlers are registered per node under
  stable names, so a restarted node serves the same interface;
* **failure surface** — when either end is down the caller sees an
  :class:`RpcError` and may retry after the node restarts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.net.network import Network
from repro.util.errors import NodeDownError, RpcError


#: "no cached reply" — distinct from a cached reply of ``None``
_NO_REPLY = object()


@dataclass(frozen=True)
class RpcResult:
    """Outcome of one RPC: the handler's return value + transport cost."""

    value: Any
    latency: float
    cached: bool = False


class TransactionalRpc:
    """At-most-once request/response calls between LAN nodes."""

    def __init__(self, network: Network) -> None:
        self.network = network
        #: node_id -> handler name -> callable
        self._handlers: dict[str, dict[str, Callable[..., Any]]] = {}
        self._next_call_id = 0
        self.calls_made = 0
        self.replies_cached = 0

    # -- registration -------------------------------------------------------

    def register(self, node_id: str, name: str,
                 handler: Callable[..., Any]) -> None:
        """Expose *handler* as RPC endpoint *name* on *node_id*."""
        self.network.node(node_id)  # validates the node exists
        self._handlers.setdefault(node_id, {})[name] = handler

    # -- calling --------------------------------------------------------------

    def call(self, src: str, dst: str, name: str, *args: Any,
             call_id: str | None = None, **kwargs: Any) -> RpcResult:
        """Invoke endpoint *name* on *dst* from *src*.

        A repeated *call_id* returns the durably cached reply without
        re-executing the handler (at-most-once).  Application-level
        exceptions raised by the handler propagate to the caller —
        they are *results*, not transport failures.
        """
        if call_id is None:
            self._next_call_id += 1
            call_id = f"rpc-{self._next_call_id}"
        dst_node = self.network.node(dst)

        # request message
        try:
            latency = self.network.send(src, dst)
        except NodeDownError as exc:
            raise RpcError(f"call {name!r} to {dst!r} failed: {exc}") from exc

        cache_key = f"rpc-reply:{call_id}"
        cached = dst_node.stable.get(cache_key, _NO_REPLY)
        if cached is not _NO_REPLY:
            self.replies_cached += 1
            latency += self.network.send(dst, src)
            return RpcResult(cached, latency, cached=True)

        handlers = self._handlers.get(dst, {})
        if name not in handlers:
            raise RpcError(f"node {dst!r} has no endpoint {name!r}")
        self.calls_made += 1
        value = handlers[name](*args, **kwargs)
        # the reply itself is the cached value: replies are immutable
        # (scalars, tuples, DOVs), and stable storage refuses any other
        dst_node.stable.put(cache_key, value)

        # response message
        try:
            latency += self.network.send(dst, src)
        except NodeDownError as exc:
            # the handler ran; the caller crashed before the reply — a
            # retry after restart will hit the reply cache.
            raise RpcError(
                f"reply of {name!r} lost: caller {src!r} down") from exc
        return RpcResult(value, latency)
