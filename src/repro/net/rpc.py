"""Transactional RPC.

The paper assumes "reliable communication protocols (transactional RPC
...) which insulate the cooperation protocols from network failures and
workstation crashes" (Sect.5.4).  :class:`TransactionalRpc` provides
that abstraction over the simulated LAN:

* **one execution per call** — a call runs its handler once; a caller
  that retries after a crash makes a new call under a new transaction
  id.  No reply is kept for a retry to find: what the server-TM's
  endpoints do lives in volatile server state, which a crash erases,
  so a stored reply would outlive what it answered;
* **durable handler dispatch** — handlers are registered per node under
  stable names, so a restarted node serves the same interface;
* **failure surface** — when either end is down the caller sees an
  :class:`RpcError` and may retry after the node restarts.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.net.network import Network
from repro.util.errors import NodeDownError, RpcError


class TransactionalRpc:
    """Request/response calls between LAN nodes."""

    def __init__(self, network: Network) -> None:
        self.network = network
        #: node_id -> handler name -> callable
        self._handlers: dict[str, dict[str, Callable[..., Any]]] = {}

    # -- registration -------------------------------------------------------

    def register(self, node_id: str, name: str,
                 handler: Callable[..., Any]) -> None:
        """Expose *handler* as RPC endpoint *name* on *node_id*."""
        self.network.node(node_id)  # validates the node exists
        self._handlers.setdefault(node_id, {})[name] = handler

    # -- calling --------------------------------------------------------------

    def call(self, src: str, dst: str, name: str, *args: Any,
             **kwargs: Any) -> Any:
        """Invoke endpoint *name* on *dst* from *src*; return its value.

        Application-level exceptions raised by the handler propagate to
        the caller — they are *results*, not transport failures.
        """
        network = self.network
        # request message
        try:
            network.send(src, dst)
        except NodeDownError as exc:
            raise RpcError(f"call {name!r} to {dst!r} failed: {exc}") from exc

        try:
            handler = self._handlers[dst][name]
        except KeyError:
            raise RpcError(
                f"node {dst!r} has no endpoint {name!r}") from None
        value = handler(*args, **kwargs)

        # response message
        try:
            network.send(dst, src)
        except NodeDownError as exc:
            # the handler ran; the caller crashed before the reply
            raise RpcError(
                f"reply of {name!r} lost: caller {src!r} down") from exc
        return value
