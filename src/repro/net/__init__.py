"""Simulated LAN substrate: nodes, stable storage and transactional
RPC."""

from repro.net.network import Network, Node, NodeKind, StableStorage
from repro.net.rpc import TransactionalRpc

__all__ = [
    "Network",
    "Node",
    "NodeKind",
    "StableStorage",
    "TransactionalRpc",
]
