"""Unit tests for transactional RPC: calls and failures."""

from __future__ import annotations

import pytest

from repro.net.network import Network
from repro.net.rpc import TransactionalRpc
from repro.util.errors import RpcError


@pytest.fixture
def rig():
    network = Network()
    network.add_server()
    network.add_workstation("ws-1")
    rpc = TransactionalRpc(network)
    calls = []

    def add(a, b):
        calls.append((a, b))
        return a + b

    rpc.register("server", "add", add)
    return network, rpc, calls


class TestRpc:
    def test_basic_call(self, rig):
        __, rpc, calls = rig
        assert rpc.call("ws-1", "server", "add", 2, 3) == 5
        assert calls == [(2, 3)]

    def test_a_call_runs_its_handler_and_stores_nothing(self, rig):
        # a retry is a new call: no reply is kept for it to find
        network, rpc, calls = rig
        rpc.register("server", "listing", lambda: ["a", "b"])
        assert rpc.call("ws-1", "server", "listing") == ["a", "b"]
        rpc.call("ws-1", "server", "add", 1, 1)
        rpc.call("ws-1", "server", "add", 1, 1)
        assert calls == [(1, 1), (1, 1)]
        assert len(network.node("server").stable) == 0

    def test_call_to_down_node_raises(self, rig):
        network, rpc, __ = rig
        network.crash_node("server")
        with pytest.raises(RpcError):
            rpc.call("ws-1", "server", "add", 1, 1)

    def test_unknown_endpoint(self, rig):
        __, rpc, __calls = rig
        with pytest.raises(RpcError):
            rpc.call("ws-1", "server", "nope")

    def test_handler_exception_propagates(self, rig):
        network, rpc, __ = rig

        def boom():
            raise ValueError("inner")

        rpc.register("server", "boom", boom)
        with pytest.raises(ValueError):
            rpc.call("ws-1", "server", "boom")

    def test_register_on_unknown_node(self, rig):
        __, rpc, __calls = rig
        with pytest.raises(Exception):
            rpc.register("ghost", "x", lambda: None)

    def test_latency_accumulates_two_hops(self, rig):
        network, rpc, __ = rig
        rpc.call("ws-1", "server", "add", 1, 2)
        assert network.messages_sent == 2
        assert network.total_latency == pytest.approx(
            2 * network.lan_latency)
