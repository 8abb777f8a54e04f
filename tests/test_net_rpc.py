"""Unit tests for transactional RPC: at-most-once, failures."""

from __future__ import annotations

import pytest

from repro.net.network import Network
from repro.net.rpc import TransactionalRpc
from repro.repository.versions import DesignObjectVersion
from repro.util.errors import RpcError, StorageError


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
        result = rpc.call("ws-1", "server", "add", 2, 3)
        assert result.value == 5
        assert not result.cached
        assert calls == [(2, 3)]

    def test_at_most_once_with_same_call_id(self, rig):
        __, rpc, calls = rig
        first = rpc.call("ws-1", "server", "add", 2, 3, call_id="c1")
        again = rpc.call("ws-1", "server", "add", 2, 3, call_id="c1")
        assert again.value == first.value
        assert again.cached
        assert len(calls) == 1  # handler executed only once

    def test_reply_cache_survives_callee_crash(self, rig):
        network, rpc, calls = rig
        rpc.call("ws-1", "server", "add", 1, 1, call_id="c2")
        network.crash_node("server")
        network.restart_node("server")
        retry = rpc.call("ws-1", "server", "add", 1, 1, call_id="c2")
        assert retry.cached
        assert len(calls) == 1

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

    def test_counters(self, rig):
        __, rpc, __calls = rig
        rpc.call("ws-1", "server", "add", 1, 2, call_id="k")
        rpc.call("ws-1", "server", "add", 1, 2, call_id="k")
        assert rpc.calls_made == 1
        assert rpc.replies_cached == 1

    def test_latency_accumulates_two_hops(self, rig):
        network, rpc, __ = rig
        result = rpc.call("ws-1", "server", "add", 1, 2)
        assert result.latency == pytest.approx(2 * network.lan_latency)

    def test_a_retried_call_returns_the_cached_dov_itself(self, rig):
        network, rpc, __ = rig
        dov = DesignObjectVersion("dov-1", "Cell", {"tree": {"n": [1]}},
                                  "da-1", 0.0)
        fetched = []
        rpc.register("server", "fetch",
                     lambda: fetched.append(1) or dov)
        first = rpc.call("ws-1", "server", "fetch", call_id="c9")
        network.crash_node("server")
        network.restart_node("server")
        retry = rpc.call("ws-1", "server", "fetch", call_id="c9")
        assert first.value is dov
        assert retry.cached and retry.value is dov
        assert fetched == [1]

    def test_a_cached_reply_of_none_is_a_reply(self, rig):
        __, rpc, __calls = rig
        ran = []
        rpc.register("server", "notify", lambda: ran.append(1))
        rpc.call("ws-1", "server", "notify", call_id="n1")
        retry = rpc.call("ws-1", "server", "notify", call_id="n1")
        assert retry.cached and retry.value is None
        assert ran == [1]

    def test_a_mutable_reply_cannot_be_cached(self, rig):
        # at-most-once needs the reply durable; a reply the callee
        # could still change is refused by stable storage, by name
        __, rpc, __calls = rig
        rpc.register("server", "listing", lambda: ["a", "b"])
        with pytest.raises(StorageError, match="rpc-reply:m1.*list"):
            rpc.call("ws-1", "server", "listing", call_id="m1")
