"""Unit tests for the simulated LAN: nodes, stable storage, transport."""

from __future__ import annotations

from enum import Enum

import pytest

from repro.net.network import (
    IMMUTABLE_CHECK_MAX_DEPTH,
    Network,
    NodeKind,
    StableStorage,
    _is_immutable,
)
from repro.repository.versions import freeze_payload
from repro.util.errors import NetworkError, NodeDownError, StorageError


class TestStableStorage:
    def test_put_get_roundtrip(self):
        storage = StableStorage()
        storage.put("k", freeze_payload({"a": 1}))
        assert storage.get("k") == {"a": 1}

    def test_get_returns_the_stored_object(self):
        # nothing is copied on either path: what is stored cannot be
        # changed by anyone who holds it, so one object serves them all
        storage = StableStorage()
        source = {"a": [1]}
        value = freeze_payload(source)
        storage.put("k", value)
        source["a"].append(2)
        assert storage.get("k") is value
        with pytest.raises(TypeError):
            storage.get("k")["a"].append(3)
        assert storage.get("k") == {"a": [1]}

    def test_get_default(self):
        assert StableStorage().get("missing", 42) == 42

    def test_delete(self):
        storage = StableStorage()
        storage.put("k", 1)
        assert storage.delete("k") is True
        assert storage.delete("k") is False

    def test_keys_prefix(self):
        storage = StableStorage()
        storage.put("b:1", 3)
        storage.put("a:2", 2)
        storage.put("a:1", 1)
        assert storage.keys() == ["a:1", "a:2", "b:1"]

    def test_write_counter(self):
        storage = StableStorage()
        storage.put("k", 1)
        storage.put("k", 2)
        assert storage.writes == 2


class TestNode:
    def test_crash_clears_volatile_keeps_stable(self):
        network = Network()
        node = network.add_workstation("ws-1")
        volatile = {"x": 1}                 # a component's own state
        node.on_crash.append(volatile.clear)
        node.stable.put("y", 2)
        node.crash()
        assert volatile == {}
        assert node.stable.get("y") == 2
        assert not node.up
        node.restart()
        assert node.up

    def test_hooks_fire(self):
        network = Network()
        node = network.add_workstation("ws-1")
        calls = []
        node.on_crash.append(lambda: calls.append("crash"))
        node.on_restart.append(lambda: calls.append("restart"))
        node.crash()
        node.restart()
        assert calls == ["crash", "restart"]
        assert node.crash_count == 1

    def test_require_up(self):
        network = Network()
        node = network.add_workstation("ws-1")
        node.crash()
        with pytest.raises(NodeDownError):
            node.require_up()


class TestNetwork:
    def test_duplicate_node_rejected(self):
        network = Network()
        network.add_server()
        with pytest.raises(NetworkError):
            network.add_node("server", NodeKind.SERVER)

    def test_unknown_node(self):
        with pytest.raises(NetworkError):
            Network().node("nope")

    def test_nodes_by_kind(self):
        network = Network()
        network.add_server()
        network.add_workstation("ws-1")
        network.add_workstation("ws-2")
        assert [node.kind for node in network.nodes()] == [
            NodeKind.SERVER, NodeKind.WORKSTATION, NodeKind.WORKSTATION]

    def test_send_counts_messages_and_latency(self):
        network = Network(lan_latency=0.01, local_latency=0.001)
        network.add_server()
        network.add_workstation("ws-1")
        lan = network.send("ws-1", "server")
        local = network.send("server", "server")
        assert lan == 0.01
        assert local == 0.001
        assert network.messages_sent == 2
        assert network.total_latency == pytest.approx(0.011)

    def test_send_is_a_control_message_with_no_payload(self):
        """RPC and 2PC hops carry no bytes; payloads go by post."""
        network = Network(lan_latency=0.01, bandwidth=100.0)
        network.add_server()
        network.add_workstation("ws-1")
        assert network.send("ws-1", "server") == pytest.approx(0.01)
        assert network.bytes_shipped == 0
        assert network.traffic_stats()["bytes_sent_by"] == {}

    def test_send_to_down_node_fails(self):
        network = Network()
        network.add_server()
        network.add_workstation("ws-1")
        network.crash_node("server")
        with pytest.raises(NodeDownError):
            network.send("ws-1", "server")

    def test_send_from_down_node_fails(self):
        network = Network()
        network.add_server()
        network.add_workstation("ws-1")
        network.crash_node("ws-1")
        with pytest.raises(NodeDownError):
            network.send("ws-1", "server")

    def test_traffic_stats_cover_every_counter(self):
        network = Network(lan_latency=0.01, bandwidth=1000.0)
        network.add_server()
        network.add_workstation("ws-1")
        network.post("ws-1", "server", lambda: None, size=500)
        network.post("server", "ws-1", lambda: None, size=300)
        stats = network.traffic_stats()
        assert stats["messages_sent"] == 2
        assert stats["messages_delivered"] == 2
        assert stats["bytes_shipped"] == 800
        assert stats["bytes_sent_by"] == {"ws-1": 500, "server": 300}
        assert stats["bytes_received_by"] == {"server": 500,
                                              "ws-1": 300}
        assert stats["total_latency"] == pytest.approx(0.82)

    def test_sized_messages_scale_latency_with_payload(self):
        network = Network(lan_latency=0.01, bandwidth=100.0)
        network.add_server()
        network.add_workstation("ws-1")
        control = network.send("server", "ws-1")
        sized = network.post("server", "ws-1", lambda: None, size=50)
        assert control == pytest.approx(0.01)
        assert sized == pytest.approx(0.01 + 50 / 100.0)
        assert network.bytes_shipped == 50


class _Colour(str, Enum):
    RED = "red"


class TestStableStorageCopySkip:
    def test_immutable_scalars_skip_the_copy(self):
        storage = StableStorage()
        values = {"s": "value", "i": 7, "f": 1.5, "n": None, "b": b"x"}
        for key, value in values.items():
            storage.put(key, value)
            assert storage.get(key) is value

    def test_immutable_tuples_skip_the_copy(self):
        storage = StableStorage()
        value = (1, "a", (2.0, None), frozenset({3}))
        storage.put("t", value)
        assert storage.get("t") is value

    def test_mutable_payloads_are_refused(self):
        storage = StableStorage()
        for value, type_name in [
                ({"a": [1]}, "dict"),
                ([1, 2], "list"),
                ({1, 2}, "set"),
                ((1, [2]), "tuple"),         # a tuple holding a list
                (_Colour.RED, "_Colour")]:   # a str subclass: not exact
            with pytest.raises(StorageError) as refusal:
                storage.put("the-key", value)
            assert "'the-key'" in str(refusal.value)
            assert type_name in str(refusal.value)
        assert "the-key" not in storage
        assert storage.writes == 0

    def test_writes_counted_either_way(self):
        # a scalar and a frozen container both count as one write
        storage = StableStorage()
        storage.put("a", 1)
        storage.put("b", freeze_payload([1]))
        assert storage.writes == 2

    def test_deep_nesting_caps_at_the_depth_constant(self):
        # nesting beyond IMMUTABLE_CHECK_MAX_DEPTH is not inspected and
        # therefore not vouched for: the put is refused, never stored
        # on trust
        nested = ("leaf",)
        for _ in range(IMMUTABLE_CHECK_MAX_DEPTH + 6):
            nested = (nested,)
        assert _is_immutable(nested) is False
        storage = StableStorage()
        with pytest.raises(StorageError, match="'deep'.*tuple"):
            storage.put("deep", nested)
        assert storage.get("deep") is None

    def test_nesting_at_the_cap_still_skips_the_copy(self):
        nested = ("leaf",)
        for _ in range(IMMUTABLE_CHECK_MAX_DEPTH - 1):
            nested = (nested,)
        assert _is_immutable(nested) is True
        storage = StableStorage()
        storage.put("shallow", nested)
        assert storage.get("shallow") is nested

    def test_a_stored_none_is_told_from_a_missing_key(self):
        storage = StableStorage()
        storage.put("k", None)
        missing = object()
        assert storage.get("k", missing) is None
        assert storage.get("other", missing) is missing


class TestAsyncDelivery:
    def _rig(self, jitter: float = 0.0, seed: int = 0):
        from repro.sim.kernel import Kernel

        kernel = Kernel()
        network = Network(kernel.clock, jitter=jitter, seed=seed)
        network.attach_kernel(kernel)
        network.add_server()
        network.add_workstation("ws-1")
        return kernel, network

    def test_post_outside_a_run_is_synchronous(self):
        __, network = self._rig()
        delivered = []
        network.post("server", "ws-1", lambda: delivered.append(1))
        assert delivered == [1]

    def test_post_during_a_run_is_queued_with_latency(self):
        kernel, network = self._rig()
        delivered = []
        kernel.at(1.0, lambda: network.post(
            "server", "ws-1",
            lambda: delivered.append(kernel.clock.now)))
        kernel.run_until_quiescent()
        assert delivered == [1.0 + network.lan_latency]
        assert network.messages_delivered == 1

    def test_jitter_is_seeded_and_deterministic(self):
        def run_once(seed):
            kernel, network = self._rig(jitter=0.5, seed=seed)
            arrival = []
            kernel.at(0.0, lambda: network.post(
                "server", "ws-1",
                lambda: arrival.append(kernel.clock.now)))
            kernel.run_until_quiescent()
            return arrival[0]

        assert run_once(3) == run_once(3)
        assert run_once(3) != run_once(4)

    def test_delivery_to_down_node_parks_until_restart(self):
        kernel, network = self._rig()
        delivered = []
        kernel.at(0.0, lambda: network.crash_node("ws-1"))
        kernel.at(1.0, lambda: network.post(
            "server", "ws-1",
            lambda: delivered.append(kernel.clock.now)))
        kernel.at(5.0, lambda: network.restart_node("ws-1"))
        kernel.run_until_quiescent()
        assert delivered == [5.0]
