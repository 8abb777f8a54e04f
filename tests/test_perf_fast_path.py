"""Zero-copy hot paths: frozen payloads and cached sizing.

The acceptance surface of frozen payloads (that they leave seeded runs
unchanged is pinned by the committed reports under
``tests/data/reports/``, see ``tests/test_scenario_dsl.py``):

* a DOV pays exactly **one** recursive walk over its lifetime (the
  freeze at construction); every later sizing/copy is O(1) — asserted
  through the ``repro.repository.versions._WALKS`` counters;
* the downstream short-circuits really engage: WAL appends and stable
  storage share frozen payloads instead of deep-copying, context
  snapshots are copy-on-write, buffer rebind reuses the cached size;
* the scheduler's ``pending`` is an O(1) counter with unchanged
  semantics under cancel/execute/discard interleavings.
"""

from __future__ import annotations

import copy
import gc
import json
import math
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import pytest

import repro
from repro.bench.perf import _CELL, _make_rig, _nested_payload
from repro.dc.script import DopStep, Script, ScriptCursor, Sequence
from repro.net.network import StableStorage, _is_immutable
from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.repository.versions import (
    DesignObjectVersion,
    FrozenDict,
    FrozenList,
    freeze_payload,
    is_frozen_payload,
    payload_sizeof,
    thaw_payload,
)
from repro.repository import versions
from repro.repository.wal import LogRecordKind, WriteAheadLog
from repro.sim.clock import SimClock
from repro.sim.scheduler import EventScheduler
from repro.te.context import DopContext
from repro.te.object_buffer import ObjectBuffer
from repro.te.rig import TeRig
from repro.te.recovery import (
    MAX_DELTA_CHAIN,
    CheckoutRecord,
    RecoveryManager,
)
from repro.te.transaction_manager import ServerTM
from repro.txn.gateway import CheckinRecord
from repro.txn.leases import LeaseTable
from repro.util.rng import SeededRng
from repro.util.trace import EventTrace
from repro.vlsi.chip_planner import ChipPlanner
from repro.vlsi.floorplan import Floorplan, FloorplanInterface
from repro.vlsi.netlist import synthetic_netlist
from repro.vlsi.shapes import shapes_for_area


def nested_payload() -> dict:
    return {"name": "cell", "meta": {"rev": 1, "tags": ["a", "b"]},
            "tree": {f"n{i}": {"v": i, "s": "x" * 8} for i in range(6)}}


def walks() -> int:
    return versions._WALKS["sizeof"] + versions._WALKS["freeze"]


def _count_calls(monkeypatch, calls: dict, owner: type, name: str) -> None:
    """Count the calls of ``owner.name`` under ``calls[name]``."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


class TestFrozenContainers:
    def test_freeze_types_and_equality(self):
        class Row(list):
            pass

        raw = {"a": [1, {"b": 2}], "s": {3, 4}, "t": (5, [6]),
               "by": bytearray(b"xy"), "n": None,
               "od": OrderedDict([("k", [7]), ("j", "v")]),
               "row": Row([8, {"c": 9}])}
        frozen = freeze_payload(raw)
        assert type(frozen) is FrozenDict
        assert isinstance(frozen, dict)
        assert type(frozen["a"]) is FrozenList
        assert isinstance(frozen["a"], list)
        assert type(frozen["a"][1]) is FrozenDict
        assert type(frozen["s"]) is frozenset
        assert type(frozen["t"]) is tuple
        assert type(frozen["t"][1]) is FrozenList
        assert frozen["by"] == b"xy"
        # dict and list subclasses freeze like their bases, member
        # order kept
        assert type(frozen["od"]) is FrozenDict
        assert list(frozen["od"]) == ["k", "j"]
        assert type(frozen["od"]["k"]) is FrozenList
        assert type(frozen["row"]) is FrozenList
        assert type(frozen["row"][1]) is FrozenDict
        assert payload_sizeof(frozen["od"]) \
            == payload_sizeof({"k": [7], "j": "v"})
        assert payload_sizeof(frozen["row"]) \
            == payload_sizeof([8, {"c": 9}])
        # equality with the plain originals holds (dict/list subclasses)
        assert frozen["a"] == [1, {"b": 2}]
        assert frozen == {"a": [1, {"b": 2}], "s": frozenset({3, 4}),
                          "t": (5, [6]), "by": b"xy", "n": None,
                          "od": {"k": [7], "j": "v"},
                          "row": [8, {"c": 9}]}

    def test_frozen_containers_reject_mutation(self):
        frozen = freeze_payload({"a": [1], "b": {"c": 2}})
        for attack in (
            lambda: frozen.__setitem__("x", 1),
            lambda: frozen.pop("a"),
            lambda: frozen.update({"x": 1}),
            lambda: frozen.setdefault("x", 1),
            lambda: frozen.clear(),
            lambda: frozen["a"].append(2),
            lambda: frozen["a"].__setitem__(0, 9),
            lambda: frozen["a"].sort(),
            lambda: frozen["b"].__delitem__("c"),
        ):
            with pytest.raises(TypeError):
                attack()

    def test_deepcopy_returns_the_same_object(self):
        frozen = freeze_payload(nested_payload())
        assert copy.deepcopy(frozen) is frozen
        assert copy.copy(frozen) is frozen
        assert copy.deepcopy(frozen["tree"]) is frozen["tree"]
        # a mutable dict *containing* frozen values copies the shell
        # and shares the frozen members
        shell = {"payload": frozen, "mine": [1]}
        image = copy.deepcopy(shell)
        assert image is not shell
        assert image["payload"] is frozen
        assert image["mine"] is not shell["mine"]

    def test_sizeof_matches_the_unfrozen_walk(self):
        raw = nested_payload()
        frozen = freeze_payload(raw)
        assert payload_sizeof(frozen) == payload_sizeof(raw)

    def test_json_round_trip(self):
        raw = {"a": [1, 2], "b": {"c": "x"}}
        assert json.loads(json.dumps(freeze_payload(raw))) == raw

    def test_unknown_mutable_objects_are_copied_not_shared(self):
        # out-of-model objects are opaque scalars to the cost model,
        # but they may be mutable — the freeze must copy them so no
        # live reference reaches into a "frozen" payload
        class Blob:
            def __init__(self) -> None:
                self.cells = ["a"]

        blob = Blob()
        frozen = freeze_payload({"blob": blob})
        assert frozen["blob"] is not blob
        blob.cells.append("b")
        assert frozen["blob"].cells == ["a"]
        assert payload_sizeof(frozen) == payload_sizeof({"blob": blob})

    def test_marker_carrying_values_are_shared_by_freeze_and_thaw(self):
        # the one immutability rule: what the type vouches for in O(1)
        # is neither copied on the way in nor on the way out
        script = Script(Sequence(DopStep("tool", params={"k": [1]})), "s")
        dov = DesignObjectVersion("dov-1", "Cell", {"a": [1]}, "da-1", 0.0)
        frozen = freeze_payload({"s": script, "nested": [dov]})
        assert frozen["s"] is script
        assert frozen["nested"][0] is dov
        assert payload_sizeof(frozen) \
            == payload_sizeof({"s": script, "nested": [dov]})
        thawed = thaw_payload(frozen)
        assert type(thawed) is dict and type(thawed["nested"]) is list
        assert thawed["s"] is script and thawed["nested"][0] is dov

    def test_directly_constructed_containers_carry_real_sizes(self):
        # not just the freeze walk: a FrozenDict/FrozenList built by
        # hand must stamp its true modelled size, never a stale zero
        by_hand = FrozenDict({"a": "xxxx", "b": 1})
        assert payload_sizeof(by_hand) == payload_sizeof(
            {"a": "xxxx", "b": 1})
        as_list = FrozenList([1, "xy"])
        assert payload_sizeof(as_list) == payload_sizeof([1, "xy"])
        assert payload_sizeof(FrozenDict()) == 0

    def test_checked_out_vlsi_structure_survives_repartitioning(self):
        # tools must be copy-on-write over checked-out (frozen) state
        from repro.vlsi.tools import repartitioning, structure_synthesis

        producer = DopContext(data={"cell": "cud", "behavior": {
            "operations": ["alu", "mul", "io"]}})
        structure_synthesis(producer, {"seed": 1})
        dov = DesignObjectVersion("dov-1", "Cell", dict(producer.data),
                                  "da-1", 0.0)
        consumer = DopContext()
        consumer.data.update(dov.data)  # the checkout install
        repartitioning(consumer, {"groups": 2})
        partitions = consumer.data["structure"]["partitions"]
        assert sorted(sum(partitions, [])) \
            == sorted(dov.data["structure"]["subcells"])
        assert "partitions" not in dov.data["structure"]  # untouched

    def test_schema_validation_accepts_frozen_payloads(self):
        dot = DesignObjectType("Cell", attributes=[
            AttributeDef("name", AttributeKind.STRING),
            AttributeDef("tree", AttributeKind.JSON),
        ])
        frozen = freeze_payload({"name": "c", "tree": {"kids": [1, 2]}})
        assert dot.validate(frozen) == []


class TestOneWalkPerDov:
    def test_freeze_walk_happens_once(self):
        before = walks()
        dov = DesignObjectVersion("dov-1", "Cell", nested_payload(),
                                  "da-1", 0.0)
        assert walks() == before + 1  # the construction freeze
        for _ in range(5):
            assert dov.payload_size == dov.payload_size
        assert payload_sizeof(dov.data) == dov.payload_size
        assert walks() == before + 1  # ... and nothing since

    def test_buffer_admission_reuses_the_cached_size(self):
        dov = DesignObjectVersion("dov-1", "Cell", nested_payload(),
                                  "da-1", 0.0)
        buffer = ObjectBuffer("ws-1")
        before = walks()
        entry = buffer.put(dov, "da-1")
        assert entry.size == dov.payload_size
        assert walks() == before

    def test_rebind_keeps_the_resident_size_without_a_walk(self):
        provisional = DesignObjectVersion("wb-1", "Cell",
                                          nested_payload(), "da-1", 0.0)
        buffer = ObjectBuffer("ws-1")
        buffer.put_dirty(provisional, "da-1",
                         CheckinRecord("wb-1", "da-1", "Cell",
                                       provisional.data, [], "dop-1"))
        # the server adopts the shipped frozen payload, so the durable
        # version *shares* it — rebind must not re-size anything
        durable = DesignObjectVersion("dov-9", "Cell", provisional.data,
                                      "da-1", 1.0)
        size_before = buffer._entries["wb-1"].size
        before = walks()
        assert buffer.rebind({"wb-1": durable}, math.inf) == 1
        entry = buffer._entries["dov-9"]
        assert entry.size == size_before
        assert not entry.dirty
        assert walks() == before


class TestStorageShortCircuits:
    def test_wal_append_shares_frozen_payload_values(self):
        wal = WriteAheadLog()
        frozen = freeze_payload(nested_payload())
        payload = {"dov_id": "d1", "data": frozen, "parents": ["p1"]}
        record = wal.append(LogRecordKind.DOV_CHECKIN, payload)
        assert record.payload["data"] is frozen
        # mutable values still get the defensive deep copy: a caller
        # mutating its request after the append cannot rewrite history
        payload["parents"].append("p2")
        assert record.payload["parents"] == ["p1"]

    def test_wal_append_shares_by_the_marker_not_by_the_container_type(
            self):
        # stable storage's rule: the type carries __frozen_payload__
        script = Script(Sequence(DopStep("tool")), "s")
        dov = DesignObjectVersion("dov-1", "Cell", {"a": [1]}, "da-1", 0.0)
        record = WriteAheadLog().append(
            LogRecordKind.CHECKPOINT, {"script": script, "dov": dov})
        assert record.payload["script"] is script
        assert record.payload["dov"] is dov

    def test_stable_storage_marker_short_circuit(self):
        frozen = freeze_payload(nested_payload())
        assert _is_immutable(frozen)
        store = StableStorage()
        store.put("k", frozen)
        assert store.get("k") is frozen

    def test_recovered_dov_shares_the_logged_frozen_payload(self):
        repository = DesignDataRepository()
        repository.register_dot(DesignObjectType("Cell", attributes=[
            AttributeDef("name", AttributeKind.STRING),
            AttributeDef("meta", AttributeKind.JSON),
            AttributeDef("tree", AttributeKind.JSON),
        ]))
        repository.create_graph("da-1")
        dov = repository.checkin("da-1", "Cell", nested_payload(), ())
        frozen = dov.data
        repository.crash()
        before = walks()
        repository.recover()
        assert repository.read(dov.dov_id).data is frozen
        assert walks() == before  # redo adopted, never re-walked


class TestContextCopyOnWrite:
    def test_snapshot_shares_frozen_and_copies_mutable(self):
        dov = DesignObjectVersion("dov-1", "Cell", nested_payload(),
                                  "da-1", 0.0)
        context = DopContext()
        context.data.update(dov.data)
        context.data["scratch"] = {"mine": [1]}
        snap = context.snapshot()
        assert snap.data["tree"] is context.data["tree"]
        assert snap.data["scratch"] is not context.data["scratch"]
        context.data["scratch"]["mine"].append(2)
        assert snap.data["scratch"] == {"mine": [1]}
        rebuilt = DopContext.from_snapshot(snap)
        assert rebuilt.data["tree"] is context.data["tree"]
        # tool output comes back mutable and private to the rebuilt
        # context; the image it came from stays what it was
        rebuilt.data["scratch"]["mine"].append(3)
        assert snap.data["scratch"] == {"mine": [1]}


class TestNoDeepcopyBelowTheTeLevel:
    """A count gate, not a timing gate: the TE level's durable writes
    (recovery points) store frozen values by reference.
    ``copy.deepcopy`` is counted by the module of the frame that calls
    it."""

    PACKAGES = ("repro.net", "repro.te", "repro.txn")

    @pytest.fixture
    def deepcopy_callers(self, monkeypatch):
        callers: list[str] = []
        original = copy.deepcopy

        def counted(value, memo=None, *rest):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return original(value, memo, *rest)

        monkeypatch.setattr(copy, "deepcopy", counted)
        return callers

    @pytest.fixture
    def rig(self):
        # the paths this gate stands behind: the buffer-hit checkout
        # and the write-through checkin that the campaign_reads and
        # campaign_writes e2e workloads measure
        rig = _make_rig()
        dov = rig.repository.checkin("da-1", "Cell", _nested_payload())
        return rig.client_tm("ws-1"), dov

    def from_the_te_level(self, callers: list[str]) -> list[str]:
        return [name for name in callers
                if name.startswith(self.PACKAGES)]

    def test_300_buffer_hit_checkouts_copy_nothing(self, rig,
                                                   deepcopy_callers):
        client, dov = rig
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, dov.dov_id)            # the one miss
        client.work(dop, 1.0, mutate=lambda ctx: ctx.tool_state.update(
            seen={"cells": [1, 2]}))                # tool output too
        del deepcopy_callers[:]
        for _ in range(300):
            client.checkout(dop, dov.dov_id)
        assert client.buffer.hits == 300
        assert client.recovery.points_taken == 301
        assert deepcopy_callers == []
        assert dop.context.data["tree"] is dov.data["tree"]

    def test_300_write_through_checkins_copy_nothing_and_log_flat(
            self, rig, deepcopy_callers):
        client, dov = rig
        wal = client.server_tm.repository.wal
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, dov.dov_id)
        parent = dov.dov_id
        logged = len(wal)
        for index in range(300):
            result = client.checkin(
                dop, "Cell", data=_nested_payload(rev=index + 1),
                parents=[parent])
            assert result.success
            parent = result.dov.dov_id
        assert self.from_the_te_level(deepcopy_callers) == []
        # the repository logs the (frozen) version it commits: the
        # WAL shares it and copies nothing either
        assert deepcopy_callers == []
        assert len(wal) - logged == 300             # one record each

    def test_no_deepcopy_in_the_source_of_those_packages(self):
        root = Path(repro.__file__).parent
        offenders = [
            str(path.relative_to(root))
            for package in ("net", "te", "txn")
            for path in sorted((root / package).rglob("*.py"))
            if "deepcopy" in path.read_text()]
        assert offenders == []


class TestACheckoutPointIsADelta:
    """A count gate on the TE client hot path: a buffer-hit checkout
    stores one small record and looks at nothing it did not change."""

    def test_300_buffer_hit_checkouts_inside_one_dop(self, monkeypatch):
        rig = _make_rig()
        client = rig.client_tm("ws-1")
        dov = rig.repository.checkin("da-1", "Cell", _nested_payload())
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, dov.dov_id)            # the one miss

        calls = {"snapshot": 0, "get": 0, "record": 0}
        _count_calls(monkeypatch, calls, DopContext, "snapshot")
        _count_calls(monkeypatch, calls, StableStorage, "get")
        _count_calls(monkeypatch, calls, EventTrace, "record")
        points: list[tuple[type, int, int]] = []
        take = RecoveryManager.take

        def watched(*args, **kwargs):
            before = walks()
            point = take(*args, **kwargs)
            points.append((type(point), point.depth, walks() - before))
            return point

        monkeypatch.setattr(RecoveryManager, "take", watched)
        puts = client.node.stable.writes
        for _ in range(300):
            client.checkout(dop, dov.dov_id)
        assert client.buffer.hits == 300
        assert len(points) == 300
        assert client.node.stable.writes - puts == 300
        assert calls["snapshot"] <= 300 / MAX_DELTA_CHAIN + 1
        assert calls["get"] == 0
        assert calls["record"] == 0                 # the trace is off
        assert max(depth for _, depth, _ in points) == MAX_DELTA_CHAIN
        deltas = [point for point in points if point[0] is CheckoutRecord]
        assert len(deltas) == 300 - calls["snapshot"]
        assert all(walked == 0 for _, _, walked in deltas)
        assert client.recovery.latest(dop.dop_id).dovs[0] is dov


class TestABufferHitCostsWhatItChanges:
    """A count gate on the buffer-hit checkout, host-independent: a hit
    inside a running DOP checks the DOP, reads the buffer and stores
    one checkout record, and runs nothing else.

    The calls are Python-level ``call`` events under
    :func:`sys.setprofile`; a property read (``SimClock.now``) is one.
    One hit in ``MAX_DELTA_CHAIN + 1`` closes a full chain and stores
    a full image instead (:class:`TestACheckoutPointIsADelta`): the
    per-record bounds below hold for every other hit."""

    HITS = 300
    #: Python-level calls of one hit that stores a checkout record:
    #: checkout, SimClock.now, ObjectBuffer.get, RecoveryManager.take,
    #: StableStorage.put
    MAX_CALLS = 5

    def test_300_warm_hits_inside_one_dop(self):
        # the campaigns' lease regime: the renewal window is checked on
        # every hit
        rig = _make_rig(lease_ttl=120.0)
        client = rig.client_tm("ws-1")
        dov = rig.repository.checkin("da-1", "Cell", _nested_payload())
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, dov.dov_id)            # the one miss
        client.checkout(dop, dov.dov_id)            # anchors the window
        messages = rig.network.messages_sent
        puts = client.node.stable.writes
        pending = rig.kernel.pending              # the lease's expiry

        per_hit: list[list] = []
        stored: list[type] = []
        calls: list = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code)

        # a collection would close some suspended generator mid-hit
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(self.HITS):
                del calls[:]
                sys.setprofile(profile)
                try:
                    client.checkout(dop, dov.dov_id)
                finally:
                    sys.setprofile(None)
                per_hit.append(list(calls))
                stored.append(type(client.recovery.latest(dop.dop_id)))
        finally:
            if collecting:
                gc.enable()

        def named(codes, qualname):
            return sum(code.co_qualname == qualname for code in codes)

        assert client.buffer.hits == self.HITS + 1
        assert client.node.stable.writes - puts == self.HITS
        assert rig.network.messages_sent == messages
        assert rig.kernel.pending == pending
        for codes in per_hit:
            assert named(codes, "RecoveryManager.take") == 1
            assert named(codes, "StableStorage.put") == 1
            for scheduler in ("at", "after", "defer"):
                assert named(codes, f"EventScheduler.{scheduler}") == 0
            assert named(codes, "Network.post") == 0
            assert named(codes, "Network.send") == 0
        records = [codes for codes, point in zip(per_hit, stored)
                   if point is CheckoutRecord]
        assert len(records) >= self.HITS - self.HITS // MAX_DELTA_CHAIN
        for codes in records:
            # no dataclass-built record: generated code has no file
            assert [code for code in codes
                    if code.co_name == "__init__"
                    and not code.co_filename.endswith(".py")] == []
            assert len(codes) <= self.MAX_CALLS, \
                [code.co_qualname for code in codes]


class TestAReadSetIsOneCheckout:
    """A count gate on the read set: one ``ClientTM.checkout`` call is
    one checkout operation and stores ONE recovery point, whatever the
    size of the set and whether its DOVs hit the buffer or ship from
    the server; each DOV is still looked up (and, on a miss, fetched)
    on its own."""

    @pytest.mark.parametrize("size", [1, 4, 16])
    def test_one_point_per_call(self, monkeypatch, size):
        calls = {"take": 0, "put": 0, "get": 0, "checkout": 0}
        # before the rig registers the server-TM's endpoint
        _count_calls(monkeypatch, calls, ServerTM, "checkout")
        rig = _make_rig(lease_ttl=120.0)
        client = rig.client_tm("ws-1")
        ids = [rig.repository.checkin("da-1", "Cell",
                                      _nested_payload(rev=index)).dov_id
               for index in range(size)]
        _count_calls(monkeypatch, calls, RecoveryManager, "take")
        _count_calls(monkeypatch, calls, StableStorage, "put")
        _count_calls(monkeypatch, calls, ObjectBuffer, "get")
        dop = client.begin_dop("da-1", "tool")
        for call, (misses, hits) in enumerate([(size, 0), (size, size)]):
            before = dict(calls)
            got = client.checkout(dop, *ids)
            assert [dov.dov_id for dov in got] == ids
            moved = {name: calls[name] - before[name] for name in calls}
            assert moved == {"take": 1, "put": 1, "get": size,
                             "checkout": size if call == 0 else 0}
            assert client.buffer.misses == misses
            assert client.buffer.hits == hits
        assert client.recovery.points_taken == 2
        assert dop.context.checked_out == ids + ids == dop.input_dovs
        point = client.recovery.latest(dop.dop_id)
        assert type(point) is CheckoutRecord
        assert [dov.dov_id for dov in point.dovs] == ids


class TestAWriteThroughCheckinCostsWhatItChanges:
    """A count gate on the write-through checkin, host-independent:
    one checkin ships its bytes and commits in one exchange with its
    sole participant, logs the version it commits with one forced
    write, revokes the lease on the version it supersedes, and runs
    nothing else.

    The calls are Python-level ``call`` events under
    :func:`sys.setprofile`, counted as in
    :class:`TestABufferHitCostsWhatItChanges`.  The payloads are frozen
    before the count, so the count is the protocol's, not the freeze
    walk's (which a bigger payload makes longer).  Before the
    repository logged the version it commits, a checkin of this rig
    made 119 calls, four of them ``copy.deepcopy`` in the WAL's copy
    of the checkin record and eight dataclass ``__init__``s; under a
    two-phase commit with its one participant it made 50, six of
    them ``Network.send``."""

    CHECKINS = 300
    #: Python-level calls of one write-through checkin of this rig
    #: (the failing assertion lists them); two build a record with a
    #: generated ``__init__``: the lease and the buffer entry (the
    #: version's own ``__init__`` fills its fields directly)
    MAX_CALLS = 42

    def test_300_write_through_checkins_inside_one_dop(self):
        # the campaigns' lease regime: every committed version is
        # leased back to the workstation under a TTL
        rig = _make_rig(lease_ttl=120.0)
        client = rig.client_tm("ws-1")
        wal = rig.repository.wal
        dov = rig.repository.checkin("da-1", "Cell", _nested_payload())
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, dov.dov_id)            # the one miss
        payloads = [freeze_payload(_nested_payload(rev=index + 1))
                    for index in range(self.CHECKINS)]
        forced = wal.forced_writes
        messages = rig.network.messages_sent
        parent = dov.dov_id

        per_checkin: list[list] = []
        calls: list = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append((frame.f_code, frame.f_back.f_code))

        collecting = gc.isenabled()
        gc.disable()
        try:
            for payload in payloads:
                del calls[:]
                sys.setprofile(profile)
                try:
                    result = client.checkin(dop, "Cell", data=payload,
                                            parents=[parent])
                finally:
                    sys.setprofile(None)
                assert result.success
                parent = result.dov.dov_id
                per_checkin.append(list(calls))
        finally:
            if collecting:
                gc.enable()

        def named(pairs, qualname, caller=None):
            return sum(code.co_qualname == qualname
                       and caller in (None, called_by.co_qualname)
                       for code, called_by in pairs)

        assert wal.forced_writes - forced == self.CHECKINS
        # the exchange (upload, request, reply) and the invalidation of
        # the superseded parent's copy
        assert rig.network.messages_sent - messages == 4 * self.CHECKINS
        assert client.buffer.get(parent, "da-1", rig.clock.now).data is payloads[-1]
        for pairs in per_checkin:
            assert named(pairs, "WriteAheadLog.append") == 1
            assert named(pairs, "WriteAheadLog.force") == 1
            assert named(pairs, "Network.send") == 2
            assert named(pairs, "Network.post",
                         "CommitGateway.single_checkin") == 1
            assert named(pairs, "Network.post",
                         "ServerTM._post_invalidation") == 1
            assert named(pairs, "Network.post") == 2
            assert named(pairs, "deepcopy") == 0
            assert len(pairs) <= self.MAX_CALLS, \
                [code.co_qualname for code, _ in pairs]


class TestAFlushIsOneExchange:
    """A count gate on the write-back flush: whatever the size of the
    dirty set, one batched upload and one exchange (a request and a
    reply) with the sole participant commit it, under one forced
    write."""

    @pytest.mark.parametrize("records", [1, 8])
    def test_one_flush(self, records):
        rig = TeRig(trace=False, write_back=True, lease_ttl=120.0)
        rig.open_scope()
        client = rig.add_workstation("ws-1")
        rig.repository.register_dot(_CELL)
        rig.repository.create_graph("da-1")
        dop = client.begin_dop("da-1", "tool")
        for index in range(records):
            client.checkin(dop, "Cell", data=_nested_payload(rev=index),
                           parents=[])
        forced = rig.repository.wal.forced_writes
        messages = rig.network.messages_sent
        calls: list = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_qualname)

        sys.setprofile(profile)
        try:
            flushed = client.flush()
        finally:
            sys.setprofile(None)
        assert flushed.committed and len(flushed.dovs) == records
        assert (flushed.outcome.messages,
                flushed.outcome.forced_log_writes) == (2, 1)
        assert rig.repository.wal.forced_writes - forced == 1
        assert rig.network.messages_sent - messages == 3
        assert calls.count("Network.send") == 2
        assert calls.count("Network.post_batch") == 1
        assert calls.count("Network.post") == 1
        assert calls.count("TransactionalRpc.call") == 1
        assert calls.count("ServerTM.checkin") == 1


class TestAWriteStepCostsWhatItWrites:
    """Count gates on a write step of the session driver: the payload
    it checks in is built frozen once per (object, letter), so a
    checkin walks nothing to freeze it; and the short lock on the DA's
    derivation graph, which nothing can hold while the server-TM's
    synchronous checkin stages, is one counted section
    (``ServerTM.short_locks``): there is no lock table to enter."""

    CAMPAIGN = {
        "scenario": {"name": "writes", "kind": "campaign", "seed": 7},
        "team": {"size": 3, "steps_per_session": 4, "mean_step": 15.0},
        "objects": {"pool": 6, "payload_bytes": 300, "hotspots": 2,
                    "hotspot_bias": 0.5},
        "locality": {"reads_per_step": 1, "reread": 0.2},
        "writes": {"ratio": 0.9},
        "leases": {"ttl": 120.0},
        "campaign": {"days": 2, "sessions_per_day": 2, "churn": 0.25},
    }

    def test_a_checkin_walks_nothing_and_no_graph_lock_is_entered(
            self, monkeypatch):
        from repro.scenario.campaign import design_campaign_scenario
        from repro.scenario.schema import validate_scenario
        from repro.te.transaction_manager import ClientTM, ServerTM

        walked: list[int] = []
        checkin = ClientTM.checkin

        def counted_checkin(client, *args, **kwargs):
            before = versions._WALKS["freeze"]
            try:
                return checkin(client, *args, **kwargs)
            finally:
                walked.append(versions._WALKS["freeze"] - before)

        monkeypatch.setattr(ClientTM, "checkin", counted_checkin)
        servers: list[ServerTM] = []
        checkin_endpoint = ServerTM.checkin

        def watched_checkin(server_tm, *args):
            servers.append(server_tm)
            return checkin_endpoint(server_tm, *args)

        # before the rig registers the server-TM's endpoint
        monkeypatch.setattr(ServerTM, "checkin", watched_checkin)
        calls = {"checkout": 0}
        _count_calls(monkeypatch, calls, ServerTM, "checkout")

        report = design_campaign_scenario(
            validate_scenario(self.CAMPAIGN), None)

        assert report.checkins == len(walked) > 20
        assert walked == [0] * len(walked)
        server_tm = servers[0]
        assert all(server is server_tm for server in servers)
        # one short-lock section per server checkout and one per
        # checkin (its records are all of one DA)
        assert len(servers) == report.checkins
        assert calls["checkout"] > 20
        assert server_tm.short_locks == calls["checkout"] + len(servers)


class TestNothingIsStoredThatNothingReads:
    """A count gate on the TE miss and commit paths.  Nothing reads an
    RPC reply or a 2PC decision back, so neither is stored: the
    server's stable storage sees no put and no get, the workstation's
    one put per recovery point.  A checkin's result is the version its
    commit returned, so the repository is read once per buffer miss
    and never to read a checkin back."""

    N = 40

    def test_misses_and_write_through_checkins(self, monkeypatch):
        rig = _make_rig()
        client = rig.client_tm("ws-1")
        dovs = [rig.repository.checkin("da-1", "Cell",
                                       _nested_payload(rev=index))
                for index in range(self.N)]
        touched: list[tuple[str, StableStorage]] = []
        for name in ("put", "get"):
            def watched(storage, *args, _name=name,
                        _original=getattr(StableStorage, name)):
                touched.append((_name, storage))
                return _original(storage, *args)

            monkeypatch.setattr(StableStorage, name, watched)
        calls = {"read": 0}
        _count_calls(monkeypatch, calls, DesignDataRepository, "read")

        dop = client.begin_dop("da-1", "tool")
        for dov in dovs:
            client.checkout(dop, dov.dov_id)
        parent = dovs[-1].dov_id
        for index in range(self.N):
            result = client.checkin(dop, "Cell",
                                    data=_nested_payload(rev=-index),
                                    parents=[parent])
            assert result.success
            parent = result.dov.dov_id
        client.commit_dop(dop)

        assert client.buffer.misses == self.N
        assert client.recovery.points_taken == self.N
        assert [op for op, storage in touched
                if storage is rig.server.stable] == []
        assert [op for op, storage in touched
                if storage is client.node.stable] == ["put"] * self.N
        assert calls["read"] == self.N


class TestACmOperationPersistsReferences:
    """A count gate on the CM's state log: an after-image is gathered
    from parts that are already immutable, so persisting one neither
    freezes nor copies, and the operation's audit entry — a tuple of
    the ids the operation names, not a frozen dict — rides in the same
    record: one ``WriteAheadLog.append`` and one ``force`` per
    operation (two each while the CM kept a protocol log of its own)."""

    LEADS, LEAVES = 14, 7       # cm_cooperation's hierarchy: 113 DAs

    def test_a_cooperation_round_walks_and_copies_no_image(
            self, monkeypatch):
        from repro.core.cooperation_manager import CooperationManager
        from repro.core.features import DesignSpecification, RangeFeature
        from repro.core.state_log import AuditEntry, StateLog
        from repro.core.system import ConcordSystem
        from repro.vlsi.tools import vlsi_dots

        def spec(limit):
            return DesignSpecification([
                RangeFeature("width-limit", "width", hi=limit),
                RangeFeature("height-limit", "height", hi=limit)])

        system = ConcordSystem(trace=False)
        system.add_workstation("ws-1")
        cm, dots = system.cm, vlsi_dots()
        noop = Script(Sequence(DopStep("structure_synthesis")), "noop")
        top = system.init_design(dots["Chip"], spec(1000.0), "chief", noop,
                                 "ws-1")
        system.start(top.da_id)
        for _ in range(self.LEADS):
            lead = system.create_sub_da(top.da_id, dots["Module"],
                                        spec(400.0), "lead", noop, "ws-1")
            system.start(lead.da_id)
            for _ in range(self.LEAVES):
                leaf = system.create_sub_da(lead.da_id, dots["Block"],
                                            spec(100.0), "leaf", noop,
                                            "ws-1")
                system.start(leaf.da_id)
        assert len(cm.das()) == 113
        supporting, requiring = cm.children_of(lead.da_id)[:2]
        dov = system.repository.checkin(
            supporting.da_id, "Block",
            {"cell": "c", "level": "block", "width": 20.0, "height": 20.0})

        walked_in_persist: list[int] = []
        persist, cm_persist = StateLog.persist, CooperationManager._persist

        def watched(log, state, audit=None):
            assert type(audit) is AuditEntry
            persist(log, state, audit)

        def walked(cm, *args, **detail):
            # the audit entry is built in here too: that walks nothing
            before = walks()
            cm_persist(cm, *args, **detail)
            walked_in_persist.append(walks() - before)

        monkeypatch.setattr(StateLog, "persist", watched)
        monkeypatch.setattr(CooperationManager, "_persist", walked)
        appended: list[LogRecordKind] = []
        append = WriteAheadLog.append
        monkeypatch.setattr(
            WriteAheadLog, "append", lambda wal, kind, *rest, **force: (
                appended.append(kind), append(wal, kind, *rest, **force))[1])
        calls = {"force": 0}
        _count_calls(monkeypatch, calls, WriteAheadLog, "force")
        copied: list[type] = []         # every frame, recursion included
        deepcopy = copy.deepcopy
        monkeypatch.setattr(copy, "deepcopy", lambda value, *rest: (
            copied.append(type(value)), deepcopy(value, *rest))[1])

        assert cm.evaluate(supporting.da_id, dov.dov_id).is_final
        cm.require(requiring.da_id, supporting.da_id, {"width-limit"})
        assert cm.propagate(supporting.da_id, dov.dov_id) \
            == [requiring.da_id]
        proposal = cm.propose(requiring.da_id, supporting.da_id, {
            supporting.da_id: [RangeFeature("width-limit", "width",
                                            hi=50.0)],
            requiring.da_id: [RangeFeature("width-limit", "width",
                                           hi=150.0)]})
        cm.agree(supporting.da_id, proposal.proposal_id)

        assert len(walked_in_persist) == 5
        assert set(walked_in_persist) == {0}
        # checkpoints aside — those come when they are due
        assert [kind for kind in appended
                if kind is not LogRecordKind.CHECKPOINT] \
            == [LogRecordKind.DA_STATE] * 5
        assert calls["force"] == len(appended)
        # a record is immutable values only; a checkpoint adds its count
        assert set(copied) <= {int}
        assert len(copied) == appended.count(LogRecordKind.CHECKPOINT)
        system.crash_server()
        system.restart_server()
        assert cm.da(supporting.da_id).spec.feature("width-limit").hi == 50.0


class TestAFederatedCommitLogsFrozenValues:
    """A count gate on the federation-side writers: a decision's
    manifest is frozen once and shared by the record, the log's map and
    every reader, a member's prepare record freezes its redo list — so
    the WAL's ``copy.deepcopy`` fallback sees atomic scalars only."""

    @pytest.mark.parametrize("crash", ["none", "before", "after",
                                       "coordinator"])
    def test_the_t10_scenario_hands_the_wal_no_container(
            self, crash, monkeypatch):
        from repro.scenario import canonical_scenarios
        from repro.scenario.federation import federated_commit_scenario

        config = canonical_scenarios()["t10_federated_commit"]
        copied: list[type] = []         # every frame, recursion included
        deepcopy = copy.deepcopy
        monkeypatch.setattr(copy, "deepcopy", lambda value, *rest: (
            copied.append(type(value)), deepcopy(value, *rest))[1])
        report = federated_commit_scenario(config, crash)
        assert report.atomic_violations == 0
        assert copied and set(copied) <= {str, int, float, bool, type(None)}


class TestATraceThatIsOffCostsNothing:
    """A count gate on every level's ``_record``: with the trace off
    no row is built, so ``EventTrace.record`` is never entered."""

    def test_a_campaign_with_the_trace_off_records_nothing(
            self, monkeypatch):
        from repro.scenario import compile_scenario, validate_scenario

        calls = {"record": 0}
        _count_calls(monkeypatch, calls, EventTrace, "record")
        report = compile_scenario(validate_scenario({
            "scenario": {"name": "quiet", "kind": "campaign"},
            "team": {"size": 2},
            "campaign": {"days": 2, "sessions_per_day": 2}})).run()
        assert report.sessions == 8 and report.checkins > 0
        assert calls["record"] == 0

    def test_the_cm_and_both_tms_test_enabled_first(self, monkeypatch):
        from repro.scenario import validate_scenario
        from repro.scenario.delegation import concurrent_delegation_scenario

        calls = {"record": 0}
        _count_calls(monkeypatch, calls, EventTrace, "record")
        system, report = concurrent_delegation_scenario(validate_scenario({
            "scenario": {"name": "quiet", "kind": "concurrent_delegation"},
            "team": {"subcells": ["A"]}}))
        assert set(report.final_states.values()) \
            == {"active", "terminated"}
        assert calls["record"] == 0
        assert len(system.trace) == 0


class TestThePlannerKeepsPinCounts:
    """Count gates on tool 5: bipartitioning reads its own pin counts,
    the cut of the winning floorplan is read off the plan's own nets,
    and a plan costs its cells and pins in Python calls."""

    #: Python calls (``sys.setprofile`` call events) of one plan of the
    #: 3-cell and the 60-cell net list below, per CPython minor version
    #: (3.12 inlines comprehensions); the planner on names made
    #: 261 / 14 307 on 3.11 and 212 / 11 907 on 3.12
    CALLS = {(3, 11): (65, 2481), (3, 12): (49, 1579)}

    def test_one_plan_counts_the_cut_once(self):
        """The winner's cut: the nets with pins left and right of the
        floorplan's middle, counted once per plan."""
        cells = [f"c{i}" for i in range(12)]
        netlist = synthetic_netlist(cells, SeededRng(5))
        shape_functions = {c: shapes_for_area(c, 4.0 + i % 3)
                           for i, c in enumerate(cells)}
        plan = ChipPlanner(iterations=3, seed=5).plan(
            "cud", netlist, shape_functions,
            FloorplanInterface("cud", 40.0, 40.0))
        assert set(plan.placements) == set(cells)
        left = {cell for cell, p in plan.placements.items()
                if p.x + p.width / 2.0 < plan.width / 2}
        assert 0 < plan.cut_nets == sum(
            1 for net in netlist.nets
            if set(net.cells) & left and set(net.cells) - left)

    @staticmethod
    def calls_per_plan(size: int) -> int:
        cells = [f"cud/c{i}" for i in range(size)]
        netlist = synthetic_netlist(cells, SeededRng(0))
        shape_functions = {c: shapes_for_area(c, 4.0) for c in cells}
        interface = FloorplanInterface("cud", 500.0, 500.0)
        planner = ChipPlanner(iterations=3, seed=0)
        calls = [0]

        def profile(frame, event, arg):
            if event == "call":
                calls[0] += 1

        # a collection would close some suspended generator mid-plan
        collecting = gc.isenabled()
        gc.disable()
        sys.setprofile(profile)
        try:
            planner.plan("cud", netlist, shape_functions, interface)
        finally:
            sys.setprofile(None)
            if collecting:
                gc.enable()
        return calls[0]

    @pytest.mark.parametrize("which, size", [(0, 3), (1, 60)])
    def test_a_plan_costs_its_cells_and_pins(self, which, size):
        """The sizes of ``team_delegation``'s plans: each sub-DA plans
        three subcells, the top DA sixty."""
        pinned = self.CALLS.get(sys.version_info[:2])
        if pinned is None:
            pytest.skip("call counts are pinned for CPython 3.11 and 3.12")
        assert self.calls_per_plan(size) <= pinned[which]


class TestAToolStepCostsWhatItComputes:
    """A count gate on a DM's tool step: the chip planner scores each
    re-iteration from its cells' centres and builds the floorplan of
    the winner alone, and the script is walked once per state change,
    not once by the step and again by the fire that ends it."""

    def test_one_plan_builds_one_floorplan(self, monkeypatch):
        cells = [f"c{i}" for i in range(12)]
        netlist = synthetic_netlist(cells, SeededRng(5))
        shape_functions = {c: shapes_for_area(c, 4.0 + i % 3)
                           for i, c in enumerate(cells)}
        calls = {"__init__": 0}
        _count_calls(monkeypatch, calls, Floorplan, "__init__")
        plan = ChipPlanner(iterations=3, seed=5).plan(
            "cud", netlist, shape_functions,
            FloorplanInterface("cud", 40.0, 40.0))
        assert set(plan.placements) == set(cells)
        assert plan.iterations == 3
        assert calls["__init__"] == 1

    def test_a_dm_step_and_its_fire_walk_the_script_once(self,
                                                         monkeypatch):
        """Across a whole delegation (crash recovery included) the
        enabled positions are computed at most once per cursor state:
        once for each fresh cursor and once after each applied firing."""
        calls = {"_apply": 0, "__init__": 0, "walks": 0}
        _count_calls(monkeypatch, calls, ScriptCursor, "_apply")
        _count_calls(monkeypatch, calls, ScriptCursor, "__init__")
        walk = ScriptCursor._enabled

        def counted_walk(self, node, token):
            calls["walks"] += token == "0"   # a walk from the root
            return walk(self, node, token)

        monkeypatch.setattr(ScriptCursor, "_enabled", counted_walk)
        report = _team_delegation(12).run()
        assert set(report.final_states.values()) \
            == {"active", "terminated"}
        assert calls["_apply"] > 12 * 5
        assert calls["walks"] <= calls["_apply"] + calls["__init__"]


def _team_delegation(size: int):
    """The ``team_delegation`` workload's tables at *size* subcells
    (seed 307, jitter 0.2, ws-C01 crashing 15 minutes in), compiled."""
    from repro.scenario import compile_scenario, validate_scenario

    return compile_scenario(validate_scenario({
        "scenario": {"name": "team-delegation",
                     "kind": "concurrent_delegation", "seed": 307},
        "team": {"subcells": [f"C{i:02d}" for i in range(size)]},
        "traffic": {"jitter": 0.2},
        "crashes": {"schedule": [{"node": "ws-C01", "at": 15.0,
                                  "restart_after": 5.0}]},
    }))


def _package_lines(run) -> int:
    """``line`` events executed in ``src/repro`` frames by ``run()``."""
    package = str(Path(repro.__file__).parent)
    executed = [0]

    def count(frame, event, arg):
        if event == "line":
            executed[0] += 1
        return count

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(package):
            return count(frame, event, arg)
        return None

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return executed[0]


def _lines_per_sub_da(size: int) -> float:
    """``line`` events executed in ``src/repro`` frames by one run of
    :func:`_team_delegation`, per sub-DA (set-up not counted).  A
    small run goes first, untraced, so that the modules a run imports
    are not counted against the first size measured."""
    _team_delegation(2).run()
    return _package_lines(_team_delegation(size).run) / size


class TestTheDcLevelIsFlat:
    """A count gate on the DC level, at two sizes of the
    ``team_delegation`` workload's tables: a DM is stepped when
    something it waits on happens, so the kernel work per sub-DA does
    not grow with the team and no message steps a DM it was not
    addressed to; and a delegation costs what it touches, so the lines
    executed per sub-DA do not grow either (the planner, the lock table
    and the tools' output once grew them 1.18x from 12 to 48 subcells
    and 2.01x from 30 to 240).  Line counts move with the CPython minor
    version, so only their ratios are gated."""

    SIZES = (12, 48)
    #: lines per sub-DA at 48 subcells over those at 12
    MAX_LINE_GROWTH = 1.05
    #: the same from 30 to 240 subcells (slow)
    MAX_LINE_GROWTH_SLOW = 1.3

    def test_lines_per_sub_da_do_not_grow(self):
        small, large = (_lines_per_sub_da(size) for size in self.SIZES)
        assert large / small <= self.MAX_LINE_GROWTH, (small, large)

    @pytest.mark.slow
    def test_lines_per_sub_da_do_not_grow_at_240_subcells(self):
        small, large = (_lines_per_sub_da(size) for size in (30, 240))
        assert large / small <= self.MAX_LINE_GROWTH_SLOW, (small, large)

    def test_steps_and_events_per_sub_da_do_not_grow(self, monkeypatch):
        from repro.dc.design_manager import DesignManager
        from repro.sim.kernel import Kernel

        counts = {"start_step": 0, "productive": 0, "messages": 0,
                  "da_steps_in_messages": 0}
        executing = [""]
        start_step, at, defer = (DesignManager.start_step, Kernel.at,
                                 Kernel.defer)

        def counted_start_step(self):
            outcome = start_step(self)
            counts["start_step"] += 1
            counts["productive"] += bool(outcome)
            return outcome

        def labelled(action, label):
            def run():
                executing[0] = label
                counts["messages"] += label.startswith("msg:")
                try:
                    action()
                finally:
                    executing[0] = ""
            return run

        def labelled_at(self, time, action, label="", priority=0):
            at(self, time, labelled(action, label), label, priority)

        def counted_defer(self, delay, action, label=""):
            if label.startswith("da-step:") \
                    and executing[0].startswith("msg:"):
                counts["da_steps_in_messages"] += 1
            defer(self, delay, labelled(action, label), label)

        monkeypatch.setattr(DesignManager, "start_step", counted_start_step)
        monkeypatch.setattr(Kernel, "at", labelled_at)
        monkeypatch.setattr(Kernel, "defer", counted_defer)
        per_sub_da = {}
        for size in self.SIZES:
            counts.update(dict.fromkeys(counts, 0))
            report = _team_delegation(size).run()
            assert set(report.final_states.values()) \
                == {"active", "terminated"}
            assert counts["start_step"] <= counts["productive"] + size
            assert counts["messages"] >= size
            assert counts["da_steps_in_messages"] <= counts["messages"]
            per_sub_da[size] = report.events / size
        small, large = (per_sub_da[size] for size in self.SIZES)
        assert large == pytest.approx(small, rel=0.05)


def _cooperation_protocol(leads: int):
    """The ``cm_cooperation`` workload's protocol on a system with a
    top-level DA, *leads* sub-DAs and seven leaves under each: returns
    the run (build the hierarchy, let each sibling pair evaluate,
    require, propagate, propose, agree and read its messages, crash
    and restart the server) and the number of operations it makes."""
    import random

    from repro.core.features import DesignSpecification, RangeFeature
    from repro.core.system import ConcordSystem
    from repro.vlsi.tools import vlsi_dots

    leaves = 7
    system = ConcordSystem(trace=False, seed=401)
    for index in range(leads + 1):
        system.add_workstation(f"ws-{index}")
    dots = vlsi_dots()
    cm, rng = system.cm, random.Random(401)
    noop = Script(Sequence(DopStep("structure_synthesis")), "noop")

    def spec(limit):
        return DesignSpecification([
            RangeFeature("width-limit", "width", hi=limit),
            RangeFeature("height-limit", "height", hi=limit)])

    def run():
        top = system.init_design(dots["Chip"], spec(1000.0), "chief", noop,
                                 "ws-0")
        system.start(top.da_id)
        teams = []
        for index in range(leads):
            station = f"ws-{index + 1}"
            lead = system.create_sub_da(top.da_id, dots["Module"],
                                        spec(400.0), "lead", noop, station)
            system.start(lead.da_id)
            team = []
            for _ in range(leaves):
                leaf = system.create_sub_da(lead.da_id, dots["Block"],
                                            spec(100.0), "leaf", noop,
                                            station)
                system.start(leaf.da_id)
                team.append(leaf.da_id)
            teams.append(team)
        for team in teams:
            rng.shuffle(team)
            for supporting, requiring in zip(team[0::2], team[1::2]):
                width = rng.uniform(10.0, 40.0)
                dov = system.repository.checkin(
                    supporting, "Block",
                    {"cell": supporting, "level": "block", "width": width,
                     "height": rng.uniform(10.0, 40.0)})
                cm.evaluate(supporting, dov.dov_id)
                cm.require(requiring, supporting, {"width-limit"})
                assert cm.propagate(supporting, dov.dov_id) == [requiring]
                border = rng.uniform(width, 90.0)
                proposal = cm.propose(requiring, supporting, {
                    supporting: [RangeFeature("width-limit", "width",
                                              hi=border)],
                    requiring: [RangeFeature("width-limit", "width",
                                             hi=200.0 - border)]})
                cm.agree(supporting, proposal.proposal_id)
                assert cm.pop_messages(requiring)
        before = cm.hierarchy_snapshot()
        system.crash_server()
        system.restart_server()
        assert cm.hierarchy_snapshot() == before

    das = 1 + leads * (1 + leaves)
    return run, 2 * das + 6 * leads * (leaves // 2) + 2


class TestTheAcLevelIsFlat:
    """A count gate on the AC level, at two sizes of the
    ``cm_cooperation`` workload's hierarchy: an operation reads the
    relationships of the DAs it names (usages per supporting DA,
    negotiations per DA) and its state-log record images the kinds it
    marked, so the lines executed per operation do not grow with the
    hierarchy (the registry scans once grew them 1.11x from 7 to 28
    leads); and T6's create + start costs the same per DA at 40 and
    640 DAs.  Line counts move with the CPython minor version, so only
    their ratios are gated."""

    SIZES = (7, 28)
    #: lines per operation at 28 leads over those at 7, and lines per
    #: DA at 640 DAs over those at 40
    MAX_LINE_GROWTH = 1.05

    def test_lines_per_operation_do_not_grow(self):
        _cooperation_protocol(2)[0]()   # what a run imports, untraced
        small, large = (_package_lines(run) / ops for run, ops
                        in map(_cooperation_protocol, self.SIZES))
        assert large / small <= self.MAX_LINE_GROWTH, (small, large)

    def test_lines_per_da_of_create_and_start_do_not_grow(self):
        """T6's workload (``grow_hierarchy``): only its ``2 * size`` CM
        operations are counted, not the Zipf draws of their parents,
        which are quadratic in the size by themselves.  An operation
        forces the after-images of what it touched and a checkpoint is
        paid for by the records that made it due, so the lines per DA
        do not grow from 40 to 640 DAs."""
        from repro.bench.experiments import grow_hierarchy

        grow_hierarchy(5)[1]()          # what a run imports, untraced
        small, large = (_package_lines(grow_hierarchy(size)[1]) / size
                        for size in (40, 640))
        assert large / small <= self.MAX_LINE_GROWTH, (small, large)


class TestTheFederationIsFlat:
    """A count gate on the federated atomic commit: the same four DAs,
    pinned to the same four members, commit the same 16-version batch
    ten times while the federation around them grows from 4 to 16 to
    64 members.  Home resolution is a lookup in the coordinator's
    staged-home map, and prepare, decide and complete touch only the
    four members the batch lives on, so ``commit_group`` executes the
    same lines per batch at every member count (staging is not
    counted)."""

    MEMBERS = (4, 16, 64)
    DAS, PER_DA, BATCHES = 4, 4, 10

    def lines_per_batch(self, members: int) -> float:
        from repro.repository.federation import FederatedRepository
        from repro.util.ids import IdGenerator

        ids = IdGenerator()
        federation = FederatedRepository(
            {f"site-{index}": DesignDataRepository(ids)
             for index in range(members)})
        federation.register_dot(_CELL)
        heads = {}
        for index in range(self.DAS):
            da_id = f"da-{index}"
            federation.assign(da_id, f"site-{index}")
            federation.create_graph(da_id)
            heads[da_id] = federation.checkin(
                da_id, "Cell", _nested_payload(rev=0), ()).dov_id
        rev = lines = 0
        for _ in range(self.BATCHES):
            staged = []
            for da_id in heads:
                for _ in range(self.PER_DA):
                    rev += 1
                    staged.append(federation.stage_checkin(
                        da_id, "Cell", _nested_payload(rev=rev),
                        (heads[da_id],), created_at=float(rev)).dov_id)
            committed = []
            lines += _package_lines(
                lambda: committed.extend(federation.commit_group(staged)))
            assert len(committed) == len(staged)
            for dov in committed:
                heads[dov.created_by] = dov.dov_id
        return lines / self.BATCHES

    def test_lines_per_batch_are_equal_at_every_member_count(self):
        counts = [self.lines_per_batch(members) for members in self.MEMBERS]
        assert counts == [counts[0]] * len(counts), counts


class TestALeasedReadCostsWhatItTouches:
    """Count gates on the bookkeeping of a leased read, host-independent:
    a batch renewal walks the renewing workstation's leases only, and
    a checkout's short read lock is one counted section."""

    @staticmethod
    def _renewal_lines(others: int) -> int:
        """``line`` events of renewing ws-1's four leases while three
        other workstations hold *others* more leased DOVs."""
        table = LeaseTable(SimClock(), ttl=10.0)
        for index in range(4):
            table.grant("ws-1", f"dov-{index}")
        for index in range(others):
            table.grant(f"ws-{2 + index % 3}", f"other-{index}")
        lines = 0

        def trace(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return trace

        sys.settrace(trace)
        try:
            renewed = table.renew_workstation("ws-1")
        finally:
            sys.settrace(None)
        assert renewed == 4
        assert table.renewals == 4
        return lines

    def test_a_renewal_walks_only_its_workstations_leases(self):
        alone = self._renewal_lines(0)
        assert self._renewal_lines(10) == alone
        assert self._renewal_lines(1000) == alone

    def test_a_free_short_read_enters_no_table(self):
        # the read runs inside one server event: its short lock is
        # counted, once per read, and held by no table
        rig = _make_rig()
        server_tm = rig.server_tm
        dov = rig.repository.checkin("da-1", "Cell", _nested_payload())
        for count in (1, 2):
            assert server_tm.checkout("da-1", "dop-1", dov.dov_id) is dov
            assert server_tm.short_locks == count


def _smoke_lines_within(workload: str,
                        ceilings: dict[tuple[int, int], float]) -> dict:
    """Count smoke-size *workload* with ``tools/lines_per_op.py``,
    check its lines per designer op against this CPython's ceiling
    and return the profile's functions (skips on an unpinned
    version)."""
    ceiling = ceilings.get(sys.version_info[:2])
    if ceiling is None:
        pytest.skip("lines per op are pinned for CPython 3.11")
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "tools" / "lines_per_op.py"),
         workload, "--smoke", "--json"],
        capture_output=True, text=True, check=True, cwd=root)
    result = json.loads(done.stdout)
    assert result["problems"] == []
    assert result["lines"] / result["ops"] <= ceiling, \
        (result["lines"], result["ops"])
    return result["functions"]


class TestALeaseEndsWithoutATimer:
    """A count gate on the read campaign, host-independent: a lease
    ends with its term at both ends, so no expiry timer runs and no
    expiry message is sent, and smoke-size ``campaign_reads`` runs at
    most the pinned lines per designer op (``tools/lines_per_op.py``,
    an exact ``sys.settrace`` count).  With a bucketed kernel timer per
    expiry instant and an invalidation posted at each expiry it ran
    80.9.  Line counts move with the CPython minor version, so the
    ceiling is pinned per version."""

    #: lines per designer op of smoke-size ``campaign_reads`` at the
    #: tool's seed, per CPython minor version
    MAX_LINES_PER_OP = {(3, 11): 72.4}

    def test_smoke_campaign_reads_lines_per_op(self):
        functions = _smoke_lines_within("campaign_reads",
                                        self.MAX_LINES_PER_OP)
        assert not [name for name in functions
                    if "_on_bucket" in name or "_on_lease_expired" in name]


class TestAScopeLockIsAVisibilityEntry:
    """A count gate on the delegation, host-independent: a scope lock
    is an entry of the CM's visibility registry and a short lock a
    counted section, so no lock table runs beside the registry, and
    smoke-size ``team_delegation`` runs at most the pinned lines per
    designer op (``tools/lines_per_op.py``).  With the lock table it
    ran 1 268.8.  Line counts move with the CPython minor version, so
    the ceiling is pinned per version."""

    #: lines per designer op of smoke-size ``team_delegation`` at the
    #: tool's seed, per CPython minor version
    MAX_LINES_PER_OP = {(3, 11): 1255.0}

    def test_smoke_team_delegation_lines_per_op(self):
        functions = _smoke_lines_within("team_delegation",
                                        self.MAX_LINES_PER_OP)
        assert not [name for name in functions
                    if name.startswith("te/locks.py:")]


#: what the peak gate runs in a fresh process: smoke-size
#: ``campaign_reads`` set up at ``run.py``'s default seed, then its run
#: under ``tracemalloc`` after a full collection; prints the peak bytes
_TRACED_PEAK = """
import gc, sys, tempfile, tracemalloc
from pathlib import Path
root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "benchmarks" / "e2e")]
import workloads
workload = workloads.WORKLOADS["campaign_reads"]
with tempfile.TemporaryDirectory() as scratch:
    config = Path(scratch) / "campaign_reads.toml"
    config.write_text(workload.generate(workloads.DEFAULT_SEED, True),
                      encoding="utf-8")
    state = workload.setup(config)
    gc.collect()
    tracemalloc.start()
    workload.run(state)
    print(tracemalloc.get_traced_memory()[1])
"""


class TestARunKeepsOnlyWhatItStillNeeds:
    """A memory gate on the read campaign, exact at a seed: the
    kernel logs each event unboxed and the campaign lets go of its
    drawn plans once their begin events are filed, so a plan lives
    only in its begin event and its session.  With every plan kept to
    the last event and every logged event a boxed tuple, the run's
    ``tracemalloc`` peak was 1 405 638 bytes.  Allocation sizes move
    with the CPython minor version, so the ceiling is pinned per
    version."""

    #: ``tracemalloc`` peak bytes of smoke-size ``campaign_reads``'
    #: run, per CPython minor version
    MAX_PEAK_BYTES = {(3, 11): 1_260_000}

    def test_smoke_campaign_reads_peak(self):
        ceiling = self.MAX_PEAK_BYTES.get(sys.version_info[:2])
        if ceiling is None:
            pytest.skip("the peak is pinned for CPython 3.11")
        root = Path(__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-B", "-c", _TRACED_PEAK, str(root)],
            capture_output=True, text=True, check=True, cwd=root)
        assert int(done.stdout.split()[-1]) <= ceiling, done.stdout


class TestSchedulerPendingCounter:
    def test_pending_tracks_schedule_and_run(self):
        scheduler = EventScheduler(SimClock())
        for i in range(5):
            scheduler.at(float(i), lambda: None, label=f"e{i}")
        assert scheduler.pending == 5
        scheduler.run(max_events=1)
        assert scheduler.pending == 4
        scheduler.run(max_events=2)
        assert scheduler.pending == 2
        scheduler.run()
        assert scheduler.pending == 0
        assert scheduler.executed == 5


def test_frozen_payload_marker_is_structural():
    assert is_frozen_payload(freeze_payload({"a": 1}))
    assert is_frozen_payload(freeze_payload([1, 2]))
    assert not is_frozen_payload({"a": 1})
    assert not is_frozen_payload([1, 2])
    assert not is_frozen_payload("scalar")
