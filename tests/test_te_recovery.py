"""Unit tests for recovery points (client-TM side).

The recovery image is immutable and shares what did not change; the
property drives random DOP programs through the client-TM and compares
what a workstation crash brings back with a plain-data model the test
keeps itself.  A post-checkout point is a delta record on the previous
point; the cases at the end name each situation in which it must be a
full image instead, and a mutation check shows they would notice.
"""

from __future__ import annotations

import copy
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.perf import _make_rig
from repro.net.network import StableStorage
from repro.te.context import ContextImage, DopContext, SavepointStack
from repro.te import recovery
from repro.te.recovery import (
    MAX_DELTA_CHAIN,
    CheckoutRecord,
    RecoveryManager,
    RecoveryPoint,
)
from repro.util.errors import RecoveryError


@pytest.fixture
def manager():
    return RecoveryManager(StableStorage())


class TestPolicy:
    """When the client-TM takes its points: after every checkout, and
    every ``POINT_INTERVAL`` minutes of tool work."""

    def test_interval_due(self):
        assert recovery.POINT_INTERVAL == 30.0
        client = _make_rig().client_tm("ws-1")
        dop = client.begin_dop("da-1", "tool")
        client.work(dop, 29.9)
        assert client.recovery.points_taken == 0
        client.work(dop, 0.1)
        assert client.recovery.points_taken == 1
        assert client.recovery.latest(dop.dop_id).reason == "interval"

    def test_after_checkout_default(self):
        rig = _make_rig()
        dov = rig.repository.checkin("da-1", "Cell", PAYLOADS[0])
        client = rig.client_tm("ws-1")
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, dov.dov_id)
        assert client.recovery.points_taken == 1
        assert client.recovery.latest(dop.dop_id).reason == "checkout"


class TestRecoveryManager:
    def test_take_and_restore(self, manager):
        context = DopContext(data={"v": 1}, work_done=10.0)
        savepoints = SavepointStack()
        savepoints.save("sp", context)
        manager.take("dop-1", context, savepoints, taken_at=5.0,
                     reason="checkout")
        context.data["v"] = 99       # later volatile changes
        restored_ctx, restored_sps, point = manager.restore("dop-1")
        assert restored_ctx.data["v"] == 1
        assert restored_ctx.work_done == 10.0
        assert restored_sps.names() == ["sp"]
        assert point.reason == "checkout"
        assert point.taken_at == 5.0

    def test_only_latest_point_kept(self, manager):
        context = DopContext(data={"v": 1})
        manager.take("dop-1", context, SavepointStack(), 1.0, "checkout")
        context.data["v"] = 2
        manager.take("dop-1", context, SavepointStack(), 2.0, "interval")
        restored, __, point = manager.restore("dop-1")
        assert restored.data["v"] == 2
        assert point.reason == "interval"
        assert manager.points_taken == 2

    def test_restore_without_point_raises(self, manager):
        with pytest.raises(RecoveryError):
            manager.restore("dop-404")

    def test_remove_on_end_of_dop(self, manager):
        manager.take("dop-1", DopContext(), SavepointStack(), 0.0, "x")
        assert manager.latest("dop-1") is not None
        assert manager.remove("dop-1") is True
        assert manager.latest("dop-1") is None
        with pytest.raises(RecoveryError):
            manager.restore("dop-1")

    def test_points_per_dop_are_independent(self, manager):
        manager.take("dop-1", DopContext(data={"d": 1}),
                     SavepointStack(), 0.0, "a")
        manager.take("dop-2", DopContext(data={"d": 2}),
                     SavepointStack(), 0.0, "b")
        ctx1, __, __p1 = manager.restore("dop-1")
        ctx2, __, __p2 = manager.restore("dop-2")
        assert ctx1.data["d"] == 1
        assert ctx2.data["d"] == 2

    def test_latest_returns_none_when_absent(self, manager):
        assert manager.latest("nope") is None

    def test_the_stored_point_is_the_point_taken(self, manager):
        context = DopContext(data={"cells": [1]})
        point = manager.take("dop-1", context, SavepointStack(), 1.0, "x")
        assert manager.latest("dop-1") is point
        assert type(point.context) is ContextImage

    def test_a_point_shares_the_savepoint_images(self, manager):
        context = DopContext(data={"cells": [1]})
        savepoints = SavepointStack()
        savepoints.save("sp", context)
        first = manager.take("dop-1", context, savepoints, 1.0, "a")
        context.data["cells"].append(2)
        second = manager.take("dop-1", context, savepoints, 2.0, "b")
        assert second.savepoints is first.savepoints
        assert second.savepoints[0][1].data == {"cells": [1]}
        assert second.context.data == {"cells": [1, 2]}

    def test_a_point_refuses_anything_but_images(self):
        image = DopContext().snapshot()
        with pytest.raises(TypeError):
            RecoveryPoint("d", 0.0, "x", {"data": {}}, ())
        with pytest.raises(TypeError):
            RecoveryPoint("d", 0.0, "x", image, [("sp", image)])


# ---------------------------------------------------------------------------
# property: what a crash brings back equals a plain-data model
# ---------------------------------------------------------------------------

PAYLOADS = [
    {"name": f"cell-{i}", "meta": {"rev": i, "tags": ["a", "b"]},
     "tree": {f"n{j}": {"v": j, "s": "x" * 4} for j in range(3 + i)}}
    for i in range(3)]


def te_rig() -> SimpleNamespace:
    # one workstation + server, no buffer, the default recovery-point
    # policy (after each checkout, and every 30 minutes of work)
    rig = _make_rig(object_buffers=False)
    dovs = [rig.repository.checkin("da-1", "Cell", payload)
            for payload in PAYLOADS]
    return SimpleNamespace(network=rig.network,
                           client=rig.client_tm("ws-1"), dovs=dovs)


def append_cell(ctx, value):
    ctx.data.setdefault("cells", []).append({"x": value, "pins": [value]})


def edit_nested_data(ctx, value):
    for cell in ctx.data.get("cells", []):
        cell["pins"].append(value)
        cell["x"] += 1


def edit_nested_tool_state(ctx, value):
    state = ctx.tool_state.setdefault("iter", {"n": 0, "seen": []})
    state["n"] += 1
    state["seen"].append([value])


def overwrite_checked_out_key(ctx, value):
    ctx.data["name"] = f"renamed-{value}"


def drop_tool_output(ctx, value):
    ctx.data.pop("cells", None)
    ctx.tool_state["dropped"] = value


#: in-place edits of a context, applied to the real one and the model's
EDITS = (append_cell, edit_nested_data, edit_nested_tool_state,
         overwrite_checked_out_key, drop_tool_output)


def plain(value):
    """Plain data and nothing else: raises on anything JSON has no
    word for, and forgets every frozen type on the way."""
    return json.loads(json.dumps(value))


def assert_mutable_all_the_way_down(value) -> None:
    assert type(value) in (dict, list, str, int, float, bool,
                           type(None)), type(value)
    members = value.values() if type(value) is dict \
        else value if type(value) is list else ()
    for member in members:
        assert_mutable_all_the_way_down(member)


def model_context() -> SimpleNamespace:
    """A DOP context as plain data.  ``shared`` maps a key of ``data``
    to the frozen object a checkout put there, for as long as no tool
    step has replaced it; ``copy.deepcopy`` keeps those objects as they
    are, so a copied model still knows them by identity."""
    return SimpleNamespace(data={}, tool_state={}, checked_out=[],
                           work_done=0.0, shared={})


def assert_context_is(context: DopContext,
                      expected: SimpleNamespace) -> None:
    assert plain(context.data) == expected.data
    assert list(context.data) == list(expected.data)
    assert plain(context.tool_state) == expected.tool_state
    assert context.checked_out == expected.checked_out
    assert context.work_done == expected.work_done
    for key, value in context.data.items():
        if key in expected.shared:
            # a checked-out payload is shared, never copied
            assert value is expected.shared[key]
        else:
            assert_mutable_all_the_way_down(value)
    assert_mutable_all_the_way_down(context.tool_state)


def drive(program: list[tuple[str, int, int]]) -> None:
    rig = te_rig()
    client = rig.client
    dop = client.begin_dop("da-1", "tool")
    model = model_context()
    savepoints: list[tuple[str, SimpleNamespace]] = []
    #: the model (context, savepoints) at the last recovery point the
    #: paper's rules ask for: after a checkout, a Save, a Restore, a
    #: Suspend, and whenever 30 minutes of work have gone by without
    point = None
    since_point = 0.0
    suspended = False

    def mark_point() -> None:
        nonlocal point, since_point
        point = copy.deepcopy((model, savepoints))
        since_point = 0.0

    def checkout(index: int) -> None:
        dov = rig.dovs[index % len(rig.dovs)]
        model.data.update(plain(dov.data))
        model.checked_out.append(dov.dov_id)
        model.shared.update(dov.data)
        client.checkout(dop, dov.dov_id)
        mark_point()

    def work(edit, value: int) -> None:
        nonlocal since_point
        effort = 7.0 + value % 20
        edit(model, value)
        if edit is overwrite_checked_out_key:
            model.shared.pop("name", None)
        model.work_done += effort
        client.work(dop, effort, mutate=lambda ctx: edit(ctx, value))
        since_point += effort
        if since_point >= 30.0:
            mark_point()

    def back_to_the_point() -> None:
        nonlocal model, savepoints, suspended
        model, savepoints = copy.deepcopy(point)
        suspended = False
        assert_context_is(dop.context, model)
        assert dop.savepoints.names() == [name for name, _ in savepoints]
        for (__, image), (__, expected) in zip(
                dop.savepoints.snapshot(), savepoints):
            assert_context_is(DopContext.from_snapshot(image), expected)

    def crash_and_recover() -> None:
        nonlocal dop, since_point
        rig.network.crash_node("ws-1")
        rig.network.restart_node("ws-1")
        dop, __ = client.recover_dop(dop.dop_id, "da-1", "tool")
        since_point = 0.0
        back_to_the_point()

    checkout(0)                         # so that a point always exists
    for op, a, b in program:
        if suspended and op != "crash":
            op = "resume"
        if op == "checkout":
            checkout(a)
        elif op == "work":
            work(EDITS[a % len(EDITS)], b)
        elif op == "save":
            name = f"sp-{a}"
            if any(name == existing for existing, _ in savepoints):
                continue
            savepoints.append((name, copy.deepcopy(model)))
            client.save(dop, name)
            mark_point()
        elif op == "restore" and savepoints:
            index = a % len(savepoints)
            name = savepoints[index][0]
            del savepoints[index + 1:]
            model = copy.deepcopy(savepoints[index][1])
            client.restore(dop, name)
            mark_point()
        elif op == "suspend":
            client.suspend(dop)
            mark_point()
            suspended = True
        elif op == "resume" and suspended:
            client.resume(dop)
            back_to_the_point()
        elif op == "crash":
            crash_and_recover()
            # edits of what came back stay private: a second crash,
            # with no point in between, brings back the same state
            for edit in EDITS:
                edit(dop.context, a)
            dop.context.checked_out.append("never-checked-out")
            crash_and_recover()
    crash_and_recover()


OPS = st.sampled_from(["checkout", "work", "work", "work", "save",
                       "restore", "suspend", "resume", "crash"])
programs = st.lists(st.tuples(OPS, st.integers(0, 2 ** 16),
                              st.integers(0, 2 ** 16)), max_size=30)


@given(programs)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_a_crash_brings_back_the_model_at_the_last_point(program):
    drive(program)


@pytest.mark.slow
@given(programs)
@settings(max_examples=3000, deadline=None)
def test_a_crash_brings_back_the_model_wide_search(program):
    drive(program)


# ---------------------------------------------------------------------------
# a checkout point is a delta record — except where that would not be
# the whole truth.  One case per full-image trigger, each asserting
# what a crash brings back.
# ---------------------------------------------------------------------------

CELL = {"x": 7, "pins": [7]}


def stored(rig, dop):
    return rig.client.recovery.latest(dop.dop_id)


def crash_and_recover(rig, dop):
    rig.network.crash_node("ws-1")
    rig.network.restart_node("ws-1")
    return rig.client.recover_dop(dop.dop_id, "da-1", "tool")[0]


def ids(*dovs) -> list[str]:
    return [dov.dov_id for dov in dovs]


def case_tool_work_between_two_checkouts(rig):
    client, (a, b, c) = rig.client, rig.dovs
    dop = client.begin_dop("da-1", "tool")
    client.checkout(dop, a.dov_id)
    assert type(stored(rig, dop)) is RecoveryPoint     # the first point
    client.checkout(dop, b.dov_id)
    assert type(stored(rig, dop)) is CheckoutRecord
    client.work(dop, 5.0, mutate=lambda ctx: append_cell(ctx, 7))
    client.checkout(dop, c.dov_id)
    assert type(stored(rig, dop)) is RecoveryPoint     # the tool ran
    back = crash_and_recover(rig, dop)
    assert plain(back.context.data) == {**PAYLOADS[2], "cells": [CELL]}
    assert back.context.checked_out == ids(a, b, c)
    assert back.context.work_done == 5.0


def case_effort_alone_rides_in_the_record(rig):
    client, (a, b, _) = rig.client, rig.dovs
    dop = client.begin_dop("da-1", "tool")
    client.checkout(dop, a.dov_id)
    client.work(dop, 5.0)              # no tool step, under the interval
    client.checkout(dop, b.dov_id)
    point = stored(rig, dop)
    assert type(point) is CheckoutRecord
    assert point.payload is b.data and point.reason == "checkout"
    with pytest.raises(AttributeError):    # a stored record is a value
        point.dov_id = a.dov_id
    storage = StableStorage()              # ... vouched for by its marker
    storage.put("point", point)
    assert storage.get("point") is point
    back = crash_and_recover(rig, dop)
    assert back.context.work_done == 5.0
    assert back.context.data["tree"] is b.data["tree"]
    assert back.context.checked_out == ids(a, b)


def case_save(rig):
    client, (a, b, c) = rig.client, rig.dovs
    dop = client.begin_dop("da-1", "tool")
    client.checkout(dop, a.dov_id)
    client.checkout(dop, b.dov_id)
    client.save(dop, "sp")
    image = stored(rig, dop)
    assert type(image) is RecoveryPoint and image.reason == "savepoint:sp"
    client.checkout(dop, c.dov_id)
    assert stored(rig, dop).base is image
    back = crash_and_recover(rig, dop)
    assert plain(back.context.data) == PAYLOADS[2]
    assert back.context.checked_out == ids(a, b, c)
    assert back.savepoints.names() == ["sp"]
    saved = back.savepoints.restore("sp")
    assert plain(saved.data) == PAYLOADS[1]
    assert saved.checked_out == ids(a, b)


def case_restore(rig):
    client, (a, b, c) = rig.client, rig.dovs
    dop = client.begin_dop("da-1", "tool")
    client.checkout(dop, a.dov_id)
    client.save(dop, "sp")
    client.work(dop, 5.0, mutate=lambda ctx: append_cell(ctx, 7))
    client.checkout(dop, b.dov_id)
    client.restore(dop, "sp")
    image = stored(rig, dop)
    assert type(image) is RecoveryPoint and image.reason == "restore:sp"
    client.checkout(dop, c.dov_id)
    assert stored(rig, dop).base is image
    back = crash_and_recover(rig, dop)
    assert plain(back.context.data) == PAYLOADS[2]     # and no cells
    assert back.context.checked_out == ids(a, c)
    assert back.context.work_done == 0.0
    assert back.savepoints.names() == ["sp"]


def case_suspend_and_resume(rig):
    client, (a, b, c) = rig.client, rig.dovs
    dop = client.begin_dop("da-1", "tool")
    client.checkout(dop, a.dov_id)
    client.checkout(dop, b.dov_id)
    client.suspend(dop)
    assert type(stored(rig, dop)) is RecoveryPoint
    client.resume(dop)
    assert plain(dop.context.data) == PAYLOADS[1]
    assert dop.context.checked_out == ids(a, b)
    # the context was rebuilt from storage: the next point is an image
    client.checkout(dop, c.dov_id)
    assert type(stored(rig, dop)) is RecoveryPoint
    back = crash_and_recover(rig, dop)
    assert plain(back.context.data) == PAYLOADS[2]
    assert back.context.checked_out == ids(a, b, c)


def case_crash_and_recover(rig):
    client, (a, b, c) = rig.client, rig.dovs
    dop = client.begin_dop("da-1", "tool")
    client.checkout(dop, a.dov_id)
    client.checkout(dop, b.dov_id)
    assert type(stored(rig, dop)) is CheckoutRecord
    dop = crash_and_recover(rig, dop)
    assert plain(dop.context.data) == PAYLOADS[1]
    assert dop.input_dovs == ids(a, b)
    client.checkout(dop, c.dov_id)     # a new object: no base carried
    assert type(stored(rig, dop)) is RecoveryPoint
    client.checkout(dop, a.dov_id)
    assert type(stored(rig, dop)) is CheckoutRecord
    back = crash_and_recover(rig, dop)
    assert plain(back.context.data) == PAYLOADS[0]
    assert back.context.checked_out == ids(a, b, c, a)


def case_more_checkouts_than_the_replay_bound(rig):
    client = rig.client
    dop = client.begin_dop("da-1", "tool")
    count = 2 * MAX_DELTA_CHAIN + 5
    expected, depths = [], []
    for index in range(count):
        dov = rig.dovs[index % len(rig.dovs)]
        client.checkout(dop, dov.dov_id)
        expected.append(dov.dov_id)
        depths.append(stored(rig, dop).depth)
    cycle = MAX_DELTA_CHAIN + 1        # an image, then a full chain
    assert depths == [index % cycle for index in range(count)]
    back = crash_and_recover(rig, dop)
    assert back.context.checked_out == expected
    assert plain(back.context.data) == PAYLOADS[(count - 1) % 3]


CASES = (case_tool_work_between_two_checkouts,
         case_effort_alone_rides_in_the_record,
         case_save, case_restore, case_suspend_and_resume,
         case_crash_and_recover,
         case_more_checkouts_than_the_replay_bound)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_what_a_crash_brings_back(case):
    case(te_rig())


def failing_cases() -> set[str]:
    failed = set()
    for case in CASES:
        try:
            case(te_rig())
        except AssertionError:
            failed.add(case.__name__)
    return failed


def test_a_delta_where_an_image_is_due_is_noticed(monkeypatch):
    """Mutation check: take the caller's word away (every checkout
    builds on whatever is stored) and lift the replay bound."""
    assert failing_cases() == set()
    take = RecoveryManager.take

    def on_whatever_is_stored(self, dop_id, context, savepoints,
                              taken_at, reason, base=None, dov=None):
        return take(self, dop_id, context, savepoints, taken_at, reason,
                    base=self.latest(dop_id), dov=dov)

    with monkeypatch.context() as patch:
        patch.setattr(RecoveryManager, "take", on_whatever_is_stored)
        assert failing_cases() == {
            "case_tool_work_between_two_checkouts",   # tool output lost
            "case_suspend_and_resume", "case_crash_and_recover"}
    with monkeypatch.context() as patch:
        patch.setattr(recovery, "MAX_DELTA_CHAIN", 10 ** 9)
        assert failing_cases() == {
            "case_more_checkouts_than_the_replay_bound"}
