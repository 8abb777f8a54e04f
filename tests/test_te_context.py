"""Unit tests for DOP contexts and savepoint stacks."""

from __future__ import annotations

import pytest

from repro.repository.versions import freeze_payload
from repro.te.context import DopContext, SavepointStack
from repro.util.errors import RecoveryError


class TestDopContext:
    def test_snapshot_roundtrip(self):
        context = DopContext(data={"a": [1]}, tool_state={"phase": 1},
                             checked_out=["dov-1"], work_done=5.0)
        snap = context.snapshot()
        back = DopContext.from_snapshot(snap)
        assert back.data == {"a": [1]}
        assert back.tool_state == {"phase": 1}
        assert back.checked_out == ["dov-1"]
        assert back.work_done == 5.0

    def test_snapshot_is_isolated(self):
        context = DopContext(data={"a": [1]})
        snap = context.snapshot()
        context.data["a"].append(2)
        assert snap.data["a"] == [1]

    def test_from_snapshot_is_isolated(self):
        snap = DopContext(data={"a": [1]},
                          tool_state={"seen": {"x": [0]}}).snapshot()
        context = DopContext.from_snapshot(snap)
        context.data["a"].append(2)
        context.tool_state["seen"]["x"].append(1)
        assert snap.data["a"] == [1]
        assert snap.tool_state["seen"] == {"x": [0]}
        again = DopContext.from_snapshot(snap)
        assert again.data == {"a": [1]}
        assert again.tool_state == {"seen": {"x": [0]}}

    def test_an_image_cannot_be_mutated(self):
        snap = DopContext(data={"a": [1]}, checked_out=["d1"]).snapshot()
        with pytest.raises(TypeError):
            snap.data["a"].append(2)
        with pytest.raises(TypeError):
            snap.data["b"] = 1
        with pytest.raises(AttributeError):
            snap.work_done = 3.0
        assert snap.checked_out == ("d1",)

    def test_unchanged_parts_are_shared_between_images(self):
        payload = freeze_payload({"tree": {"k": [1, 2]}, "name": "n"})
        context = DopContext(tool_state={"phase": 1})
        context.data.update(payload)
        first = context.snapshot()
        context.work_done += 5.0
        second = context.snapshot()
        assert second.data is first.data
        assert second.tool_state is first.tool_state
        assert second.work_done == 5.0
        context.data["name"] = "renamed"
        third = context.snapshot()
        assert third.data is not first.data
        assert third.data["tree"] is first.data["tree"]
        assert first.data["name"] == "n"

    def test_key_order_survives_the_round_trip(self):
        context = DopContext(data={"b": 1, "a": 2})
        context.snapshot()
        del context.data["b"]
        context.data["b"] = 1       # same members, other order
        back = DopContext.from_snapshot(context.snapshot())
        assert list(back.data) == ["a", "b"]


class TestSavepointStack:
    def test_save_restore_latest(self):
        stack = SavepointStack()
        context = DopContext(data={"v": 1})
        stack.save("one", context)
        context.data["v"] = 2
        restored = stack.restore()
        assert restored.data["v"] == 1

    def test_restore_by_name_discards_later(self):
        stack = SavepointStack()
        context = DopContext(data={"v": 1})
        stack.save("one", context)
        context.data["v"] = 2
        stack.save("two", context)
        restored = stack.restore("one")
        assert restored.data["v"] == 1
        assert stack.names() == ["one"]

    def test_restore_keeps_the_restored_point(self):
        stack = SavepointStack()
        stack.save("one", DopContext(data={"v": 1}))
        stack.restore("one")
        restored_again = stack.restore("one")
        assert restored_again.data["v"] == 1

    def test_duplicate_name_rejected(self):
        stack = SavepointStack()
        stack.save("one", DopContext())
        with pytest.raises(RecoveryError):
            stack.save("one", DopContext())

    def test_restore_unknown_raises(self):
        stack = SavepointStack()
        stack.save("one", DopContext())
        with pytest.raises(RecoveryError):
            stack.restore("missing")

    def test_restore_empty_raises(self):
        with pytest.raises(RecoveryError):
            SavepointStack().restore()

    def test_clear(self):
        stack = SavepointStack()
        stack.save("one", DopContext())
        stack.clear()
        assert len(stack) == 0

    def test_snapshot_roundtrip(self):
        stack = SavepointStack()
        stack.save("a", DopContext(data={"v": 1}))
        stack.save("b", DopContext(data={"v": 2}))
        back = SavepointStack.from_snapshot(stack.snapshot())
        assert back.names() == ["a", "b"]
        assert back.restore("a").data["v"] == 1

    def test_a_savepoint_is_frozen_once_and_shared_by_every_snapshot(self):
        stack = SavepointStack()
        context = DopContext(data={"cells": [1, 2]})
        stack.save("a", context)
        first = stack.snapshot()
        context.data["cells"].append(3)
        stack.save("b", context)
        second = stack.snapshot()
        assert second[0] is first[0]
        assert second[0][1].data == {"cells": [1, 2]}
        # restoring discards later savepoints without touching an
        # image already handed out
        stack.restore("a")
        assert [name for name, _ in second] == ["a", "b"]
        assert stack.snapshot() == first

    def test_wipe_out_semantics(self):
        """Restoring wipes out everything changed after the savepoint."""
        stack = SavepointStack()
        context = DopContext(data={"placed": ["a"]})
        stack.save("before-experiment", context)
        context.data["placed"] += ["b", "c"]
        context.tool_state["dirty"] = True
        restored = stack.restore("before-experiment")
        assert restored.data["placed"] == ["a"]
        assert "dirty" not in restored.tool_state
