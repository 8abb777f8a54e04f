"""Unit tests for scripts: AST, enumeration, cursor interpretation."""

from __future__ import annotations

import pytest

from repro.dc.script import (
    ActionKind,
    Alternative,
    DaOpStep,
    DopStep,
    Iteration,
    Open,
    Parallel,
    Script,
    Sequence,
)
from repro.util.errors import ScriptError


class TestAstConstruction:
    def test_sequence_needs_children(self):
        with pytest.raises(ScriptError):
            Sequence()

    def test_alternative_needs_two_paths(self):
        with pytest.raises(ScriptError):
            Alternative(DopStep("a"))

    def test_parallel_needs_two_branches(self):
        with pytest.raises(ScriptError):
            Parallel(DopStep("a"))


class TestScriptIsImmutable:
    """The DM's persistent script is the object itself on stable
    storage, so nothing reachable from a script may change."""

    def test_script_and_step_fields_are_read_only(self):
        script = Script(Sequence(DopStep("a"), DaOpStep("Evaluate")),
                        name="s")
        with pytest.raises(AttributeError):
            script.root = DopStep("b")
        with pytest.raises(AttributeError):
            script.name = "other"
        with pytest.raises(AttributeError):
            script.root.children[0].tool = "b"

    def test_step_parameters_are_frozen_at_construction(self):
        given = {"inputs": ["dov-1"], "options": {"depth": 2}}
        for step in (DopStep("a", params=given),
                     DaOpStep("Require", params=given)):
            assert step.params == given
            given["inputs"].append("dov-2")         # the caller's dict
            assert step.params["inputs"] == ["dov-1"]
            given["inputs"].pop()
            with pytest.raises(TypeError):
                step.params["more"] = 1
            with pytest.raises(TypeError):
                step.params["options"]["depth"] = 3
            # what consumers do: a private top-level copy
            assert dict(step.params) == given

    def test_stable_storage_keeps_the_script_itself(self):
        from repro.net.network import StableStorage

        script = Script(Sequence(DopStep("a", params={"k": [1]})))
        storage = StableStorage()
        storage.put("dm-script:da-1", script)
        assert storage.get("dm-script:da-1") is script

    def test_scripts_still_compare_and_hash_by_identity(self):
        one, other = Script(DopStep("a")), Script(DopStep("a"))
        assert one != other
        assert len({one, other}) == 2


class TestEnumeration:
    def test_sequence(self):
        script = Script(Sequence(DopStep("a"), DopStep("b")))
        assert script.sequences() == [["a", "b"]]

    def test_alternative(self):
        script = Script(Alternative(DopStep("a"), DopStep("b")))
        assert sorted(script.sequences()) == [["a"], ["b"]]

    def test_da_op_invisible(self):
        script = Script(Sequence(DopStep("a"), DaOpStep("Evaluate")))
        assert script.sequences() == [["a"]]

    def test_iteration_unrolls(self):
        script = Script(Iteration(DopStep("a")))
        assert script.sequences() == [["a"], ["a", "a"]]

    def test_parallel_interleavings(self):
        script = Script(Parallel(DopStep("a"), DopStep("b")))
        assert sorted(script.sequences()) == [["a", "b"], ["b", "a"]]

    def test_open_contributes_wildcard(self):
        script = Script(Sequence(DopStep("a"), Open(), DopStep("b")))
        assert script.sequences() == [["a", Open.WILDCARD, "b"]]

    def test_nested_composition(self):
        script = Script(Sequence(
            DopStep("a"),
            Alternative(DopStep("b"), Sequence(DopStep("c"),
                                               DopStep("d")))))
        assert sorted(script.sequences()) == [["a", "b"], ["a", "c", "d"]]


class TestCursorBasics:
    def test_sequence_order(self):
        cursor = Script(Sequence(DopStep("a"), DopStep("b"))).cursor()
        first = cursor.enabled()
        assert len(first) == 1
        assert first[0].tool == "a"
        cursor.fire(first[0].token)
        assert cursor.enabled()[0].tool == "b"
        cursor.fire(cursor.enabled()[0].token)
        assert cursor.is_done()
        assert cursor.enabled() == []

    def test_cannot_fire_disabled_position(self):
        cursor = Script(Sequence(DopStep("a"), DopStep("b"))).cursor()
        with pytest.raises(ScriptError):
            cursor.fire("0.s1")  # b is not enabled yet

    def test_da_op_action_kind(self):
        cursor = Script(DaOpStep("Evaluate")).cursor()
        action = cursor.enabled()[0]
        assert action.kind is ActionKind.DA_OP


class TestCursorAlternative:
    def test_choice_then_path(self):
        cursor = Script(Alternative(DopStep("a"), DopStep("b"))).cursor()
        choice = cursor.enabled()[0]
        assert choice.kind is ActionKind.CHOICE
        assert choice.options == 2
        cursor.fire(choice.token, 1)
        assert cursor.enabled()[0].tool == "b"

    def test_invalid_choice_rejected(self):
        cursor = Script(Alternative(DopStep("a"), DopStep("b"))).cursor()
        with pytest.raises(ScriptError):
            cursor.fire(cursor.enabled()[0].token, 5)
        with pytest.raises(ScriptError):
            cursor.fire(cursor.enabled()[0].token, None)


class TestCursorParallel:
    def test_branches_concurrently_enabled(self):
        cursor = Script(Parallel(DopStep("a"), DopStep("b"))).cursor()
        tools = {a.tool for a in cursor.enabled()}
        assert tools == {"a", "b"}

    def test_any_interleaving_accepted(self):
        cursor = Script(Parallel(DopStep("a"), DopStep("b"))).cursor()
        b_action = next(a for a in cursor.enabled() if a.tool == "b")
        cursor.fire(b_action.token)
        a_action = cursor.enabled()[0]
        assert a_action.tool == "a"
        cursor.fire(a_action.token)
        assert cursor.is_done()


class TestCursorIteration:
    def test_loop_again_resets_body(self):
        cursor = Script(Iteration(DopStep("a"))).cursor()
        cursor.fire(cursor.enabled()[0].token)           # body round 0
        loop = cursor.enabled()[0]
        assert loop.kind is ActionKind.LOOP
        cursor.fire(loop.token, "again")
        body = cursor.enabled()[0]
        assert body.tool == "a"                           # fresh round
        cursor.fire(body.token)
        cursor.fire(cursor.enabled()[0].token, "exit")
        assert cursor.is_done()

    def test_max_rounds_enforced(self):
        cursor = Script(Iteration(DopStep("a"), max_rounds=2)).cursor()
        cursor.fire(cursor.enabled()[0].token)
        cursor.fire(cursor.enabled()[0].token, "again")
        cursor.fire(cursor.enabled()[0].token)
        with pytest.raises(ScriptError):
            cursor.fire(cursor.enabled()[0].token, "again")

    def test_invalid_loop_decision(self):
        cursor = Script(Iteration(DopStep("a"))).cursor()
        cursor.fire(cursor.enabled()[0].token)
        with pytest.raises(ScriptError):
            cursor.fire(cursor.enabled()[0].token, "maybe")


class TestCursorOpen:
    def test_insert_and_close(self):
        cursor = Script(Open(name="completely-open")).cursor()
        open_action = cursor.enabled()[0]
        assert open_action.kind is ActionKind.OPEN
        cursor.fire(open_action.token, ("insert", "t1"))
        inserted = cursor.enabled()[0]
        assert inserted.kind is ActionKind.DOP
        assert inserted.tool == "t1"
        cursor.fire(inserted.token)
        cursor.fire(cursor.enabled()[0].token, "close")
        assert cursor.is_done()

    def test_close_without_inserts(self):
        cursor = Script(Open(name="completely-open")).cursor()
        cursor.fire(cursor.enabled()[0].token, "close")
        assert cursor.is_done()

    def test_pending_insert_blocks_closing_completion(self):
        cursor = Script(Open(name="completely-open")).cursor()
        token = cursor.enabled()[0].token
        cursor.fire(token, ("insert", "t1"))
        # the inserted step must run; the open segment shows it
        assert cursor.enabled()[0].tool == "t1"
        assert not cursor.is_done()

    def test_allowed_tools_enforced(self):
        cursor = Script(Open(allowed_tools=("x",))).cursor()
        token = cursor.enabled()[0].token
        with pytest.raises(ScriptError):
            cursor.fire(token, ("insert", "y"))
        cursor.fire(token, ("insert", "x"))

    def test_bad_open_decision(self):
        cursor = Script(Open(name="completely-open")).cursor()
        with pytest.raises(ScriptError):
            cursor.fire(cursor.enabled()[0].token, "bogus")


class TestReplayAndReset:
    def test_replay_reproduces_state(self):
        script = Script(Sequence(
            DopStep("a"),
            Alternative(DopStep("b"), DopStep("c")),
            Iteration(DopStep("d"), max_rounds=3),
        ))
        cursor = script.cursor()
        cursor.fire(cursor.enabled()[0].token)            # a
        cursor.fire(cursor.enabled()[0].token, 1)         # choose c
        cursor.fire(cursor.enabled()[0].token)            # c
        cursor.fire(cursor.enabled()[0].token)            # d round 0
        cursor.fire(cursor.enabled()[0].token, "again")
        history = list(cursor.history)

        replayed = script.cursor()
        replayed.replay(history)
        assert [a.token for a in replayed.enabled()] == \
               [a.token for a in cursor.enabled()]
        assert list(replayed.executed_tools()) == \
               list(cursor.executed_tools())

    def test_executed_tools(self):
        script = Script(Sequence(DopStep("a"), DaOpStep("Evaluate"),
                                 DopStep("b")))
        cursor = script.cursor()
        while not cursor.is_done():
            cursor.fire(cursor.enabled()[0].token)
        assert list(cursor.executed_tools()) == ["a", "b"]

    def test_reset_subtree_reenables(self):
        script = Script(Sequence(DopStep("a"), DopStep("b")))
        cursor = script.cursor()
        cursor.fire(cursor.enabled()[0].token)
        cursor.fire(cursor.enabled()[0].token)
        assert cursor.is_done()
        cleared = cursor.reset_subtree("0.s1")
        assert cleared == 1
        assert cursor.enabled()[0].tool == "b"

    def test_the_kept_completion_follows_every_write(self):
        """``is_done`` keeps the root's completion between writes: it
        must read what a walk from the root reads after every firing,
        after a reset of a finished script, and on a cursor that got
        its state by replay."""
        script = Script(Sequence(
            DopStep("a"),
            Parallel(DopStep("b"), Open(allowed_tools=("t",))),
            Iteration(DopStep("d"), max_rounds=3),
        ))
        decisions = {ActionKind.LOOP: ["again", "exit"],
                     ActionKind.OPEN: [("insert", "t"), "close"]}
        cursor = script.cursor()

        def walked(c):
            return c._done(c.script.root, "0")

        while not cursor.is_done():
            action = cursor.enabled()[-1]
            queue = decisions.get(action.kind)
            cursor.fire(action.token, queue.pop(0) if queue else None)
            assert cursor.is_done() == walked(cursor)
            replayed = script.cursor()
            assert not replayed.is_done()  # polled before the replay
            replayed.replay(list(cursor.history))
            assert replayed.is_done() == cursor.is_done()
            assert [a.token for a in replayed.enabled()] == \
                   [a.token for a in cursor.enabled()]
        assert len(cursor.history) == 9 and cursor.enabled() == []

        assert cursor.reset_subtree("0.s2") == 3
        assert not cursor.is_done()
        assert [a.tool for a in cursor.enabled()] == ["d"]
