"""Unit tests for domain DOP-ordering constraints."""

from __future__ import annotations

import pytest

from repro.dc.constraints import DomainConstraintSet, FollowedBy, NotBefore
from repro.dc.script import Alternative, DopStep, Open, Script, Sequence
from repro.util.errors import ConstraintViolationError


@pytest.fixture
def constraints():
    return DomainConstraintSet([
        NotBefore("synthesis", "assembly"),
        FollowedBy("pad_frame", "planner"),
    ], domain="test")


class TestNotBefore:
    def test_prefix_rejects_premature_tool(self, constraints):
        with pytest.raises(ConstraintViolationError):
            constraints.admit([], "assembly")

    def test_prefix_admits_after_prerequisite(self, constraints):
        constraints.admit(["synthesis"], "assembly")

    def test_unrelated_tools_admitted(self, constraints):
        constraints.admit([], "synthesis")
        constraints.admit([], "other")

    def test_complete_check(self):
        constraint = NotBefore("a", "b")
        assert constraint.check_complete(["b", "a"]) is not None
        assert constraint.check_complete(["a", "b"]) is None
        assert constraint.check_complete(["a"]) is None


class TestFollowedBy:
    def test_unfollowed_is_violation(self, constraints):
        problems = constraints.violations(["synthesis", "pad_frame"])
        assert any("followed" in p for p in problems)

    def test_followed_ok(self, constraints):
        assert constraints.violations(
            ["synthesis", "pad_frame", "planner"]) == []

    def test_refollowed_after_second_occurrence(self):
        constraint = FollowedBy("a", "b")
        assert constraint.check_complete(["a", "b", "a"]) is not None
        assert constraint.check_complete(["a", "b", "a", "b"]) is None


class TestHistory:
    def test_history_satisfies_prerequisites(self, constraints):
        assert constraints.violations(["assembly"],
                                      history=["synthesis"]) == []

    def test_without_history_fails(self, constraints):
        assert constraints.violations(["assembly"]) != []


class TestScriptValidation:
    def test_valid_script(self, constraints):
        script = Script(Sequence(DopStep("synthesis"),
                                 DopStep("assembly")))
        assert constraints.validate_script(script) == []

    def test_invalid_path_flagged(self, constraints):
        script = Script(Alternative(
            Sequence(DopStep("synthesis"), DopStep("assembly")),
            DopStep("assembly"),   # illegal path
        ))
        problems = constraints.validate_script(script)
        assert len(problems) >= 1

    def test_open_segment_defers_to_dynamic_checks(self, constraints):
        script = Script(Sequence(DopStep("synthesis"), Open(),
                                 DopStep("assembly")))
        assert constraints.validate_script(script) == []

    def test_violation_before_open_still_caught(self, constraints):
        script = Script(Sequence(DopStep("assembly"), Open()))
        assert constraints.validate_script(script) != []

    def test_empty_constraint_set_accepts_all(self):
        empty = DomainConstraintSet()
        empty.admit([], "anything")
        assert empty.violations(["x", "y"]) == []
        assert len(empty) == 0

    def test_add_chains(self):
        constraint_set = DomainConstraintSet().add(NotBefore("a", "b"))
        assert len(constraint_set) == 1
