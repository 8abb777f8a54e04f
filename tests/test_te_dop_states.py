"""Unit tests for the DOP lifecycle guards."""

from __future__ import annotations

import pytest

from repro.te.dop import DesignOperation, DopState
from repro.util.errors import TransactionStateError


def make_dop(state: DopState = DopState.CREATED) -> DesignOperation:
    dop = DesignOperation("dop-1", "da-1", "ws-1", "tool")
    dop.transition(state)
    return dop


class TestStateGuards:
    def test_created_allows_activate_and_abort_only(self):
        dop = make_dop(DopState.CREATED)
        dop.require("activate")
        dop.require("abort")
        for operation in ("checkout", "work", "save", "restore",
                          "suspend", "checkin", "commit", "resume"):
            with pytest.raises(TransactionStateError):
                dop.require(operation)

    def test_active_allows_processing(self):
        dop = make_dop(DopState.ACTIVE)
        for operation in ("checkout", "work", "save", "restore",
                          "suspend", "checkin", "commit", "abort"):
            dop.require(operation)
        with pytest.raises(TransactionStateError):
            dop.require("resume")

    def test_suspended_allows_resume_and_abort_only(self):
        dop = make_dop(DopState.SUSPENDED)
        dop.require("resume")
        dop.require("abort")
        for operation in ("work", "checkout", "checkin", "commit",
                          "save"):
            with pytest.raises(TransactionStateError):
                dop.require(operation)

    @pytest.mark.parametrize("terminal", [DopState.COMMITTED,
                                          DopState.ABORTED])
    def test_terminal_states_allow_nothing(self, terminal):
        dop = make_dop(terminal)
        for operation in ("activate", "checkout", "work", "save",
                          "restore", "suspend", "resume", "checkin",
                          "commit", "abort"):
            with pytest.raises(TransactionStateError):
                dop.require(operation)

    def test_error_message_names_dop_and_state(self):
        dop = make_dop(DopState.COMMITTED)
        with pytest.raises(TransactionStateError) as info:
            dop.require("work")
        assert "dop-1" in str(info.value)
        assert "committed" in str(info.value)
