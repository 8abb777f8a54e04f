"""Unit tests for two-phase commit and its optimisations."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.net.network import Network, NodeKind
from repro.net.two_phase_commit import (
    CommitProtocol,
    Decision,
    TwoPhaseCoordinator,
    Vote,
)
from repro.util.errors import TwoPhaseCommitError


@dataclass
class Participant:
    node_id: str
    vote: Vote = Vote.YES
    log: list = field(default_factory=list)

    def prepare(self, txn_id):
        self.log.append("prepare")
        return self.vote

    def commit(self, txn_id):
        self.log.append("commit")

    def abort(self, txn_id):
        self.log.append("abort")


def rig(n=2, protocol=CommitProtocol.PRESUMED_ABORT, ro=True):
    network = Network()
    network.add_node("coord", NodeKind.WORKSTATION)
    parts = []
    for i in range(n):
        network.add_node(f"p{i}", NodeKind.SERVER)
        parts.append(Participant(f"p{i}"))
    coordinator = TwoPhaseCoordinator(network, "coord", protocol=protocol,
                                      read_only_optimisation=ro)
    return network, coordinator, parts


class TestCommitPath:
    def test_all_yes_commits(self):
        __, coordinator, parts = rig()
        outcome = coordinator.execute("t1", parts)
        assert outcome.committed
        for part in parts:
            assert part.log == ["prepare", "commit"]

    def test_commit_message_count(self):
        __, coordinator, parts = rig(n=3)
        outcome = coordinator.execute("t1", parts)
        # per participant: request + vote + decision + ack = 4
        assert outcome.messages == 12

    def test_commit_forced_writes(self):
        __, coordinator, parts = rig(n=3)
        outcome = coordinator.execute("t1", parts)
        # 3 prepare records + 1 coordinator decision + 3 commit records
        assert outcome.forced_log_writes == 7

    def test_decision_logged_durably(self):
        network, coordinator, parts = rig()
        coordinator.execute("t1", parts)
        assert coordinator.logged_decision("t1") is Decision.COMMIT
        network.crash_node("coord")
        network.restart_node("coord")
        assert coordinator.logged_decision("t1") is Decision.COMMIT

    def test_first_and_500th_decision_answer_after_a_coordinator_crash(
            self):
        network, coordinator, parts = rig(
            protocol=CommitProtocol.BASIC)
        for index in range(1, 501):
            # every seventh transaction aborts (basic 2PC logs that too)
            parts[0].vote = Vote.NO if index % 7 == 0 else Vote.YES
            coordinator.execute(f"t{index}", parts)
        network.crash_node("coord")
        network.restart_node("coord")
        assert coordinator.logged_decision("t1") is Decision.COMMIT
        assert coordinator.resolve_in_doubt("t1") is Decision.COMMIT
        assert coordinator.logged_decision("t497") is Decision.ABORT
        assert coordinator.logged_decision("t500") is Decision.COMMIT
        assert coordinator.resolve_in_doubt("t500") is Decision.COMMIT
        assert coordinator.logged_decision("t501") is None

    def test_one_record_per_decision_whatever_the_log_holds(self):
        network, coordinator, parts = rig()
        stable = network.node("coord").stable
        written = []
        put = stable.put
        stable.put = lambda key, value: (written.append((key, value)),
                                         put(key, value))
        gets = []
        get = stable.get
        stable.get = lambda key, default=None: (gets.append(key),
                                                get(key, default))[1]
        for index in range(300):
            coordinator.execute(f"t{index}", parts)
        assert written[9] == ("2pc-decisions:t9", "commit")
        assert written[299] == ("2pc-decisions:t299", "commit")
        assert len(written) == 300
        assert gets == []           # logging a decision reads nothing


class TestAbortPath:
    def test_one_no_aborts(self):
        __, coordinator, parts = rig(n=3)
        parts[1].vote = Vote.NO
        outcome = coordinator.execute("t1", parts)
        assert not outcome.committed
        assert outcome.no_voters == ["p1"]
        assert parts[0].log == ["prepare", "abort"]
        assert parts[1].log == ["prepare"]  # voted no: aborts locally

    def test_presumed_abort_saves_messages_and_writes(self):
        __, pa, parts_pa = rig(n=3, protocol=CommitProtocol.PRESUMED_ABORT)
        parts_pa[2].vote = Vote.NO
        pa_outcome = pa.execute("t1", parts_pa)

        __, basic, parts_b = rig(n=3, protocol=CommitProtocol.BASIC)
        parts_b[2].vote = Vote.NO
        basic_outcome = basic.execute("t1", parts_b)

        assert pa_outcome.messages < basic_outcome.messages
        assert pa_outcome.forced_log_writes < basic_outcome.forced_log_writes

    def test_presumed_abort_logs_no_abort_record(self):
        __, coordinator, parts = rig(protocol=CommitProtocol.PRESUMED_ABORT)
        parts[0].vote = Vote.NO
        coordinator.execute("t1", parts)
        assert coordinator.logged_decision("t1") is None
        # ... which presumed-abort resolution interprets as ABORT
        assert coordinator.resolve_in_doubt("t1") is Decision.ABORT

    def test_basic_logs_abort_record(self):
        __, coordinator, parts = rig(protocol=CommitProtocol.BASIC)
        parts[0].vote = Vote.NO
        coordinator.execute("t1", parts)
        assert coordinator.logged_decision("t1") is Decision.ABORT

    def test_basic_unknown_in_doubt_is_error(self):
        __, coordinator, __parts = rig(protocol=CommitProtocol.BASIC)
        with pytest.raises(TwoPhaseCommitError):
            coordinator.resolve_in_doubt("never-ran")


class TestReadOnlyOptimisation:
    def test_read_only_skips_phase_two(self):
        __, coordinator, parts = rig(n=3)
        parts[0].vote = Vote.READ_ONLY
        outcome = coordinator.execute("t1", parts)
        assert outcome.committed
        assert outcome.read_only_participants == ["p0"]
        assert parts[0].log == ["prepare"]       # no commit call
        assert parts[1].log == ["prepare", "commit"]

    def test_read_only_saves_cost(self):
        __, with_ro, parts_a = rig(n=3, ro=True)
        for part in parts_a[:2]:
            part.vote = Vote.READ_ONLY
        ro_outcome = with_ro.execute("t1", parts_a)

        __, without_ro, parts_b = rig(n=3, ro=False)
        for part in parts_b[:2]:
            part.vote = Vote.READ_ONLY
        plain_outcome = without_ro.execute("t1", parts_b)

        assert ro_outcome.messages < plain_outcome.messages
        assert ro_outcome.forced_log_writes < plain_outcome.forced_log_writes

    def test_disabled_ro_treated_as_yes(self):
        __, coordinator, parts = rig(n=2, ro=False)
        parts[0].vote = Vote.READ_ONLY
        outcome = coordinator.execute("t1", parts)
        assert outcome.committed
        assert parts[0].log == ["prepare", "commit"]


class TestParticipantFailure:
    def test_down_participant_means_abort(self):
        network, coordinator, parts = rig(n=2)
        network.crash_node("p1")
        outcome = coordinator.execute("t1", parts)
        assert not outcome.committed
        assert parts[0].log == ["prepare", "abort"]

    def test_crash_after_prepare_vote_lost_means_abort(self):
        network, coordinator, parts = rig(n=2)

        @dataclass
        class PrepareThenCrash(Participant):
            def prepare(self, txn_id):
                self.log.append("prepare")
                network.crash_node(self.node_id)
                return Vote.YES   # the vote message will be lost

        parts[1] = PrepareThenCrash("p1")
        outcome = coordinator.execute("t1", parts)
        # the coordinator never received p1's YES -> abort
        assert outcome.decision is Decision.ABORT
        # p1 is in doubt after restart; presumed abort resolves it
        network.restart_node("p1")
        assert coordinator.resolve_in_doubt("t1") is Decision.ABORT
