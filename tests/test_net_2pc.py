"""Unit tests for two-phase commit and its optimisations."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.network import Network, NodeKind
from repro.net.two_phase_commit import (
    CommitProtocol,
    Decision,
    TwoPhaseCoordinator,
    Vote,
)


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
        network, coordinator, parts = rig(n=3)
        outcome = coordinator.execute("t1", parts)
        # 3 prepare records + 1 coordinator decision + 3 commit records
        assert outcome.forced_log_writes == 7
        # counted for T3, written nowhere: nothing reads them back
        assert len(network.node("coord").stable) == 0


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
        __, coordinator, parts = rig(
            protocol=CommitProtocol.PRESUMED_ABORT)
        parts[0].vote = Vote.NO
        outcome = coordinator.execute("t1", parts)
        # p1's prepare record only: no decision, no abort record
        assert outcome.forced_log_writes == 1

    def test_basic_logs_abort_record(self):
        __, coordinator, parts = rig(protocol=CommitProtocol.BASIC)
        parts[0].vote = Vote.NO
        outcome = coordinator.execute("t1", parts)
        # p1's prepare, the coordinator's abort decision, p1's abort
        assert outcome.forced_log_writes == 3


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
        assert parts[0].log == ["prepare", "abort"]
