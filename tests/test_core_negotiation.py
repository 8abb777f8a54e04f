"""Integration tests for negotiation relationships (Sect.4.1)."""

from __future__ import annotations

import pytest

from repro.scenario.delegation import chip_spec, make_vlsi_system
from repro.core.features import RangeFeature
from repro.core.states import DaState
from repro.dc.script import DopStep, Script, Sequence
from repro.util.errors import NegotiationError
from repro.vlsi.tools import vlsi_dots

NOOP = Script(Sequence(DopStep("structure_synthesis")), "noop")


@pytest.fixture
def rig():
    system = make_vlsi_system(("ws-1", "ws-2", "ws-3"))
    dots = vlsi_dots()
    top = system.init_design(
        dots["Chip"], chip_spec(100, 100), "lead", NOOP, "ws-1",
        initial_data={"cell": "chip", "level": "chip",
                      "behavior": {"operations": ["a", "b"]}})
    system.start(top.da_id)
    sub_a = system.create_sub_da(top.da_id, dots["Module"],
                                 chip_spec(60, 60), "a", NOOP, "ws-2")
    sub_b = system.create_sub_da(top.da_id, dots["Module"],
                                 chip_spec(60, 60), "b", NOOP, "ws-3")
    system.start(sub_a.da_id)
    system.start(sub_b.da_id)
    return system, top, sub_a, sub_b


def border_proposal(system, sub_a, sub_b, a_width=70.0, total=100.0):
    return system.cm.propose(
        sub_a.da_id, sub_b.da_id,
        changes={
            sub_a.da_id: [RangeFeature("width-limit", "width",
                                       hi=a_width)],
            sub_b.da_id: [RangeFeature("width-limit", "width",
                                       hi=total - a_width)],
        }, note="move the borderline")


class TestEstablishment:
    def test_super_creates_relationship(self, rig):
        system, top, sub_a, sub_b = rig
        negotiation = system.cm.create_negotiation_relationship(
            top.da_id, sub_a.da_id, sub_b.da_id, subject="border")
        assert negotiation.involves(sub_a.da_id)
        assert negotiation.other(sub_a.da_id) == sub_b.da_id
        # creating the relationship does not suspend the parties
        assert sub_a.state is DaState.ACTIVE

    def test_only_common_super_may_create(self, rig):
        system, __, sub_a, sub_b = rig
        with pytest.raises(NegotiationError):
            system.cm.create_negotiation_relationship(
                sub_a.da_id, sub_a.da_id, sub_b.da_id)

    def test_non_siblings_rejected(self, rig):
        system, top, sub_a, __ = rig
        dots = vlsi_dots()
        grandchild = system.create_sub_da(sub_a.da_id, dots["Block"],
                                          chip_spec(10, 10), "g", NOOP,
                                          "ws-2")
        system.start(grandchild.da_id)
        with pytest.raises(NegotiationError):
            system.cm.propose(grandchild.da_id, top.da_id, changes={})

    def test_propose_establishes_dynamically(self, rig):
        system, __, sub_a, sub_b = rig
        border_proposal(system, sub_a, sub_b)
        assert len(system.cm.negotiations_of(sub_a.da_id)) == 1


class TestProposeAgree:
    def test_propose_suspends_both(self, rig):
        system, __, sub_a, sub_b = rig
        border_proposal(system, sub_a, sub_b)
        assert sub_a.state is DaState.NEGOTIATING
        assert sub_b.state is DaState.NEGOTIATING
        messages = system.cm.pop_messages(sub_b.da_id, "proposal")
        assert len(messages) == 1

    def test_agree_applies_changes_and_resumes(self, rig):
        system, __, sub_a, sub_b = rig
        proposal = border_proposal(system, sub_a, sub_b, a_width=70.0)
        system.cm.agree(sub_b.da_id, proposal.proposal_id)
        assert sub_a.state is DaState.ACTIVE
        assert sub_b.state is DaState.ACTIVE
        assert sub_a.spec.feature("width-limit").hi == 70.0
        assert sub_b.spec.feature("width-limit").hi == 30.0

    def test_proposer_cannot_agree_to_own(self, rig):
        system, __, sub_a, sub_b = rig
        proposal = border_proposal(system, sub_a, sub_b)
        with pytest.raises(NegotiationError):
            system.cm.agree(sub_a.da_id, proposal.proposal_id)

    def test_one_open_proposal_at_a_time(self, rig):
        system, __, sub_a, sub_b = rig
        border_proposal(system, sub_a, sub_b)
        with pytest.raises(NegotiationError):
            border_proposal(system, sub_a, sub_b)

    def test_agree_twice_rejected(self, rig):
        system, __, sub_a, sub_b = rig
        proposal = border_proposal(system, sub_a, sub_b)
        system.cm.agree(sub_b.da_id, proposal.proposal_id)
        with pytest.raises(NegotiationError):
            system.cm.agree(sub_b.da_id, proposal.proposal_id)


class TestDisagreeAndCounter:
    def test_disagree_keeps_negotiating(self, rig):
        system, __, sub_a, sub_b = rig
        proposal = border_proposal(system, sub_a, sub_b)
        system.cm.disagree(sub_b.da_id, proposal.proposal_id)
        assert sub_a.state is DaState.NEGOTIATING
        assert sub_b.state is DaState.NEGOTIATING
        messages = system.cm.pop_messages(sub_a.da_id, "disagree")
        assert len(messages) == 1

    def test_counter_proposal_after_disagree(self, rig):
        system, __, sub_a, sub_b = rig
        first = border_proposal(system, sub_a, sub_b, a_width=80.0)
        system.cm.disagree(sub_b.da_id, first.proposal_id)
        counter = border_proposal(system, sub_a, sub_b, a_width=60.0)
        system.cm.agree(sub_b.da_id, counter.proposal_id)
        negotiation = system.cm.negotiations_of(sub_a.da_id)[0]
        assert negotiation.rounds() == 2
        assert sub_a.spec.feature("width-limit").hi == 60.0

    def test_b_may_counter_propose(self, rig):
        system, __, sub_a, sub_b = rig
        first = border_proposal(system, sub_a, sub_b, a_width=80.0)
        system.cm.disagree(sub_b.da_id, first.proposal_id)
        counter = system.cm.propose(
            sub_b.da_id, sub_a.da_id,
            changes={sub_b.da_id: [RangeFeature("width-limit", "width",
                                                hi=50.0)],
                     sub_a.da_id: [RangeFeature("width-limit", "width",
                                                hi=50.0)]})
        system.cm.agree(sub_a.da_id, counter.proposal_id)
        assert sub_a.spec.feature("width-limit").hi == 50.0


class TestEscalation:
    def test_conflict_escalates_to_super(self, rig):
        system, top, sub_a, sub_b = rig
        proposal = border_proposal(system, sub_a, sub_b)
        system.cm.disagree(sub_b.da_id, proposal.proposal_id)
        negotiation = system.cm.negotiations_of(sub_a.da_id)[0]
        super_id = system.cm.sub_das_specification_conflict(
            sub_a.da_id, negotiation.negotiation_id)
        assert super_id == top.da_id
        assert sub_a.state is DaState.ACTIVE
        assert sub_b.state is DaState.ACTIVE
        assert negotiation.escalations == 1
        messages = system.cm.pop_messages(top.da_id,
                                          "specification_conflict")
        assert len(messages) == 1

    def test_super_resolves_via_modification(self, rig):
        """The paper's resolution path: after escalation the super-DA
        modifies both specs (the Fig.5 more-area/less-area move)."""
        system, top, sub_a, sub_b = rig
        proposal = border_proposal(system, sub_a, sub_b)
        system.cm.disagree(sub_b.da_id, proposal.proposal_id)
        negotiation = system.cm.negotiations_of(sub_a.da_id)[0]
        system.cm.sub_das_specification_conflict(
            sub_a.da_id, negotiation.negotiation_id)
        system.cm.modify_sub_da_specification(top.da_id, sub_a.da_id,
                                              chip_spec(70, 100))
        system.cm.modify_sub_da_specification(top.da_id, sub_b.da_id,
                                              chip_spec(30, 100))
        assert sub_a.spec.feature("width-limit").hi == 70.0
        assert sub_b.spec.feature("width-limit").hi == 30.0

    def test_outsider_cannot_escalate(self, rig):
        system, top, sub_a, sub_b = rig
        border_proposal(system, sub_a, sub_b)
        negotiation = system.cm.negotiations_of(sub_a.da_id)[0]
        with pytest.raises(NegotiationError):
            system.cm.sub_das_specification_conflict(
                top.da_id, negotiation.negotiation_id)
