#!/usr/bin/env python3
"""A full negotiation session over a shared borderline (Sect.4.1).

The paper's scenario: DA1 sets a negotiation relationship between DA2
and DA3 "concerning the area for both subcells, A and B. Due to
negotiation, the two connected sub-DAs are now allowed to move the
borderline between A and B horizontally."

This example plays the whole protocol on the real cooperation manager:

* the super-DA establishes the relationship explicitly
  (Create_Negotiation_Relationship),
* A opens greedily, B disagrees, A concedes round by round (Propose /
  Disagree with counter-proposals),
* agreement applies the feature changes to *both* specifications and
  resumes both DAs,
* a second, infeasible negotiation escalates via
  Sub_DAs_Specification_Conflict, and the super-DA resolves it with
  Modify_Sub_DA_Specification.

Run with:  python examples/negotiation_session.py
"""

from repro.scenario.delegation import chip_spec, make_vlsi_system
from repro.core.features import RangeFeature
from repro.dc.script import DopStep, Script, Sequence
from repro.vlsi.tools import vlsi_dots


def build_team():
    system = make_vlsi_system(("ws-1", "ws-2", "ws-3"))
    dots = vlsi_dots()
    noop = Script(Sequence(DopStep("structure_synthesis")), "noop")
    top = system.init_design(
        dots["Chip"], chip_spec(100, 100), "lead", noop, "ws-1",
        initial_data={"cell": "cell-0", "level": "chip",
                      "behavior": {"operations": ["A", "B"]}})
    system.start(top.da_id)
    sub_a = system.create_sub_da(top.da_id, dots["Module"],
                                 chip_spec(95, 100), "anna", noop, "ws-2")
    sub_b = system.create_sub_da(top.da_id, dots["Module"],
                                 chip_spec(95, 100), "ben", noop, "ws-3")
    system.start(sub_a.da_id)
    system.start(sub_b.da_id)
    return system, top, sub_a, sub_b


def negotiate(system, top, sub_a, sub_b, need_a, need_b, total=100.0,
              concession=10.0):
    negotiation = system.cm.create_negotiation_relationship(
        top.da_id, sub_a.da_id, sub_b.da_id,
        subject="the A/B borderline")
    print(f"  {top.da_id} set negotiation "
          f"{negotiation.negotiation_id} (A needs {need_a}, "
          f"B needs {need_b}, span {total})")

    claim = total * 0.95
    while True:
        proposal = system.cm.propose(
            sub_a.da_id, sub_b.da_id,
            changes={
                sub_a.da_id: [RangeFeature("width-limit", "width",
                                           hi=claim)],
                sub_b.da_id: [RangeFeature("width-limit", "width",
                                           hi=total - claim)],
            }, note=f"border at {claim:.0f}")
        b_share = total - claim
        print(f"    A proposes border at {claim:5.1f} "
              f"(B would get {b_share:5.1f}) ... ", end="")
        if b_share >= need_b and claim >= need_a:
            system.cm.agree(sub_b.da_id, proposal.proposal_id)
            print("B agrees")
            print(f"    agreed: A.width <= "
                  f"{system.cm.da(sub_a.da_id).spec.feature('width-limit').hi}"
                  f", B.width <= "
                  f"{system.cm.da(sub_b.da_id).spec.feature('width-limit').hi}")
            print(f"    states: A={system.cm.da(sub_a.da_id).state.value},"
                  f" B={system.cm.da(sub_b.da_id).state.value}")
            return negotiation
        system.cm.disagree(sub_b.da_id, proposal.proposal_id)
        print("B disagrees")
        claim -= concession
        if claim < need_a:
            print("    A cannot concede below its own need -> "
                  "escalation")
            super_id = system.cm.sub_das_specification_conflict(
                sub_a.da_id, negotiation.negotiation_id)
            conflict = system.cm.pop_messages(
                super_id, "specification_conflict")
            print(f"    {super_id} informed "
                  f"(messages: {[m.kind for m in conflict]})")
            return negotiation


def main() -> None:
    print("=== feasible negotiation: A needs 40, B needs 35 ===")
    system, top, sub_a, sub_b = build_team()
    negotiation = negotiate(system, top, sub_a, sub_b,
                            need_a=40.0, need_b=35.0)
    print(f"  rounds: {negotiation.rounds()}, "
          f"escalations: {negotiation.escalations}")

    print("\n=== infeasible negotiation: A needs 60, B needs 60 ===")
    system, top, sub_a, sub_b = build_team()
    negotiation = negotiate(system, top, sub_a, sub_b,
                            need_a=60.0, need_b=60.0)
    print(f"  rounds: {negotiation.rounds()}, "
          f"escalations: {negotiation.escalations}")
    print("  super-DA resolves by reformulating both goals "
          "(Modify_Sub_DA_Specification):")
    system.cm.modify_sub_da_specification(top.da_id, sub_a.da_id,
                                          chip_spec(60, 100))
    system.cm.modify_sub_da_specification(top.da_id, sub_b.da_id,
                                          chip_spec(60, 120))
    print(f"    A now gets width <= 60 at full height, B gets width "
          f"<= 60 at extended height")
    print(f"    protocol log: "
          f"{system.cm.stats()['protocol_log_records']} records")


if __name__ == "__main__":
    main()
