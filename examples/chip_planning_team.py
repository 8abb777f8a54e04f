#!/usr/bin/env python3
"""The paper's running scenario: cooperative chip planning (Fig.3/Fig.5).

A team designs cell 0 of a VLSI chip:

* DA1 plans the floorplan of cell 0 (subcells A-D) with the chip
  planner toolbox (bipartitioning, sizing, dimensioning, global
  routing),
* planning of the subcells is *delegated* to sub-DAs DA2..DA5, each
  with its own designer, workstation, specification and script,
* the A-planner discovers its specified area is insufficient and
  raises Sub_DA_Impossible_Specification,
* DA1 reacts exactly as the paper describes: "to modify the
  specifications of DA2 and DA3 by giving DA2 more and DA3 less area",
* the affected sub-DAs replan, reach final DOVs, report ready-to-
  commit, and are terminated — their final DOVs devolve to DA1's
  scope via scope-lock inheritance.

Run with:  python examples/chip_planning_team.py
"""

from repro.bench.scenarios import fig5_delegation_scenario
from repro.vlsi.floorplan import Floorplan


def main() -> None:
    system, report = fig5_delegation_scenario()

    print("=== the delegation scenario of Fig.5 ===\n")
    for i, phase in enumerate(report.phases, 1):
        print(f"  {i}. {phase}")

    print("\n=== DA hierarchy after the run ===")
    snapshot = system.cm.hierarchy_snapshot()

    def show(node: dict, indent: int = 0) -> None:
        print("  " * indent
              + f"- {node['da']} [{node['dot']}] {node['state']} "
                f"designer={node['designer']} "
                f"finals={len(node['final_dovs'])}")
        for child in node["children"]:
            show(child, indent + 1)

    for root in snapshot["roots"]:
        show(root)

    print("\n=== DA1's floorplan of cell 0 ===")
    top_graph = system.repository.graph(report.top_da)
    plan_dov = next(d for d in top_graph if d.data.get("floorplan"))
    floorplan = Floorplan.from_dict(plan_dov.data["floorplan"])
    print(f"  CUD {floorplan.cud}: {floorplan.width} x "
          f"{floorplan.height}, wirelength {floorplan.wirelength}, "
          f"cut nets {floorplan.cut_nets}")
    for placement in floorplan.placements.values():
        print(f"    {placement.cell:12s} at ({placement.x:6.2f}, "
              f"{placement.y:6.2f})  {placement.width:6.2f} x "
              f"{placement.height:6.2f}")

    print("\n=== devolution of final DOVs (scope-lock inheritance) ===")
    for sub_id, dovs in report.inherited_dovs.items():
        print(f"  {sub_id} -> {report.top_da}: {dovs}")
    scope = sorted(system.cm.scope_of(report.top_da))
    print(f"  {report.top_da}'s scope now holds {len(scope)} DOVs")

    print(f"\ncooperation protocol log: "
          f"{system.cm.stats()['protocol_log_records']} records")
    print(f"simulated design time: {system.clock.now:.0f} minutes")


if __name__ == "__main__":
    main()
