#!/usr/bin/env python3
"""Recursive top-down chip planning over a whole cell hierarchy.

"In a top-down fashion, a floorplan is computed for each cell of the
hierarchy by recursively applying the chip planner" (Sect.3).  This
example plans the paper's sample chip (chip -> ALU/control unit ->
blocks), creating one DA per inner cell: delegation follows the cell
hierarchy, every sub-DA is seeded with its placement interface from
the parent's floorplan, and finished subtrees devolve their final DOVs
upward level by level.

Run with:  python examples/recursive_planning.py
"""

from repro.bench.scenarios import recursive_planning_scenario
from repro.core.states import DaState
from repro.vlsi.cells import sample_hierarchy


def main() -> None:
    hierarchy = sample_hierarchy()
    system, report = recursive_planning_scenario(hierarchy=hierarchy)

    print("=== recursive planning of the sample chip ===")
    print(f"  {len(report.das)} design activities, one per inner cell\n")

    def show(cell, indent=0):
        da_id = report.das.get(cell.name)
        if da_id is None:
            return
        plan = report.floorplans.get(cell.name, (0.0, 0.0))
        state = system.cm.da(da_id).state.value
        print("  " * indent
              + f"- {cell.name:14s} {da_id:6s} depth="
                f"{report.depths[cell.name]} floorplan="
                f"{plan[0]:.1f}x{plan[1]:.1f} [{state}]")
        for child in cell.children:
            show(child, indent + 1)

    show(hierarchy.root)

    terminated = [d for d in system.cm.das()
                  if d.state is DaState.TERMINATED]
    print(f"\n  {len(terminated)} sub-DAs committed; devolutions:")
    for sub_id, dovs in report.devolved.items():
        print(f"    {sub_id} -> parent: {dovs}")

    root_id = report.das[hierarchy.root.name]
    print(f"\n  root scope now holds "
          f"{len(system.cm.scope_of(root_id))} DOVs")
    print(f"  cooperation protocol log: "
          f"{system.cm.stats()['protocol_log_records']} records")
    print(f"  simulated design time: {system.clock.now / 60:.1f} hours")


if __name__ == "__main__":
    main()
