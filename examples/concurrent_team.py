#!/usr/bin/env python3
"""Concurrent team: several designers live at once on the shared kernel.

The paper's design activities are *long-duration, concurrently running*
agents cooperating over a workstation/server LAN.  This example runs
that dynamic end to end on the unified discrete-event kernel:

1. a top-level DA plans cell 0 and delegates one sub-DA per subcell;
2. ``run_concurrent`` interleaves all sub-DAs' tool steps on one
   simulated clock — cooperation messages travel the (latency +
   jitter modelled) LAN and are auto-dispatched to the receiving DM's
   ECA rules on arrival (an auto-terminate rule on the top DM commits
   each sub-DA the moment its Ready_To_Commit message lands);
3. a workstation crash is injected mid-step through the kernel; DM
   forward recovery resumes the interrupted DOP from its recovery
   point and the scenario still converges.

Run with:  python examples/concurrent_team.py
"""

from repro.bench.scenarios import concurrent_delegation_scenario


def main() -> None:
    subcells = ("A", "B", "C")

    # the sequential reference: one DA after the other on the kernel
    __, sequential = concurrent_delegation_scenario(subcells,
                                                    concurrent=False)
    # the concurrent run: all sub-DAs interleaved on the kernel
    system, concurrent = concurrent_delegation_scenario(subcells,
                                                        jitter=0.2,
                                                        seed=42)

    print("delegated planning of subcells", ", ".join(subcells))
    print(f"  sequential makespan: {sequential.makespan:8.1f} minutes")
    print(f"  concurrent makespan: {concurrent.makespan:8.1f} minutes "
          f"({sequential.makespan / concurrent.makespan:.1f}x faster)")
    print(f"  kernel events executed: {concurrent.events}")
    print(f"  final states: {concurrent.final_states}")
    print(f"  devolved DOVs: "
          f"{ {k: len(v) for k, v in concurrent.devolved.items()} }")

    # now the same scenario with a crash of ws-B in the middle of a DOP
    crash_system, crashed = concurrent_delegation_scenario(
        subcells, crash=("ws-B", 15.0, 5.0), jitter=0.2, seed=42)
    print()
    print("same scenario, ws-B crashes 15 minutes in (5 minutes down):")
    for entry in crash_system.kernel.injections:
        print(f"  t={entry.at:6.1f}  {entry.action:7s}  {entry.node}")
    b_id = crashed.sub_das["B"]
    resumed = crash_system.last_recovery_reports[b_id]["in_flight_resumed"]
    print(f"  in-flight DOP resumed: {resumed}")
    print(f"  makespan with crash: {crashed.makespan:8.1f} minutes "
          f"(+{crashed.makespan - concurrent.makespan:.1f} for redone "
          f"work + downtime)")
    print(f"  all sub-DAs terminated: "
          f"{all(state == 'terminated' for da, state in crashed.final_states.items() if da != crashed.top_da)}")


if __name__ == "__main__":
    main()
