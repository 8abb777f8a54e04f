#!/usr/bin/env python3
"""Failure handling across all three levels (Sect.5, Fig.8).

Walks through CONCORD's joint failure model:

1. **savepoints / suspend & resume** inside a long DOP (TE level),
2. a **workstation crash in the middle of a DOP** — the client-TM
   restores the context from the most recent recovery point (taken
   automatically after checkout and every 30 simulated minutes),
3. a **workstation crash between DOPs** — the DM rebuilds its script
   position by replaying the persistent log (forward recovery),
4. a **server crash** — the repository redoes committed DOVs from the
   WAL and the CM reloads the persistent DA-hierarchy state.

Run with:  python examples/failure_recovery.py
"""

from repro.bench.scenarios import run_full_chip_design
from repro.scenario.delegation import make_vlsi_system


def main() -> None:
    system = make_vlsi_system(("ws-1",), recovery_interval=30.0)
    da = run_full_chip_design(system)
    client_tm = system.runtime(da.da_id).client_tm
    basis = system.repository.graph(da.da_id).leaves()[0].dov_id

    # --- 1. savepoints and suspend/resume -------------------------------
    print("=== savepoints, suspend/resume (Sect.4.3) ===")
    dop = client_tm.begin_dop(da.da_id, "chip_planner")
    client_tm.checkout(dop, basis)
    client_tm.work(dop, 20.0,
                   mutate=lambda c: c.tool_state.update(phase="rough"))
    client_tm.save(dop, "after-rough-plan")
    client_tm.work(dop, 15.0,
                   mutate=lambda c: c.tool_state.update(phase="detail"))
    print(f"  phase before restore: {dop.context.tool_state['phase']}")
    client_tm.restore(dop, "after-rough-plan")
    print(f"  phase after restore:  {dop.context.tool_state['phase']} "
          f"(designer rolled back to the marked state)")
    client_tm.suspend(dop)
    print(f"  DOP suspended at work_done="
          f"{dop.context.work_done:.0f} min ... designer goes home")
    client_tm.resume(dop)
    print(f"  resumed with identical state: work_done="
          f"{dop.context.work_done:.0f} min")

    # --- 2. workstation crash mid-DOP ------------------------------------
    print("\n=== workstation crash in the middle of a DOP ===")
    client_tm.work(dop, 25.0)   # recovery point due at 30 min intervals
    before = dop.context.work_done
    system.crash_workstation("ws-1")
    print(f"  CRASH at work_done={before:.0f} min "
          f"(volatile DOP context lost)")
    system.network.restart_node("ws-1")
    recovered, _ = client_tm.recover_dop(dop.dop_id, da.da_id,
                                         "chip_planner")
    print(f"  client-TM restored the context from the most recent "
          f"recovery point: work_done={recovered.context.work_done:.0f} "
          f"min (lost {before - recovered.context.work_done:.0f} min, "
          f"not {before:.0f})")
    client_tm.abort_dop(recovered)

    # --- 3. workstation crash between DOPs --------------------------------
    print("\n=== workstation crash between DOPs (DM forward recovery) ===")
    system2 = make_vlsi_system(("ws-1",))
    da2 = run_full_chip_design(system2)
    dm = system2.runtime(da2.da_id).dm
    print(f"  before crash: {dm.executed_dops} DOPs executed, "
          f"script done={dm.cursor.is_done()}")
    system2.crash_workstation("ws-1")
    reports = system2.restart_workstation("ws-1")
    report = reports[da2.da_id]
    print(f"  after restart: replayed "
          f"{report['script_positions_replayed']} logged script "
          f"positions; {report['executed_dops']} DOPs intact; "
          f"script done={dm.cursor.is_done()}")

    # --- 4. server crash ----------------------------------------------------
    print("\n=== server crash (repository redo + CM state reload) ===")
    durable_before = len(system2.repository.store)
    das_before = len(system2.cm.das())
    system2.crash_server()
    print(f"  CRASH: repository volatile state and CM registries gone")
    system2.restart_server()
    print(f"  restart: {len(system2.repository.store)}/{durable_before} "
          f"durable DOVs redone from the WAL, "
          f"{len(system2.cm.das())}/{das_before} DAs reloaded from the "
          f"persistent hierarchy state")
    print(f"  scope checks still work: "
          f"{sorted(system2.cm.scope_of(da2.da_id))[:3]} ...")


if __name__ == "__main__":
    main()
