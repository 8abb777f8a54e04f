"""DM forward recovery with an in-flight DOP at crash time.

The usual DM step executes a whole DOP atomically, so the in-flight
branch of :meth:`DesignManager.recover` only fires when the crash
interrupts an ongoing tool execution.  These tests construct that
situation explicitly: DOP_START is durably logged, work progressed
past a recovery point, and DOP_FINISH never made it to the log.
"""

from __future__ import annotations

from repro.bench.scenarios import run_full_chip_design
from repro.repository.wal import LogRecordKind
from repro.scenario.delegation import make_vlsi_system


def interrupted_dop(system, da):
    """Drive a DOP halfway as the DM would, then crash the workstation."""
    runtime = system.runtime(da.da_id)
    client_tm = runtime.client_tm
    dm = runtime.dm
    basis = system.repository.graph(da.da_id).leaves()[0].dov_id

    dop = client_tm.begin_dop(da.da_id, "chip_planner")
    dm.log.append(LogRecordKind.DOP_START, {
        "dop": dop.dop_id, "token": "0.s0", "tool": "chip_planner",
        "params": {}, "inputs": [basis],
    }, force=True)
    client_tm.checkout(dop, basis)
    dm.log.append(LogRecordKind.DOV_USED,
                  {"dop": dop.dop_id, "dov": basis}, force=True)
    client_tm.work(dop, 30.0)     # interval recovery point fires here
    client_tm.work(dop, 5.0)      # ... 5 minutes past the point
    system.crash_workstation(da.workstation)
    return dop, basis


class TestInFlightRecovery:
    def test_in_flight_dop_resumed_from_recovery_point(self):
        system = make_vlsi_system(("ws-1",), recovery_interval=30.0)
        da = run_full_chip_design(system)
        dm = system.runtime(da.da_id).dm
        dop, basis = interrupted_dop(system, da)

        reports = system.restart_workstation("ws-1")
        report = reports[da.da_id]
        resumed = report["in_flight_resumed"]
        assert resumed is not None
        assert resumed["dop"] == dop.dop_id
        assert resumed["tool"] == "chip_planner"
        # 30 of the 35 minutes survived (the interval recovery point)
        assert resumed["recovered_work"] == 30.0
        # the resumed DOP is active again on the client-TM
        live, = [d for d in system.runtime(da.da_id).client_tm.active_dops()
                 if d.dop_id == dop.dop_id]
        assert live.context.work_done == 30.0
        assert live.input_dovs == [basis]
        assert dm.in_flight is live

    def test_in_flight_without_recovery_point_reports_total_loss(self):
        system = make_vlsi_system(("ws-1",), recovery_interval=0.0)
        # disable the post-checkout point too: nothing persists
        da = run_full_chip_design(system)
        runtime = system.runtime(da.da_id)
        runtime.client_tm.recovery.policy.after_checkout = False
        dm = runtime.dm
        dop = runtime.client_tm.begin_dop(da.da_id, "chip_planner")
        dm.log.append(LogRecordKind.DOP_START, {
            "dop": dop.dop_id, "token": "0.s0", "tool": "chip_planner",
            "params": {}, "inputs": [],
        }, force=True)
        runtime.client_tm.work(dop, 25.0)
        system.crash_workstation("ws-1")
        reports = system.restart_workstation("ws-1")
        resumed = reports[da.da_id]["in_flight_resumed"]
        assert resumed is not None
        assert resumed["recovered_work"] == 0.0
        assert resumed["point_time"] is None

    def test_committed_history_survives_alongside(self):
        system = make_vlsi_system(("ws-1",), recovery_interval=30.0)
        da = run_full_chip_design(system)
        dm = system.runtime(da.da_id).dm
        committed_before = dm.executed_dops
        interrupted_dop(system, da)
        reports = system.restart_workstation("ws-1")
        assert reports[da.da_id]["executed_dops"] == committed_before
        assert dm.executed_dops == committed_before
