"""Ablation experiments for CONCORD's design choices (A1-A3).

Each ablation removes one mechanism the paper argues for and measures
what it was buying:

* **A1 — quality-gated propagation** (Sect.4.1 usage relationships):
  replace the feature-gated Propagate with saga-style ungated early
  release and measure the rework it induces;
* **A2 — recovery-point policy** (Sect.5.2): sweep the recovery-point
  interval and measure lost work against recovery-point writes (the
  fire-wall density trade-off);
* **A3 — local commit optimisation** (Sect.6): the paper proposes
  implementing same-machine communication (DM-TM) "based on main
  memory communication"; measure the commit latency of a checkin
  from the server's own node against one from a workstation.
"""

from __future__ import annotations

from repro.baselines.models import concord_model
from repro.bench.experiments import STEP_DURATIONS
from repro.bench.reporting import ExperimentResult
from repro.repository.versions import freeze_payload
from repro.te.rig import TeRig
from repro.txn.gateway import CommitGateway
from repro.vlsi.tools import vlsi_dots
from repro.workload.generator import team_workload
from repro.workload.simulator import TeamSimulator, crash_lost_work


# ---------------------------------------------------------------------------
# A1 — quality gating
# ---------------------------------------------------------------------------

def run_a1() -> ExperimentResult:
    """Quality-gated vs ungated pre-release.

    The gate is modelled by the rework probability consumers face:
    gated propagation delivers only results that already fulfil the
    required features (withdrawals are rare); ungated release delivers
    whatever exists (frequent invalidation).  Sweep the invalidation
    risk between the two poles.
    """
    result = ExperimentResult(
        "A1", "Ablation: quality-gated propagation vs ungated "
              "early release")
    for team in (4, 8):
        workload = team_workload(team, seed=7)
        for label, rework in (("gated (concord)", 0.1),
                              ("weak gate", 0.3),
                              ("ungated (saga-like)", 0.6),
                              ("no invalidation handling", 0.9)):
            model = concord_model(rework_probability=rework)
            metrics = TeamSimulator(model, workload).run()
            result.add(team=team, variant=label,
                       rework_probability=rework,
                       makespan=round(metrics.makespan, 1),
                       rework=round(metrics.total_rework, 1))
    result.notes.append(
        "expected shape: makespan and rework grow monotonically as the "
        "quality gate weakens — the gate is what makes pre-release "
        "safe")
    return result


# ---------------------------------------------------------------------------
# A2 — recovery-point density
# ---------------------------------------------------------------------------

def run_a2() -> ExperimentResult:
    """Recovery-point interval: lost work vs point-writing cost.

    ``interval=0`` disables periodic points (checkout-only) — the
    paper's mechanism degenerates to step-granular recovery.
    """
    result = ExperimentResult(
        "A2", "Ablation: recovery-point interval (lost work vs "
              "recovery-point writes)")
    steps = list(STEP_DURATIONS)
    total = sum(steps)
    for interval in (5.0, 15.0, 30.0, 60.0, 0.0):
        model = concord_model(recovery_point_interval=interval)
        losses = [crash_lost_work(model, steps, t).lost_work
                  for t in (43.0, 101.0, 173.0)]
        if interval > 0:
            points = sum(int(duration // interval)
                         for duration in steps) + len(steps)
        else:
            points = len(steps)  # the mandatory post-checkout points
        result.add(
            interval=interval if interval else "off",
            mean_lost=round(sum(losses) / len(losses), 1),
            max_lost=round(max(losses), 1),
            recovery_point_writes=points,
            writes_per_100min=round(points / total * 100, 2),
        )
    result.notes.append(
        "expected shape: smaller intervals bound lost work tighter but "
        "write more recovery points — the fire-wall density trade-off "
        "of Sect.5.2")
    return result


# ---------------------------------------------------------------------------
# A3 — local commit fast path
# ---------------------------------------------------------------------------

#: the write-through checkins each A3 gateway commits
A3_COMMITS = 50


def run_a3() -> ExperimentResult:
    """Checkins committed from the server's own node vs from a
    workstation, on one TeRig.

    A :class:`~repro.txn.gateway.CommitGateway` anchored at the server
    node models a manager co-located with the server-TM: its exchange
    runs over main memory, at local latency per hop; one anchored at a
    workstation pays the LAN latency per hop.  Each commits
    :data:`A3_COMMITS` write-through checkins; the latency is the
    gateway's :attr:`~repro.txn.gateway.CommitOutcome.latency`.
    """
    result = ExperimentResult(
        "A3", "Ablation: local (main-memory) commit optimisation")
    rig = TeRig(trace=False)
    rig.open_scope()
    rig.add_workstation("ws-1")
    rig.repository.register_dot(vlsi_dots()["StandardCell"])
    rig.repository.create_graph("da-1")
    server_id = rig.server_tm.node_id
    for label, node_id in (("main-memory fast path", server_id),
                           ("no fast path (LAN cost)", "ws-1")):
        gateway = CommitGateway(rig.rpc, rig.server_tm, node_id)
        total_latency = 0.0
        for index in range(A3_COMMITS):
            payload = freeze_payload(
                {"cell": f"c{index}", "level": "cell", "area": 1.0})
            total_latency += gateway.single_checkin(
                "da-1", "StandardCell", payload, []).outcome.latency
        result.add(variant=label, node=node_id, commits=A3_COMMITS,
                   total_latency_ms=round(total_latency * 1000, 2),
                   per_commit_ms=round(total_latency / A3_COMMITS * 1000,
                                       3))
    fast, slow = result.rows
    result.data["speedup"] = (slow["per_commit_ms"]
                              / fast["per_commit_ms"])
    result.notes.append(
        "expected shape: the local fast path cuts per-commit latency "
        "by the LAN/local latency ratio — the Sect.6 argument for "
        "main-memory communication between co-located managers")
    return result
