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
  memory communication"; measure 2PC latency with and without the
  local fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.models import concord_model
from repro.bench.experiments import STEP_DURATIONS
from repro.bench.reporting import ExperimentResult
from repro.net.network import Network, NodeKind
from repro.net.two_phase_commit import TwoPhaseCoordinator, Vote
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

@dataclass
class _YesParticipant:
    node_id: str

    def prepare(self, txn_id: str) -> Vote:
        return Vote.YES

    def commit(self, txn_id: str) -> None:
        pass

    def abort(self, txn_id: str) -> None:
        pass


def run_a3() -> ExperimentResult:
    """Same-machine 2PC with vs without the main-memory fast path.

    Coordinator and participant on the *same* node model the DM-TM
    case: with the local fast path every hop costs local latency, the
    ablation charges full LAN latency to every message.
    """
    result = ExperimentResult(
        "A3", "Ablation: local (main-memory) commit optimisation")
    commits = 50
    for label, local_latency in (("main-memory fast path", 0.0005),
                                 ("no fast path (LAN cost)", 0.010)):
        network = Network(lan_latency=0.010,
                          local_latency=local_latency)
        network.add_node("machine", NodeKind.WORKSTATION)
        coordinator = TwoPhaseCoordinator(network, "machine")
        participant = _YesParticipant("machine")
        total_latency = 0.0
        for i in range(commits):
            outcome = coordinator.execute(f"txn-{label}-{i}",
                                          [participant])
            total_latency += outcome.latency
        result.add(variant=label,
                   commits=commits,
                   total_latency_ms=round(total_latency * 1000, 2),
                   per_commit_ms=round(total_latency / commits * 1000,
                                       3))
    fast, slow = result.rows
    result.data["speedup"] = (slow["per_commit_ms"]
                              / fast["per_commit_ms"])
    result.notes.append(
        "expected shape: the local fast path cuts per-commit latency "
        "by the LAN/local latency ratio — the Sect.6 argument for "
        "main-memory communication between co-located managers")
    return result
