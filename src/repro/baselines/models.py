"""Processing models: CONCORD vs. the prior transaction models.

Sect.1.2 of the paper surveys the models CONCORD positions itself
against.  To *measure* the qualitative claims (isolation blocks
cooperation; atomicity loses long-duration work) we reduce each model
to the three policy axes that drive the experiments, with values taken
from the respective papers:

* **visibility** — when may a concurrent consumer read a producer's
  intermediate result?
  flat ACID / nested [Mo81] / ConTracts [WR92]: only after the whole
  producer session commits (serializability; nested transactions
  inherit locks upward, so nothing escapes before top-commit);
  Sagas [GS87b]: after each step commits (resources released early);
  CONCORD: after the producing DOP commits *and* the DOV is propagated
  with the required quality (Sect.4.1 usage relationships).
* **write concurrency** — flat ACID and nested serialise writers of a
  shared object for the whole session; Sagas/ConTracts serialise per
  step; CONCORD's version derivation lets writers proceed concurrently
  (Sect.5.2: concurrent DOPs "derive separate new versions").
* **crash recovery** — flat ACID restarts from scratch; nested loses
  the active subtransaction; Sagas compensate committed steps
  backwards; ConTracts restart at the last step boundary; CONCORD
  restarts at the last intra-step recovery point (Sect.5.2).

The *rework risk* axis quantifies the cost of uncontrolled early
visibility: a Saga consumer reads whatever the producer last committed,
with no quality statement, so later producer changes invalidate the
consumer's dependent work more often than CONCORD's feature-gated
propagation with explicit withdrawal notification.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class VisibilityPolicy(str, Enum):
    """When a producer's intermediate result becomes readable."""

    ON_SESSION_COMMIT = "on_session_commit"
    ON_STEP_COMMIT = "on_step_commit"
    ON_PROPAGATE = "on_propagate"       # step commit + quality gate


class WriteConcurrency(str, Enum):
    """How writers of a shared design object interact."""

    SESSION_EXCLUSIVE = "session_exclusive"   # 2PL for the whole session
    STEP_EXCLUSIVE = "step_exclusive"         # locks released per step
    VERSION_DERIVATION = "version_derivation"  # concurrent new versions


class CrashRecovery(str, Enum):
    """What a workstation crash costs a running session."""

    RESTART_SESSION = "restart_session"        # flat ACID
    RESTART_SUBTRANSACTION = "restart_subtxn"  # nested
    COMPENSATE_STEPS = "compensate_steps"      # sagas
    RESTART_STEP = "restart_step"              # ConTracts
    RECOVERY_POINT = "recovery_point"          # CONCORD


@dataclass(frozen=True)
class ProcessingModel:
    """One transaction model reduced to its experiment-relevant policies."""

    name: str
    visibility: VisibilityPolicy
    write_concurrency: WriteConcurrency
    crash_recovery: CrashRecovery
    #: probability that an early-consumed intermediate result is later
    #: invalidated, forcing the consumer to redo dependent work
    rework_probability: float = 0.0
    #: compensation cost as a fraction of each compensated step's
    #: duration (sagas only)
    compensation_factor: float = 0.0
    #: intra-step recovery point interval in simulated minutes
    #: (CONCORD only; 0 = none)
    recovery_point_interval: float = 0.0


def concord_model(recovery_point_interval: float = 30.0,
                  rework_probability: float = 0.1) -> ProcessingModel:
    """CONCORD: quality-gated pre-release, version derivation,
    intra-step recovery points.

    The small residual rework probability models withdrawals of
    pre-released DOVs (Sect.5.4) — rare because propagation is gated on
    the required feature set.
    """
    return ProcessingModel(
        name="concord",
        visibility=VisibilityPolicy.ON_PROPAGATE,
        write_concurrency=WriteConcurrency.VERSION_DERIVATION,
        crash_recovery=CrashRecovery.RECOVERY_POINT,
        rework_probability=rework_probability,
        recovery_point_interval=recovery_point_interval,
    )


def flat_acid_model() -> ProcessingModel:
    """Flat ACID transactions [HR83]: one transaction per session.

    "Serializability as the notion of correctness is too restrictive.
    The isolation property builds 'protective walls' among concurrent
    transactions" (Sect.1.1) — and atomicity means a crash rolls the
    whole long session back.
    """
    return ProcessingModel(
        name="flat_acid",
        visibility=VisibilityPolicy.ON_SESSION_COMMIT,
        write_concurrency=WriteConcurrency.SESSION_EXCLUSIVE,
        crash_recovery=CrashRecovery.RESTART_SESSION,
    )


def nested_model() -> ProcessingModel:
    """Nested transactions [Mo81]: subtransactions as recovery units.

    Fine-granular recovery (only the active subtransaction is lost),
    but lock inheritance keeps results invisible until top-commit — no
    cooperation gain.
    """
    return ProcessingModel(
        name="nested",
        visibility=VisibilityPolicy.ON_SESSION_COMMIT,
        write_concurrency=WriteConcurrency.SESSION_EXCLUSIVE,
        crash_recovery=CrashRecovery.RESTART_SUBTRANSACTION,
    )


def saga_model() -> ProcessingModel:
    """Sagas [GS87b]: chained step transactions with compensation.

    Resources release early (good for concurrency) but without any
    quality statement on what escapes (high rework risk), and a crash
    triggers backward compensation of the committed steps.
    """
    return ProcessingModel(
        name="saga",
        visibility=VisibilityPolicy.ON_STEP_COMMIT,
        write_concurrency=WriteConcurrency.STEP_EXCLUSIVE,
        crash_recovery=CrashRecovery.COMPENSATE_STEPS,
        rework_probability=0.5,
        compensation_factor=0.5,
    )


def contracts_model() -> ProcessingModel:
    """ConTracts [WR92]: scripted steps with recoverable execution.

    Forward recovery at step granularity (the paper adopts this for
    its DC level) — "however, the cooperation aspect is missing in
    ConTracts" (Sect.2): results stay invisible until the activity
    completes.
    """
    return ProcessingModel(
        name="contracts",
        visibility=VisibilityPolicy.ON_SESSION_COMMIT,
        write_concurrency=WriteConcurrency.STEP_EXCLUSIVE,
        crash_recovery=CrashRecovery.RESTART_STEP,
    )


def all_models() -> list[ProcessingModel]:
    """The five models compared in T1/T2, CONCORD first."""
    return [concord_model(), contracts_model(), saga_model(),
            nested_model(), flat_acid_model()]
