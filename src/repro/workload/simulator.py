"""Team simulator: runs a :class:`TeamWorkload` under a processing model.

The simulator executes every session's steps over simulated time and
enforces the three policy axes of the
:class:`~repro.baselines.models.ProcessingModel`:

* **visibility** gates when a dependent session may start its consumer
  step (producer step end vs. producer session end);
* **write concurrency** serialises sessions (or steps) that write the
  same shared design object;
* **rework**: when a producer finishes, consumers that read one of its
  *preliminary* results may have to redo their dependent work — with
  the model's rework probability (quality-gated propagation makes this
  rare for CONCORD, uncontrolled early release makes it common for
  Sagas).

:func:`crash_lost_work` computes the T2 metric analytically from the
models' crash-recovery policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.models import (
    CrashRecovery,
    ProcessingModel,
    VisibilityPolicy,
    WriteConcurrency,
)
from repro.sim.kernel import Kernel
from repro.util.rng import SeededRng
from repro.workload.generator import (
    Dependency,
    SessionSpec,
    TeamWorkload,
)
from repro.workload.metrics import CrashMetrics, SessionMetrics, TeamMetrics


@dataclass
class _Run:
    """Mutable execution state of one session."""

    spec: SessionSpec
    metrics: SessionMetrics
    step: int = 0
    started: bool = False
    finished: bool = False
    wait_start: float | None = None
    consumed_early: bool = False
    #: extra (rework) durations appended after the planned steps
    extra: list[float] = field(default_factory=list)
    holds_session_locks: bool = False
    #: the full lock set taken at session begin (conservative 2PL)
    session_lock_set: list[str] = field(default_factory=list)


class TeamSimulator:
    """Deterministic discrete-event execution of a team workload."""

    def __init__(self, model: ProcessingModel, workload: TeamWorkload,
                 seed: int | None = None) -> None:
        self.model = model
        self.workload = workload
        self.rng = SeededRng(seed if seed is not None else workload.seed)
        self.kernel = Kernel()
        self._runs: dict[str, _Run] = {}
        #: object -> holding session id
        self._locks: dict[str, str] = {}
        #: FIFO of (run, objects, continuation-label)
        self._lock_queue: list[tuple[_Run, list[str], str]] = []
        #: (producer, step) -> completion time
        self._step_done: dict[tuple[str, int], float] = {}
        #: waiters on a dependency: (producer, step|-1) -> runs
        self._dep_waiters: dict[tuple[str, int], list[_Run]] = {}

    # -- public API -----------------------------------------------------------

    def run(self) -> TeamMetrics:
        """Execute the whole team; returns aggregate metrics."""
        for spec in self.workload.sessions:
            run = _Run(spec, SessionMetrics(spec.session_id))
            self._runs[spec.session_id] = run
        for run in self._runs.values():
            self.kernel.at(self.kernel.clock.now,
                           lambda r=run: self._begin_session(r),
                           label=f"begin:{run.spec.session_id}")
        self.kernel.run_until_quiescent()
        stuck = [r.spec.session_id for r in self._runs.values()
                 if not r.finished]
        if stuck:
            raise RuntimeError(
                f"team simulation deadlocked; unfinished sessions: {stuck}")
        metrics = TeamMetrics(self.model.name)
        for run in self._runs.values():
            metrics.sessions[run.spec.session_id] = run.metrics
        return metrics

    # -- internals --------------------------------------------------------------

    @property
    def _now(self) -> float:
        return self.kernel.clock.now

    def _begin_session(self, run: _Run) -> None:
        run.metrics.start = self._now
        run.started = True
        if self.model.write_concurrency \
                is WriteConcurrency.SESSION_EXCLUSIVE:
            # conservative 2PL: the whole lock set — writes plus the
            # object the mid-session dependency will *read* — is taken
            # up front.  (Plain strict 2PL would deadlock here: the
            # consumer holds shared borders while waiting for the
            # producer's commit; real systems abort+restart, which
            # costs at least as much as this serialisation.)
            lock_set = list(run.spec.writes)
            for dep in run.spec.dependencies:
                producer_spec = self.workload.session(dep.producer)
                if producer_spec.writes \
                        and producer_spec.writes[0] not in lock_set:
                    lock_set.append(producer_spec.writes[0])
            run.session_lock_set = lock_set
            self._acquire(run, lock_set, "session")
        else:
            self._try_start_step(run)

    def _grantable(self, run: _Run, objects: list[str],
                   before: int | None = None) -> bool:
        """Free locks AND no earlier intersecting queued request.

        The second condition prevents a later request from overtaking
        an earlier one it conflicts with — without it, a consumer could
        grab its producer's output object before the producer starts
        and deadlock on the commit-visibility wait.
        """
        if any(self._locks.get(obj) not in (None, run.spec.session_id)
               for obj in objects):
            return False
        wanted = set(objects)
        queue = self._lock_queue if before is None \
            else self._lock_queue[:before]
        for earlier_run, earlier_objs, _ in queue:
            if earlier_run is not run and wanted & set(earlier_objs):
                return False
        return True

    def _grant(self, run: _Run, objects: list[str],
               continuation: str) -> None:
        for obj in objects:
            self._locks[obj] = run.spec.session_id
        if continuation == "session":
            run.holds_session_locks = True
            self._try_start_step(run)
        else:
            self._start_step_now(run)

    def _acquire(self, run: _Run, objects: list[str],
                 continuation: str) -> None:
        """All-or-nothing lock acquisition with FIFO queueing."""
        if self._grantable(run, objects):
            self._grant(run, objects, continuation)
            return
        self._begin_wait(run)
        self._lock_queue.append((run, list(objects), continuation))

    def _release(self, objects: list[str], holder: str) -> None:
        for obj in objects:
            if self._locks.get(obj) == holder:
                del self._locks[obj]
        # FIFO re-grant: every queued request that is now satisfiable
        # (grants update the lock table, so later queue entries see them)
        index = 0
        while index < len(self._lock_queue):
            run, objs, continuation = self._lock_queue[index]
            if self._grantable(run, objs, before=index):
                del self._lock_queue[index]
                self._end_wait(run)
                self._grant(run, objs, continuation)
                index = 0  # grants may unblock earlier-checked entries
            else:
                index += 1

    def _begin_wait(self, run: _Run) -> None:
        if run.wait_start is None:
            run.wait_start = self._now

    def _end_wait(self, run: _Run) -> None:
        if run.wait_start is not None:
            run.metrics.blocked_time += self._now - run.wait_start
            run.wait_start = None

    # -- dependency gating -----------------------------------------------------------

    def _unready_dependency(self, run: _Run) -> "Dependency | None":
        """The first dependency of the current step not yet satisfied."""
        for dep in run.spec.dependencies_at(run.step):
            if self.model.visibility \
                    is VisibilityPolicy.ON_SESSION_COMMIT:
                if not self._runs[dep.producer].finished:
                    return dep
            elif (dep.producer, dep.producer_step) not in self._step_done:
                return dep
        return None

    def _dependency_ready(self, run: _Run) -> bool:
        if self._unready_dependency(run) is not None:
            return False
        if self.model.visibility is not VisibilityPolicy.ON_SESSION_COMMIT \
                and run.spec.dependencies_at(run.step):
            run.consumed_early = True
        return True

    def _wait_for_dependency(self, run: _Run) -> None:
        dep = self._unready_dependency(run)
        assert dep is not None
        if self.model.visibility is VisibilityPolicy.ON_SESSION_COMMIT:
            key = (dep.producer, -1)
        else:
            key = (dep.producer, dep.producer_step)
        self._begin_wait(run)
        self._dep_waiters.setdefault(key, []).append(run)

    def _wake_dependents(self, key: tuple[str, int]) -> None:
        for run in self._dep_waiters.pop(key, []):
            self._end_wait(run)
            self._try_start_step(run)

    # -- step execution ---------------------------------------------------------------

    def _try_start_step(self, run: _Run) -> None:
        if run.finished:
            return
        durations = run.spec.step_durations + run.extra
        if run.step >= len(durations):
            self._finish_session(run)
            return
        if not self._dependency_ready(run):
            self._wait_for_dependency(run)
            return
        if self.model.write_concurrency is WriteConcurrency.STEP_EXCLUSIVE \
                and run.step < len(run.spec.step_durations):
            self._acquire(run, run.spec.writes, "step")
            return
        self._start_step_now(run)

    def _start_step_now(self, run: _Run) -> None:
        durations = run.spec.step_durations + run.extra
        duration = durations[run.step]
        self.kernel.after(duration,
                          lambda: self._finish_step(run, duration),
                          label=f"step:{run.spec.session_id}:{run.step}")

    def _finish_step(self, run: _Run, duration: float) -> None:
        is_rework = run.step >= len(run.spec.step_durations)
        if is_rework:
            run.metrics.rework_time += duration
        else:
            run.metrics.work_time += duration
        if self.model.write_concurrency is WriteConcurrency.STEP_EXCLUSIVE \
                and not is_rework:
            self._release(run.spec.writes, run.spec.session_id)
        self._step_done[(run.spec.session_id, run.step)] = self._now
        self._wake_dependents((run.spec.session_id, run.step))
        run.step += 1
        self._try_start_step(run)

    def _finish_session(self, run: _Run) -> None:
        run.finished = True
        run.metrics.end = self._now
        if run.holds_session_locks:
            self._release(run.session_lock_set, run.spec.session_id)
            run.holds_session_locks = False
        self._wake_dependents((run.spec.session_id, -1))
        self._draw_rework_for_consumers(run)

    # -- rework (invalidation of early-consumed results) --------------------------------

    def _draw_rework_for_consumers(self, producer: _Run) -> None:
        if self.model.rework_probability <= 0:
            return
        for run in self._runs.values():
            matching = [d for d in run.spec.dependencies
                        if d.producer == producer.spec.session_id]
            if not matching:
                continue
            if not run.consumed_early:
                continue
            if not self.rng.bernoulli(self.model.rework_probability):
                continue
            dep = matching[0]
            dependent_work = sum(
                run.spec.step_durations[dep.consumer_step:])
            redo = dependent_work
            redo += self.model.compensation_factor * dependent_work
            run.extra.append(round(redo, 1))
            if run.finished:
                # reopen the session for the redo
                run.finished = False
                run.step = len(run.spec.step_durations) \
                    + len(run.extra) - 1
                self._try_start_step(run)


# ---------------------------------------------------------------------------
# crash lost-work analysis (experiment T2)
# ---------------------------------------------------------------------------

def work_position(step_durations: list[float],
                  crash_time: float) -> tuple[int, float, float]:
    """(current step, work done in it, total work done) at *crash_time*."""
    done = 0.0
    for index, duration in enumerate(step_durations):
        if done + duration > crash_time:
            return index, crash_time - done, crash_time
        done += duration
    total = sum(step_durations)
    return len(step_durations), 0.0, total


def crash_lost_work(model: ProcessingModel, step_durations: list[float],
                    crash_time: float) -> CrashMetrics:
    """Work lost when the workstation crashes at *crash_time*.

    Applies each model's crash-recovery policy to a single session's
    step profile; see :mod:`repro.baselines.models` for the policies.
    """
    step, in_step, done = work_position(step_durations, crash_time)
    if step >= len(step_durations):
        return CrashMetrics(model.name, crash_time, 0.0)

    recovery = model.crash_recovery
    if recovery is CrashRecovery.RESTART_SESSION:
        lost = done
        overhead = 0.0
    elif recovery is CrashRecovery.RESTART_SUBTRANSACTION:
        lost = in_step
        overhead = 0.0
    elif recovery is CrashRecovery.COMPENSATE_STEPS:
        # committed step transactions survive the crash; only the
        # in-flight step is lost (compensation applies to logical
        # aborts, not system crashes)
        lost = in_step
        overhead = 0.0
    elif recovery is CrashRecovery.RESTART_STEP:
        lost = in_step
        overhead = 0.0
    elif recovery is CrashRecovery.RECOVERY_POINT:
        interval = model.recovery_point_interval
        lost = in_step if interval <= 0 else in_step % interval
        overhead = 0.0
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown recovery policy {recovery}")
    return CrashMetrics(model.name, crash_time, round(lost, 3), overhead)
