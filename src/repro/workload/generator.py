"""Synthetic design-team workloads.

The T1 experiment needs a workload with the structure the paper's
chip-planning scenario exhibits (Fig.5): a team of designers, one per
subcell, each running a sequence of long tool executions, where
neighbouring designers exchange preliminary results (the shared
borderline between cells A and B) and all touch shared design objects.

:func:`team_workload` generates such a team deterministically from a
seed: *n* sessions of *k* steps; each session (except the first)
depends on a mid-session result of its predecessor, and neighbouring
sessions share one written design object (lock-contention surface).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.rng import SeededRng


@dataclass(frozen=True)
class Dependency:
    """Consumer step needs a producer step's output."""

    producer: str        # producer session id
    producer_step: int   # output of this step index ...
    consumer_step: int   # ... is needed before this step starts


@dataclass
class SessionSpec:
    """One designer's planned sequence of tool executions."""

    session_id: str
    step_durations: list[float]
    #: design objects written by every step of this session
    writes: list[str] = field(default_factory=list)
    #: all mid-session inputs from other sessions (fan-in allowed)
    dependencies: list[Dependency] = field(default_factory=list)
    #: shared design objects each step checks out before it runs
    #: (one list per step; empty = the step reads nothing shared)
    reads: list[list[str]] = field(default_factory=list)
    #: per-step write plan: True = the step derives and checks in a
    #: new version of the session's own design object (empty = no
    #: per-step plan; models then use their own write policy)
    write_steps: list[bool] = field(default_factory=list)

    def __post_init__(self) -> None:
        pass

    def reads_at(self, step: int) -> list[str]:
        """Objects checked out at the start of *step* (may be empty)."""
        return list(self.reads[step]) if step < len(self.reads) else []

    def writes_at(self, step: int) -> bool:
        """True when the plan says *step* checks in a derived version."""
        return self.write_steps[step] \
            if step < len(self.write_steps) else False

    @property
    def total_work(self) -> float:
        """Sum of the step durations."""
        return sum(self.step_durations)

    def dependencies_at(self, step: int) -> list[Dependency]:
        """Dependencies gating the start of *step*."""
        return [d for d in self.dependencies if d.consumer_step == step]


@dataclass
class TeamWorkload:
    """A complete team run: sessions plus shared-object topology."""

    sessions: list[SessionSpec]
    seed: int = 0

    def session(self, session_id: str) -> SessionSpec:
        """Look up a session by id."""
        for session in self.sessions:
            if session.session_id == session_id:
                return session
        raise KeyError(f"no session {session_id!r}")

    @property
    def total_work(self) -> float:
        """Sum of all sessions' planned work."""
        return sum(s.total_work for s in self.sessions)


def _step_reads(rng: SeededRng, history: list[str],
                reads_per_step: int, reread_locality: float,
                object_pool: int) -> list[str]:
    """Draw one step's read set with configurable re-read locality.

    Each slot re-reads an object from the designer's own read history
    with probability *reread_locality* (the working-set behaviour that
    makes workstation object buffers pay off) and otherwise picks a
    fresh object from the shared library pool.  Reads within one step
    are distinct — a tool checks each input out once.
    """
    step_reads: list[str] = []
    pool = [f"lib-{n}" for n in range(object_pool)]
    for _ in range(min(reads_per_step, object_pool)):
        candidates = [obj for obj in history if obj not in step_reads]
        if candidates and rng.bernoulli(reread_locality):
            choice = rng.choice(candidates)
        else:
            fresh = [obj for obj in pool if obj not in step_reads]
            choice = rng.choice(fresh)
        step_reads.append(choice)
        if choice not in history:
            history.append(choice)
    return step_reads


def team_workload(team_size: int, steps_per_session: int = 4,
                  mean_step: float = 60.0, seed: int = 0,
                  reads_per_step: int = 0,
                  reread_locality: float = 0.0,
                  object_pool: int = 4,
                  write_ratio: float = 0.0) -> TeamWorkload:
    """Generate a seeded chip-planning-style team workload.

    Session *i* (>0) consumes a preliminary result of session *i-1*
    produced by its middle step — the Fig.5 pattern where planning a
    subcell needs the neighbour's provisional borderline.  Neighbouring
    sessions also *write* a shared design object, exercising the
    models' write-concurrency policies.

    With ``reads_per_step`` > 0 every step additionally checks out
    that many shared library objects; ``reread_locality`` is the
    probability that a read revisits an object the designer already
    read (see :func:`_step_reads`) — the knob the T8 data-shipping
    experiment turns to make buffer hit rates non-trivial.

    With ``write_ratio`` > 0 each step independently derives and
    checks in a new version of the session's own design object with
    that probability (the plan lands in
    :attr:`SessionSpec.write_steps`); the last step of every session
    always writes, so each designer produces at least one result.
    """
    if team_size < 1:
        raise ValueError("team_size must be >= 1")
    rng = SeededRng(seed)
    sessions = []
    for i in range(team_size):
        durations = [
            round(rng.bounded_normal(mean_step, mean_step / 3,
                                     mean_step / 4, mean_step * 3), 1)
            for _ in range(steps_per_session)]
        writes = [f"cell-{i}"]
        if i > 0:
            writes.append(f"border-{i - 1}-{i}")
        if i < team_size - 1:
            writes.append(f"border-{i}-{i + 1}")
        dependencies = []
        if i > 0:
            producer_step = max(0, steps_per_session // 2 - 1)
            consumer_step = min(steps_per_session - 1,
                                steps_per_session // 2)
            dependencies.append(Dependency(f"designer-{i - 1}",
                                           producer_step, consumer_step))
        reads: list[list[str]] = []
        if reads_per_step > 0:
            history: list[str] = []
            reads = [_step_reads(rng, history, reads_per_step,
                                 reread_locality, object_pool)
                     for _ in range(steps_per_session)]
        write_steps: list[bool] = []
        if write_ratio > 0:
            write_steps = [rng.bernoulli(write_ratio)
                           for _ in range(steps_per_session)]
            write_steps[-1] = True  # every designer delivers a result
        sessions.append(SessionSpec(
            session_id=f"designer-{i}",
            step_durations=durations,
            writes=writes,
            dependencies=dependencies,
            reads=reads,
            write_steps=write_steps,
        ))
    return TeamWorkload(sessions=sessions, seed=seed)


def integration_workload(team_size: int, seed: int = 0) -> TeamWorkload:
    """A fan-in topology: independent designers plus one integrator.

    ``team_size`` designers work independently (own objects, no mutual
    dependencies) for three steps of 60 minutes on average; a final
    two-step *integrator* session consumes a preliminary result of
    **every** designer before its last step — the chip assembly /
    system integration pattern.
    """
    steps_per_session, integration_steps, mean_step = 3, 2, 60.0
    if team_size < 1:
        raise ValueError("team_size must be >= 1")
    rng = SeededRng(seed)
    sessions = []
    for i in range(team_size):
        durations = [
            round(rng.bounded_normal(mean_step, mean_step / 3,
                                     mean_step / 4, mean_step * 3), 1)
            for _ in range(steps_per_session)]
        sessions.append(SessionSpec(
            session_id=f"designer-{i}",
            step_durations=durations,
            writes=[f"cell-{i}"],
        ))
    integrator_durations = [
        round(rng.bounded_normal(mean_step, mean_step / 3,
                                 mean_step / 4, mean_step * 3), 1)
        for _ in range(integration_steps)]
    dependencies = [
        Dependency(f"designer-{i}",
                   producer_step=max(0, steps_per_session - 2),
                   consumer_step=integration_steps - 1)
        for i in range(team_size)]
    sessions.append(SessionSpec(
        session_id="integrator",
        step_durations=integrator_durations,
        writes=["assembly"],
        dependencies=dependencies,
    ))
    return TeamWorkload(sessions=sessions, seed=seed)
