"""Server-crash recovery of the cooperation manager equals its live state.

The CM persists by forcing one after-image record per operation to its
state log; what an operation did not mark as touched is not in the
record.  The property here drives random programs of CM operations,
crashes the server after drawn operations — also between a
checkpoint's append and its truncate, and with the lock table wiped —
and compares everything the CM holds, field by field, with what it
held just before the crash.  A mutator that forgets to mark an entity,
or an image that forgets a field, fails here.

The state log's WAL keeps the records it is handed, uncopied.  What
stood in for the copy: every record of every program is checked to be
immutable all the way down, and no entity mutator reaches a forced
record.

The operation's audit entry rides in the same record: the count of
logged operations recovers with the state at every crash point, and a
refused operation changes nothing — the programs refuse on purpose and
are crashed right behind the refusal.
"""

from __future__ import annotations

import dataclasses
import enum
import random
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.activity import DaImage, DesignActivity
from repro.core.features import DesignSpecification, Feature, RangeFeature
from repro.core.relationships import ProposalStatus
from repro.core.state_log import Images
from repro.core.states import DaOperation, DaState
from repro.core.system import ConcordSystem
from repro.dc.script import DopStep, Script, Sequence
from repro.repository.schema import DesignObjectType
from repro.repository.versions import (
    FrozenDict,
    FrozenList,
    is_frozen_payload,
)
from repro.repository.wal import LogRecord, LogRecordKind
from repro.te.locks import LockMode
from repro.util.errors import ConcordError
from repro.vlsi.tools import vlsi_dots

NOOP = Script(Sequence(DopStep("structure_synthesis")), "noop")
LEVELS = ("Chip", "Module", "Block")
FEATURES = ("width-limit", "height-limit")


def spec(limit: float) -> DesignSpecification:
    return DesignSpecification([
        RangeFeature("width-limit", "width", hi=limit),
        RangeFeature("height-limit", "height", hi=limit)])


def new_system() -> ConcordSystem:
    system = ConcordSystem(trace=False)
    system.add_workstation("ws-1")
    return system


# ---------------------------------------------------------------------------
# the oracle: everything the CM holds, as plain comparable data
# ---------------------------------------------------------------------------

def plain(value: Any) -> Any:
    """*value* as nested lists of scalars.  Dataclasses go field by
    field, so a field added later is compared without a change here;
    dicts keep their order, because the registries' order decides the
    order of later notifications."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [(f.name, plain(getattr(value, f.name)))
                for f in dataclasses.fields(value)]
    if isinstance(value, DesignObjectType):
        return value.name
    if isinstance(value, DesignSpecification):
        return [plain(feature) for feature in value]
    if isinstance(value, Feature):
        return [type(value).__name__, plain(vars(value))]
    if isinstance(value, Script):
        return [value.name, value.sequences()]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return [(plain(key), plain(item)) for key, item in value.items()]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def held(system: ConcordSystem) -> dict[str, Any]:
    """The six registries and the scope-lock table."""
    cm = system.cm
    return {
        "das": plain(cm._das),
        "delegations": plain(cm._delegations),
        "usages": plain(cm._usages),
        "negotiations": plain(cm._negotiations),
        # the one registry whose order nothing depends on: recovery
        # walks it to re-acquire locks, and a lock table has no order
        "visibility": sorted(plain(cm._visibility)),
        "inboxes": plain(cm._inboxes),
        "scope_locks": {
            da_id: sorted(lock.resource for lock
                          in system.locks.locks_of(da_id, LockMode.SCOPE))
            for da_id in cm._das},
    }


def inbox(cm: Any, da_id: str) -> list:
    """A DA's pending messages, left where they are."""
    return cm._inboxes.get(da_id, [])


def live_entities(system: ConcordSystem) -> int:
    """What the checkpoint rule counts: every keyed entity the CM holds."""
    cm = system.cm
    return len(cm._das) + len(cm._usages) + len(cm._negotiations) \
        + len(cm._visibility) + len(cm._inboxes)


def assert_recovers(system: ConcordSystem, wipe_locks: bool = False) -> None:
    """Crash and restart the server; nothing the CM held may differ."""
    before = held(system)
    logged = system.cm.stats()
    das = list(system.cm._das)
    system.crash_server()
    if wipe_locks:
        # "the lock table is server-volatile": recovery must be able
        # to rebuild every scope lock from the log alone
        for da_id in das:
            system.locks.release_all(da_id, LockMode.SCOPE)
    system.restart_server()
    after = held(system)
    for registry, value in before.items():
        assert after[registry] == value, registry
    # the audit entries went through the crash with the state they audit
    assert system.cm.stats() == logged
    for da_id in das:
        assert system.runtime(da_id).da is system.cm.da(da_id)


def assert_deeply_immutable(value: Any, path: str) -> None:
    """Nothing reachable from *value* can change: scalars, enum
    members, tuples / frozensets / frozen containers of such, and
    values of a ``__frozen_payload__`` type.  The state log's own
    record types are looked into; the other marked types (scripts,
    specifications, features, quality states) are values with tests of
    their own."""
    kind = type(value)
    if kind is DaImage:
        for field in dataclasses.fields(value):
            assert_deeply_immutable(getattr(value, field.name),
                                    f"{path}.{field.name}")
    elif kind is FrozenDict:
        for key, item in value.items():
            assert_deeply_immutable(key, f"{path}<key {key!r}>")
            assert_deeply_immutable(item, f"{path}[{key!r}]")
    elif kind in (tuple, frozenset, FrozenList, Images):
        for index, item in enumerate(value):
            assert_deeply_immutable(item, f"{path}[{index}]")
    elif kind not in (str, int, float, bool, bytes, type(None)) \
            and not isinstance(value, enum.Enum) \
            and not is_frozen_payload(value):
        raise AssertionError(
            f"{path}: a {kind.__name__} in a forced record")


def assert_record_immutable(record: LogRecord) -> None:
    for kind, images in record.payload.items():
        if kind == "op":  # the audit entry: one frozen value
            assert type(images) is FrozenDict, kind
            assert {"op", "actor"} <= set(images)
        elif kind == "ops":  # a checkpoint's count of them
            assert type(images) is int \
                and record.kind is LogRecordKind.CHECKPOINT, kind
        else:
            assert type(images) is Images, kind
        assert_deeply_immutable(images, f"lsn {record.lsn} {kind}")


# ---------------------------------------------------------------------------
# random programs of CM operations
# ---------------------------------------------------------------------------

def pick(candidates: list, choice: int) -> Any:
    return candidates[choice % len(candidates)] if candidates else None


class Program:
    """Interprets ``(operation, a, b, c)`` steps against the live state:
    the integers choose among the DAs, DOVs and proposals for which the
    operation makes sense right now, so most steps do something."""

    #: operation -> how often a step draws it; what builds the
    #: hierarchy up is drawn more often than what takes it down
    WEIGHTS = {"init": 1, "create": 6, "start": 6, "evaluate": 8,
               "require": 5, "propagate": 5, "withdraw": 2, "invalidate": 2,
               "negotiation": 1, "propose": 5, "agree": 3, "disagree": 2,
               "conflict": 2,
               "modify_spec": 2, "ready": 4, "terminate": 2, "finish": 1,
               "pop": 3,
               "refused_create": 2, "refused_evaluate": 2,
               "refused_propagate": 2}
    OPERATIONS = tuple(WEIGHTS)
    DRAWS = tuple(name for name, weight in WEIGHTS.items()
                  for _ in range(weight))

    def __init__(self, system: ConcordSystem) -> None:
        self.system = system
        self.cm = system.cm
        self.dots = vlsi_dots()

    def in_state(self, *states: DaState) -> list[str]:
        return [da.da_id for da in self.cm.das() if da.state in states]

    def dovs_of(self, da_id: str) -> list[str]:
        repository = self.system.repository
        if not repository.has_graph(da_id):
            return []
        return sorted(repository.graph(da_id).ids())

    def open_proposals(self) -> list[tuple[str, str, str]]:
        """(negotiation id, proposal id, the party who did not propose)"""
        found = []
        for negotiation in self.cm._negotiations.values():
            proposal = negotiation.open_proposal()
            if proposal is not None and not negotiation.closed:
                found.append((negotiation.negotiation_id,
                              proposal.proposal_id,
                              negotiation.other(proposal.proposer)))
        return found

    def run(self, operation: str, a: int, b: int, c: int) -> bool:
        """One step; False when it had no candidate or was refused."""
        try:
            return getattr(self, operation)(a, b, c) is not False
        except ConcordError:
            return False

    # -- the operations ----------------------------------------------------

    def init(self, a: int, b: int, c: int) -> Any:
        data = {"cell": "chip", "level": "chip"} if a % 2 else None
        self.system.init_design(self.dots["Chip"], spec(100.0 + b % 50),
                                "chief", NOOP, "ws-1", initial_data=data)

    def create(self, a: int, b: int, c: int) -> Any:
        parent = pick(self.in_state(DaState.ACTIVE), a)
        if parent is None:
            return False
        level = min(self.cm.hierarchy_depth(parent) + 1, len(LEVELS) - 1)
        initial = pick(self.dovs_of(parent), c) if b % 3 == 0 else None
        self.system.create_sub_da(parent, self.dots[LEVELS[level]],
                                  spec(60.0 + b % 60), f"designer-{a}",
                                  NOOP, "ws-1", initial_dov=initial)

    def start(self, a: int, b: int, c: int) -> Any:
        da_id = pick(self.in_state(DaState.GENERATED), a)
        if da_id is None:
            return False
        self.system.start(da_id)

    def evaluate(self, a: int, b: int, c: int) -> Any:
        da_id = pick(self.in_state(DaState.ACTIVE, DaState.NEGOTIATING), a)
        if da_id is None:
            return False
        dovs = self.dovs_of(da_id)
        if not dovs or c % 2:
            da = self.cm.da(da_id)
            dovs = [self.system.repository.checkin(
                da_id, da.dot.name,
                {"cell": da_id, "level": da.dot.name.lower(),
                 "width": 10.0 + b % 90, "height": 10.0 + c % 90}).dov_id]
        self.cm.evaluate(da_id, pick(dovs, b))

    def require(self, a: int, b: int, c: int) -> Any:
        active = self.in_state(DaState.ACTIVE)
        requiring, supporting = pick(active, a), pick(active, b)
        if requiring is None or requiring == supporting:
            return False
        self.cm.require(requiring, supporting, set(FEATURES[:1 + c % 2]))

    def propagate(self, a: int, b: int, c: int) -> Any:
        da_id = pick(self.in_state(DaState.ACTIVE,
                                   DaState.READY_FOR_TERMINATION), a)
        dov = pick(self.dovs_of(da_id), b) if da_id else None
        if dov is None:
            return False
        self.cm.propagate(da_id, dov)

    def _propagated(self, a: int, b: int) -> tuple[str, str] | None:
        supporting = pick([da.da_id for da in self.cm.das()
                           if da.propagated], a)
        if supporting is None:
            return None
        return supporting, pick(self.cm.da(supporting).propagated, b)

    def withdraw(self, a: int, b: int, c: int) -> Any:
        target = self._propagated(a, b)
        if target is None:
            return False
        self.cm.withdraw(*target, cascade=bool(c % 2))

    def invalidate(self, a: int, b: int, c: int) -> Any:
        target = self._propagated(a, b)
        if target is None:
            return False
        self.cm.invalidate_propagation(*target)

    def _siblings(self, a: int, b: int, *states: DaState
                  ) -> tuple[str, str] | None:
        working = self.in_state(*states)
        one = pick(working, a)
        other = pick([other for other in working if other != one
                      and self.cm.common_super(one, other)], b)
        return None if other is None else (one, other)

    def negotiation(self, a: int, b: int, c: int) -> Any:
        pair = self._siblings(a, b, DaState.ACTIVE)
        if pair is None:
            return False
        self.cm.create_negotiation_relationship(
            self.cm.common_super(*pair), *pair, subject=f"border-{c}")

    def propose(self, a: int, b: int, c: int) -> Any:
        pair = self._siblings(a, b, DaState.ACTIVE, DaState.NEGOTIATING)
        if pair is None:
            return False
        proposer, other = pair
        border = 20.0 + c % 60
        self.cm.propose(proposer, other, {
            proposer: [RangeFeature("width-limit", "width", hi=border)],
            other: [RangeFeature("width-limit", "width",
                                 hi=120.0 - border)]})

    def agree(self, a: int, b: int, c: int) -> Any:
        found = pick(self.open_proposals(), a)
        if found is None:
            return False
        self.cm.agree(found[2], found[1])

    def disagree(self, a: int, b: int, c: int) -> Any:
        found = pick(self.open_proposals(), a)
        if found is None:
            return False
        self.cm.disagree(found[2], found[1])

    def conflict(self, a: int, b: int, c: int) -> Any:
        negotiation = pick([n for n in self.cm._negotiations.values()
                            if not n.closed], a)
        if negotiation is None:
            return False
        self.cm.sub_das_specification_conflict(
            (negotiation.da_a, negotiation.da_b)[b % 2],
            negotiation.negotiation_id)

    def _subs(self, *states: DaState) -> list[str]:
        return [da_id for da_id in self.in_state(*states)
                if self.cm.da(da_id).parent is not None]

    def modify_spec(self, a: int, b: int, c: int) -> Any:
        sub = pick(self._subs(DaState.GENERATED, DaState.ACTIVE,
                              DaState.READY_FOR_TERMINATION), a)
        if sub is None:
            return False
        self.cm.modify_sub_da_specification(
            self.cm.da(sub).parent, sub, spec(30.0 + b % 100),
            restart_dov=pick(self.dovs_of(sub), c) if c % 2 else None)

    def ready(self, a: int, b: int, c: int) -> Any:
        sub = pick([da_id for da_id in self._subs(DaState.ACTIVE)
                    if self.cm.da(da_id).has_final_dov()], a)
        if sub is None:
            return False
        self.cm.sub_da_ready_to_commit(sub)

    def terminate(self, a: int, b: int, c: int) -> Any:
        sub = pick(self._subs(DaState.GENERATED, DaState.ACTIVE,
                              DaState.READY_FOR_TERMINATION), a)
        if sub is None:
            return False
        self.cm.terminate_sub_da(self.cm.da(sub).parent, sub)

    def finish(self, a: int, b: int, c: int) -> Any:
        top = pick([da.da_id for da in self.cm.das()
                    if da.parent is None
                    and da.state is not DaState.TERMINATED
                    and not self.cm.children_of(da.da_id)], a)
        if top is None:
            return False
        self.cm.finish_top_level(top)

    def pop(self, a: int, b: int, c: int) -> Any:
        da_id = pick([da_id for da_id, inbox in self.cm._inboxes.items()
                      if inbox], a)
        if da_id is None:
            return False
        kind = inbox(self.cm, da_id)[b % len(inbox(self.cm, da_id))].kind \
            if c % 2 else None
        assert self.cm.pop_messages(da_id, kind)


    # -- refused on purpose: the step is the refusal ------------------------

    def refused_create(self, a: int, b: int, c: int) -> Any:
        parent = pick(self.in_state(DaState.ACTIVE), a)
        if parent is None:
            return False
        if self.cm.da(parent).dot.name == "Chip":
            dot, initial = self.dots["Module"], "dov-nowhere"
        else:  # every DOT is a part of Chip; Chip of no other
            dot, initial = self.dots["Chip"], None
        assert_refused(self.system, self.system.create_sub_da, parent, dot,
                       spec(50.0), "nobody", NOOP, "ws-1",
                       initial_dov=initial)

    def refused_evaluate(self, a: int, b: int, c: int) -> Any:
        da_id = pick(self.in_state(DaState.ACTIVE, DaState.NEGOTIATING), a)
        if da_id is None:
            return False
        assert_refused(self.system, self.cm.evaluate, da_id, "dov-nowhere")

    def refused_propagate(self, a: int, b: int, c: int) -> Any:
        da_id = pick(self.in_state(DaState.ACTIVE,
                                   DaState.READY_FOR_TERMINATION), a)
        if da_id is None:
            return False
        foreign = [dov for other in self.cm.das() if other.da_id != da_id
                   for dov in self.dovs_of(other.da_id)]
        assert_refused(self.system, self.cm.propagate, da_id,
                       pick(foreign, b) or "dov-nowhere")


def assert_refused(system: ConcordSystem, operation: Any, *args: Any,
                   **kwargs: Any) -> None:
    """The CM refuses the call and comes out as it went in: the same
    hierarchy, transition histories and marks, nothing written."""
    cm = system.cm

    def witnessed() -> Any:
        return (cm.hierarchy_snapshot(),
                {da.da_id: list(da.machine.history) for da in cm.das()},
                {kind: list(marked)
                 for kind, marked in cm.state_log._marks.items()},
                len(cm.state_log.wal), cm.stats())

    before = witnessed()
    with pytest.raises(ConcordError):
        operation(*args, **kwargs)
    assert witnessed() == before


class _TornCheckpoint(Exception):
    """The server died after a checkpoint's append, before its truncate."""


#: how the server is crashed after a drawn step: plainly; with the
#: (server-volatile) lock table wiped as well; or torn — at the next
#: checkpoint, between its forced append and the truncate behind it
CRASHES = ("plain", "wiped", "torn")

steps = st.lists(
    st.tuples(st.sampled_from(Program.DRAWS),
              *[st.integers(min_value=0, max_value=2 ** 16)] * 3),
    min_size=1, max_size=60)
crashes = st.dictionaries(st.integers(min_value=0, max_value=59),
                          st.sampled_from(CRASHES), max_size=6)


def drive(program_steps: list[tuple], crash_after: dict[int, str]
          ) -> tuple[ConcordSystem, set[str]]:
    """Run the steps, crash the server after those *crash_after* names
    (when they did something); returns the system and the operations
    that completed at least once."""
    system = new_system()
    program = Program(system)
    log = system.cm.state_log.wal
    top = system.init_design(program.dots["Chip"], spec(100.0), "chief",
                             NOOP, "ws-1",
                             initial_data={"cell": "chip", "level": "chip"})
    system.start(top.da_id)

    def torn(up_to_lsn: int) -> int:
        raise _TornCheckpoint

    reached: set[str] = set()
    checked = 0  # lsn up to which the records were found immutable

    def check_new_records() -> None:
        nonlocal checked
        for record in log.stable_records():
            if record.lsn > checked:
                assert_record_immutable(record)
                checked = record.lsn

    for index, (operation, a, b, c) in enumerate(program_steps):
        check_new_records()
        try:
            completed = program.run(operation, a, b, c)
        except _TornCheckpoint:
            del log.truncate  # the instance attribute: the method is back
            kinds = [record.kind for record in log.stable_records()]
            assert kinds[-1] is LogRecordKind.CHECKPOINT and len(kinds) > 1
            assert_recovers(system)
            # recovery finished the truncate the crash cut short
            assert [record.kind for record in log.stable_records()] \
                == [LogRecordKind.CHECKPOINT]
            continue
        # within one state's worth of after-images, at every step
        assert len(log.stable_records()) \
            <= 2 * live_entities(system) + 1
        crash = crash_after.get(index)
        if not completed:
            continue
        reached.add(operation)
        if crash is None:
            continue
        if crash == "torn":
            log.truncate = torn
        else:
            assert_recovers(system, wipe_locks=crash == "wiped")
    log.__dict__.pop("truncate", None)
    check_new_records()
    assert_recovers(system)
    return system, reached


@given(steps, crashes)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_recovery_equals_the_live_state_at_every_crash_point(
        program_steps, crash_after):
    drive(program_steps, crash_after)


@pytest.mark.slow
@given(steps, crashes)
@settings(max_examples=2000, deadline=None)
def test_recovery_equals_the_live_state_wide_search(
        program_steps, crash_after):
    drive(program_steps, crash_after)


def test_one_long_program_recovers_every_few_steps():
    """The budget that does not depend on the search: 700 fixed steps
    that reach every operation, crashed every tenth step in turn
    plainly, with the lock table wiped, and inside a checkpoint."""
    rng = random.Random(14)
    program_steps = [(rng.choice(Program.DRAWS),
                      *(rng.randrange(2 ** 16) for _ in range(3)))
                     for _ in range(700)]
    crash_after = {index: CRASHES[index // 10 % len(CRASHES)]
                   for index in range(0, len(program_steps), 10)}
    system, reached = drive(program_steps, crash_after)
    assert reached == set(Program.OPERATIONS)
    assert system.cm.state_log.checkpoints >= 3  # not counting the torn ones


# ---------------------------------------------------------------------------
# fixed cases
# ---------------------------------------------------------------------------

@pytest.fixture
def team():
    """A started top-level DA with two started sub-DAs."""
    system = new_system()
    dots = vlsi_dots()
    top = system.init_design(dots["Chip"], spec(100.0), "chief", NOOP,
                             "ws-1")
    system.start(top.da_id)
    subs = []
    for name in ("left", "right"):
        sub = system.create_sub_da(top.da_id, dots["Module"], spec(50.0),
                                   name, NOOP, "ws-1")
        system.start(sub.da_id)
        subs.append(sub.da_id)
    return system, top.da_id, subs


def final_dov(system: ConcordSystem, da_id: str) -> str:
    dov = system.repository.checkin(
        da_id, "Module", {"cell": da_id, "level": "module", "width": 10.0,
                          "height": 10.0})
    assert system.cm.evaluate(da_id, dov.dov_id).is_final
    return dov.dov_id


def scope_locks(system: ConcordSystem) -> dict[str, list[str]]:
    return {da.da_id: sorted(system.locks.scope_of(da.da_id))
            for da in system.cm.das()}


def test_recovery_does_not_resurrect_a_terminated_sub_das_scope_locks(team):
    system, top, (left, right) = team
    dov = final_dov(system, left)
    system.cm.sub_da_ready_to_commit(left)
    assert system.cm.terminate_sub_da(top, left) == [dov]
    before = scope_locks(system)
    assert before == {top: [dov], left: [], right: []}
    system.crash_server()
    system.restart_server()
    assert scope_locks(system) == before


def test_recovery_does_not_resurrect_a_finished_designs_scope_locks(team):
    system, top, subs = team
    for sub in subs:
        final_dov(system, sub)
        system.cm.sub_da_ready_to_commit(sub)
        system.cm.terminate_sub_da(top, sub)
    assert len(system.locks.scope_of(top)) == 2
    system.cm.finish_top_level(top)
    assert scope_locks(system) == {top: [], subs[0]: [], subs[1]: []}
    system.crash_server()
    system.restart_server()
    assert scope_locks(system) == {top: [], subs[0]: [], subs[1]: []}
    assert system.cm._visibility == {}


def test_no_da_handle_outlives_a_server_restart(team):
    system, top, (left, right) = team
    new = system.create_sub_da(top, vlsi_dots()["Module"], spec(50.0),
                               "late", NOOP, "ws-1")
    system.crash_server()
    system.restart_server()
    system.start(new.da_id)
    assert system.cm.da(new.da_id).state is DaState.ACTIVE
    for da_id in (top, left, right, new.da_id):
        runtime = system.runtime(da_id)
        assert runtime.da is system.cm.da(da_id)
        assert runtime.binding.dot_name == runtime.da.dot.name
    assert system.runtime(new.da_id).da.state is DaState.ACTIVE


def test_a_consumed_message_stays_consumed_across_a_server_crash(team):
    system, top, (left, right) = team
    final_dov(system, left)
    system.cm.sub_da_ready_to_commit(left)
    system.cm.sub_da_impossible_specification(right, "too narrow")
    taken = system.cm.pop_messages(top, "ready_to_commit")
    assert [message.kind for message in taken] == ["ready_to_commit"]
    system.crash_server()
    system.restart_server()
    assert [message.kind for message in inbox(system.cm, top)] \
        == ["impossible_specification"]
    # an empty pop changes nothing, so it forces nothing
    records = len(system.cm.state_log.wal)
    assert system.cm.pop_messages(top, "ready_to_commit") == []
    assert len(system.cm.state_log.wal) == records


def test_a_message_the_kernel_delivers_later_is_durable_on_arrival(team):
    system, top, (left, right) = team
    final_dov(system, left)
    # under a running kernel the notice reaches the inbox one LAN hop
    # after Ready_To_Commit has forced its record
    system.kernel.after(
        0.0, lambda: system.cm.sub_da_ready_to_commit(left), label="ready")
    system.kernel.run_until_quiescent()
    assert [message.kind for message in inbox(system.cm, top)] \
        == ["ready_to_commit"]
    system.crash_server()
    system.restart_server()
    assert [message.kind for message in inbox(system.cm, top)] \
        == ["ready_to_commit"]


def test_a_delivery_forces_a_record_of_its_own_only_outside_its_operation(
        team, monkeypatch):
    system, top, (left, right) = team
    log = system.cm.state_log.wal
    records = []  # checkpoints aside: those come when they are due
    append = log.append
    monkeypatch.setattr(log, "append", lambda kind, *args, **kwargs: (
        records.append(kind), append(kind, *args, **kwargs))[1])
    final_dov(system, left)
    final_dov(system, right)
    del records[:]
    system.cm.sub_da_ready_to_commit(left)
    assert inbox(system.cm, top)
    assert records.count(LogRecordKind.DA_STATE) == 1
    # under the kernel the operation is over when the message arrives
    del records[:]
    system.kernel.after(
        0.0, lambda: system.cm.sub_da_ready_to_commit(right), label="ready")
    system.kernel.run_until_quiescent()
    assert len(inbox(system.cm, top)) == 2
    assert records.count(LogRecordKind.DA_STATE) == 2


@pytest.mark.parametrize("refusal", ["not a part", "initial DOV not in scope",
                                     "evaluate out of scope",
                                     "propagate a foreign DOV",
                                     "propose before start"])
def test_a_refused_operation_leaves_the_cm_as_it_was(team, refusal):
    """The checks come before the transition: at the parent the refused
    call had already put a row into the DA's history, and a crash
    right behind it recovered a history the live CM no longer had (a
    refused Propose had set up its negotiation, held by marks alone)."""
    system, top, (left, right) = team
    dots = vlsi_dots()
    foreign = final_dov(system, right)
    if refusal == "not a part":
        assert_refused(system, system.create_sub_da, left, dots["Chip"],
                       spec(50.0), "nobody", NOOP, "ws-1")
    elif refusal == "initial DOV not in scope":
        assert_refused(system, system.create_sub_da, left, dots["Block"],
                       spec(50.0), "nobody", NOOP, "ws-1",
                       initial_dov=foreign)
    elif refusal == "evaluate out of scope":
        assert_refused(system, system.cm.evaluate, left, foreign)
    elif refusal == "propagate a foreign DOV":
        assert_refused(system, system.cm.propagate, left, foreign)
    else:
        late = system.create_sub_da(top, dots["Module"], spec(50.0),
                                    "late", NOOP, "ws-1")
        assert_refused(system, system.cm.propose, left, late.da_id, {})
        assert not system.cm._negotiations
    assert_recovers(system)


def test_a_two_party_transition_is_refused_before_either_has_moved(team):
    """At the parent the first party had made the transition when the
    second refused it: a Propose to a sub-DA not yet started left the
    proposer suspended in *negotiating* with no proposal to answer."""
    system, top, (left, right) = team
    late = system.create_sub_da(top, vlsi_dots()["Module"], spec(50.0),
                                "late", NOOP, "ws-1")
    history = list(system.cm.da(left).machine.history)
    with pytest.raises(ConcordError):
        system.cm.propose(left, late.da_id, {})
    with pytest.raises(ConcordError):
        system.cm.create_negotiation_relationship(top, left, late.da_id)
    assert system.cm.da(left).state is DaState.ACTIVE
    assert system.cm.da(left).machine.history == history


def registries(holding: dict[str, Any]) -> dict[str, Any]:
    """*holding* without the lock table (which no crash here wipes)."""
    return {name: value for name, value in holding.items()
            if name != "scope_locks"}


def test_a_log_record_never_aliases_live_state(team):
    system, top, (left, right) = team
    dov = final_dov(system, left)
    system.cm.require(right, left, {"width-limit"})
    system.cm.propagate(left, dov)
    logged = held(system)
    # edits no operation made, on objects the last records described
    da = system.cm.da(left)
    da.final_dovs.append("dov-bogus")
    da.children.append("da-bogus")
    da.machine.history.clear()
    da.quality.clear()
    system.cm.usage(right, left).delivered.append("dov-bogus")
    system.cm._visibility[dov].add("da-bogus")
    message = inbox(system.cm, right)[0]
    message.payload["dov"] = "dov-bogus"
    system.cm._inboxes[right].append(message)
    assert held(system) != logged
    system.crash_server()
    system.restart_server()
    assert registries(held(system)) == registries(logged)
    # and the other way round: what recovery built is not the log's
    system.cm.da(left).propagated.append("dov-bogus")
    inbox(system.cm, right)[0].payload["dov"] = "dov-bogus"
    system.crash_server()
    system.restart_server()
    assert registries(held(system)) == registries(logged)


def forced(system: ConcordSystem) -> list:
    """Every stable record of the state log, as plain data."""
    return [(record.lsn, record.kind, plain(record.payload))
            for record in system.cm.state_log.wal.stable_records()]


def test_no_entity_mutator_reaches_a_forced_record(team):
    """The WAL shares the images it is handed: an image must hold
    nothing its entity goes on to change."""
    system, top, (left, right) = team
    cm = system.cm
    dov = final_dov(system, left)
    cm.require(right, left, {"width-limit"})
    cm.propagate(left, dov)
    proposal = cm.propose(left, right, {
        left: [RangeFeature("width-limit", "width", hi=40.0)],
        right: [RangeFeature("width-limit", "width", hi=60.0)]})
    at_persist = forced(system)
    for record in cm.state_log.wal.stable_records():
        assert_record_immutable(record)
    # every way an entity changes, by hand and behind the CM's back
    da, usage = cm.da(left), cm.usage(right, left)
    da.machine.apply(DaOperation.AGREE)
    da.machine.history.append(da.machine.history[0])
    da.children.append("da-bogus")
    da.record_quality("dov-bogus", da.quality[dov])
    da.revoke_finality(dov)
    da.final_dovs.append("dov-bogus")
    da.propagated.append("dov-bogus")
    da.quality.clear()
    usage.delivered.append("dov-bogus")
    usage.withdrawn.append(dov)
    proposal.changes[left].append(RangeFeature("more", "width", hi=1.0))
    proposal.changes["da-bogus"] = []
    proposal.status = ProposalStatus.REJECTED
    cm.negotiations_of(left)[0].proposals.append(proposal)
    cm._visibility[dov].add("da-bogus")
    message = inbox(cm, right)[0]
    message.payload["dov"] = "dov-bogus"
    message.payload["more"] = ["x"]
    cm._inboxes[right].append(message)
    cm._inboxes[right].reverse()
    assert forced(system) == at_persist
    # the same the other way round: what recovery builds is its own
    system.crash_server()
    system.restart_server()
    cm.da(left).children.append("da-bogus")
    cm.da(left).quality.clear()
    cm.usage(right, left).delivered.clear()
    cm.negotiations_of(left)[0].proposals[0].changes.clear()
    inbox(cm, right)[0].payload.clear()
    assert forced(system) == at_persist


def test_an_image_leaking_a_live_list_is_caught(team, monkeypatch):
    """The mutation check of the walker the programs run under."""
    system, top, (left, right) = team
    image = DesignActivity.image

    def leaking(da, described=True):
        return dataclasses.replace(image(da, described),
                                   children=da.children)

    monkeypatch.setattr(DesignActivity, "image", leaking)
    system.cm.evaluate(left, system.repository.checkin(
        left, "Module", {"cell": left, "level": "module"}).dov_id)
    record = system.cm.state_log.wal.stable_records()[-1]
    with pytest.raises(AssertionError, match=r"das\[0\]\[1\]\.children: "
                                             r"a list in a forced record"):
        assert_record_immutable(record)


def test_the_state_log_stays_within_one_states_worth_of_records(team):
    system, top, subs = team
    cm = system.cm
    peak = 0
    for round_ in range(60):
        for sub in subs:
            dov = final_dov(system, sub)
            cm.propagate(sub, dov)
        cm.require(subs[0], subs[1], {"width-limit"})
        cm.pop_messages(subs[0])
        cm.pop_messages(subs[1])
        stable = len(cm.state_log.wal.stable_records())
        assert stable <= 2 * live_entities(system) + 1
        peak = max(peak, stable)
    # 420 operations went through a log that never held more than this
    assert cm.state_log.checkpoints >= 3
    assert peak <= 2 * live_entities(system) + 1
    assert_recovers(system)
