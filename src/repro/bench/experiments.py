"""Drivers for the quantitative experiments T1-T10.

These substantiate the paper's qualitative claims with measurements on
the implemented system and baselines.  Each driver runs one fixed grid
and takes no arguments; the shape it must exhibit is checked once, in
:mod:`repro.bench.scorecard`.
"""

from __future__ import annotations

from typing import Callable

from repro.baselines.models import all_models, concord_model
from repro.bench.reporting import ExperimentResult
from repro.core.features import DesignSpecification, RangeFeature
from repro.core.system import ConcordSystem
from repro.dc.script import DopStep, Script, Sequence
from repro.repository.federation import FederatedRepository
from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.scenario.delegation import chip_spec, make_vlsi_system
from repro.te.rig import TeRig
from repro.util.errors import StorageError
from repro.util.ids import IdGenerator
from repro.util.rng import SeededRng
from repro.vlsi.tools import vlsi_dots
from repro.workload.generator import (
    integration_workload,
    team_workload,
)
from repro.workload.simulator import TeamSimulator, crash_lost_work


# ---------------------------------------------------------------------------
# T1 — cooperation vs. isolation: team makespan
# ---------------------------------------------------------------------------

def run_t1() -> ExperimentResult:
    """Team turnaround under CONCORD vs the baseline models.

    Claim (Sect.1.1): "The isolation property builds 'protective
    walls' among concurrent transactions and is therefore contrary to
    cooperation."  Expected shape: CONCORD < ConTracts/Saga <
    nested = flat, with the gap growing in team size.  Two topologies:
    the Fig.5-style *chain* (neighbouring designers exchange border
    results) and the chip-assembly *fan-in* (one integrator consumes a
    preliminary result of every designer).
    """
    result = ExperimentResult(
        "T1", "Cooperation vs isolation: team makespan and blocking")
    for topology, build in (("chain", team_workload),
                            ("fan-in", integration_workload)):
        for team_size in (2, 4, 6, 8):
            workload = build(team_size, seed=7)
            for model in all_models():
                metrics = TeamSimulator(model, workload).run()
                result.add(topology=topology, team=team_size,
                           model=model.name,
                           makespan=round(metrics.makespan, 1),
                           blocked=round(metrics.total_blocked, 1),
                           rework=round(metrics.total_rework, 1),
                           total_work=round(workload.total_work, 1))
    result.notes.append(
        "expected shape: concord lowest makespan in both topologies; "
        "chain: flat/nested fully serialise (makespan == total work), "
        "gap grows with team size; fan-in: commit-only visibility "
        "delays the integrator by the slowest full session")
    return result


# ---------------------------------------------------------------------------
# T2 — lost work after a workstation crash
# ---------------------------------------------------------------------------

#: the designer session T2 and A2 crash into: four tool steps (minutes)
STEP_DURATIONS = (55.0, 70.0, 62.0, 48.0)


def run_t2() -> ExperimentResult:
    """Lost work vs crash time for each model's recovery policy.

    Claim (Sect.5.2): "Since DOPs are long-lived transactions, it is
    inadequate to treat system failures by rollback to the very
    beginning. ... Recovery points act as 'fire-walls' inside a DOP
    that limit the scope of work lost."  Expected: flat grows linearly
    with crash time; step-granular models are bounded by the step
    length; CONCORD is bounded by the recovery-point interval.
    """
    result = ExperimentResult(
        "T2", "Lost work after a workstation crash")
    steps = list(STEP_DURATIONS)
    for crash_time in (25.0, 80.0, 140.0, 200.0):
        for model in all_models():
            if model.name == "concord":
                continue  # added per interval below
            metrics = crash_lost_work(model, steps, crash_time)
            result.add(crash_time=crash_time, model=model.name,
                       lost_work=metrics.lost_work)
        for interval in (10.0, 30.0):
            model = concord_model(recovery_point_interval=interval)
            metrics = crash_lost_work(model, steps, crash_time)
            result.add(crash_time=crash_time,
                       model=f"concord(rp={interval:.0f})",
                       lost_work=metrics.lost_work)
    result.notes.append(
        "expected shape: flat_acid linear in crash time; "
        "nested/saga/contracts bounded by the current step; concord "
        "bounded by its recovery-point interval")
    result.data["longest_step"] = max(steps)
    return result


# ---------------------------------------------------------------------------
# T3 — the stack's commit protocols
# ---------------------------------------------------------------------------

#: the members of T3's federation: a cross-member batch stages one
#: version on each
T3_MEMBERS = 3


def _federated_commit(case: str) -> dict[str, object]:
    """One batch committed through a :data:`T3_MEMBERS`-member
    :class:`~repro.repository.federation.FederatedRepository`: a
    ``"cross-member commit"`` of one version per member, the same
    batch with the last member down at prepare (``"last member down
    at prepare"``), or a ``"single-member batch"``.  Its forced writes
    are those of the members' WALs and of the decision log, its
    decision records the COMMIT decisions that log keeps."""
    ids = IdGenerator()
    names = [f"m{index}" for index in range(T3_MEMBERS)]
    federation = FederatedRepository(
        {name: DesignDataRepository(ids) for name in names})
    federation.register_dot(vlsi_dots()["StandardCell"])
    for name in names:
        federation.assign(f"da-{name}", name)
        federation.create_graph(f"da-{name}")
    owners = names[:1] if case == "single-member batch" else names
    staged = [federation.stage_checkin(
        f"da-{name}", "StandardCell",
        {"cell": name, "level": "cell", "area": 1.0}, (), 0.0).dov_id
        for name in owners]
    logs = [federation.member(name).wal for name in names]
    logs.append(federation.decision_log.wal)

    def forced() -> int:
        return sum(log.forced_writes for log in logs)

    before = forced()
    if case == "last member down at prepare":
        # the member fails unannounced: the coordinator learns of it
        # when its prepare request fails
        federation.member(names[-1]).crash()
    try:
        federation.commit_group(staged)
        decision = "commit"
    except StorageError:
        decision = "abort"
    return {"protocol": "presumed_abort" if len(owners) > 1
            else "one_phase",
            "case": case, "members": len(owners), "decision": decision,
            "forced_writes": forced() - before,
            "decision_records": len(federation.decision_log.decisions())}


def _one_phase_on_the_stack(records: int) -> dict[str, object]:
    """One commit measured on a :class:`~repro.te.rig.TeRig`: a
    write-through checkin (``records=0``) or a write-back flush of
    *records* checkins.  Its messages are the LAN messages of the
    commit minus the one that carries the payload bytes, its forced
    writes those of the repository's WAL."""
    rig = TeRig(trace=False, write_back=records > 0)
    rig.open_scope()
    client = rig.add_workstation("ws-1")
    rig.repository.register_dot(vlsi_dots()["StandardCell"])
    rig.repository.create_graph("da-1")
    dop = client.begin_dop("da-1", "tool")

    def checkin(index: int):
        return client.checkin(dop, "StandardCell", parents=[], data={
            "cell": f"c{index}", "level": "cell", "area": 1.0})

    for index in range(1, records):
        checkin(index)
    messages = rig.network.messages_sent
    forced = rig.repository.wal.forced_writes
    if records:
        checkin(records)
        outcome = client.flush().outcome
        case = f"{records}-record flush (stack)"
    else:
        outcome = checkin(0).outcome
        case = "write-through checkin (stack)"
    return {"protocol": "one_phase", "case": case, "members": 1,
            "decision": outcome.decision.value,
            "messages": rig.network.messages_sent - messages - 1,
            "forced_writes": rig.repository.wal.forced_writes - forced,
            "latency_ms": round(outcome.latency * 1000, 2)}


def run_t3() -> ExperimentResult:
    """Forced log writes and decision records of the commits the stack
    runs: the federation's presumed-abort commit and the one-phase
    commit of a sole participant.

    Claim (Sect.6): LAN communications should "use the (X/OPEN)
    two-phase-commit protocol and its optimization alternatives
    [SBCM93]".  The stack runs two of them.  A cross-member batch of
    a :class:`~repro.repository.federation.FederatedRepository`
    commits under presumed abort: one forced prepare record per member,
    one forced decision record, one forced completion per member; an
    abort forces no decision record.  A batch or checkin with one
    participant commits in one phase: one forced write, no decision
    record, and on the LAN one exchange, a request and its reply
    (measured on a TeRig).  The federation's members are in-process,
    not LAN nodes, so its rows count no messages; the basic protocol,
    the read-only optimisation and presumed abort's message savings
    have no mechanism on the stack and are not measured.
    """
    result = ExperimentResult(
        "T3", "Commit protocols of the stack (forced log writes, "
              "decision records, messages, latency)")
    result.columns = ["protocol", "case", "members", "decision",
                      "forced_writes", "decision_records", "messages",
                      "latency_ms"]
    for case in ("cross-member commit", "last member down at prepare",
                 "single-member batch"):
        result.add(**_federated_commit(case))
    result.add(**_one_phase_on_the_stack(0))
    result.add(**_one_phase_on_the_stack(4))
    result.notes.append(
        f"expected shape: a commit across {T3_MEMBERS} members forces "
        f"2 writes per member plus one decision record; an abort "
        f"forces no decision record; a sole participant commits in one "
        f"phase with fewer forced writes and, on the LAN, one exchange "
        f"(control messages, the payload's own message excluded)")
    return result


# ---------------------------------------------------------------------------
# T4 — short locks and scope-lock inheritance, on the stack
# ---------------------------------------------------------------------------

#: the write-through DOPs (one checkout, one checkin each) T4 runs
SHORT_LOCK_DOPS = 100
#: the final DOVs each DA of T4's inheritance chain evaluates
FINALS_PER_DA = 5


def _short_lock_sections() -> dict[str, int]:
    """Sect.5.2's short-lock sections of :data:`SHORT_LOCK_DOPS`
    write-through DOPs on a bufferless rig, where every checkout reads
    at the server and every checkin commits there."""
    rig = TeRig(trace=False, object_buffers=False)
    rig.open_scope()
    client = rig.add_workstation("ws-1")
    rig.repository.register_dot(vlsi_dots()["StandardCell"])
    rig.repository.create_graph("da-1")
    data = {"cell": "c", "level": "cell", "area": 1.0}
    dov = rig.repository.checkin("da-1", "StandardCell", data)
    checkouts = 0
    for _ in range(SHORT_LOCK_DOPS):
        dop = client.begin_dop("da-1", "tool")
        checkouts += len(client.checkout(dop, dov.dov_id))
        dov = client.checkin(dop, "StandardCell", data,
                             parents=[dov.dov_id]).dov
        client.commit_dop(dop)
    return {"sections": rig.server_tm.short_locks, "checkouts": checkouts,
            "checkins": rig.server_tm.group_checkins}


def _inheritance_chain(depth: int) -> int:
    """Scope locks inherited along a chain of *depth* DAs on the CM:
    each DA's DOT is a part of the one above, each DA evaluates
    :data:`FINALS_PER_DA` final DOVs, and then the chain terminates
    bottom-up.  Returns how many DOVs the super-DAs inherited."""
    system = ConcordSystem(trace=False)
    system.add_workstation("ws-1")
    script = Script(Sequence(DopStep("structure_synthesis")), "noop")
    spec = DesignSpecification([RangeFeature("size-limit", "size",
                                             hi=10.0)])
    size = [AttributeDef("size", AttributeKind.FLOAT)]
    dots = [DesignObjectType(f"Level{depth - 1}", size)]
    for level in range(depth - 2, -1, -1):
        dots.insert(0, DesignObjectType(f"Level{level}", size,
                                        parts={"part": dots[0]}))
    chain = [system.init_design(dots[0], spec, "d0", script,
                                "ws-1").da_id]
    system.start(chain[0])
    for level in range(1, depth):
        chain.append(system.create_sub_da(chain[-1], dots[level], spec,
                                          f"d{level}", script,
                                          "ws-1").da_id)
        system.start(chain[-1])
    for level, da_id in enumerate(chain):
        for index in range(FINALS_PER_DA):
            dov = system.repository.checkin(da_id, dots[level].name,
                                            {"size": float(index)})
            system.cm.evaluate(da_id, dov.dov_id)
    inherited = 0
    for level in range(depth - 1, 0, -1):
        system.cm.sub_da_ready_to_commit(chain[level])
        inherited += len(system.cm.terminate_sub_da(chain[level - 1],
                                                    chain[level]))
    return inherited


def run_t4() -> ExperimentResult:
    """Short-lock sections and scope-lock inheritance on the stack.

    Every value is an exact count: no row is timed on the host."""
    result = ExperimentResult(
        "T4", "Locks: short-lock sections, scope-lock inheritance")
    short = result.data["short_locks"] = _short_lock_sections()
    result.add(measure="short-lock sections", value=short["sections"],
               detail=f"{short['checkouts']} checkouts + "
                      f"{short['checkins']} checkins")
    for depth in (2, 4, 8):
        result.add(measure=f"inheritance chain (depth={depth})",
                   value=_inheritance_chain(depth),
                   detail=f"{depth - 1} hand-overs of {FINALS_PER_DA} "
                          f"finals")
    result.notes.append("one short-lock section per checkout and per "
                        "checkin; inheritance is linear in finals per "
                        "level")
    return result


# ---------------------------------------------------------------------------
# T5 — negotiation convergence
# ---------------------------------------------------------------------------

#: the share of the span A concedes per round of a border negotiation
CONCESSION = 0.05
#: rounds after which an unresolved border negotiation escalates
MAX_ROUNDS = 20


def negotiate_border(total: float, need_a: float,
                     need_b: float) -> dict[str, float | int | str]:
    """Run one A/B border negotiation on the real CM.

    Two sibling sub-DAs negotiate the border of a shared span of width
    *total* (the Fig.5 "move the borderline between A and B").  A does
    not know B's reservation: it opens greedily (claiming nearly the
    whole span) and concedes a fixed fraction per round; B agrees as
    soon as its own need fits into the remainder.  When A would have
    to concede below its own need, the conflict escalates to the
    common super-DA (infeasible splits always do).
    """
    system = make_vlsi_system(("ws-1", "ws-2", "ws-3"))
    dots = vlsi_dots()
    script = Script(Sequence(DopStep("structure_synthesis")), "noop")
    top = system.init_design(dots["Chip"], chip_spec(total, total),
                             "super", script, "ws-1",
                             initial_data={"cell": "cell-0",
                                           "level": "chip",
                                           "behavior": {"operations":
                                                        ["a", "b"]}})
    system.start(top.da_id)
    sub_a = system.create_sub_da(top.da_id, dots["Module"],
                                 chip_spec(total, total), "a", script,
                                 "ws-2")
    sub_b = system.create_sub_da(top.da_id, dots["Module"],
                                 chip_spec(total, total), "b", script,
                                 "ws-3")
    system.start(sub_a.da_id)
    system.start(sub_b.da_id)
    negotiation = system.cm.create_negotiation_relationship(
        top.da_id, sub_a.da_id, sub_b.da_id, subject="A/B border")

    claim_a = total * 0.95  # greedy opening: A claims nearly everything
    rounds = 0
    outcome = "escalated"
    for _ in range(MAX_ROUNDS):
        rounds += 1
        proposal = system.cm.propose(
            sub_a.da_id, sub_b.da_id,
            changes={
                sub_a.da_id: [RangeFeature("width-limit", "width",
                                           hi=claim_a)],
                sub_b.da_id: [RangeFeature("width-limit", "width",
                                           hi=total - claim_a)],
            },
            note=f"border at {claim_a:.1f}")
        b_share = total - claim_a
        if b_share >= need_b and claim_a >= need_a:
            system.cm.agree(sub_b.da_id, proposal.proposal_id)
            outcome = "agreed"
            break
        system.cm.disagree(sub_b.da_id, proposal.proposal_id)
        next_claim = claim_a - CONCESSION * total
        if next_claim < need_a:
            # A cannot concede further: escalate to the super-DA
            system.cm.sub_das_specification_conflict(
                sub_a.da_id, negotiation.negotiation_id)
            break
        claim_a = next_claim
    return {
        "total": total, "need_a": need_a, "need_b": need_b,
        "severity": round((need_a + need_b) / total, 2),
        "rounds": rounds, "outcome": outcome,
        "escalations": negotiation.escalations,
        "state_a": system.cm.da(sub_a.da_id).state.value,
        "state_b": system.cm.da(sub_b.da_id).state.value,
    }


def run_t5() -> ExperimentResult:
    """Negotiation rounds / escalation vs conflict severity.

    Claim (Sect.4.1): negotiating sub-DAs refine specs via Propose /
    Agree / Disagree; unresolvable conflicts escalate via
    Sub_DAs_Specification_Conflict.  Expected: rounds grow as the
    feasible region shrinks; severity > 1 always escalates.
    """
    result = ExperimentResult(
        "T5", "Negotiation convergence vs conflict severity")
    total = 100.0
    for severity in (0.5, 0.7, 0.9, 0.99, 1.2):
        need = severity * total / 2.0
        result.add(**negotiate_border(total, need, need))
    result.notes.append(
        "severity = (need_a + need_b) / total; > 1 means no feasible "
        "border exists and the conflict escalates to the super-DA")
    return result


# ---------------------------------------------------------------------------
# T6 — CM scalability
# ---------------------------------------------------------------------------

def grow_hierarchy(size: int) -> tuple[ConcordSystem, Callable[[], None]]:
    """T6's workload: a top-level DA, then ``size - 1`` sub-DAs, each
    created under a Zipf-drawn DA and started.

    Returns the system and the function that makes its ``2 * size`` CM
    operations.  The parents are drawn here, before that function runs:
    a Zipf draw is linear in the hierarchy size all by itself, so what
    times or counts the operations must leave the draws out.
    """
    dots = vlsi_dots()
    script = Script(Sequence(DopStep("structure_synthesis")), "noop")
    system = make_vlsi_system(("ws-1",), trace=False)
    rng = SeededRng(size)
    parents = [rng.zipf_index(count, 0.8) for count in range(1, size)]

    def grow() -> None:
        top = system.init_design(
            dots["Chip"], chip_spec(100, 100), "root", script, "ws-1",
            initial_data={"cell": "c", "level": "chip",
                          "behavior": {"operations": ["x"]}})
        system.start(top.da_id)
        created = [top.da_id]
        for parent in parents:
            sub = system.create_sub_da(created[parent], dots["Module"],
                                       chip_spec(100, 100), "d", script,
                                       "ws-1")
            system.start(sub.da_id)
            created.append(sub.da_id)

    return system, grow


def run_t6() -> ExperimentResult:
    """CM log growth vs hierarchy size.

    The CM is "a centralized component located at the server site" —
    this experiment quantifies what that centralisation costs as the
    DA hierarchy grows: what it logs and keeps.  That an operation
    costs the same at every hierarchy size is an exact line count,
    ``tests/test_perf_fast_path.py::TestTheAcLevelIsFlat``: one
    wall-clock timing of a few dozen sub-millisecond operations per
    row would show the host, not the CM.
    """
    result = ExperimentResult(
        "T6", "Cooperation manager scalability (centralised CM)")
    for size in (5, 10, 20, 40):
        system, grow = grow_hierarchy(size)
        grow()
        stats = system.cm.stats()
        result.add(hierarchy_size=size,
                   protocol_log_records=stats["protocol_log_records"],
                   delegations=stats["delegations"],
                   state_log_records=len(system.cm.state_log.wal),
                   checkpoints=system.cm.state_log.checkpoints)
    result.notes.append(
        "the protocol log grows linearly in operations; the state log "
        "gets one after-image record per operation and is cut back to "
        "one full-image checkpoint whenever its records outnumber the "
        "live entities, so it stays within one state's worth of "
        "records and the per-operation cost does not grow with the "
        "hierarchy")
    return result


# ---------------------------------------------------------------------------
# T7 — concurrent execution on the unified kernel
# ---------------------------------------------------------------------------

def run_t7() -> ExperimentResult:
    """Concurrent vs sequential execution of the real CM/DM/TM stack.

    The workload experiments (T1) interleave *modelled* sessions; this
    experiment interleaves the implemented stack itself: one sub-DA
    per subcell, all live at once on the unified kernel, cooperation
    messages auto-dispatched on delivery.  Expected shape: the
    concurrent makespan approaches the longest single sub-DA (the
    sequential makespan divides by roughly the team size), identical
    final states on both paths, and — with a kernel-injected
    workstation crash mid-step — a makespan penalty bounded by the
    redone work, not a restart from scratch.
    """
    from repro.scenario import (
        CompiledScenario,
        compile_scenario,
        validate_scenario,
    )
    from repro.scenario.delegation import concurrent_delegation_scenario

    result = ExperimentResult(
        "T7", "Concurrent DA execution on the unified kernel")
    alphabet = ("A", "B", "C", "D", "E", "F")

    def grid_point(subcells: tuple[str, ...],
                   *crashes: dict) -> CompiledScenario:
        return compile_scenario(validate_scenario({
            "scenario": {"name": "t7", "kind": "concurrent_delegation"},
            "team": {"subcells": list(subcells)},
            "crashes": {"schedule": list(crashes)},
        }))

    for team in (2, 3, 4):
        subcells = alphabet[:team]
        point = grid_point(subcells)
        __, seq = concurrent_delegation_scenario(point.config,
                                                 sequential=True)
        conc = point.run()
        states_match = seq.final_states[seq.top_da] \
            == conc.final_states[conc.top_da] \
            and all(state == "terminated"
                    for da, state in conc.final_states.items()
                    if da != conc.top_da)
        result.add(team=team, mode="sequential",
                   makespan=round(seq.makespan, 1), events=seq.events,
                   states_match=states_match)
        result.add(team=team, mode="concurrent",
                   makespan=round(conc.makespan, 1), events=conc.events,
                   states_match=states_match)
        node = f"ws-{subcells[-1]}"
        crashed = grid_point(subcells, {
            "node": node, "at": 15.0, "restart_after": 5.0}).run()
        result.add(team=team, mode=f"concurrent+crash({node})",
                   makespan=round(crashed.makespan, 1),
                   events=crashed.events,
                   states_match=all(
                       state == "terminated"
                       for da, state in crashed.final_states.items()
                       if da != crashed.top_da))
    result.notes.append(
        "expected shape: concurrent makespan ~= longest sub-DA, "
        "sequential ~= team * sub-DA; crash adds only the redone work "
        "since the last recovery point plus the downtime")
    return result


# ---------------------------------------------------------------------------
# T8 — workstation object buffers: data shipping with vs without caching
# ---------------------------------------------------------------------------

def run_t8() -> ExperimentResult:
    """Bytes shipped, makespan and hit rate with caching on vs off.

    Claim (Sect.5.1): the workstation-server split — DOVs checked
    *out* of the server into the workstation — only pays off when the
    workstation keeps a local object buffer; otherwise simulated
    network cost scales with the number of reads instead of the
    working-set size.  Expected shape: for every team size and
    read/write mix, caching ships strictly fewer bytes and finishes
    strictly earlier (designers skip the re-fetch latency), with a
    non-zero buffer hit rate; invalidation traffic (the price of
    lease-based coherence) stays far below the payload savings.
    """
    from repro.scenario import compile_scenario, validate_scenario

    result = ExperimentResult(
        "T8", "Workstation object buffers: cached data shipping with "
              "lease-based coherence")
    for team in (2, 4):
        for write_mix in (0.2, 0.5):
            for caching in (False, True):
                report = compile_scenario(validate_scenario({
                    "scenario": {"name": "t8", "kind": "object_buffers",
                                 "seed": 11},
                    "team": {"size": team},
                    "locality": {"reread": 0.6},
                    "writes": {"ratio": write_mix},
                    "buffers": {"caching": caching},
                })).run()
                result.add(team=team, write_mix=write_mix,
                           caching=caching,
                           makespan=round(report.makespan, 1),
                           bytes_shipped=report.bytes_shipped,
                           hit_rate=round(report.hit_rate, 3),
                           invalidations=report.invalidations_sent,
                           checkins=report.checkins,
                           messages=report.messages,
                           fetch_time=round(report.fetch_time, 1))
    result.notes.append(
        "expected shape: same seed/team => caching ships strictly "
        "fewer bytes and yields a strictly lower makespan, hit rate "
        "> 0; higher write mixes erode the hit rate (supersessions "
        "invalidate buffered copies) but never invert the ordering")
    return result


# ---------------------------------------------------------------------------
# T9 — write-back object buffers: group checkin vs eager shipping
# ---------------------------------------------------------------------------

def run_t9() -> ExperimentResult:
    """Write-back vs write-through checkins on the real TM stack.

    Claim (Sect.5.1/5.2): checkout/checkin data shipping dominates the
    TE level's cost; PR 2 made checkouts buffer-first, this experiment
    closes the loop on the checkin direction.  For the same seeded
    team (identical read sets, durations and write plans), write-back
    staging — dirty buffer entries, coalescing, one batched group
    checkin under a single 2PC at End-of-DOP — must ship strictly
    fewer bytes and finish no later than eagerly shipping every
    checkin.  Each run ends with a seeded server restart whose
    stamp-based re-validation keeps warm buffer entries resident
    (``revalidated`` > 0) instead of cold-flushing them.
    """
    from repro.scenario import compile_scenario, validate_scenario

    result = ExperimentResult(
        "T9", "Write-back object buffers: group checkin, coalescing "
              "and stamp-based lease re-validation")
    for team in (2, 4):
        for write_ratio in (0.5, 0.8):
            for write_back in (False, True):
                report = compile_scenario(validate_scenario({
                    "scenario": {"name": "t9", "kind": "write_back",
                                 "seed": 13},
                    "team": {"size": team},
                    "writes": {"ratio": write_ratio,
                               "write_back": write_back},
                })).run()
                result.add(team=team, write_ratio=write_ratio,
                           write_back=write_back,
                           makespan=round(report.makespan, 1),
                           bytes_shipped=report.bytes_shipped,
                           checkins=report.checkins,
                           flushes=report.flushes,
                           coalesced=report.coalesced,
                           batches=report.batches,
                           invalidations=report.invalidations_sent,
                           hit_rate=round(report.hit_rate, 3),
                           revalidated=report.revalidated,
                           post_restart_bytes=report.post_restart_bytes)
    result.notes.append(
        "expected shape: same seed/team => write-back ships strictly "
        "fewer bytes (coalesced intermediates never cross the LAN, "
        "fewer supersessions => fewer invalidations) at a makespan no "
        "worse than write-through; the server-restart episode keeps "
        "revalidated > 0 warm entries without re-shipping them")
    return result


# ---------------------------------------------------------------------------
# T10 — federated atomic commit: crashes around the global decision log
# ---------------------------------------------------------------------------

def run_t10() -> ExperimentResult:
    """All-or-nothing cross-member commit under injected crashes.

    The paper's Sect.6 assumes distributed data management "does not
    influence the major model of operation"; PR 5 makes that true for
    *commit* by giving the federation a durable global decision log
    with presumed-abort recovery.  This experiment drives the same
    seeded batch sequence through four failure placements — no crash,
    a member crash *before* the decision record, a member crash
    *after* it, and a coordinator crash between the record and the
    participant notifications — and checks that every run converges
    to the **identical** id-independent durable state: before the
    decision nothing survives (presumed abort, clean retry), after it
    everything does (redo from the member's forced prepare record).
    """
    from repro.scenario import compile_scenario, validate_scenario

    result = ExperimentResult(
        "T10", "Federated atomic commit: global decision log with "
               "presumed-abort recovery")
    matrix = compile_scenario(validate_scenario({
        "scenario": {"name": "t10", "kind": "federated_commit",
                     "seed": 17},
        "federation": {"members": 3},
    })).run()
    baseline = matrix["crashes"]["none"]["state"]
    for crash, report in matrix["crashes"].items():
        result.add(crash=crash, batches=report["batches"],
                   decisions=report["decisions_logged"],
                   forced_decision_writes=report[
                       "forced_decision_writes"],
                   aborted=report["aborted_batches"],
                   retried=report["retried_batches"],
                   redone=report["redone_batches"],
                   atomic_violations=report["atomic_violations"],
                   durable_total=sum(
                       report["durable_per_member"].values()),
                   state_matches_baseline=report["state"] == baseline)
    result.data["states_identical"] = matrix["states_identical"]
    result.notes.append(
        "expected shape: identical durable state for every crash "
        "placement; crash-before aborts and retries (presumed abort), "
        "crash-after redoes from the logged decision, coordinator "
        "crash completes via resolve_incomplete; zero atomicity "
        "violations everywhere")
    return result
