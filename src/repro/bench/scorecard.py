"""The reproduction scorecard: one command, every claim checked.

Runs every figure driver (F1-F8), experiment (T1-T10) and ablation
(A1-A3) and evaluates the *shape* each must exhibit (the reproduction
criterion: who wins, by roughly what factor, where crossovers fall —
not absolute numbers).  :data:`SCORECARD` is the one table of ids,
drivers and checks: ``python -m repro <ID>`` runs a driver from it,
``python -m repro scorecard`` prints the card, and
``benchmarks/test_drivers.py`` asserts each row.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.ablations import run_a1, run_a2, run_a3
from repro.bench.experiments import (
    SHORT_LOCK_PAIRS,
    run_t1,
    run_t2,
    run_t3,
    run_t4,
    run_t5,
    run_t6,
    run_t7,
    run_t8,
    run_t9,
    run_t10,
)
from repro.bench.figures import (
    run_f1,
    run_f2,
    run_f3,
    run_f4,
    run_f5,
    run_f6,
    run_f7,
    run_f8,
)
from repro.bench.reporting import ExperimentResult


def _check_f1(result: ExperimentResult) -> str | None:
    counts = result.data["counts"]
    if not (counts.get("AC") and counts.get("DC") and counts.get("TE")):
        return "a level recorded no operations"
    if not counts["TE"] > counts["DC"]:
        return "TE must outnumber DC (Fig.1 nesting)"
    return None


def _check_f2(result: ExperimentResult) -> str | None:
    tools = result.data["tool_order"]
    if tools[0] != "structure_synthesis":
        return "traversal must start with tool 1"
    if tools[-1] != "chip_assembly":
        return "traversal must end with tool 7"
    if len(result.rows) != 4:
        return "the plane must have one row per hierarchy level"
    return None


def _check_f3(result: ExperimentResult) -> str | None:
    floorplan = result.data["floorplan"]
    if floorplan is None:
        return "no DOV of the chip-planning run carries a floorplan"
    if floorplan.validate():
        return "floorplan geometrically invalid"
    if not floorplan.placements:
        return "floorplan places no subcell"
    if not floorplan.subcell_interfaces():
        return "no subcell interfaces produced"
    return None


def _check_f4(result: ExperimentResult) -> str | None:
    hierarchy = result.data["hierarchy"]
    if len(hierarchy["roots"]) != 1:
        return "expected exactly one top-level DA"
    if len(hierarchy["roots"][0]["children"]) != 4:
        return "expected four sub-DAs (A-D)"
    if result.data["delegations"] != 4:
        return "expected four delegations"
    return None


def _check_f5(result: ExperimentResult) -> str | None:
    report = result.data["report"]
    if not report.impossible_from:
        return "no impossible-specification episode"
    if len(report.modified_specs) != 2:
        return "expected two spec modifications (A and B)"
    if any(state != "terminated"
           for da, state in report.final_states.items()
           if da != report.top_da):
        return "every sub-DA must terminate"
    if sum(len(dovs) for dovs in report.inherited_dovs.values()) < 4:
        return "fewer final DOVs devolved than sub-DAs"
    return None


def _check_f6(result: ExperimentResult) -> str | None:
    if len(result.data["fig6b_sequences"]) != 3:
        return "Fig.6b must enumerate three paths"
    executed = result.data["fig6a_executed"]
    if executed[0] != "structure_synthesis" \
            or executed[-1] != "chip_assembly":
        return "Fig.6a fixed endpoints violated"
    return None


def _check_f7(result: ExperimentResult) -> str | None:
    if result.data["legal"] + result.data["illegal"] != 75:
        return "state x operation coverage incomplete"
    if result.data["unexpectedly_legal"]:
        return "an operation outside the legal set was accepted"
    if result.data["legal"] != len(result.data["table"]):
        return "legal transitions differ from the transition table"
    return None


def _check_f8(result: ExperimentResult) -> str | None:
    before, after = result.data["dov_recovery"]
    if before != after:
        return "durable DOVs lost across server crash"
    das_before, das_after = result.data["da_recovery"]
    if das_before != das_after:
        return "CM hierarchy lost across server crash"
    dops_before, dops_after = result.data["dm_recovery"]
    if dops_before != dops_after:
        return "DM lost executed DOPs across workstation crash"
    if len(result.rows) != 3:
        return "expected three failure episodes"
    return None


def _check_t1(result: ExperimentResult) -> str | None:
    by_team: dict = {"chain": {}, "fan-in": {}}
    for row in result.rows:
        by_team[row["topology"]].setdefault(
            row["team"], {})[row["model"]] = row
    gaps = []
    for team in sorted(by_team["chain"]):
        models = by_team["chain"][team]
        flat = models["flat_acid"]["makespan"]
        if not (models["concord"]["makespan"]
                < models["contracts"]["makespan"] <= flat):
            return f"ordering violated for team={team}"
        if flat != models["flat_acid"]["total_work"] \
                or models["nested"]["makespan"] != flat:
            return f"flat/nested must serialise fully for team={team}"
        gaps.append(flat - models["concord"]["makespan"])
    if any(small >= large for small, large in zip(gaps, gaps[1:])):
        return "gap does not grow with team size"
    if not by_team["fan-in"]:
        return "no fan-in topology"
    for team, models in by_team["fan-in"].items():
        if models["concord"]["makespan"] > models["flat_acid"]["makespan"]:
            return f"fan-in: concord loses to flat ACID for team={team}"
    return None


def _check_t2(result: ExperimentResult) -> str | None:
    flat = sorted(((r["crash_time"], r["lost_work"])
                   for r in result.rows if r["model"] == "flat_acid"))
    for crash_time, lost in flat:
        if abs(lost - crash_time) > 1e-6:
            return "flat ACID must lose everything since start"
    for row in result.rows:
        model = row["model"]
        if model.startswith("concord(rp="):
            if row["lost_work"] >= float(model[len("concord(rp="):-1]):
                return "concord lost more than its rp interval"
        elif model in ("nested", "saga", "contracts") \
                and row["lost_work"] > result.data["longest_step"]:
            return f"{model} lost more than one step"
    return None


def _check_t3(result: ExperimentResult) -> str | None:
    rows = {(r["protocol"], r["case"]): r for r in result.rows}
    basic = rows[("basic", "one-no abort")]
    presumed = rows[("presumed_abort", "one-no abort")]
    plain = rows[("presumed_abort", "read-only mix")]
    read_only = rows[("presumed_abort+ro", "read-only mix")]
    sole = rows[("presumed_abort", "sole participant")]
    one_phase = [row for row in result.rows
                 if row["protocol"] == "one_phase"]
    if len(one_phase) != 2:
        return "one-phase checkin and flush rows missing"
    for measure in ("messages", "forced_writes"):
        if not presumed[measure] < basic[measure]:
            return f"presumed abort did not save abort {measure}"
        if not read_only[measure] < plain[measure]:
            return f"read-only optimisation saved no {measure}"
        for row in one_phase:
            if not row[measure] < sole[measure]:
                return (f"one-phase commit ({row['case']}) saved no "
                        f"{measure} over a sole participant's 2PC")
    return None


def _check_t4(result: ExperimentResult) -> str | None:
    sharing = [r["value"] for r in result.rows
               if "derivation conflicts" in r["measure"]]
    if sharing != sorted(sharing):
        return "derivation conflicts must grow with sharing"
    counts = {r["measure"]: r["value"] for r in result.rows}
    if counts.get("short-lock pairs done") != SHORT_LOCK_PAIRS:
        return "short-lock pairs must all complete"
    if counts.get("short-lock grants left") != 0:
        return "short-lock pairs must leave no grant in the table"
    # each hand-over passes the same finals on, at every depth
    per_level = {counts[f"inheritance chain (depth={depth})"] / (depth - 1)
                 for depth in (2, 4, 8)}
    if len(per_level) != 1 or not min(per_level) > 0:
        return "inheritance must be linear in the levels"
    return None


def _check_t5(result: ExperimentResult) -> str | None:
    feasible = [r for r in result.rows if r["severity"] <= 1.0]
    rounds = [r["rounds"] for r in
              sorted(feasible, key=lambda r: r["severity"])]
    if any(fewer >= more for fewer, more in zip(rounds, rounds[1:])):
        return "rounds must grow with severity"
    if any(r["outcome"] != "agreed" for r in feasible):
        return "feasible negotiations must agree"
    infeasible = [r for r in result.rows if r["severity"] > 1.0]
    if any(r["outcome"] != "escalated" or r["escalations"] != 1
           for r in infeasible):
        return "infeasible negotiations must escalate once"
    return None


def _check_t6(result: ExperimentResult) -> str | None:
    logs = [r["protocol_log_records"] for r in result.rows]
    if any(small >= large for small, large in zip(logs, logs[1:])):
        return "protocol log must grow with hierarchy size"
    per_da = [r["protocol_log_records"] / r["hierarchy_size"]
              for r in result.rows]
    if max(per_da) - min(per_da) >= 1.0:
        return "protocol log must grow linearly"
    if any(r["delegations"] != r["hierarchy_size"] - 1
           for r in result.rows):
        return "every DA but the top one must be a delegation"
    return None


def _check_t7(result: ExperimentResult) -> str | None:
    rows = {(r["team"], r["mode"].split("(")[0]): r for r in result.rows}
    for team in sorted({r["team"] for r in result.rows}):
        sequential = rows[(team, "sequential")]
        concurrent = rows[(team, "concurrent")]
        crashed = rows[(team, "concurrent+crash")]
        if not concurrent["makespan"] < sequential["makespan"]:
            return "concurrent execution must beat sequential"
        if sequential["makespan"] < concurrent["makespan"] * (team - 0.5):
            return "the concurrent gain must grow with the team size"
        if not concurrent["states_match"]:
            return "concurrent and sequential final states must match"
        if not (concurrent["makespan"] <= crashed["makespan"]
                < sequential["makespan"]):
            return "a crash must cost redone work, not a restart"
        if not crashed["states_match"]:
            return "every sub-DA must terminate despite the crash"
    return None


def _check_t8(result: ExperimentResult) -> str | None:
    rows = {(r["team"], r["write_mix"], r["caching"]): r
            for r in result.rows}
    for team, write_mix, caching in list(rows):
        if caching:
            continue
        uncached = rows[(team, write_mix, False)]
        cached = rows[(team, write_mix, True)]
        if not cached["bytes_shipped"] < uncached["bytes_shipped"]:
            return "caching must ship strictly fewer bytes"
        if not cached["makespan"] < uncached["makespan"]:
            return "caching must lower the makespan"
        if not cached["hit_rate"] > 0.0:
            return "buffer hit rate must be non-zero"
        if uncached["hit_rate"] != 0.0:
            return "an uncached run cannot hit a buffer"
        if not (cached["checkins"] > 0 and cached["invalidations"] > 0):
            return "superseding checkins must revoke buffered copies"
        if uncached["invalidations"] != 0:
            return "an uncached run has no copies to invalidate"
        if cached["checkins"] != uncached["checkins"]:
            return "both modes must run identical designer sessions"
    return None


def _check_t9(result: ExperimentResult) -> str | None:
    rows = {(r["team"], r["write_ratio"], r["write_back"]): r
            for r in result.rows}
    for team, write_ratio, write_back in list(rows):
        if write_back:
            continue
        through = rows[(team, write_ratio, False)]
        back = rows[(team, write_ratio, True)]
        if not back["bytes_shipped"] < through["bytes_shipped"]:
            return "write-back must ship strictly fewer bytes"
        if back["makespan"] > through["makespan"]:
            return "write-back must not worsen the makespan"
        if back["checkins"] != through["checkins"]:
            return "both modes must run identical designer sessions"
        if not (back["flushes"] > 0 and back["batches"] > 0):
            return "write-back must actually group-flush"
        if not back["coalesced"] > 0:
            return "write-back must coalesce superseded intermediates"
        if through["batches"] != 0:
            return "write-through must not batch"
        if not back["revalidated"] > 0:
            return "server restart must keep re-validated entries warm"
    return None


def _check_t10(result: ExperimentResult) -> str | None:
    if not result.data["states_identical"]:
        return "durable state differs across crash placements"
    rows = {r["crash"]: r for r in result.rows}
    if any(r["atomic_violations"] for r in result.rows):
        return "a logged decision was applied partially"
    if not (rows["before"]["aborted"] >= 1
            and rows["before"]["retried"] >= 1):
        return "crash-before must abort (presumed abort) and retry"
    if not rows["after"]["redone"] >= 1:
        return "crash-after must redo from the logged decision"
    if any(not r["state_matches_baseline"] for r in result.rows):
        return "a crash run diverged from the no-crash baseline"
    if rows["none"]["decisions"] < 1:
        return "no cross-member decision was ever logged"
    return None


def _check_a1(result: ExperimentResult) -> str | None:
    by_team: dict = {}
    for row in result.rows:
        by_team.setdefault(row["team"], []).append(row)
    for rows in by_team.values():
        ordered = sorted(rows, key=lambda r: r["rework_probability"])
        reworks = [r["rework"] for r in ordered]
        if reworks != sorted(reworks):
            return "rework must grow as the gate weakens"
        if not ordered[0]["makespan"] < ordered[-1]["makespan"]:
            return "makespan must grow as the gate weakens"
    return None


def _check_a2(result: ExperimentResult) -> str | None:
    numeric = [r for r in result.rows if r["interval"] != "off"]
    losses = [r["mean_lost"] for r in numeric]
    if losses != sorted(losses):
        return "lost work must grow with the interval"
    writes = [r["recovery_point_writes"] for r in result.rows]
    if writes != sorted(writes, reverse=True):
        return "recovery-point writes must fall as the interval grows"
    return None


def _check_a3(result: ExperimentResult) -> str | None:
    if result.data["speedup"] <= 5.0:
        return "local fast path speedup implausibly small"
    return None


#: id -> (driver, shape check)
SCORECARD: dict[str, tuple[Callable[[], ExperimentResult],
                           Callable[[ExperimentResult], str | None]]] = {
    "F1": (run_f1, _check_f1), "F2": (run_f2, _check_f2),
    "F3": (run_f3, _check_f3), "F4": (run_f4, _check_f4),
    "F5": (run_f5, _check_f5), "F6": (run_f6, _check_f6),
    "F7": (run_f7, _check_f7), "F8": (run_f8, _check_f8),
    "T1": (run_t1, _check_t1), "T2": (run_t2, _check_t2),
    "T3": (run_t3, _check_t3), "T4": (run_t4, _check_t4),
    "T5": (run_t5, _check_t5), "T6": (run_t6, _check_t6),
    "T7": (run_t7, _check_t7), "T8": (run_t8, _check_t8),
    "T9": (run_t9, _check_t9), "T10": (run_t10, _check_t10),
    "A1": (run_a1, _check_a1), "A2": (run_a2, _check_a2),
    "A3": (run_a3, _check_a3),
}


def run_scorecard() -> ExperimentResult:
    """Run every driver and check its shape; returns the scorecard."""
    card = ExperimentResult(
        "SCORECARD", "Reproduction scorecard: every figure/experiment "
                     "and its expected shape")
    failures = 0
    for exp_id, (driver, check) in SCORECARD.items():
        try:
            result = driver()
            problem = check(result)
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            problem = f"driver raised {exc!r}"
        if problem:
            failures += 1
        card.add(experiment=exp_id,
                 shape="OK" if problem is None else "FAIL",
                 detail=problem or "expected shape holds")
    card.data["failures"] = failures
    card.notes.append(
        f"{len(card.rows) - failures}/{len(card.rows)} expected shapes "
        f"hold")
    return card
