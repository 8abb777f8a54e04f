"""Each shape check of the scorecard catches the violation it exists for.

Every case runs its driver once, feeds the row's check a copy of the
real result doctored to break one expected shape, and expects the
check's message.  The shapes themselves are written down once, in
:mod:`repro.bench.scorecard`, and asserted per row by
``benchmarks/test_drivers.py``.  Also here: what no check covers, a
border negotiation off T5's grid and the rendered table.
"""

from __future__ import annotations

import copy
import functools

from repro.bench.experiments import negotiate_border, run_t3
from repro.bench.scorecard import SCORECARD


@functools.cache
def _real(exp_id):
    return SCORECARD[exp_id][0]()


def _row(result, **match):
    return next(row for row in result.rows
                if all(row[key] == value for key, value in match.items()))


def _assert_rejects(exp_id, doctor, message):
    check = SCORECARD[exp_id][1]
    result = copy.deepcopy(_real(exp_id))
    assert check(result) is None
    doctor(result)
    problem = check(result)
    assert problem is not None and message in problem, problem


class TestFigures:
    def test_f1_levels_nested(self):
        def dc_as_deep_as_te(result):
            counts = result.data["counts"]
            counts["TE"] = counts["DC"]
        _assert_rejects("F1", dc_as_deep_as_te, "TE must outnumber DC")

    def test_f2_plane_shape(self):
        def a_level_missing(result):
            result.rows.pop()
        _assert_rejects("F2", a_level_missing, "one row per hierarchy level")

    def test_f3_floorplan_outputs(self):
        def no_floorplan_dov(result):
            result.data["floorplan"] = None
        _assert_rejects("F3", no_floorplan_dov, "carries a floorplan")

    def test_f4_hierarchy(self):
        def a_delegation_missing(result):
            result.data["delegations"] -= 1
        _assert_rejects("F4", a_delegation_missing, "four delegations")

    def test_f5_scenario_content(self):
        def a_sub_da_stays_active(result):
            report = result.data["report"]
            report.final_states[report.sub_das["C"]] = "active"
        _assert_rejects("F5", a_sub_da_stays_active,
                        "every sub-DA must terminate")

    def test_f6_scripts(self):
        def a_path_missing(result):
            result.data["fig6b_sequences"].pop()
        _assert_rejects("F6", a_path_missing, "three paths")

    def test_f7_state_machine_coverage(self):
        def an_illegal_pair_is_accepted(result):
            result.data["unexpectedly_legal"] = 1
        _assert_rejects("F7", an_illegal_pair_is_accepted,
                        "outside the legal set")

    def test_f8_recovery_outcomes(self):
        def dm_loses_a_dop(result):
            before, __ = result.data["dm_recovery"]
            result.data["dm_recovery"] = (before, before - 1)
        _assert_rejects("F8", dm_loses_a_dop, "DM lost executed DOPs")


class TestExperiments:
    def test_t1_shape(self):
        def fan_in_concord_loses(result):
            flat = _row(result, topology="fan-in", team=4, model="flat_acid")
            _row(result, topology="fan-in", team=4,
                 model="concord")["makespan"] = flat["makespan"] + 1.0
        _assert_rejects("T1", fan_in_concord_loses, "fan-in: concord loses")

    def test_t2_shape(self):
        def concord_loses_its_interval(result):
            for row in result.rows:
                if row["model"] == "concord(rp=10)":
                    row["lost_work"] = 10.0
        _assert_rejects("T2", concord_loses_its_interval,
                        "lost more than its rp interval")

    def test_t3_counts_what_the_stack_forces(self):
        counts = {row["case"]: (row["forced_writes"],
                                row.get("decision_records"),
                                row.get("messages"))
                  for row in _real("T3").rows}
        assert counts == {
            "cross-member commit": (7, 1, None),
            "last member down at prepare": (2, 0, None),
            "single-member batch": (1, 0, None),
            "write-through checkin (stack)": (1, None, 2),
            "4-record flush (stack)": (1, None, 2),
        }

    def test_t3_shape(self):
        def abort_logs_a_decision(result):
            _row(result, case="last member down at prepare")[
                "decision_records"] = 1
        _assert_rejects("T3", abort_logs_a_decision,
                        "logged a decision record on an abort")

        def one_phase_forces_as_much(result):
            commit = _row(result, case="cross-member commit")
            _row(result, case="single-member batch")["forced_writes"] = \
                commit["forced_writes"]
        _assert_rejects("T3", one_phase_forces_as_much,
                        "(single-member batch) saved no forced_writes")

        def flush_runs_two_exchanges(result):
            _row(result, case="4-record flush (stack)")["messages"] = 4
        _assert_rejects("T3", flush_runs_two_exchanges,
                        "(4-record flush (stack)) is not one exchange")

    def test_t4_runs(self):
        # short-lock sections and scope inheritance, nothing else
        assert [row["measure"] for row in _real("T4").rows] == [
            "short-lock sections", "inheritance chain (depth=2)",
            "inheritance chain (depth=4)", "inheritance chain (depth=8)"]

        def no_final_handed_over(result):
            for depth in (2, 4, 8):
                _row(result, measure=f"inheritance chain (depth={depth})")[
                    "value"] = 0
        _assert_rejects("T4", no_final_handed_over, "linear in the levels")

    def test_t4_counts_not_times(self):
        # every T4 value is an exact count, the same on any host
        result = _real("T4")
        assert [row["value"] for row in result.rows] == [200, 5, 15, 35]
        assert result.data["short_locks"] \
            == {"sections": 200, "checkouts": 100, "checkins": 100}

        def a_section_not_counted(result):
            _row(result, measure="short-lock sections")["value"] -= 1
        _assert_rejects("T4", a_section_not_counted, "one short-lock section")

        def a_checkin_counted_twice(result):
            result.data["short_locks"]["checkins"] += 1
        _assert_rejects("T4", a_checkin_counted_twice,
                        "one short-lock section")

        def no_dop_checked_out(result):
            short = result.data["short_locks"]
            short["sections"] -= short["checkouts"]
            _row(result, measure="short-lock sections")["value"] \
                = short["sections"]
            short["checkouts"] = 0
        _assert_rejects("T4", no_dop_checked_out, "must check out")

        def a_final_not_handed_over(result):
            _row(result, measure="inheritance chain (depth=8)")[
                "value"] -= 1
        _assert_rejects("T4", a_final_not_handed_over, "linear in the levels")

    def test_t5_shape(self):
        def rounds_flat_across_severity(result):
            feasible = [r for r in result.rows if r["severity"] <= 1.0]
            for row in feasible:
                row["rounds"] = feasible[0]["rounds"]
        _assert_rejects("T5", rounds_flat_across_severity,
                        "rounds must grow with severity")

    def test_t6_log_growth_linear(self):
        def largest_log_doubles(result):
            result.rows[-1]["protocol_log_records"] *= 2
        _assert_rejects("T6", largest_log_doubles, "must grow linearly")

    def test_t7_crash_row(self):
        def crash_restarts_from_scratch(result):
            sequential = _row(result, team=3, mode="sequential")
            _row(result, team=3, mode="concurrent+crash(ws-C)")[
                "makespan"] = sequential["makespan"]
        _assert_rejects("T7", crash_restarts_from_scratch, "not a restart")

    def test_t8_uncached_invalidations(self):
        def uncached_run_invalidates(result):
            _row(result, team=2, write_mix=0.2,
                 caching=False)["invalidations"] = 1
        _assert_rejects("T8", uncached_run_invalidates,
                        "no copies to invalidate")

    def test_negotiate_border_feasible(self):
        outcome = negotiate_border(100.0, 30.0, 30.0)
        assert outcome["outcome"] == "agreed"
        assert outcome["state_a"] == "active"

    def test_negotiate_border_infeasible(self):
        outcome = negotiate_border(100.0, 70.0, 70.0)
        assert outcome["outcome"] == "escalated"


class TestAblations:
    def test_a3_speedup(self):
        assert [row["per_commit_ms"] for row in _real("A3").rows] \
            == [2.0, 20.0]

        def fast_path_halved(result):
            result.data["speedup"] = 5.0
        _assert_rejects("A3", fast_path_halved, "implausibly small")

    def test_a2_write_order(self):
        def tight_interval_writes_fewer_points(result):
            result.rows[0]["recovery_point_writes"] = 0
        _assert_rejects("A2", tight_interval_writes_fewer_points,
                        "recovery-point writes")


class TestRendering:
    def test_render_produces_table(self):
        result = run_t3()
        text = result.render()
        assert "T3" in text
        assert "protocol" in text
        assert "note:" in text
