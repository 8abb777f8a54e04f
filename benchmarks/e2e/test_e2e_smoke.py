"""The end-to-end benchmark at smoke sizes: every workload runs, every
metric of ``BENCHMARK.json`` is printed, and the harness tells a
correct run from an incorrect one."""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

import compare
import run
import spans
import workloads
from repro.scenario import dump_scenario, load_scenario, parse_scenario

CONTRACT = json.loads(run.CONTRACT.read_text(encoding="utf-8"))
NAMES = [entry["name"] for entry in CONTRACT["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced smoke run of all four workloads, as a user starts it."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--smoke", "--trace",
         "--reps", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return SimpleNamespace(
        stdout=done.stdout,
        results=json.loads(out.read_text(encoding="utf-8")))


def test_contract_names_the_workloads_and_well_formed_metrics():
    assert NAMES == list(workloads.WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    metrics = CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    for entry in CONTRACT["workloads"] + metrics:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}",
                            entry["name"])
    assert len({entry["name"] for entry in metrics}) == len(metrics)
    assert "setup_s" in {entry["name"] for entry in CONTRACT["end_to_end"]}


def test_every_workload_prints_every_metric_with_its_unit(smoke):
    tables = re.split(r"^(?=\w+  seed )", smoke.stdout, flags=re.M)[1:]
    assert [table.split()[0] for table in tables] == NAMES
    for table in tables:
        for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
            assert re.search(
                rf"^  {re.escape(entry['name'])} +\S+ "
                rf"{re.escape(entry['unit'])} ", table, flags=re.M), \
                (table.split()[0], entry["name"])
        # the line the gating driver reads: the per-layer metrics,
        # because the run was traced
        line = json.loads(table.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) \
            == [entry["name"] for entry in CONTRACT["per_layer"]]


def test_smoke_results_are_correct_and_fully_resolved(smoke):
    for name in NAMES:
        result = smoke.results["workloads"][name]
        assert result["correct"] and not result["problems"]
        assert result["attempted"] > 0 and result["failed"] == 0
        layers = result["per_layer"]
        assert layers["trace.unresolved"]["median"] == 0
        assert layers["copy.deepcopy_calls"]["median"] > 0
        assert result["end_to_end"]["designer_ops_per_s"]["median"] > 0
    # each workload leans on the layers it was chosen for
    by_name = {name: smoke.results["workloads"][name]["per_layer"]
               for name in NAMES}
    assert by_name["campaign_reads"]["te.buffer_hit_ratio"]["median"] > 0.5
    assert by_name["campaign_reads"]["core.cm_ops"]["median"] == 0
    assert by_name["campaign_writes"]["te.checkins"]["median"] \
        > by_name["campaign_reads"]["te.checkins"]["median"]
    assert by_name["team_delegation"]["dc.steps"]["median"] > 0
    assert by_name["team_delegation"]["te.recover_s"]["median"] > 0
    assert by_name["cm_cooperation"]["core.recover_s"]["median"] > 0
    assert by_name["cm_cooperation"]["te.dops"]["median"] == 0


def test_a_result_compares_equal_to_itself(smoke):
    lines, failed = compare.compare(smoke.results, smoke.results, CONTRACT)
    assert not failed
    assert not [line for line in lines
                if "  worse" in line or "DIFFERS" in line]


def test_compare_flags_a_slower_side_and_a_failed_operation(smoke):
    slower = copy.deepcopy(smoke.results)
    rate = slower["workloads"]["cm_cooperation"]["end_to_end"][
        "designer_ops_per_s"]
    for key in ("median", "min", "max"):
        rate[key] *= 0.8
    lines, failed = compare.compare(smoke.results, slower, CONTRACT)
    assert failed
    assert [line.split()[0] for line in lines if "  worse" in line] \
        == ["designer_ops_per_s"]
    assert not compare.compare(slower, smoke.results, CONTRACT)[1]

    broken = copy.deepcopy(smoke.results)
    broken["workloads"]["campaign_reads"]["simulated"][
        "failed_op_share"] = 0.001
    assert compare.compare(smoke.results, broken, CONTRACT)[1]


def test_verdict_is_unresolved_when_the_runs_spread_past_the_bound():
    entry = {"name": "designer_ops_per_s", "better": "higher", "bound": 0.1}
    steady = {"median": 100.0, "min": 98.0, "max": 102.0, "n": 5}
    noisy = {"median": 97.0, "min": 80.0, "max": 110.0, "n": 5}
    assert compare.verdict(steady, steady, entry) == "same"
    assert compare.verdict(steady, noisy, entry) == "unresolved"
    faster = {"median": 120.0, "min": 115.0, "max": 125.0, "n": 5}
    assert compare.verdict(steady, faster, entry) == "better"
    assert compare.verdict(faster, steady, entry) == "worse"
    # setup_s is short: past its bound only counts past 0.1 s too
    setup = {"name": "setup_s", "better": "lower", "bound": 0.25}
    quick = {"median": 0.20, "min": 0.19, "max": 0.21, "n": 5}
    slower = {"median": 0.28, "min": 0.27, "max": 0.29, "n": 5}
    assert compare.verdict(quick, slower, setup) == "same"


@pytest.mark.parametrize("name", NAMES[:3])
def test_workload_files_pass_the_strict_dsl(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    config = load_scenario(workload.path)
    assert parse_scenario(dump_scenario(config)) == config
    # what the program is given: the same file with the seed moved
    generated = parse_scenario(workload.generate(7, smoke=False))
    assert generated.seed == config.seed + 7
    assert generated.kind == config.kind
    table, key = workload.size
    assert generated.get(table, key) == config.get(table, key)


def test_install_wraps_and_uninstall_restores_every_target():
    targets = [target for layer in spans.SPAN_TABLE.values()
               for target in layer] + list(spans.SCHEDULERS) \
        + [spans.DEEPCOPY]
    before = [spans.resolve(target)[2] for target in targets]
    tracer = spans.Tracer().install()
    try:
        assert tracer.unresolved == []
        during = [spans.resolve(target)[2] for target in targets]
        assert all(new is not old for new, old in zip(during, before))
    finally:
        tracer.uninstall()
    after = [spans.resolve(target)[2] for target in targets]
    assert all(new is old for new, old in zip(after, before))


def test_a_sub_da_that_does_not_terminate_is_counted_failed(tmp_path):
    workload = workloads.WORKLOADS["team_delegation"]
    config = tmp_path / "team.toml"
    config.write_text(workload.generate(0, smoke=True), encoding="utf-8")
    compiled = workload.setup(config)
    report = workload.run(compiled)
    assert workload.judge(compiled, report).problems == []
    stuck = next(iter(report.sub_das.values()))
    report.final_states[stuck] = "active"
    verdict = workload.judge(compiled, report)
    assert verdict.failed == workload.OPS_PER_SUB
    assert "not terminated" in verdict.problems[0]


def test_run_exits_nonzero_on_a_broken_invariant(monkeypatch, capsys):
    def broken_repetition(name, config, trace, spans_out, timeout):
        return {"attempted": 34, "failed": 9, "sim": {"sim_makespan": 1.0},
                "problems": ["sub-DAs not terminated and devolved: C00"],
                "report": {}, "setup_s": 0.2, "setup_speed": 1.0,
                "wall_s": 1.0, "host_speed": 1.0, "peak_rss_mib": 30.0}

    monkeypatch.setattr(run, "run_repetition", broken_repetition)
    code = run.main(["--workload", "team_delegation", "--smoke",
                     "--reps", "1"])
    assert code == 1
    printed = capsys.readouterr().out
    assert "INCORRECT: sub-DAs not terminated" in printed
    line = json.loads(printed.splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 9


def test_run_refuses_a_checkout_without_the_program(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "cm_cooperation", "--smoke"]) == 2
