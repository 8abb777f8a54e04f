"""Smoke benchmark of the zero-copy perf harness.

Runs the microbenchmark suite in quick mode (tiny op counts — the
timings are not the point here), prints the report, and asserts the
artifact shape plus the one qualitative claim that is robust even
under CI noise: the frozen buffer-hit path beats the deepcopy
baseline.  The *quantitative* >= 3x acceptance bar is checked on the
full run (``python benchmarks/perf/run_perf.py``), whose artifact is
committed as ``BENCH_PERF.json``.
"""

from __future__ import annotations

import json

from repro.bench.perf import render, run_perf

EXPECTED = {
    "checkout_buffer_hit",
    "checkout_checkin_write_through",
    "group_checkin_flush",
    "cross_workstation_group_commit",
    "kernel_events",
    "kernel_timer_churn",
    "payload_sizing",
    "scorecard_wall_clock",
    "federation_scaling",
}


def test_perf_harness_smoke(tmp_path):
    artifact = tmp_path / "BENCH_PERF.json"
    report = run_perf(quick=True, repeats=1, emit_path=artifact)
    print()
    print(render(report))

    assert set(report["benchmarks"]) == EXPECTED
    assert len(report["benchmarks"]) >= 4
    for bench in report["benchmarks"].values():
        assert bench["ops_per_sec"] > 0.0
    # even at smoke-test op counts the frozen path clearly beats the
    # deepcopy baseline on the buffer-hit read path
    hit = report["benchmarks"]["checkout_buffer_hit"]
    assert hit["speedup_vs_deepcopy_baseline"] >= 2.0
    # the artifact on disk is the report, unabridged
    assert json.loads(artifact.read_text()) == report
