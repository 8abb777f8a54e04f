"""Smoke benchmark of the perf harness.

Runs the microbenchmark suite in quick mode (tiny op counts — the
timings are not the point here), prints the report, and asserts the
artifact shape plus the structural gates that bind at any size.  The
two flatness ratios are checked on the full run (``python
benchmarks/perf/run_perf.py``), whose artifact is committed as
``BENCH_PERF.json``.
"""

from __future__ import annotations

import json

from repro.bench.perf import render, run_perf

EXPECTED = {
    "checkout_buffer_hit",
    "checkout_checkin_write_through",
    "group_checkin_flush",
    "cross_workstation_group_commit",
    "federation_scaling",
    "cm_scaling",
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
    assert report["acceptance"]["ok"]
    # the artifact on disk is the report, unabridged
    assert json.loads(artifact.read_text()) == report
