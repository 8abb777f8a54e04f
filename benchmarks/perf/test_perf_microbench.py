"""Smoke benchmark of the perf harness.

Runs the microbenchmark suite in quick mode (tiny op counts — the
timings are not the point here), prints the report, and asserts the
artifact shape plus the structural gates that bind at any size.  The
two flatness ratios are checked on the full run (``python
benchmarks/perf/run_perf.py``), whose artifact is committed as
``BENCH_PERF.json``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

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


def test_the_delta_report_prints_each_sweep_points_cost():
    """What the CI perf job's summary shows for ``cm_scaling``: the
    cost per DA at every hierarchy size, against the committed one."""
    spec = importlib.util.spec_from_file_location(
        "bench_report",
        Path(__file__).resolve().parents[2] / "tools" / "bench_report.py")
    bench_report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_report)

    def report(small: float, large: float) -> dict:
        return {"benchmarks": {"cm_scaling": {
            "ops_per_sec": 1000.0, "sweep_unit": "ms per DA",
            "sweep": {"das=40": small, "das=640": large}}}}

    lines = bench_report.render_delta(report(0.1, 0.12),
                                      report(0.2, 0.2)).splitlines()
    assert "cm_scaling das=40: 0.1 ms per DA (old 0.2, -50.0%)" in lines
    assert "cm_scaling das=640: 0.12 ms per DA (old 0.2, -40.0%)" in lines
    alone = bench_report.render_delta(report(0.1, 0.12)).splitlines()
    assert "cm_scaling das=40: 0.1 ms per DA" in alone
