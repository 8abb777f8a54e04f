"""Smoke benchmark of the perf harness.

Runs the microbenchmark in quick mode (a tiny op count — the timing
is not the point here), prints the report, and asserts the artifact
shape; then checks the delta view ``tools/bench_report.py`` prints
against the committed ``BENCH_PERF.json``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.bench.perf import render, run_perf

_REPO_ROOT = Path(__file__).resolve().parents[2]


def test_perf_harness_smoke(tmp_path):
    artifact = tmp_path / "BENCH_PERF.json"
    report = run_perf(quick=True, repeats=1, emit_path=artifact)
    print()
    print(render(report))

    assert set(report["benchmarks"]) == {"group_checkin_flush"}
    assert "acceptance" not in report
    assert report["benchmarks"]["group_checkin_flush"]["ops_per_sec"] > 0.0
    # the artifact on disk is the report, unabridged
    assert json.loads(artifact.read_text()) == report


def test_the_delta_report_prints_throughput_new_and_removed_rows():
    """NEW against OLD: a throughput delta for a row both have, ``new``
    for a row only NEW has, ``removed`` for a row only OLD has; the
    committed trajectory's sweeps read as removed rows."""
    spec = importlib.util.spec_from_file_location(
        "bench_report", _REPO_ROOT / "tools" / "bench_report.py")
    bench_report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_report)

    def rows(new: dict, old: dict) -> dict[str, list[str]]:
        table = bench_report.render_delta(new, old)
        return {line.split()[0]: line.split()[1:]
                for line in table.splitlines()[2:]}

    table = rows({"benchmarks": {"flush": {"ops_per_sec": 450.0},
                                 "fresh": {"ops_per_sec": 10.0}}},
                 {"benchmarks": {"flush": {"ops_per_sec": 500.0},
                                 "gone": {"ops_per_sec": 2000.0}}})
    assert table == {"flush": ["450", "500", "-10.0%"],
                     "fresh": ["10", "-", "new"],
                     "gone": ["-", "2,000", "removed"]}

    committed = bench_report.load(str(_REPO_ROOT / "BENCH_PERF.json"))
    table = rows(run_perf(quick=True, repeats=1), committed)
    assert table["federation_scaling"][-1] == "removed"
    assert table["cm_scaling"][-1] == "removed"
    assert table["group_checkin_flush"][-1].endswith("%")
