"""``tools/count_delta.py``: the exact values of two traced benchmark
runs that differ — traced counts, ``sim_*`` values, the designer-op
count and the report digest — and nothing host-timed."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "count_delta.py"


def _module():
    spec = importlib.util.spec_from_file_location("count_delta", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _metric(value):
    return {"median": value, "min": value, "max": value, "n": 1}


def _run(messages: int, checkins: int, msgs_per_op: float,
         seconds: float, digest: str, extra: bool = False) -> dict:
    workloads = {"campaign_writes": {
        "attempted": 100, "report_digest": digest,
        "simulated": {"sim_makespan": 10.5, "sim_msgs_per_op": msgs_per_op},
        "per_layer": {"net.messages": _metric(messages),
                      "te.checkins": _metric(checkins),
                      "te.self_s": _metric(seconds)},
        "end_to_end": {"designer_ops_per_s": _metric(1 / seconds)},
    }}
    if extra:
        workloads["cm_cooperation"] = dict(workloads["campaign_writes"])
    return {"workloads": workloads}


def _write(tmp_path: Path, name: str, run: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(run), encoding="utf-8")
    return path


def test_counts_are_the_contracts_count_metrics():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = _module().counted_metrics(benchmark)
    assert "net.messages" in counts and "te.checkins" in counts
    assert "te.self_s" not in counts and "net.self_share" not in counts


def test_only_the_exact_values_that_moved_are_listed(tmp_path):
    base = _write(tmp_path, "base.json",
                  _run(447, 38, 3.27, 0.2, "b272", extra=True))
    head = _write(tmp_path, "head.json", _run(295, 38, 2.16, 0.1, "d35e"))
    done = subprocess.run([sys.executable, str(TOOL), str(base), str(head)],
                          capture_output=True, text=True, check=True,
                          cwd=ROOT)
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    assert rows == [
        ["campaign_writes", "report_digest", "b272", "d35e"],
        ["campaign_writes", "sim_msgs_per_op", "3.27", "2.16"],
        ["campaign_writes", "net.messages", "447", "295"],
        ["cm_cooperation", "(workload)", "present", "absent"],
    ]


def test_same_runs_list_nothing_and_a_bad_file_exits_2(tmp_path):
    run = _write(tmp_path, "run.json", _run(447, 38, 3.27, 0.2, "b272"))
    tool = _module()
    assert tool.main([str(run), str(run)]) == 0
    assert tool.main([str(run), str(tmp_path / "missing.json")]) == 2
    assert tool.render([]).startswith("no traced count")
