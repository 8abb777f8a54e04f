#!/usr/bin/env python3
"""The exact values of two traced benchmark runs that differ.

    python tools/count_delta.py BASE.json HEAD.json

Reads two ``benchmarks/e2e/run.py --trace 1 --reps 1 --out`` files and
lists, per workload, every exact value that differs between them:

* each traced count, i.e. each per-layer metric whose unit in
  ``BENCHMARK.json`` is ``count`` (``net.messages``, ``te.checkins``,
  ...);
* each simulated value (``sim_makespan``, ``sim_msgs_per_op``, ...);
* the designer-operation count and the report digest.

At one seed these do not depend on the host, so one run per tree
suffices and any difference is a change of behaviour: a pull request
that means to move only ``net.messages`` shows exactly that row.
Host-timed metrics (``*_s``, ``*_share``, ``designer_ops_per_s``) are
not listed; ``benchmarks/e2e/compare.py`` judges those.  A workload
that only one file holds is listed as such.  The exit code is 0, or 2
when a file cannot be read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def counted_metrics(benchmark: dict[str, Any]) -> list[str]:
    """The per-layer metrics ``BENCHMARK.json`` declares as counts."""
    return [metric["name"] for metric in benchmark["per_layer"]
            if metric["unit"] == "count"]


def exact_values(workload: dict[str, Any], counts: list[str]
                 ) -> dict[str, Any]:
    """Name -> value of every exact value one workload's result holds."""
    values: dict[str, Any] = {
        "attempted": workload.get("attempted"),
        "report_digest": workload.get("report_digest"),
    }
    values.update(workload.get("simulated", {}))
    per_layer = workload.get("per_layer", {})
    for name in counts:
        if name in per_layer:
            values[name] = per_layer[name]["median"]
    return values


def differences(base: dict[str, Any], head: dict[str, Any],
                counts: list[str]) -> list[tuple[str, str, Any, Any]]:
    """``(workload, name, base value, head value)`` of every exact value
    that differs, workloads in the head file's order."""
    rows: list[tuple[str, str, Any, Any]] = []
    base_workloads = base["workloads"]
    head_workloads = head["workloads"]
    names = list(head_workloads) + [name for name in base_workloads
                                    if name not in head_workloads]
    for name in names:
        if name not in base_workloads or name not in head_workloads:
            rows.append((name, "(workload)",
                         "present" if name in base_workloads else "absent",
                         "present" if name in head_workloads else "absent"))
            continue
        old = exact_values(base_workloads[name], counts)
        new = exact_values(head_workloads[name], counts)
        for key in list(new) + [key for key in old if key not in new]:
            if old.get(key) != new.get(key):
                rows.append((name, key, old.get(key), new.get(key)))
    return rows


def render(rows: list[tuple[str, str, Any, Any]]) -> str:
    if not rows:
        return "no traced count, sim_* value or digest differs"
    width = max(len(name) for _, name, _, _ in rows)
    out = [f"{'workload':<16}{'value':<{width + 2}}{'base':>20}{'head':>20}"]
    for workload, name, old, new in rows:
        out.append(f"{workload:<16}{name:<{width + 2}}"
                   f"{_shown(old):>20}{_shown(new):>20}")
    return "\n".join(out)


def _shown(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return "-" if value is None else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="List the traced counts and sim_* values of two "
                    "benchmarks/e2e run.py --trace outputs that differ.")
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    try:
        counts = counted_metrics(
            json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")))
        base = json.loads(args.base.read_text(encoding="utf-8"))
        head = json.loads(args.head.read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError) as exc:
        print(f"count_delta: {exc}", file=sys.stderr)
        return 2
    print(render(differences(base, head, counts)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
