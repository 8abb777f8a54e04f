"""Compare two ``run.py --out`` files under the bounds of BENCHMARK.json.

    python3 benchmarks/e2e/compare.py OLD.json NEW.json

One row per workload and end-to-end metric — ``better``, ``same``,
``worse``, or ``unresolved`` when the runs of either side spread wider
than the metric's bound, so the medians cannot settle it — then the
simulated-side metrics, which repeat exactly at one seed, and the
per-layer deltas.  Exits 1 on any ``worse`` or on a higher
``failed_op_share``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from run import CONTRACT

#: how much a simulated-side metric (lower is better) may rise
SIMULATED_BOUND = 0.01
#: ``setup_s`` is short: worse means past its bound *and* this many s
ABSOLUTE_SLACK = {"setup_s": 0.1}


def gain(old: float, new: float, better: str) -> float:
    """Relative improvement of *new* over *old*; negative = worse."""
    if old == new:
        return 0.0
    if not old:
        return float("inf") if (new > old) == (better == "higher") \
            else float("-inf")
    change = (new - old) / abs(old)
    return change if better == "higher" else -change


def verdict(old: dict[str, float], new: dict[str, float],
            entry: dict[str, Any]) -> str:
    """Judge one end-to-end metric from both sides' run summaries."""
    bound, better = entry["bound"], entry["better"]
    moved = gain(old["median"], new["median"], better)
    if better == "higher":
        all_better = new["min"] > old["max"]
    else:
        all_better = new["max"] < old["min"]
    slack = ABSOLUTE_SLACK.get(entry["name"], 0.0)
    if moved < -bound and abs(new["median"] - old["median"]) > slack:
        return "worse"
    if moved > bound and all_better:
        return "better"
    spread = max((side["max"] - side["min"]) / abs(side["median"])
                 for side in (old, new))
    if spread > bound and not all_better:
        return "unresolved"
    return "same"


def compare(old: dict[str, Any], new: dict[str, Any],
            contract: dict[str, Any]) -> tuple[list[str], bool]:
    """The report lines, and whether anything got worse."""
    lines: list[str] = []
    failed = False
    for entry in contract["workloads"]:
        name = entry["name"]
        if name not in old["workloads"] or name not in new["workloads"]:
            lines.append(f"{name}: not on both sides, skipped")
            continue
        a, b = old["workloads"][name], new["workloads"][name]
        lines.append(f"{name}  (seed {a['seed']} -> {b['seed']}, report "
                     + ("identical" if a["report_digest"]
                        == b["report_digest"] else "DIFFERS") + ")")
        for metric in contract["end_to_end"]:
            x, y = (side["end_to_end"][metric["name"]] for side in (a, b))
            word = verdict(x, y, metric)
            failed |= word == "worse"
            lines.append(
                f"  {metric['name']:<28}{x['median']:>14.6g} -> "
                f"{y['median']:<14.6g}{metric['unit']:<7}"
                f"{gain(x['median'], y['median'], metric['better']):>+8.1%}"
                f"  {word}  (n {x['n']}/{y['n']})")
        for metric in sorted(set(a["simulated"]) & set(b["simulated"])):
            x, y = a["simulated"][metric], b["simulated"][metric]
            moved = gain(x, y, "lower")
            exact = metric == "failed_op_share"
            word = "same" if x == y else \
                "worse" if moved < (0.0 if exact else -SIMULATED_BOUND) \
                else "better" if moved > 0.0 else "same"
            failed |= word == "worse"
            lines.append(f"  {metric:<28}{x:>14.6g} -> {y:<14.6g}"
                         f"{'':<7}{moved:>+8.1%}  {word}")
        layers_a, layers_b = a.get("per_layer", {}), b.get("per_layer", {})
        for metric in layers_a:
            if metric not in layers_b:
                continue
            x, y = layers_a[metric]["median"], layers_b[metric]["median"]
            if x or y:
                lines.append(f"    {metric:<32}{x:>14.6g} -> {y:<14.6g}"
                             f"{gain(x, y, 'higher'):>+8.1%}")
    return lines, failed


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text(encoding="utf-8"))
                for path in paths)
    contract = json.loads(CONTRACT.read_text(encoding="utf-8"))
    lines, failed = compare(old, new, contract)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
