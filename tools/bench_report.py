#!/usr/bin/env python3
"""Pretty-print a ``BENCH_PERF.json`` perf report, with deltas.

One argument prints the report; two arguments print NEW against OLD
with a per-benchmark throughput delta — a benchmark only NEW has is
listed as ``new``, one only OLD has as ``removed`` — the before/after
view of the perf trajectory::

    python tools/bench_report.py BENCH_PERF.json            # single run
    python tools/bench_report.py NEW.json OLD.json          # delta view

It prints throughputs only: a report's sweep points and an older
report's ``acceptance`` block are not shown, since the flatness the
sweeps timed is held by exact line counts in the tier-1 suite (see
``docs/performance.md``).  Informative only: the exit code is 0 unless
a file is missing or malformed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any


def load(path: str) -> dict[str, Any]:
    """Load and minimally validate one perf report."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    if "benchmarks" not in report:
        raise ValueError(f"{path}: not a perf report (no 'benchmarks')")
    return report


def _fmt_ops(value: Any) -> str:
    return f"{value:,.0f}" if isinstance(value, (int, float)) else "-"


def render_delta(new: dict[str, Any],
                 old: dict[str, Any] | None = None) -> str:
    """Fixed-width table of one report, or of NEW vs OLD."""
    header = ["benchmark", "ops/sec"]
    if old is not None:
        header += ["old ops/sec", "delta"]
    rows: list[list[str]] = []
    old_benches = (old or {}).get("benchmarks", {})
    for name, bench in new["benchmarks"].items():
        row = [name, _fmt_ops(bench.get("ops_per_sec"))]
        if old is not None:
            before = old_benches.get(name, {}).get("ops_per_sec")
            row.append(_fmt_ops(before))
            if isinstance(before, (int, float)) and before:
                change = (bench["ops_per_sec"] - before) / before * 100.0
                row.append(f"{change:+.1f}%")
            else:
                row.append("new")
        rows.append(row)
    rows += [[name, "-", _fmt_ops(bench.get("ops_per_sec")), "removed"]
             for name, bench in old_benches.items()
             if name not in new["benchmarks"]]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths))
              for row in rows]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or len(args) > 2:
        print(__doc__)
        return 2
    try:
        new = load(args[0])
        old = load(args[1]) if len(args) == 2 else None
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}")
        return 1
    print(render_delta(new, old))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
