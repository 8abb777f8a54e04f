#!/usr/bin/env python3
"""Run the perf harness and emit ``BENCH_PERF.json``.

Standalone entry point for the CI perf job and for local trajectory
runs (it bootstraps ``src/`` onto ``sys.path`` itself, so no
``PYTHONPATH`` is needed)::

    python benchmarks/perf/run_perf.py [--quick] [--repeats N] [--out PATH]

The artifact lands at the repo root by default; compare two runs with
``python tools/bench_report.py NEW.json OLD.json``.  See
``docs/performance.md`` for how to read the numbers.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.bench.perf import DEFAULT_ARTIFACT, render, run_perf  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test op counts (timings meaningless)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N repeats per measurement")
    parser.add_argument("--out", default=str(_REPO_ROOT / DEFAULT_ARTIFACT),
                        help="artifact path (default: repo root)")
    args = parser.parse_args(argv)
    report = run_perf(quick=args.quick, repeats=args.repeats,
                      emit_path=args.out)
    print(render(report))
    print(f"note: wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
