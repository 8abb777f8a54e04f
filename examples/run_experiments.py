#!/usr/bin/env python3
"""Regenerate every figure (F1-F8), experiment (T1-T10) and ablation (A1-A3).

Prints the full reproduction report, or only the named rows; an unknown
id lists the valid ones and exits 2.  This is ``python -m repro``.

Run with:  python examples/run_experiments.py [F1|T3|...]
"""

from repro.__main__ import main

if __name__ == "__main__":
    raise SystemExit(main())
