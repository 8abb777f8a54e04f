#!/usr/bin/env python3
"""Regenerate every figure (F1-F8), experiment (T1-T6) and ablation (A1-A3).

Prints the full reproduction report; this is the script behind
EXPERIMENTS.md.

Run with:  python examples/run_experiments.py [F1|T3|...]
"""

import sys

from repro.bench.ablations import ALL_ABLATIONS
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.figures import ALL_FIGURES


def main() -> None:
    wanted = set(a.upper() for a in sys.argv[1:])
    drivers = {**ALL_FIGURES, **ALL_EXPERIMENTS, **ALL_ABLATIONS}
    for name, driver in drivers.items():
        if wanted and name not in wanted:
            continue
        result = driver()
        print(result.render())
        print()


if __name__ == "__main__":
    main()
