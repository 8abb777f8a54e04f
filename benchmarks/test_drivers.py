"""Every scorecard row as a benchmark: one driver, its table, its check.

Each figure (F1-F8), experiment (T1-T10) and ablation (A1-A3) of
:data:`repro.bench.scorecard.SCORECARD` runs once under the benchmark
timer, prints the table it regenerates and must pass the scorecard's
shape check for its row — the one place that shape is written down.
Run with::

    python -m pytest benchmarks/test_drivers.py -s
"""

from __future__ import annotations

import pytest

from repro.bench.scorecard import SCORECARD


@pytest.mark.parametrize("exp_id", list(SCORECARD))
def test_driver(benchmark, exp_id):
    driver, check = SCORECARD[exp_id]
    result = benchmark.pedantic(driver, rounds=1, iterations=1)
    print()
    print(result.render())
    problem = check(result)
    assert problem is None, problem
