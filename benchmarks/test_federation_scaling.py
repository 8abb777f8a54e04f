"""The federation-scaling curve at full size, gated.

Marked ``slow``: this is the full measurement behind the
``federation_scaling`` entry of ``BENCH_PERF.json`` — the same
16-version cross-member batch over the same four pinned DAs as the
federation grows 4 -> 16 -> 64 members.  With the staged-home map,
home resolution is O(batch) regardless of member count, so the
seconds-per-batch curve must stay *flat* (largest / smallest within
the committed ceiling); the bounded-log run must keep the decision
log's record count inside twice the checkpoint window across >= 3
truncation cycles and still recover cleanly from a coordinator crash
over the truncated log.  Wall clock is reported but the flatness gate
is a ratio, so CI core pinning cannot tilt it.
"""

from __future__ import annotations

import pytest

from repro.bench.perf import (
    FEDERATION_FLATNESS_MAX,
    _measure_federation_scaling,
)
from repro.txn.decision_log import CHECKPOINT_WINDOW

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def scaling():
    return _measure_federation_scaling(quick=False, repeats=3)


class TestFederationScalingCurve:
    def test_flatness_clears_the_acceptance_ceiling(self, scaling):
        assert scaling["flatness"] is not None
        assert scaling["flatness"] <= FEDERATION_FLATNESS_MAX, (
            f"cost per batch grew {scaling['flatness']}x from the "
            f"smallest to the largest federation (ceiling "
            f"{FEDERATION_FLATNESS_MAX}x): sweep={scaling['sweep']}")

    def test_sweep_covers_an_order_of_magnitude(self, scaling):
        assert len(scaling["sweep"]) == 3
        assert "members=64" in scaling["sweep"]

    def test_bounded_log_survives_truncation_cycles(self, scaling):
        bounded = scaling["bounded_log"]
        assert bounded["ok"], bounded
        assert bounded["window"] == CHECKPOINT_WINDOW
        assert bounded["truncations"] >= 3
        assert bounded["peak_wal_records"] \
            <= bounded["max_wal_records"]

    def test_print_the_curve(self, scaling):
        print()
        print(f"federation_scaling: flatness {scaling['flatness']}x "
              f"(max {scaling['flatness_max']}x), "
              f"{scaling['ops_per_sec']} batches/s at the largest "
              f"sweep point")
        for name, ms in scaling["sweep"].items():
            print(f"  {name}: {ms} ms/batch")
        bounded = scaling["bounded_log"]
        print(f"  bounded log: peak {bounded['peak_wal_records']} "
              f"records (max {bounded['max_wal_records']}), "
              f"{bounded['truncations']} truncations, "
              f"{bounded['forgotten_decisions']} forgotten")
