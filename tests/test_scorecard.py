"""The reproduction scorecard: every expected shape must hold."""

from __future__ import annotations

from repro.bench.scorecard import SCORECARD, run_scorecard


def test_every_driver_has_a_check():
    assert set(SCORECARD) == {
        "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8",
        "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10",
        "A1", "A2", "A3",
    }


def test_fast_subset_passes():
    """The cheap drivers, checked on every test run."""
    card = run_scorecard(only={"F2", "F6", "F7", "T2", "T3", "A2",
                               "A3"})
    assert card.data["failures"] == 0, card.render()


def test_full_scorecard_passes():
    """Everything — the one-assert reproduction statement."""
    card = run_scorecard()
    assert card.data["failures"] == 0, card.render()
    assert len(card.rows) == 21
