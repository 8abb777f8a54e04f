"""Unit tests for repro.util: ids, rng, trace, errors."""

from __future__ import annotations

import pytest

from repro.util.errors import (
    ConcordError,
    IllegalTransitionError,
    LockConflictError,
    RepositoryError,
    SchemaError,
)
from repro.util.ids import IdGenerator
from repro.util.rng import SeededRng
from repro.util.trace import EventTrace, Level


class TestIdGenerator:
    def test_sequential_per_prefix(self):
        gen = IdGenerator()
        assert gen.next("da") == "da-1"
        assert gen.next("da") == "da-2"
        assert gen.next("dov") == "dov-1"
        assert gen.next("da") == "da-3"

    def test_independent_generators(self):
        a, b = IdGenerator(), IdGenerator()
        a.next("da")
        assert b.next("da") == "da-1"


class TestSeededRng:
    def test_determinism(self):
        a = SeededRng(42)
        b = SeededRng(42)
        assert [a.randint(0, 100) for _ in range(10)] == \
               [b.randint(0, 100) for _ in range(10)]

    def test_different_seeds_differ(self):
        a = SeededRng(1)
        b = SeededRng(2)
        assert [a.random() for _ in range(5)] != \
               [b.random() for _ in range(5)]

    def test_bounded_normal_respects_bounds(self):
        rng = SeededRng(7)
        for _ in range(200):
            value = rng.bounded_normal(10.0, 50.0, 0.0, 20.0)
            assert 0.0 <= value <= 20.0

    def test_zipf_index_in_range(self):
        rng = SeededRng(3)
        for _ in range(100):
            assert 0 <= rng.zipf_index(10, 1.0) < 10

    def test_zipf_skews_to_low_indices(self):
        rng = SeededRng(5)
        draws = [rng.zipf_index(20, 1.5) for _ in range(500)]
        low = sum(1 for d in draws if d < 5)
        assert low > len(draws) / 2

    def test_zipf_requires_positive_n(self):
        with pytest.raises(ValueError):
            SeededRng(0).zipf_index(0)

    def test_zipf_zero_skew_is_uniformish(self):
        rng = SeededRng(11)
        draws = [rng.zipf_index(4, 0.0) for _ in range(400)]
        for i in range(4):
            assert draws.count(i) > 50

    def test_fork_independent(self):
        rng = SeededRng(9)
        child_a = rng.fork(1)
        child_b = rng.fork(2)
        assert child_a.random() != child_b.random()

    def test_bernoulli_extremes(self):
        rng = SeededRng(0)
        assert all(rng.bernoulli(1.0) for _ in range(10))
        assert not any(rng.bernoulli(0.0) for _ in range(10))

    def test_sample_and_shuffle(self):
        rng = SeededRng(4)
        items = list(range(10))
        picked = rng.sample(items, 3)
        assert len(set(picked)) == 3
        rng.shuffle(items)
        assert sorted(items) == list(range(10))


class TestEventTrace:
    def test_record_and_counts(self):
        trace = EventTrace()
        trace.record(0.0, Level.AC, "CM", "Init_Design", "da-1")
        trace.record(1.0, Level.TE, "client-TM:ws-1", "checkout", "dov-1")
        trace.record(2.0, Level.TE, "server-TM", "checkin", "dov-2")
        assert len(trace) == 3
        assert trace.count_by_level() == {Level.AC: 1, Level.TE: 2}

    def test_disabled_trace_records_nothing(self):
        trace = EventTrace(enabled=False)
        assert trace.record(0.0, Level.AC, "CM", "x") is None
        assert len(trace) == 0

    def test_operations_filter(self):
        trace = EventTrace()
        trace.record(0.0, Level.DC, "DM", "dop_start", "d1")
        trace.record(0.0, Level.DC, "DM", "dop_commit", "d1")
        assert len(trace.operations("dop_start")) == 1
        assert len(trace.operations("dop_start", "dop_commit")) == 2

    def test_count_by_operation_per_level(self):
        trace = EventTrace()
        trace.record(0.0, Level.AC, "CM", "Propagate")
        trace.record(0.0, Level.DC, "DM", "Propagate")
        assert trace.count_by_operation(Level.AC) == {"Propagate": 1}

    def test_clear(self):
        trace = EventTrace()
        trace.record(0.0, Level.AC, "CM", "x")
        trace.clear()
        assert len(trace) == 0

    def test_sequence_numbers_monotone(self):
        trace = EventTrace()
        first = trace.record(0.0, Level.AC, "CM", "a")
        second = trace.record(0.0, Level.AC, "CM", "b")
        assert second.seq == first.seq + 1

    def test_render_limit(self):
        trace = EventTrace()
        for i in range(5):
            trace.record(float(i), Level.SIM, "drv", f"op{i}")
        assert len(trace.render(2).splitlines()) == 2


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(SchemaError, RepositoryError)
        assert issubclass(RepositoryError, ConcordError)
        assert issubclass(IllegalTransitionError, ConcordError)

    def test_lock_conflict_carries_holder(self):
        exc = LockConflictError("boom", holder="da-2")
        assert exc.holder == "da-2"

    def test_illegal_transition_carries_context(self):
        exc = IllegalTransitionError("nope", state="active",
                                     operation="Start")
        assert exc.state == "active"
        assert exc.operation == "Start"
