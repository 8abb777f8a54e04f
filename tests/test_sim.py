"""Unit tests for repro.sim: clock, scheduler."""

from __future__ import annotations

from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import SimClock
from repro.sim.scheduler import EventScheduler


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.advance(2.5)
        assert clock.now == 7.5

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_advance_to_never_goes_back(self):
        clock = SimClock(10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0
        clock.advance_to(15.0)
        assert clock.now == 15.0


class TestEventScheduler:
    def test_runs_in_time_order(self):
        sched = EventScheduler()
        order = []
        sched.at(3.0, lambda: order.append("c"))
        sched.at(1.0, lambda: order.append("a"))
        sched.at(2.0, lambda: order.append("b"))
        sched.run()
        assert order == ["a", "b", "c"]
        assert sched.clock.now == 3.0

    def test_ties_resolve_by_insertion_order(self):
        sched = EventScheduler()
        order = []
        sched.at(1.0, lambda: order.append(1))
        sched.at(1.0, lambda: order.append(2))
        sched.run()
        assert order == [1, 2]

    def test_priority_breaks_ties(self):
        sched = EventScheduler()
        order = []
        sched.at(1.0, lambda: order.append("low"), priority=1)
        sched.at(1.0, lambda: order.append("high"), priority=0)
        sched.run()
        assert order == ["high", "low"]

    def test_after_schedules_relative(self):
        sched = EventScheduler()
        sched.clock.advance(10.0)
        seen = []
        sched.after(5.0, lambda: seen.append(sched.clock.now))
        sched.run()
        assert seen == [15.0]

    def test_cannot_schedule_in_past(self):
        sched = EventScheduler()
        sched.clock.advance(5.0)
        with pytest.raises(ValueError):
            sched.at(1.0, lambda: None)

    def test_cannot_schedule_at_nan(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            sched.at(float("nan"), lambda: None)
        assert sched.pending == 0

    def test_cannot_defer_by_nan(self):
        """``max(nan, 0.0)`` is NaN: the delay is refused where ``at``
        refuses its instant, not filed ahead of every later event."""
        sched = EventScheduler()
        with pytest.raises(ValueError):
            sched.defer(float("nan"), lambda: None)
        with pytest.raises(ValueError):
            sched.after(float("nan"), lambda: None)
        assert sched.pending == 0
        seen = []
        sched.defer(-1.0, lambda: seen.append(sched.clock.now))
        sched.run()
        assert seen == [0.0]
        assert sched.event_log == [(0.0, 0, 1, "")]

    def test_events_can_schedule_events(self):
        sched = EventScheduler()
        seen = []

        def chain():
            seen.append(sched.clock.now)
            if len(seen) < 3:
                sched.after(1.0, chain)

        sched.at(0.0, chain)
        sched.run()
        assert seen == [0.0, 1.0, 2.0]

    def test_run_until(self):
        sched = EventScheduler()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sched.at(t, lambda t=t: seen.append(t))
        sched.run(until=2.0)
        assert seen == [1.0, 2.0]
        assert sched.clock.now == 2.0
        assert sched.pending == 1

    def test_max_events(self):
        sched = EventScheduler()
        for t in (1.0, 2.0, 3.0):
            sched.at(t, lambda: None)
        ran = sched.run(max_events=2)
        assert ran == 2
        assert sched.executed == 2


# A scheduling program: (how, delay, priority, ops the event's own
# action performs when it runs); only ``at`` takes a priority.  Few
# distinct delays and priorities, so same-instant ties are common.
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 4.0])


def _schedule(children):
    return st.one_of(
        st.tuples(st.just("at"), _DELAYS, st.sampled_from([-1, 0, 0, 1]),
                  children),
        st.tuples(st.sampled_from(["after", "defer"]), _DELAYS, st.just(0),
                  children))


_OPS = st.recursive(
    _schedule(st.just([])),
    lambda inner: _schedule(st.lists(inner, max_size=3)),
    max_leaves=12)
_CUTS = st.lists(
    st.tuples(st.none() | st.sampled_from([0.0, 0.5, 1.0, 3.0, 6.0]),
              st.none() | st.integers(0, 4)),
    max_size=4)


class TestDispatchOrderProperty:
    """The scheduler against a model kept by the test: the set of live
    ``(time, priority, seq)`` keys.  Every dispatch must be the minimum
    of that set at that moment, and the key the event log records —
    also for events scheduled from inside a running action — whatever
    ``run`` cut-offs interleave."""

    @settings(max_examples=200, deadline=None)
    @given(program=st.lists(_OPS, max_size=12), cuts=_CUTS)
    def test_dispatch_is_the_minimum_live_key(self, program, cuts):
        sched = EventScheduler()
        live: set[tuple[float, int, int]] = set()
        dispatched = []
        seqs = count(1)

        def apply(op):
            how, delay, priority, children = op
            key = (sched.clock.now + delay, priority, next(seqs))

            def action():
                assert key == min(live)
                assert sched.clock.now == key[0]
                assert sched.event_log[-1][:3] == key
                live.remove(key)
                dispatched.append(key)
                for child in children:
                    apply(child)

            if how == "at":
                sched.at(key[0], action, priority=priority)
            elif how == "after":
                sched.after(delay, action)
            else:
                sched.defer(delay, action)
            live.add(key)

        for op in program:
            apply(op)
        for until, max_events in cuts + [(None, None)]:
            before = len(dispatched)
            ran = sched.run(until=until, max_events=max_events)
            assert ran == len(dispatched) - before
            assert sched.pending == len(live)
            # the clock never passes an undispatched event
            assert all(sched.clock.now <= key[0] for key in live)
            if max_events is not None:
                assert ran <= max_events
            if until is not None and (max_events is None
                                      or ran < max_events):
                assert all(key[0] > until for key in live)
                assert sched.clock.now >= until
        assert not live
        assert dispatched == sorted(dispatched, key=lambda k: k[0])
        assert sched.executed == len(dispatched)
        assert [entry[:3] for entry in sched.event_log] == dispatched

