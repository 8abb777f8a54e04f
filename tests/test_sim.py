"""Unit tests for repro.sim: clock, scheduler, the kernel's event log."""

from __future__ import annotations

from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import SimClock
from repro.sim.kernel import Kernel
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
        assert sched.events() == [(0.0, 0, 1, "")]

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
        mid = []
        sched.at(2.0, lambda: mid.append(
            (list(seen), sched.clock.now, sched.pending)))
        sched.run()
        assert mid == [([1.0, 2.0], 2.0, 1)]

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
#: (instant of a probe event or None, max_events of one run or None)
_CUTS = st.lists(
    st.tuples(st.none() | st.sampled_from([0.0, 0.5, 1.0, 3.0, 6.0]),
              st.none() | st.integers(0, 4)),
    max_size=4)
#: above every priority a program uses: a probe runs after every event
#: of its instant that was filed before it ran
_PROBE_PRIORITY = 2


class TestDispatchOrderProperty:
    """The scheduler against a model kept by the test: the set of live
    ``(time, priority, seq)`` keys.  Every dispatch must be the minimum
    of that set at that moment, and the key the event log records —
    also for events scheduled from inside a running action — whatever
    ``run`` cut-offs and probe events interleave."""

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
                assert sched.events()[-1][:3] == key
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
        probed: list[float] = []

        def probe(instant):
            def check():
                # every event at or before the instant was dispatched
                assert sched.clock.now == instant
                assert all(key[0] > instant for key in live)
                probed.append(instant)

            sched.at(instant, check, label="probe",
                     priority=_PROBE_PRIORITY)
            next(seqs)  # the probe takes a seq like any event

        probes = [instant for instant, _ in cuts if instant is not None]
        for instant in probes:
            probe(instant)
        for _, max_events in cuts + [(None, None)]:
            before = len(dispatched) + len(probed)
            ran = sched.run(max_events=max_events)
            assert ran == len(dispatched) + len(probed) - before
            assert sched.pending == len(live) + len(probes) - len(probed)
            # the clock never passes an undispatched event
            assert all(sched.clock.now <= key[0] for key in live)
            if max_events is not None:
                assert ran <= max_events
        assert not live
        assert sorted(probed) == sorted(probes)
        assert dispatched == sorted(dispatched, key=lambda k: k[0])
        assert sched.executed == len(dispatched) + len(probes)
        assert [entry[:3] for entry in sched.events()
                if entry[3] != "probe"] == dispatched


class TestTheLogViewIsTheOldLog:
    """The kernel logs an event as three unboxed numbers and a label.
    Read back — :meth:`events`, ``executed``, ``trace_signature()`` and
    each ``run()``'s count — it must be what a plain recorder of
    ``(time, priority, seq, label)`` tuples, appended as each event
    runs, holds: over drawn programs of mixed priorities, same-instant
    ties, actions that file more events and ``max_events`` cut-offs."""

    @settings(max_examples=200, deadline=None)
    @given(program=st.lists(_OPS, max_size=12),
           cuts=st.lists(st.none() | st.integers(0, 4), max_size=4))
    def test_the_view_equals_a_plain_recorder(self, program, cuts):
        kernel = Kernel()
        recorded: list[tuple[float, int, int, str]] = []
        seqs = count(1)

        def apply(op):
            how, delay, priority, children = op
            seq = next(seqs)

            def action():
                recorded.append((kernel.clock.now, priority, seq, how))
                for child in children:
                    apply(child)

            if how == "at":
                kernel.at(kernel.clock.now + delay, action, label=how,
                          priority=priority)
            elif how == "after":
                kernel.after(delay, action, label=how)
            else:
                kernel.defer(delay, action, label=how)

        for op in program:
            apply(op)
        for max_events in cuts + [None]:
            before = len(recorded)
            assert kernel.run(max_events) == len(recorded) - before
            view = kernel.events()
            assert view == recorded
            assert all(type(priority) is int and type(seq) is int
                       for _, priority, seq, _ in view)
            assert kernel.executed == len(recorded)
            assert kernel.trace_signature() == (
                len(recorded), kernel.clock.now,
                tuple(label for *_, label in recorded))
        assert kernel.pending == 0
