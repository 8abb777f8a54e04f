"""Unit tests for the unified discrete-event kernel."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.net.network import Network
from repro.sim import kernel as kernel_module
from repro.sim.kernel import Kernel
from repro.util.errors import KernelError


def probe(kernel, at, look):
    """File a probe event at *at*, behind everything filed for that
    instant so far; it appends ``look()`` to the returned list."""
    seen: list = []
    kernel.at(at, lambda: seen.append(look()), label="probe")
    return seen


class TestQuiescence:
    def test_runs_to_quiescence(self):
        kernel = Kernel()
        seen = []

        def chain():
            seen.append(kernel.clock.now)
            if len(seen) < 4:
                kernel.after(2.0, chain, label="chain")

        kernel.at(1.0, chain, label="chain")
        ran = kernel.run_until_quiescent()
        assert ran == 4
        assert kernel.pending == 0
        assert seen == [1.0, 3.0, 5.0, 7.0]

    def test_event_budget_guard(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "EVENT_BUDGET", 50)
        kernel = Kernel()

        def forever():
            kernel.after(1.0, forever)

        kernel.at(0.0, forever)
        with pytest.raises(KernelError, match="after 50 events"):
            kernel.run_until_quiescent()
        assert kernel.executed == 50

    def test_deadline_leaves_later_events_pending(self):
        kernel = Kernel()
        seen = []
        for t in (1.0, 2.0, 3.0):
            kernel.at(t, lambda t=t: seen.append(t))
        mid = probe(kernel, 2.0, lambda: (list(seen), kernel.pending,
                                          kernel.clock.now))
        kernel.run_until_quiescent()
        assert mid == [([1.0, 2.0], 1, 2.0)]

    def test_run_until(self):
        kernel = Kernel()
        kernel.at(5.0, lambda: None)
        mid = probe(kernel, 3.0, lambda: (kernel.clock.now,
                                          kernel.pending))
        kernel.run_until_quiescent()
        assert mid == [(3.0, 1)]


class TestRunningFlag:
    def test_running_only_inside_events(self):
        kernel = Kernel()
        observed = []
        kernel.at(1.0, lambda: observed.append(kernel.running))
        assert kernel.running is False
        kernel.run_until_quiescent()
        assert observed == [True]
        assert kernel.running is False


class TestEventLog:
    def test_log_records_time_seq_label(self):
        kernel = Kernel()
        kernel.at(2.0, lambda: None, label="b")
        kernel.at(1.0, lambda: None, label="a")
        kernel.run_until_quiescent()
        assert [(t, label) for t, *_, label in kernel.events()] \
            == [(1.0, "a"), (2.0, "b")]

    def test_trace_signature_is_deterministic(self):
        def run_once() -> tuple:
            kernel = Kernel()
            for t in (3.0, 1.0, 2.0):
                kernel.at(t, lambda: None, label=f"e{t}")
            kernel.run_until_quiescent()
            return kernel.trace_signature()

        assert run_once() == run_once()

    def test_a_nested_run_counts_only_its_own_events(self):
        kernel = Kernel()
        inner: list[int] = []
        kernel.at(1.0, lambda: inner.append(kernel.run()), label="outer")
        for t in (2.0, 3.0):
            kernel.at(t, lambda: None, label="inner")
        assert kernel.run() == 1
        assert inner == [2]
        assert [label for *_, label in kernel.events()] \
            == ["outer", "inner", "inner"]

    def test_an_executed_event_keeps_at_most_48_bytes(self):
        """The log keeps an event's time, priority and seq unboxed, and
        a slot for its label: no tuple, float or int of an event
        survives it.  Boxed as a 4-tuple with its float and its int,
        an event kept 121 bytes here."""
        events = 10_000

        def noop() -> None:
            pass

        def run(kernel: Kernel) -> None:
            for index in range(events):
                kernel.at(index * 0.5, noop, label="tick")
            kernel.run_until_quiescent()

        # a first run fills the interpreter's tuple free lists, so the
        # heap entries the measured run frees are not counted as kept
        run(Kernel())
        tracemalloc.start()
        try:
            kernel = Kernel()
            before = tracemalloc.get_traced_memory()[0]
            run(kernel)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kernel.executed == events
        assert kept / events <= 48, kept / events


class TestCrashAt:
    def test_crash_and_restart_enacted(self):
        kernel = Kernel()
        network = Network(kernel.clock)
        network.add_workstation("ws-1")
        ups = []
        kernel.crash_at(network, "ws-1", at=5.0, restart_after=2.0)
        kernel.at(6.0, lambda: ups.append(network.node("ws-1").up))
        kernel.at(8.0, lambda: ups.append(network.node("ws-1").up))
        kernel.run_until_quiescent()
        assert ups == [False, True]
        assert [(e.at, e.action) for e in kernel.injections] \
            == [(5.0, "crash"), (7.0, "restart")]

    def test_crash_without_restart(self):
        kernel = Kernel()
        network = Network(kernel.clock)
        network.add_workstation("ws-1")
        kernel.crash_at(network, "ws-1", at=1.0, restart_after=None)
        kernel.run_until_quiescent()
        assert network.node("ws-1").up is False

    def test_nodes_armed_out_of_time_order_crash_in_time_order(self):
        kernel = Kernel()
        network = Network(kernel.clock)
        network.add_server()
        network.add_workstation("ws-1")
        kernel.crash_at(network, "server", at=20.0)
        kernel.crash_at(network, "ws-1", at=10.0, restart_after=2.0)
        kernel.run_until_quiescent()
        assert [e.node for e in kernel.injections
                if e.action == "crash"] == ["ws-1", "server"]
        assert network.node("server").up
        assert network.node("server").crash_count == 1

    def test_a_node_armed_twice_crashes_twice(self):
        kernel = Kernel()
        network = Network(kernel.clock)
        network.add_workstation("ws-1")
        kernel.crash_at(network, "ws-1", at=5.0, restart_after=1.0)
        kernel.crash_at(network, "ws-1", at=10.0, restart_after=1.0)
        kernel.run_until_quiescent()
        assert network.node("ws-1").crash_count == 2
        assert network.node("ws-1").up

    def test_crash_beats_same_instant_work(self):
        kernel = Kernel()
        network = Network(kernel.clock)
        network.add_workstation("ws-1")
        order = []
        kernel.at(5.0, lambda: order.append(
            ("work", network.node("ws-1").up)))
        kernel.crash_at(network, "ws-1", at=5.0, restart_after=None)
        kernel.run_until_quiescent()
        # priority -1: the crash interrupts the same-instant step
        assert order == [("work", False)]


class TestRunBoundariesUntraced:
    """``run(max_events=...)`` and probe-event boundary semantics on
    the one kernel, which always traces: the bounds hold exactly, and
    the event log holds the dispatched events and nothing else."""

    def _kernel(self):
        kernel = Kernel()
        fired: list[float] = []
        for t in (1.0, 2.0, 2.0, 3.0):
            kernel.at(t, lambda t=t: fired.append(t), label=f"e{t}")
        return kernel, fired

    def test_until_is_inclusive_and_advances_the_clock(self):
        kernel, fired = self._kernel()
        mid = probe(kernel, 2.0, lambda: (
            list(fired), kernel.clock.now, kernel.pending,
            list(kernel.events())))
        assert kernel.run() == 5
        # both t=2.0 events dispatch before the probe filed behind them
        assert mid == [([1.0, 2.0, 2.0], 2.0, 1,
                        [(1.0, 0, 1, "e1.0"), (2.0, 0, 2, "e2.0"),
                         (2.0, 0, 3, "e2.0"), (2.0, 0, 5, "probe")])]

    def test_until_between_events_still_advances_the_clock(self):
        kernel, fired = self._kernel()
        mid = probe(kernel, 2.5, lambda: (
            list(fired), kernel.clock.now,
            [seq for _, _, seq, _ in kernel.events()]))
        kernel.run()
        # the probe's instant, not the last event's
        assert mid == [([1.0, 2.0, 2.0], 2.5, [1, 2, 3, 5])]

    def test_max_events_stops_before_the_next_event(self):
        kernel, fired = self._kernel()
        ran = kernel.run(max_events=2)
        assert ran == 2
        assert fired == [1.0, 2.0]
        # the clock sits at the last *executed* event, never past
        # undispatched ones
        assert kernel.clock.now == 2.0
        assert kernel.pending == 2
        assert kernel.events() == [(1.0, 0, 1, "e1.0"), (2.0, 0, 2, "e2.0")]

    def test_max_events_zero_executes_nothing(self):
        kernel, fired = self._kernel()
        assert kernel.run(max_events=0) == 0
        assert fired == []
        assert kernel.pending == 4
        assert kernel.clock.now == 0.0
        assert kernel.events() == []

    def test_bounds_compose_and_runs_resume(self):
        kernel, fired = self._kernel()
        assert kernel.run(max_events=1) == 1
        assert fired == [1.0]
        assert kernel.run() == 3
        assert fired == [1.0, 2.0, 2.0, 3.0]
        assert kernel.pending == 0
        assert [label for *_, label in kernel.events()] \
            == ["e1.0", "e2.0", "e2.0", "e3.0"]
        assert kernel.executed == 4
