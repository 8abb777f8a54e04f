"""Concurrent multi-DA execution on the unified kernel.

These tests exercise the acceptance surface of the kernel refactor:
three or more DAs with genuinely interleaved tool steps on one shared
clock, CM messages delivered to the DM rule engines on arrival,
kernel-injected crashes mid-step, and equivalence of the interleaved
and the one-after-the-other schedule.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.states import DaState
from repro.dc.rules import EcaRule
from repro.dc.script import DaOpStep, DopStep, Script, Sequence
from repro.scenario import compile_scenario, validate_scenario
from repro.scenario.delegation import (
    chip_spec,
    concurrent_delegation_scenario,
    make_vlsi_system,
)
from repro.util.errors import ConcordError
from repro.vlsi.tools import vlsi_dots


def delegation(subcells, *crashes, sequential=False, jitter=0.0, seed=0):
    """Run the ``concurrent_delegation`` kind on *subcells*; each of
    *crashes* is a ``(node, at, restart_after)`` schedule entry."""
    config = validate_scenario({
        "scenario": {"name": "delegation",
                     "kind": "concurrent_delegation", "seed": seed},
        "team": {"subcells": list(subcells)},
        "traffic": {"jitter": jitter},
        "crashes": {"schedule": [
            {"node": node, "at": at, "restart_after": restart_after}
            for node, at, restart_after in crashes]},
    })
    return concurrent_delegation_scenario(config, sequential=sequential)


class TestEveryCommittedPayloadIsPinned:
    """The DOVs that ``team_delegation``'s tables commit at 12 subcells
    (seed 307, jitter 0.2, ws-C01 crashing 15 minutes in), hashed: id,
    DOT, data, parents and payload size of each, in id order.  A
    report's signature covers states, events and devolved ids but no
    payload, so a tool change that moved one placement would pass every
    other pin.  The digest does not depend on ``PYTHONHASHSEED``."""

    DOVS = 53
    DIGEST = ("0d40eb627af140fa4b0b8c3867ff8ad1"
              "47ddff726f492ac971216938a8fb7f52")

    def test_the_committed_payloads_are_the_pinned_ones(self):
        system, report = delegation(
            [f"C{i:02d}" for i in range(12)], ("ws-C01", 15.0, 5.0),
            jitter=0.2, seed=307)
        assert set(report.final_states.values()) \
            == {"active", "terminated"}
        digest = hashlib.sha256()
        dovs = sorted(system.repository.store, key=lambda d: d.dov_id)
        for dov in dovs:
            digest.update(json.dumps([
                dov.dov_id, dov.dot_name, dov.data, list(dov.parents),
                dov.payload_size]).encode() + b"\n")
        assert len(dovs) == self.DOVS
        assert digest.hexdigest() == self.DIGEST


def refine(context, params):
    """Test tool: needs no inputs, halves the width each application."""
    context.data.setdefault("cell", params.get("cell", "c"))
    context.data.setdefault("level", "module")
    context.data["width"] = context.data.get("width", 64.0) / 2.0
    context.data["height"] = context.data["width"]
    context.data["area"] = context.data["width"] ** 2


def worker_script(name: str, steps: int, duration: float) -> Script:
    """*steps* refine DOPs of *duration* minutes each."""
    return Script(Sequence(*[
        DopStep("refine", duration=duration)
        for _ in range(steps)]), name=name)


@pytest.fixture
def trio():
    """Top-level DA with three started sub-DAs on distinct stations."""
    system = make_vlsi_system(("ws-0", "ws-1", "ws-2", "ws-3"))
    system.tools.register("refine", refine, duration=10.0)
    dots = vlsi_dots()
    top = system.init_design(
        dots["Chip"], chip_spec(500, 500), "lead",
        worker_script("top", 1, 5.0), "ws-0",
        initial_data={"cell": "c", "level": "chip",
                      "behavior": {"operations": ["a", "b"]}})
    system.start(top.da_id)
    system.run(top.da_id)
    subs = []
    durations = (30.0, 20.0, 50.0)
    for index, duration in enumerate(durations):
        sub = system.create_sub_da(
            top.da_id, dots["Module"], chip_spec(500, 500),
            f"designer-{index}",
            worker_script(f"sub-{index}", 3, duration),
            f"ws-{index + 1}")
        system.start(sub.da_id)
        subs.append(sub.da_id)
    return system, top, subs


class TestInterleaving:
    def test_three_das_interleave_on_shared_clock(self, trio):
        system, __, subs = trio
        start = system.clock.now
        statuses = system.run_concurrent(subs)
        assert all(s.done for s in statuses.values())
        assert all(s.executed_dops == 3 for s in statuses.values())
        # concurrent makespan = the slowest DA (3 x 50), not the sum
        makespan = system.clock.now - start
        assert makespan == pytest.approx(150.0, abs=1.0)

    def test_event_trace_shows_interleaved_finishes(self, trio):
        system, __, subs = trio
        system.run_concurrent(subs)
        finishes = [label for *__, label in system.kernel.event_log
                    if label.startswith("dop-finish:")]
        owners = [label.split(":")[1] for label in finishes]
        # the finish stream switches DA more often than a serialised
        # per-DA grouping possibly could
        switches = sum(1 for a, b in zip(owners, owners[1:]) if a != b)
        assert switches > len(subs) - 1

    def test_an_unknown_da_is_refused_like_run_refuses_it(self, trio):
        system, __, subs = trio
        with pytest.raises(ConcordError, match="no runtime for DA "
                                               "'da-nope'"):
            system.run_concurrent(subs + ["da-nope"])
        with pytest.raises(ConcordError, match="no runtime for DA "
                                               "'da-nope'"):
            system.run("da-nope")
        assert system.kernel.executed == 0


class TestAutoDelivery:
    def test_ready_to_commit_auto_dispatched(self):
        """The full delegation round trip with no manual pump."""
        __, report = delegation(("A", "B", "C"))
        assert all(state == "terminated"
                   for da, state in report.final_states.items()
                   if da != report.top_da)
        assert len(report.devolved) == 3
        assert all(report.devolved.values())

    def test_concurrent_matches_sequential_path(self):
        sys_c, rep_c = delegation(("A", "B"))
        sys_s, rep_s = delegation(("A", "B"), sequential=True)
        assert rep_c.final_states == rep_s.final_states
        # the sequential run is a schedule on the same kernel: it
        # executes the same work, one sub-DA after the other
        assert rep_s.events == rep_c.events > 0
        for cell in ("A", "B"):
            leaves_c = sorted(
                round(d.data.get("width", 0.0), 3) for d in
                sys_c.repository.graph(rep_c.sub_das[cell]).leaves())
            leaves_s = sorted(
                round(d.data.get("width", 0.0), 3) for d in
                sys_s.repository.graph(rep_s.sub_das[cell]).leaves())
            assert leaves_c == leaves_s

    def test_interleaving_beats_sequential_makespan(self):
        __, rep_c = delegation(("A", "B", "C"))
        __, rep_s = delegation(("A", "B", "C"), sequential=True)
        assert rep_c.makespan < rep_s.makespan / 2


class TestNegotiationWhileWorking:
    def test_siblings_negotiate_while_third_works(self, trio):
        system, top, subs = trio
        da_a, da_b, da_c = subs
        proposals = []

        # B agrees to whatever A proposes, as the message arrives
        system.runtime(da_b).dm.rules.register(EcaRule(
            "auto-agree", "Propose",
            lambda env: True,
            lambda env: (proposals.append(env["proposal"]),
                         system.cm.agree(da_b, env["proposal"]))))

        # A opens the negotiation mid-run, while C is inside a DOP
        system.kernel.after(
            25.0, lambda: system.cm.propose(da_a, da_b, changes={},
                                            note="border"),
            label="designer:propose")

        statuses = system.run_concurrent(subs)
        assert proposals, "the proposal never reached B's rule engine"
        assert system.cm.da(da_a).state is DaState.ACTIVE
        assert system.cm.da(da_b).state is DaState.ACTIVE
        # the worker under delegation was never disturbed
        assert statuses[da_c].done
        assert statuses[da_c].executed_dops == 3
        # A and B resumed and finished their own work flows too
        assert statuses[da_a].done and statuses[da_b].done


def ready_script(name: str, duration: float) -> Script:
    """One refine DOP, then Evaluate and Sub_DA_Ready_To_Commit: the
    sub-DA's message reaches its super-DA at ``duration`` + latency."""
    return Script(Sequence(DopStep("refine", duration=duration),
                           DaOpStep("Evaluate"),
                           DaOpStep("Sub_DA_Ready_To_Commit")), name=name)


def module_data(width):
    return {"cell": "m", "level": "module", "width": width,
            "height": width, "area": width * width}


class TestTheDmWaits:
    """A DM is stepped when something it waits on happens — its own
    step, a message to it, a CM call into its hook, a restart — and at
    no other time."""

    def _team(self, scripts):
        """A top DA (already run) and one started sub-DA per script,
        each on its own workstation."""
        system = make_vlsi_system(tuple(f"ws-{i}"
                                        for i in range(len(scripts) + 1)))
        system.tools.register("refine", refine, duration=10.0)
        dots = vlsi_dots()
        top = system.init_design(
            dots["Chip"], chip_spec(500, 500), "lead",
            worker_script("top", 1, 5.0), "ws-0",
            initial_data={"cell": "c", "level": "chip"})
        system.start(top.da_id)
        system.run(top.da_id)
        subs = []
        for index, script in enumerate(scripts, start=1):
            sub = system.create_sub_da(
                top.da_id, dots["Module"], chip_spec(500, 500),
                f"designer-{index}", script, f"ws-{index}")
            system.start(sub.da_id)
            subs.append(sub.da_id)
        return system, top.da_id, subs

    def test_a_spec_modification_restarts_a_finished_sub_da_at_once(self):
        """The top DM's rule reformulates the goal of a sub-DA whose
        script is done; the CM's hook call wakes it at that instant
        (the message to it arrives 0.01 later and finds it busy)."""
        system, top, (done, reporter) = self._team(
            [worker_script("x", 2, 10.0), ready_script("w", 30.0)])
        system.runtime(top).dm.rules.register(EcaRule(
            "reformulate", "Ready_To_Commit", lambda env: True,
            lambda env: system.cm.modify_sub_da_specification(
                top, done, chip_spec(400, 400))))
        start = system.clock.now
        statuses = system.run_concurrent([done, reporter])
        dm = system.runtime(done).dm
        assert statuses[done].done and not statuses[done].stopped
        assert dm.executed_tools == ["refine", "refine"]
        assert dm.executed_dops == 4
        assert system.cm.da(done).state is DaState.ACTIVE
        assert system.cm.da(reporter).state \
            is DaState.READY_FOR_TERMINATION
        # restarted at 30.01 (the arrival of the reporter's message),
        # two 10-minute DOPs; the run ends when the last checkin's
        # invalidations have reached the other stations
        finishes = [round(time - start, 6) for time, *__, label
                    in system.kernel.event_log
                    if label == f"dop-finish:{done}:refine"]
        assert finishes == [10.0, 20.0, 40.01, 50.01]
        assert system.clock.now - start == pytest.approx(50.020095)

    def test_a_dm_stopped_by_a_withdrawal_waits_for_its_own_event(self):
        """The consumer used a pre-released DOV that is withdrawn while
        it works: it stops, and two later messages to *another* DA do
        not step it — only the proposal addressed to it does."""
        system, __, (supplier, consumer, *reporters) = self._team([
            worker_script("s", 1, 10.0),
            Script(Sequence(*[DopStep("refine", duration=10.0)
                              for _ in range(3)]), name="c"),
            ready_script("w1", 25.0), ready_script("w2", 40.0)])
        dov = system.repository.checkin(supplier, "Module",
                                        module_data(10.0)).dov_id
        system.cm.evaluate(supplier, dov)
        system.cm.require(consumer, supplier, {"width-limit"})
        system.cm.propagate(supplier, dov)
        # the consumer's graph is empty: its first DOP checks out the
        # delivered DOV (``ActivityBinding.pick_inputs``)
        start = system.clock.now
        system.kernel.after(15.0, lambda: system.cm.invalidate_propagation(
            supplier, dov), label="designer:invalidate")
        system.kernel.after(50.0, lambda: system.cm.propose(
            supplier, consumer, changes={}, note="border"),
            label="designer:propose")
        statuses = system.run_concurrent([supplier, consumer, *reporters])
        assert statuses[consumer].stopped
        assert statuses[consumer].executed_dops == 2
        log = [(time - start, label)
               for time, *__, label in system.kernel.event_log]
        reported = [t for t, label in log
                    if label.startswith("msg:ready_to_commit:")]
        assert len(reported) == 2 and min(reported) > 20.0
        proposal = [t for t, label in log
                    if label == f"msg:proposal:{supplier}->{consumer}"]
        after_stop = [t for t, label in log
                      if label == f"da-step:{consumer}" and t > 15.0]
        assert after_stop == proposal


class TestKernelCrashRecovery:
    def test_workstation_crash_mid_step_recovers(self):
        system, report = delegation(("A", "B", "C"), ("ws-B", 15.0, 5.0))
        # the crash interrupted an in-flight DOP; forward recovery
        # resumed it (report captured by the kernel restart path)
        b_id = report.sub_das["B"]
        assert b_id in system.last_recovery_reports
        resumed = system.last_recovery_reports[b_id]["in_flight_resumed"]
        assert resumed is not None
        assert [(e.action, e.node) for e in system.kernel.injections] \
            == [("crash", "ws-B"), ("restart", "ws-B")]
        # ... and the scenario still converged fully
        assert all(state == "terminated"
                   for da, state in report.final_states.items()
                   if da != report.top_da)

    def test_crash_devolution_matches_sequential(self):
        sys_x, rep_x = delegation(("A", "B", "C"), ("ws-B", 15.0, 5.0))
        sys_s, rep_s = delegation(("A", "B", "C"), sequential=True)
        assert rep_x.final_states == rep_s.final_states
        assert set(rep_x.devolved) == set(rep_s.devolved)
        for cell in ("A", "B", "C"):
            devolved_x = [sys_x.repository.read(d).data.get("width")
                          for d in rep_x.devolved[rep_x.sub_das[cell]]]
            devolved_s = [sys_s.repository.read(d).data.get("width")
                          for d in rep_s.devolved[rep_s.sub_das[cell]]]
            assert [round(w, 3) for w in devolved_x] \
                == [round(w, 3) for w in devolved_s]

    def test_server_crash_mid_scenario_recovers(self):
        """Acceptance: kernel-injected server crash + restart recovers
        to the same committed state as the sequential equivalent."""
        sys_x, rep_x = delegation(("A", "B", "C"), ("server", 35.0, 5.0))
        sys_s, rep_s = delegation(("A", "B", "C"), sequential=True)
        assert [(e.action, e.node) for e in sys_x.kernel.injections] \
            == [("crash", "server"), ("restart", "server")]
        assert rep_x.final_states == rep_s.final_states
        for cell in ("A", "B", "C"):
            leaves_x = sorted(
                round(d.data.get("width", 0.0), 3) for d in
                sys_x.repository.graph(rep_x.sub_das[cell]).leaves())
            leaves_s = sorted(
                round(d.data.get("width", 0.0), 3) for d in
                sys_s.repository.graph(rep_s.sub_das[cell]).leaves())
            assert leaves_x == leaves_s


class TestDeterminismGuard:
    """Protects the kernel's (time, priority, seq) tie-breaking."""

    def test_identical_seeded_runs_produce_identical_traces(self):
        __, first = delegation(("A", "B", "C"), jitter=0.5, seed=11)
        __, second = delegation(("A", "B", "C"), jitter=0.5, seed=11)
        assert first.signature == second.signature
        assert first.makespan == second.makespan
        assert first.events == second.events

    def test_different_seeds_change_the_jittered_trace(self):
        __, first = delegation(("A", "B", "C"), jitter=0.5, seed=11)
        __, second = delegation(("A", "B", "C"), jitter=0.5, seed=12)
        # same event structure, different jittered end time
        assert first.makespan != second.makespan

    def test_crash_runs_are_deterministic_too(self):
        __, first = delegation(("A", "B"), ("ws-A", 12.0, 3.0))
        __, second = delegation(("A", "B"), ("ws-A", 12.0, 3.0))
        assert first.signature == second.signature

    def test_cached_run_with_invalidations_is_deterministic(self):
        """Object buffers add sized fetches and asynchronous lease
        invalidations to the event stream — all of them must stay
        ordinary timed events under the (time, priority, seq) tie
        break."""
        compiled = compile_scenario(validate_scenario({
            "scenario": {"name": "t8", "kind": "object_buffers",
                         "seed": 11},
            "writes": {"ratio": 0.5}, "traffic": {"jitter": 0.2}}))
        first, second = compiled.run(), compiled.run()
        # the run genuinely exercises the cached + invalidation path
        assert first.hits > 0
        assert first.invalidations_applied > 0
        assert first.signature == second.signature
        assert first.makespan == second.makespan
        assert first.bytes_shipped == second.bytes_shipped

    def test_caching_on_off_execute_the_same_sessions(self):
        cached, uncached = (
            compile_scenario(validate_scenario({
                "scenario": {"name": "t8", "kind": "object_buffers",
                             "seed": 11},
                "buffers": {"caching": caching}})).run()
            for caching in (True, False))
        assert cached.checkins == uncached.checkins
        assert cached.bytes_shipped < uncached.bytes_shipped
        assert cached.makespan < uncached.makespan


class TestAbandonedStart:
    """A DOP start that dies on a down server must not leak."""

    def _rig(self):
        system = make_vlsi_system(("ws-1",))
        system.tools.register("refine", refine, duration=10.0)
        dots = vlsi_dots()
        da = system.init_design(
            dots["Chip"], chip_spec(500, 500), "d",
            worker_script("w", 2, 10.0), "ws-1",
            initial_data={"cell": "c", "level": "chip"})
        system.start(da.da_id)
        return system, da

    def test_half_begun_dop_is_dropped_and_retried(self):
        from repro.util.errors import RpcError

        system, da = self._rig()
        runtime = system.runtime(da.da_id)
        system.crash_server()
        # checkout of DOV0 hits the dead server after Begin-of-DOP
        with pytest.raises(RpcError):
            runtime.dm.start_step()
        assert runtime.dm.in_flight is not None
        runtime.dm.abandon_start()
        assert runtime.dm.in_flight is None
        assert runtime.client_tm.active_dops() == []
        # after the restart the step retries with a fresh DOP
        system.restart_server()
        assert runtime.dm.step() is True
        assert runtime.dm.executed_dops == 1

    def test_no_orphan_dops_after_concurrent_server_crash(self):
        system, report = delegation(("A", "B", "C"), ("server", 35.0, 5.0))
        for cell, da_id in report.sub_das.items():
            assert system.runtime(da_id).client_tm.active_dops() == [], \
                f"orphaned active DOP left behind for {cell}"
