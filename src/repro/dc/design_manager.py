"""The design manager (DM).

"The DM has to enforce the work flow within its DA and to handle
external events caused by cooperating DAs" (Sect.5.3).  One DM instance
runs per DA on that DA's workstation.  Its duties, each implemented
here:

* **work-flow management** — interpret the DA's script via
  :class:`~repro.dc.script.ScriptCursor`; "whenever the work flow is
  unambiguous, the DM provides automatic execution", otherwise a
  :class:`DesignerPolicy` (the modelled designer) supplies decisions;
* **DOP execution** — Begin-of-DOP, checkout of the input DOVs, tool
  processing, checkin, End-of-DOP, with domain-constraint admission
  before every start;
* **logging** — "a log entry capturing all DOP parameters is written
  for each start and finish of a DOP execution", plus every script
  decision, to the workstation's stable log;
* **external events** — specification modification (restart, possibly
  from a designer-chosen DOV) and withdrawal of a pre-released DOV
  (log analysis: was it used?);
* **failure handling** — after a workstation crash, rebuild the script
  position by replaying the persistent log (forward recovery) and
  resume the in-flight DOP from its recovery point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from repro.dc.constraints import DomainConstraintSet
from repro.dc.rules import RuleEngine
from repro.dc.script import (
    ActionKind,
    DaOpStep,
    DopStep,
    EnabledAction,
    Iteration,
    Script,
)
from repro.repository.versions import FrozenList, freeze_payload
from repro.repository.wal import LogRecordKind, WriteAheadLog
from repro.te.context import DopContext
from repro.te.dop import DesignOperation
from repro.te.transaction_manager import CheckinResult, ClientTM
from repro.util.errors import (
    ConstraintViolationError,
    RecoveryError,
    WorkflowError,
)
from repro.util.trace import EventTrace, Level


#: simulated running time of a tool registered without one
TOOL_DURATION = 10.0
#: steps one :meth:`DesignManager.run` takes at most: the guard
#: against a designer policy that never leaves a loop
STEP_BUDGET = 10_000


class ToolRegistry:
    """Executable design tools, keyed by the tool names scripts use."""

    def __init__(self) -> None:
        self._tools: dict[str, Callable[[DopContext, dict[str, Any]],
                                        None]] = {}
        self._durations: dict[str, float] = {}

    def register(self, name: str,
                 fn: Callable[[DopContext, dict[str, Any]], None],
                 duration: float = TOOL_DURATION) -> None:
        """Register tool *name*; *fn* mutates the DOP context in place."""
        self._tools[name] = fn
        self._durations[name] = duration

    def run(self, name: str, context: DopContext,
            params: dict[str, Any]) -> None:
        """Apply tool *name* to *context*."""
        try:
            fn = self._tools[name]
        except KeyError:
            raise WorkflowError(f"no tool registered as {name!r}") from None
        fn(context, params)

    def duration(self, name: str) -> float:
        """Simulated running time of *name*."""
        return self._durations.get(name, TOOL_DURATION)

    def __contains__(self, name: str) -> bool:
        return name in self._tools

    def names(self) -> list[str]:
        """Registered tool names, sorted."""
        return sorted(self._tools)


class DaBinding(Protocol):
    """What the DM needs to know about its DA (implemented at AC level)."""

    @property
    def da_id(self) -> str:
        """The DA's identifier."""
        ...

    @property
    def dot_name(self) -> str:
        """The DOT new versions are checked in under."""
        ...

    def pick_inputs(self, step: DopStep) -> list[str]:
        """DOV ids to check out as inputs of *step*."""
        ...

    def da_operation(self, operation: str, params: dict[str, Any]) -> Any:
        """Execute an AC-level DA operation embedded in the script."""
        ...


class DesignerPolicy:
    """Default modelled designer: fully automatic where possible.

    "Whenever the work flow is unambiguous, the DM provides automatic
    execution" — this base policy also resolves the ambiguous points
    with neutral defaults (first alternative, exit loops, close open
    segments, abort failed checkins), so scripts run unattended.
    Workload agents and tests override individual decisions.
    """

    def choose_enabled(self,
                       actions: list[EnabledAction]) -> EnabledAction:
        """Pick which of several concurrently enabled actions runs next."""
        return actions[0]

    def choose_alternative(self, action: EnabledAction) -> int:
        """Pick a path index for an Alternative."""
        return 0

    def loop_decision(self, action: EnabledAction) -> str:
        """'again' or 'exit' for an Iteration that finished a round."""
        return "exit"

    def open_decision(self, action: EnabledAction) -> Any:
        """('insert', tool) or 'close' for an Open segment."""
        return "close"

    def dop_params(self, step: DopStep) -> dict[str, Any]:
        """Start parameters for a DOP ("the designer has to specify
        input parameters for the design tools", Sect.5.1): the step's
        own frozen ones; a policy that changes them returns a new dict."""
        return step.params

    def on_checkin_failure(self, step: DopStep, reason: str) -> str:
        """'retry' | 'skip' | 'stop' after the paper's checkin-failure."""
        return "stop"


@dataclass
class DmStatus:
    """Snapshot of a DM's progress (examples/benchmarks print this)."""

    da_id: str
    done: bool
    stopped: bool
    executed_dops: int
    aborted_dops: int
    pending_actions: list[str] = field(default_factory=list)


@dataclass
class PendingDop:
    """A DOP started under the concurrent kernel, awaiting its finish.

    :meth:`DesignManager.start_step` performs Begin-of-DOP and the
    checkouts at the start instant and hands this descriptor to the
    driver, which schedules :meth:`DesignManager.finish_step` at
    ``start + remaining`` — the tool's processing occupies a real span
    of simulated time during which other DAs' events interleave.
    """

    dop: DesignOperation
    action: EnabledAction
    step: DopStep
    params: dict[str, Any]
    #: full tool duration of the step
    duration: float
    #: work still to apply (smaller than *duration* after a recovery)
    remaining: float
    #: set once the tool work/mutation was applied (guards re-checkin)
    worked: bool = False


class DesignManager:
    """Work-flow executor for one DA on one workstation."""

    def __init__(self, binding: DaBinding, client_tm: ClientTM,
                 script: Script, tools: ToolRegistry,
                 constraints: DomainConstraintSet | None = None,
                 rules: RuleEngine | None = None,
                 trace: EventTrace | None = None) -> None:
        self.binding = binding
        self.client_tm = client_tm
        self.tools = tools
        self.constraints = constraints if constraints is not None \
            else DomainConstraintSet()
        self.rules = rules if rules is not None else RuleEngine()
        self.trace = trace if trace is not None else EventTrace(enabled=False)
        self.clock = client_tm.clock
        node = client_tm.node
        self.node = node

        # persistent script: survives workstation crashes (Sect.5.3
        # requires "a persistent script")
        node.stable.put(self._script_key(), script)
        self.script = script
        self.cursor = script.cursor()

        # persistent DM log
        self.log = WriteAheadLog(f"dm-log:{binding.da_id}")
        node.on_crash.append(self._on_crash)

        #: set when an external event or failure needs designer attention
        self.stopped = False
        self.stop_reason = ""
        #: designer-chosen restart basis after a spec modification
        self.restart_dov: str | None = None
        self.executed_dops = 0
        self.aborted_dops = 0
        #: tool names of successfully completed DOPs, in order
        self.executed_tools: list[str] = []
        #: the DOP currently being executed, if any (volatile)
        self._in_flight: DesignOperation | None = None
        #: the modelled designer who resolves the script's choices
        self.policy = DesignerPolicy()

    # -- infrastructure --------------------------------------------------------

    def _script_key(self) -> str:
        return f"dm-script:{self.binding.da_id}"

    def _record(self, operation: str, subject: str = "",
                **detail: Any) -> None:
        # callers that format a value for a row test trace.enabled
        # themselves: a trace that is off costs no string work
        if self.trace.enabled:
            self.trace.record(self.clock.now, Level.DC,
                              f"DM:{self.binding.da_id}", operation,
                              subject, **detail)

    def _on_crash(self) -> None:
        self.log.crash()
        self._in_flight = None

    # -- work-flow execution ----------------------------------------------------

    def status(self) -> DmStatus:
        """Current progress snapshot."""
        return DmStatus(
            da_id=self.binding.da_id,
            done=self.cursor.is_done(),
            stopped=self.stopped,
            executed_dops=self.executed_dops,
            aborted_dops=self.aborted_dops,
            pending_actions=[a.token for a in self.cursor.enabled()],
        )

    def has_work(self) -> bool:
        """False once the script is done or the DM is stopped: only an
        external event or a recovery gives it work again."""
        return not self.stopped and not self.cursor.is_done()

    def step(self) -> bool:
        """Execute one work-flow action; False when nothing ran.

        Returns False when the script is done, the DM is stopped
        (designer attention required), or no action is enabled.
        """
        outcome = self.start_step()
        if isinstance(outcome, PendingDop):
            # sequential semantics: the tool runs to completion in-line,
            # advancing the shared clock by its duration
            return self.finish_step(outcome, advance_clock=True)
        return outcome

    def start_step(self) -> "PendingDop | bool":
        """Begin one work-flow action (the concurrent-mode step).

        Instantaneous actions (decisions, embedded DA operations) run
        to completion and return True.  A DOP is only *started* —
        Begin-of-DOP, durable start log, checkouts — and its
        :class:`PendingDop` is returned; the caller owns scheduling
        :meth:`finish_step` once the tool's duration has elapsed.
        Returns False when nothing is enabled (done / stopped / a
        domain constraint rejected the start).
        """
        if not self.has_work():
            return False
        policy = self.policy
        actions = self.cursor.enabled()
        if not actions:
            return False
        action = actions[0] if len(actions) == 1 \
            else policy.choose_enabled(actions)

        if action.kind is ActionKind.DOP:
            assert isinstance(action.node, DopStep)
            pending = self._start_dop(action, action.node)
            return pending if pending is not None else False
        if action.kind is ActionKind.DA_OP:
            assert isinstance(action.node, DaOpStep)
            result = self.binding.da_operation(action.node.operation,
                                               dict(action.node.params))
            self._fire(action.token, None)
            if self.trace.enabled:
                self._record("da_operation", action.node.operation,
                             result=str(result)[:80])
            return True
        if action.kind is ActionKind.CHOICE:
            decision = policy.choose_alternative(action)
            self._fire(action.token, decision)
            self._record("choose_alternative", action.token, path=decision)
            return True
        if action.kind is ActionKind.LOOP:
            decision = policy.loop_decision(action)
            node = action.node
            if (decision == "again" and isinstance(node, Iteration)
                    and node.max_rounds
                    and action.options >= node.max_rounds):
                # the template allows no further round; the DM exits the
                # loop instead of failing the designer's request
                decision = "exit"
            self._fire(action.token, decision)
            self._record("loop_decision", action.token, decision=decision)
            return True
        if action.kind is ActionKind.OPEN:
            decision = policy.open_decision(action)
            if (isinstance(decision, tuple) and decision[0] == "insert"
                    and decision[1] not in self.tools):
                raise WorkflowError(
                    f"designer inserted unknown tool {decision[1]!r}")
            self._fire(action.token, decision)
            if self.trace.enabled:
                self._record("open_decision", action.token,
                             decision=str(decision))
            return True
        raise WorkflowError(f"unhandled action kind {action.kind}")

    def run(self) -> DmStatus:
        """Drive the script until done, stopped, or :data:`STEP_BUDGET`
        steps."""
        steps = 0
        while steps < STEP_BUDGET and self.step():
            steps += 1
        return self.status()

    def _fire(self, token: str, decision: Any) -> None:
        """Advance the cursor and durably log the script position."""
        self.cursor.fire(token, decision)
        self.log.append(LogRecordKind.SCRIPT_POSITION,
                        {"token": token, "decision": decision}, force=True)

    # -- DOP execution -----------------------------------------------------------

    def _start_dop(self, action: EnabledAction,
                   step: DopStep) -> PendingDop | None:
        """Begin-of-DOP + checkouts; returns None on constraint reject."""
        # domain admission: even Open-segment insertions obey the rules
        try:
            self.constraints.admit(self.executed_tools, step.tool)
        except ConstraintViolationError as exc:
            self.stopped = True
            self.stop_reason = str(exc)
            self._record("constraint_rejected", step.tool,
                         error=self.stop_reason)
            return None

        params = self.policy.dop_params(step)
        inputs = self.binding.pick_inputs(step)
        if self.restart_dov is not None:
            # after a spec modification the designer chose this basis
            inputs = [self.restart_dov]
            self.restart_dov = None

        dop = self.client_tm.begin_dop(self.binding.da_id, step.tool)
        self._in_flight = dop
        # the step's frozen parameters are logged as they are; a
        # policy's own dict is frozen here, once
        self.log.append(LogRecordKind.DOP_START, {
            "dop": dop.dop_id, "token": action.token, "tool": step.tool,
            "params": freeze_payload(params), "inputs": FrozenList(inputs),
        }, force=True)
        self._record("dop_start", dop.dop_id, tool=step.tool)

        for dov_id in inputs:
            self.client_tm.checkout(dop, dov_id)
            self.log.append(LogRecordKind.DOV_USED,
                            {"dop": dop.dop_id, "dov": dov_id}, force=True)

        duration = step.duration or self.tools.duration(step.tool)
        return PendingDop(dop, action, step, params, duration, duration)

    def finish_step(self, pending: PendingDop,
                    advance_clock: bool = False) -> bool:
        """Complete a started DOP: tool work, checkin, End-of-DOP.

        Under the concurrent kernel this runs as its own event at the
        DOP's finish instant (``advance_clock=False`` — the kernel
        already advanced the shared clock); the sequential :meth:`step`
        calls it in-line with ``advance_clock=True``.  Returns False
        when the DOP no longer exists on this DM — its workstation
        crashed between start and finish, and recovery owns it now.
        """
        dop, step = pending.dop, pending.step
        if self._in_flight is not dop \
                or dop.dop_id not in {d.dop_id for d
                                      in self.client_tm.active_dops()}:
            return False
        if not pending.worked:
            self.client_tm.work(
                dop, pending.remaining,
                mutate=lambda ctx: self.tools.run(step.tool, ctx,
                                                  pending.params),
                advance_clock=advance_clock)
            pending.worked = True

        result = self.client_tm.checkin(dop, self.binding.dot_name)
        if result.success:
            self._finish_dop(dop, pending.action, step)
            return True
        return self._handle_checkin_failure(dop, pending.action, step,
                                            result)

    def abandon_start(self) -> None:
        """Discard a DOP whose start could not complete.

        Used by the concurrent driver when the server goes down
        between Begin-of-DOP and the first checkout: the half-begun
        DOP is dropped locally and a closing log record is written so
        recovery never mistakes it for in-flight work; the retried
        step begins a fresh DOP.  No-op without an in-flight DOP.
        """
        dop = self._in_flight
        if dop is None:
            return
        self.client_tm.drop_dop(dop)
        self._in_flight = None
        self.log.append(LogRecordKind.DOP_FINISH, {
            "dop": dop.dop_id, "token": "", "tool": dop.tool,
            "outcome": "abandoned",
        }, force=True)
        self._record("dop_abandoned", dop.dop_id, tool=dop.tool)

    def resume_pending(self) -> PendingDop | None:
        """Rebuild the pending-completion descriptor after a recovery.

        :meth:`recover` resumes an in-flight DOP from its recovery
        point; under the concurrent kernel the driver then needs the
        start-time parameters back to reschedule the finish.  They are
        reconstructed from the durable DOP_START record (its script
        token is still enabled — the position only fires at finish).
        ``remaining`` is the tool duration minus the work that
        survived in the recovery point.
        """
        dop = self._in_flight
        if dop is None:
            return None
        finished = {r.payload["dop"] for r in
                    self.log.stable_records(LogRecordKind.DOP_FINISH)}
        starts = [r.payload for r in
                  self.log.stable_records(LogRecordKind.DOP_START)
                  if r.payload["dop"] not in finished]
        if not starts:
            return None
        payload = starts[-1]
        action = next((a for a in self.cursor.enabled()
                       if a.token == payload["token"]), None)
        if action is None or not isinstance(action.node, DopStep):
            return None
        step = action.node
        duration = step.duration or self.tools.duration(step.tool)
        remaining = max(0.0, duration - dop.context.work_done)
        return PendingDop(dop, action, step, dict(payload["params"]),
                          duration, remaining)

    def _finish_dop(self, dop: DesignOperation, action: EnabledAction,
                    step: DopStep) -> None:
        self.client_tm.commit_dop(dop)
        self._in_flight = None
        self.executed_dops += 1
        self.executed_tools.append(step.tool)
        self._fire(action.token, None)
        self.log.append(LogRecordKind.DOP_FINISH, {
            "dop": dop.dop_id, "token": action.token, "tool": step.tool,
            "outcome": "commit",
            "output": dop.output_dov,
        }, force=True)
        self._record("dop_commit", dop.dop_id, tool=step.tool,
                     output=dop.output_dov)

    def _handle_checkin_failure(self, dop: DesignOperation,
                                action: EnabledAction, step: DopStep,
                                result: CheckinResult) -> bool:
        """The paper's 'checkin failure': report to designer policy."""
        self.client_tm.abort_dop(dop)
        self._in_flight = None
        self.aborted_dops += 1
        self.log.append(LogRecordKind.DOP_FINISH, {
            "dop": dop.dop_id, "token": action.token, "tool": step.tool,
            "outcome": "abort", "reason": result.reason,
        }, force=True)
        self._record("dop_abort", dop.dop_id, tool=step.tool,
                     reason=result.reason)
        reaction = self.policy.on_checkin_failure(step, result.reason)
        if reaction == "retry":
            return True  # position still enabled; next step() retries
        if reaction == "skip":
            self._fire(action.token, None)
            return True
        self.stopped = True
        self.stop_reason = f"checkin failure: {result.reason}"
        return False

    # -- external events (Sect.5.3 "Coping with External Events") -----------------

    def on_specification_modified(self,
                                  restart_dov: str | None = None) -> None:
        """Super-DA modified the spec: restart the script from scratch.

        "DA execution has to be restarted from the beginning.  However,
        the designer may choose any previously derived DOV as a
        starting point for the new activation."
        """
        self.cursor = self.script.cursor()
        self.executed_tools.clear()
        self.restart_dov = restart_dov
        self.stopped = False
        self.stop_reason = ""
        self.log.append(LogRecordKind.COOP_OPERATION, {
            "event": "spec_modified", "restart_dov": restart_dov,
        }, force=True)
        self._record("spec_modified_restart", restart_dov or "<none>")

    def on_withdrawal(self, dov_id: str) -> bool:
        """A pre-released DOV was withdrawn: was it used locally?

        "The DM of the requiring DA has to analyze (its log data),
        whether the pre-released DOV was used within a local DOP thus
        affecting locally derived DOVs.  If this is the case, the
        processing needs to be stopped and the designer has to decide
        on how to continue."  Returns True when processing stopped.
        """
        used = any(r.payload.get("dov") == dov_id
                   for r in self.log.stable_records(LogRecordKind.DOV_USED))
        self._record("withdrawal_analysis", dov_id, used=used)
        if used:
            self.stopped = True
            self.stop_reason = f"withdrawn DOV {dov_id} was used locally"
        return used

    def designer_continue(self) -> None:
        """The designer decided current work is unaffected; carry on.

        "there is no necessity for the designer to invalidate his own
        results, if he concludes ... that his current work is not
        negatively influenced by that withdrawal."
        """
        self.stopped = False
        self.stop_reason = ""
        self._record("designer_continue")

    # -- failure handling (workstation crash) ----------------------------------------

    def recover(self) -> dict[str, Any]:
        """Forward recovery after a workstation crash.

        Rebuilds the cursor by replaying the stable log's script
        positions over the persistent script, then resumes the
        in-flight DOP (if any) from its TE-level recovery point.  A
        specification modification restarted the script: only what
        its last record is followed by is replayed, and the restart
        basis it named is restored unless a DOP since consumed it.
        Returns a report used by experiment F8.
        """
        script = self.node.stable.get(self._script_key())
        if script is None:
            raise RecoveryError(
                f"no persistent script for DA {self.binding.da_id!r}")
        self.script = script
        self.cursor = script.cursor()
        restarts = [r for r in
                    self.log.stable_records(LogRecordKind.COOP_OPERATION)
                    if r.payload["event"] == "spec_modified"]
        since = restarts[-1].lsn if restarts else 0
        positions = [r for r in
                     self.log.stable_records(LogRecordKind.SCRIPT_POSITION)
                     if r.lsn > since]
        # the log keeps a decision as it was fired: an Open insertion
        # is still its ('insert', tool) tuple
        self.cursor.replay([(record.payload["token"],
                             record.payload["decision"])
                            for record in positions])

        # rebuild executed-tool history from finish records
        finishes = self.log.stable_records(LogRecordKind.DOP_FINISH)
        self.executed_tools = [
            r.payload["tool"] for r in finishes
            if r.payload["outcome"] == "commit" and r.lsn > since]
        self.executed_dops = sum(
            1 for r in finishes if r.payload["outcome"] == "commit")
        self.aborted_dops = sum(
            1 for r in finishes if r.payload["outcome"] == "abort")
        starts = self.log.stable_records(LogRecordKind.DOP_START)
        # the first DOP after the restart consumed the basis it named
        consumed = bool(starts) and starts[-1].lsn > since
        self.restart_dov = restarts[-1].payload["restart_dov"] \
            if restarts and not consumed else None

        # find an in-flight DOP: started but never finished
        finished = {r.payload["dop"] for r in finishes}
        in_flight = [r.payload for r in starts
                     if r.payload["dop"] not in finished]
        resumed = None
        if in_flight:
            payload = in_flight[-1]
            try:
                dop, point_time = self.client_tm.recover_dop(
                    payload["dop"], self.binding.da_id, payload["tool"])
                self._in_flight = dop
                resumed = {"dop": dop.dop_id, "tool": payload["tool"],
                           "recovered_work": dop.context.work_done,
                           "point_time": point_time}
            except RecoveryError:
                resumed = {"dop": payload["dop"], "tool": payload["tool"],
                           "recovered_work": 0.0, "point_time": None}
        report = {
            "script_positions_replayed": len(positions),
            "executed_dops": self.executed_dops,
            "in_flight_resumed": resumed,
        }
        if self.trace.enabled:
            self._record("dm_recovered", self.binding.da_id, **{
                k: str(v) for k, v in report.items()})
        return report

    @property
    def in_flight(self) -> DesignOperation | None:
        """The DOP currently executing on this DM (volatile)."""
        return self._in_flight
