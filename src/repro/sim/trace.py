"""Kernel trace record/replay — the determinism regression oracle.

The kernel already logs every executed event and reads it back as
``(time, priority, seq, label)`` tuples
(:meth:`repro.sim.scheduler.EventScheduler.events`), and the
``(time, priority, seq)`` tie-breaking makes that stream a complete,
reproducible fingerprint of a seeded run.  This module turns the
stream into a first-class artifact:

* :func:`record_scenario` runs a compiled scenario
  (:mod:`repro.scenario`) and captures its full event stream as a
  :class:`KernelTrace`;
* :func:`save_trace` / :func:`load_trace` persist it as a **versioned
  JSONL file** (one header object, then one ``[time, priority, seq,
  label]`` array per event) whose bytes are deterministic — committing
  a golden trace turns determinism into a *byte-level* regression
  gate;
* :func:`replay_trace` re-runs the scenario embedded in a trace's
  header and diffs the fresh stream against the recorded one;
* :func:`diff_traces` reports the **first divergence** structurally —
  index, expected vs actual event, and the common context leading in —
  so a failed replay names the exact event where a refactor changed
  the simulation instead of a bare "signatures differ".

The header embeds the *complete* scenario definition, so a trace file
is self-contained: replaying it needs no access to the ``.toml`` it
was recorded from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # lazy at runtime: sim must not import the scenario/
    from repro.scenario.schema import ScenarioConfig  # pragma: no cover
    from repro.sim.kernel import Kernel  # pragma: no cover

#: format tag of the JSONL artifact; bump on any layout change so a
#: stale golden trace fails loudly instead of diffing nonsense
TRACE_FORMAT = "concord-kernel-trace/1"
#: events before a divergence that a :class:`TraceDiff` shows
DIFF_CONTEXT = 3

#: one executed kernel event, as the kernel's log view gives it
TraceEvent = tuple[float, int, int, str]


class TraceError(ValueError):
    """A trace artifact that cannot be loaded or replayed."""


# ---------------------------------------------------------------------------
# the trace artifact
# ---------------------------------------------------------------------------

@dataclass
class KernelTrace:
    """A recorded kernel event stream plus its provenance header."""

    #: header: format tag, embedded scenario definition, event count,
    #: final simulated time
    meta: dict[str, Any]
    #: the full ordered ``(time, priority, seq, label)`` stream
    events: list[TraceEvent]

    @property
    def scenario(self) -> dict[str, Any]:
        """The embedded scenario definition (raw table form)."""
        return self.meta.get("scenario", {})

    @property
    def final_time(self) -> float:
        return float(self.meta.get("final_time", 0.0))

    def signature(self) -> tuple[int, float, tuple[str, ...]]:
        """The compact fingerprint (mirrors
        :meth:`~repro.sim.kernel.Kernel.trace_signature`)."""
        return (len(self.events), self.final_time,
                tuple([event[3] for event in self.events]))


def capture_trace(kernel: "Kernel",
                  scenario: dict[str, Any] | None = None) -> KernelTrace:
    """Snapshot *kernel*'s executed event stream as a trace artifact."""
    events = kernel.events()
    meta = {
        "format": TRACE_FORMAT,
        "scenario": scenario or {},
        "events": len(events),
        "final_time": kernel.clock.now,
    }
    return KernelTrace(meta=meta, events=events)


def save_trace(trace: KernelTrace, path: str | Path) -> Path:
    """Write *trace* as deterministic JSONL (header line + one event
    per line).  Identical runs produce byte-identical files — the
    byte-level half of the regression gate."""
    path = Path(path)
    lines = [json.dumps(trace.meta, sort_keys=True,
                        separators=(",", ":"))]
    lines.extend(json.dumps(list(event), separators=(",", ":"))
                 for event in trace.events)
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


def load_trace(path: str | Path) -> KernelTrace:
    """Load a JSONL trace artifact, checking its format tag."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise TraceError(
            f"{path}: not a UTF-8 trace artifact: {exc}") from exc
    if not lines:
        raise TraceError(f"{path}: empty trace file")
    try:
        meta = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}:1: header is not JSON: {exc}") from exc
    if not isinstance(meta, dict) or "format" not in meta:
        raise TraceError(f"{path}: first line is not a trace header")
    if meta["format"] != TRACE_FORMAT:
        raise TraceError(
            f"{path}: format {meta['format']!r} is not the supported "
            f"{TRACE_FORMAT!r}")
    try:
        float(meta.get("final_time", 0.0))
    except (TypeError, ValueError):
        raise TraceError(
            f"{path}:1: header key 'final_time': expected a number, "
            f"got {meta['final_time']!r}") from None
    events: list[TraceEvent] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(
                f"{path}:{lineno}: event is not JSON: {exc}") from exc
        if not (isinstance(row, list) and len(row) == 4):
            raise TraceError(
                f"{path}:{lineno}: expected [time, priority, seq, "
                f"label], got {row!r}")
        try:
            events.append((float(row[0]), int(row[1]), int(row[2]),
                           str(row[3])))
        except (TypeError, ValueError) as exc:
            raise TraceError(
                f"{path}:{lineno}: malformed [time, priority, seq, "
                f"label] field in {row!r}: {exc}") from exc
    declared = meta.get("events")
    if declared is not None and declared != len(events):
        raise TraceError(
            f"{path}: header declares {declared} events but the file "
            f"holds {len(events)}")
    return KernelTrace(meta=meta, events=events)


# ---------------------------------------------------------------------------
# structural diff: the first-divergence report
# ---------------------------------------------------------------------------

@dataclass
class TraceDiff:
    """Structural comparison of two event streams."""

    #: event counts of the reference / candidate streams
    events_a: int = 0
    events_b: int = 0
    #: index of the first differing event (None = streams identical)
    first_divergence: int | None = None
    #: the events at the divergence (None on a pure length mismatch)
    expected: TraceEvent | None = None
    actual: TraceEvent | None = None
    #: the last common events leading into the divergence
    context: list[TraceEvent] = field(default_factory=list)
    #: final simulated times (diverging times are reported even when
    #: every event matched — a clock-advance regression)
    final_time_a: float | None = None
    final_time_b: float | None = None

    @property
    def identical(self) -> bool:
        return (self.first_divergence is None
                and self.events_a == self.events_b
                and self.final_time_a == self.final_time_b)

    def render(self) -> str:
        """Human-readable first-divergence report."""
        if self.identical:
            return (f"traces identical: {self.events_a} events, "
                    f"final t={self.final_time_a}")
        lines = [f"traces DIVERGE: {self.events_a} recorded vs "
                 f"{self.events_b} replayed events"]
        if self.first_divergence is not None:
            lines.append(f"first divergence at event "
                         f"#{self.first_divergence}:")
            for event in self.context:
                lines.append(f"    = {_fmt_event(event)}")
            lines.append(f"  - expected {_fmt_event(self.expected)}")
            lines.append(f"  + actual   {_fmt_event(self.actual)}")
        elif self.events_a != self.events_b:
            lines.append(
                f"streams agree on the common prefix; the "
                f"{'recorded' if self.events_a > self.events_b else 'replayed'}"
                f" stream has {abs(self.events_a - self.events_b)} "
                f"extra trailing event(s)")
        if self.final_time_a != self.final_time_b:
            lines.append(f"final time: recorded {self.final_time_a} "
                         f"vs replayed {self.final_time_b}")
        return "\n".join(lines)


def _fmt_event(event: TraceEvent | None) -> str:
    if event is None:
        return "(stream ended)"
    time, priority, seq, label = event
    return f"(t={time}, prio={priority}, seq={seq}, {label!r})"


def diff_traces(recorded: KernelTrace, replayed: KernelTrace
                ) -> TraceDiff:
    """Compare two traces event by event; report the first divergence."""
    a, b = recorded.events, replayed.events
    diff = TraceDiff(events_a=len(a), events_b=len(b),
                     final_time_a=recorded.final_time,
                     final_time_b=replayed.final_time)
    for index in range(min(len(a), len(b))):
        if a[index] != b[index]:
            diff.first_divergence = index
            diff.expected = a[index]
            diff.actual = b[index]
            diff.context = list(a[max(0, index - DIFF_CONTEXT):index])
            return diff
    if len(a) != len(b):
        index = min(len(a), len(b))
        diff.first_divergence = index
        diff.expected = a[index] if index < len(a) else None
        diff.actual = b[index] if index < len(b) else None
        diff.context = list(a[max(0, index - DIFF_CONTEXT):index])
    return diff


# ---------------------------------------------------------------------------
# record / replay orchestration (lazy scenario imports)
# ---------------------------------------------------------------------------

def record_scenario(config: "ScenarioConfig") -> KernelTrace:
    """Run *config* and capture its full event stream."""
    from repro.scenario import compile_scenario

    captured: list[Any] = []
    compile_scenario(config).run(on_kernel=captured.append)
    if not captured:
        raise TraceError(
            f"scenario kind {config.kind!r} exposed no kernel to trace")
    kernel = captured[-1]
    return capture_trace(kernel, scenario=config.as_tables())


def replay_trace(trace: KernelTrace) -> TraceDiff:
    """Re-run the scenario embedded in *trace* and diff the streams.

    Returns the structural diff; ``diff.identical`` is the regression
    gate.
    """
    from repro.scenario.schema import validate_scenario

    if not trace.scenario:
        raise TraceError("trace has no embedded scenario definition — "
                         "it cannot be replayed")
    config = validate_scenario(trace.scenario)
    return diff_traces(trace, record_scenario(config))
