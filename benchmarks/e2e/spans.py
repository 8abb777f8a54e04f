"""Boundary spans for the end-to-end benchmark, recorded from outside.

Nothing in ``src/repro`` knows it is being traced: :class:`Tracer`
resolves the public callables named in :data:`SPAN_TABLE` by
``getattr``, replaces each with a wrapper that records one span per
call, and puts the originals back on :meth:`Tracer.uninstall`.  A span
is ``[name id, start, end, parent index, flag, value]``; spans stay in
memory for the whole run and the per-layer metrics are derived from
them afterwards by :func:`layer_metrics`.

A layer's *self* time is its spans' duration minus the part their
direct child spans cover, so the self times of all layers add up to
the root span exactly — the run is single-threaded and spans nest.
"""

from __future__ import annotations

import copy
import importlib
import json
import time
from pathlib import Path
from typing import Any, Callable

#: layer -> the public callables that are its boundary.  Layers are the
#: package names of ``src/repro``; ``tools`` is the design tools a DM
#: runs, ``copy`` is ``copy.deepcopy`` seen as a layer of its own.
SPAN_TABLE: dict[str, tuple[str, ...]] = {
    "core": tuple(
        f"repro.core.cooperation_manager:CooperationManager.{op}"
        for op in (
            "init_design", "create_sub_da", "start", "evaluate",
            "sub_da_ready_to_commit", "sub_da_impossible_specification",
            "modify_sub_da_specification", "terminate_sub_da",
            "finish_top_level", "require", "propagate",
            "invalidate_propagation", "withdraw",
            "create_negotiation_relationship", "propose", "agree",
            "disagree", "sub_das_specification_conflict", "pop_messages",
            "recover")),
    "dc": (
        "repro.dc.design_manager:DesignManager.start_step",
        "repro.dc.design_manager:DesignManager.finish_step",
        "repro.dc.design_manager:DesignManager.step",
        "repro.dc.design_manager:DesignManager.recover",
        "repro.dc.rules:RuleEngine.dispatch",
    ),
    "tools": (
        "repro.dc.design_manager:ToolRegistry.run",
    ),
    "te": (
        "repro.te.transaction_manager:ClientTM.begin_dop",
        "repro.te.transaction_manager:ClientTM.checkout",
        "repro.te.transaction_manager:ClientTM.checkin",
        "repro.te.transaction_manager:ClientTM.commit_dop",
        "repro.te.transaction_manager:ClientTM.abort_dop",
        "repro.te.transaction_manager:ClientTM.recover_dop",
        "repro.te.transaction_manager:ServerTM.checkout",
        "repro.te.transaction_manager:ServerTM.prepare",
        "repro.te.transaction_manager:ServerTM.commit",
        "repro.te.transaction_manager:ServerTM.abort",
        "repro.te.object_buffer:ObjectBuffer.get",
        "repro.te.object_buffer:ObjectBuffer.put",
        "repro.te.object_buffer:ObjectBuffer.invalidate",
        "repro.te.recovery:RecoveryManager.take",
        "repro.te.recovery:RecoveryManager.restore",
    ),
    "txn": (
        "repro.txn.gateway:CommitGateway.single_checkin",
        "repro.txn.gateway:CommitGateway.group_checkin",
        "repro.txn.leases:LeaseTable.grant",
        "repro.txn.leases:LeaseTable.renew_workstation",
        "repro.txn.leases:LeaseTable.expire_due",
        "repro.txn.leases:LeaseTable.release",
        "repro.txn.leases:LeaseTable.release_all",
    ),
    "repository": (
        "repro.repository.repository:DesignDataRepository.read",
        "repro.repository.repository:DesignDataRepository.describe",
        "repro.repository.repository:DesignDataRepository.stage_checkin",
        "repro.repository.repository:DesignDataRepository.commit_checkin",
        "repro.repository.repository:DesignDataRepository.commit_group",
        "repro.repository.repository:DesignDataRepository.recover",
        "repro.repository.wal:WriteAheadLog.append",
        "repro.repository.wal:WriteAheadLog.force",
    ),
    "net": (
        "repro.net.network:Network.send",
        "repro.net.network:Network.post",
        "repro.net.network:Network.post_batch",
        "repro.net.rpc:TransactionalRpc.call",
        "repro.net.network:StableStorage.put",
        "repro.net.network:StableStorage.get",
    ),
    "sim": (
        "repro.sim.kernel:Kernel.run",
        "repro.sim.kernel:Kernel.run_until_quiescent",
    ),
}

#: the two scheduling entry points every other one (``after``,
#: ``defer_to``) goes through; their ``action`` argument is wrapped so
#: each dispatched event becomes a span charged to the layer that
#: scheduled it (``driver`` when that was scenario code)
SCHEDULERS: tuple[str, ...] = (
    "repro.sim.scheduler:EventScheduler.at",
    "repro.sim.scheduler:EventScheduler.defer",
)

DEEPCOPY = "copy:deepcopy"
EVENT = "Kernel.event"

#: span flags
OK, RAISED = 0, 1


def _size(position: int) -> Callable[[tuple, dict, Any], int]:
    def measure(args: tuple, kwargs: dict, result: Any) -> int:
        if "size" in kwargs:
            return kwargs["size"]
        return args[position] if len(args) > position else 0
    return measure


#: target -> the number a span of it carries besides its times (payload
#: bytes, hit/miss, committed or not, entries expired)
MEASURES: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "repro.net.network:Network.send": _size(3),
    "repro.net.network:Network.post": _size(5),
    "repro.te.object_buffer:ObjectBuffer.get":
        lambda args, kwargs, result: result is not None,
    "repro.te.transaction_manager:ClientTM.checkin":
        lambda args, kwargs, result: result.success,
    "repro.txn.gateway:CommitGateway.single_checkin":
        lambda args, kwargs, result: result.committed,
    "repro.txn.gateway:CommitGateway.group_checkin":
        lambda args, kwargs, result: result.committed,
    "repro.txn.leases:LeaseTable.expire_due":
        lambda args, kwargs, result: len(result),
    "repro.txn.leases:LeaseTable.release":
        lambda args, kwargs, result: result,
    # False = nothing was enabled: the call was a wake-up, not a step
    "repro.dc.design_manager:DesignManager.start_step":
        lambda args, kwargs, result: result is not False,
}

#: a kernel callback scheduled from under one of these layers was
#: scheduled by scenario code, not by a layer of the system
_SCENARIO = ("root", "driver", "sim", "copy")


def short_name(target: str) -> str:
    """``repro.te.object_buffer:ObjectBuffer.get`` -> ``ObjectBuffer.get``"""
    return target.split(":", 1)[1]


def resolve(target: str) -> tuple[Any, str, Any]:
    """(owner object, attribute name, current value) of a table target."""
    module_name, path = target.split(":", 1)
    owner: Any = importlib.import_module(module_name)
    *holders, attr = path.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records one span per call into a table target, while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        #: [name id, start, end, parent index, flag, value] per span
        self.spans: list[list] = []
        #: name id -> (span name, layer)
        self.names: list[tuple[str, str]] = []
        #: table targets that no longer resolve by getattr
        self.unresolved: list[str] = []
        self._stack: list[int] = [-1]
        self._patched: list[tuple[Any, str, Any]] = []
        self._event_ids: dict[str, int] = {}

    # -- span recording ------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append((name, layer))
        return len(self.names) - 1

    def _wrap(self, fn: Callable, name_id: int,
              measure: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [name_id, 0.0, 0.0, stack[-1], OK, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    record[5] = measure(args, kwargs, result)
                return result
            except BaseException:
                record[4] = RAISED
                raise
            finally:
                record[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def root(self, name: str) -> "_OpenSpan":
        """The span around the whole timed region, opened by the
        benchmark itself; spans recorded before it are dropped."""
        del self.spans[:]
        return _OpenSpan(self, self._name_id(name, "root"))

    def _current_layer(self) -> str:
        index = self._stack[-1]
        return self.names[self.spans[index][0]][1] if index >= 0 \
            else "root"

    def _wrap_scheduler(self, fn: Callable, name_id: int) -> Callable:
        """Wrap ``at``/``defer``: the call is a ``sim`` span, and the
        *action* it files becomes a span of the scheduling layer."""
        traced_call = self._wrap(fn, name_id)

        def scheduling(kernel: Any, when: float, action: Callable,
                       *args: Any, **kwargs: Any) -> Any:
            layer = self._current_layer()
            if layer in _SCENARIO:
                layer = "driver"
            event_id = self._event_ids.get(layer)
            if event_id is None:
                event_id = self._event_ids[layer] = \
                    self._name_id(EVENT, layer)
            return traced_call(kernel, when, self._wrap(action, event_id),
                               *args, **kwargs)

        scheduling.__wrapped__ = fn
        return scheduling

    def _wrap_deepcopy(self, original: Callable, name_id: int) -> Callable:
        """Outermost calls only: while one runs, ``copy.deepcopy`` is the
        original again, so its recursion pays for no wrapper and a
        ``__deepcopy__`` hook that calls back in is not counted twice."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced_deepcopy(x: Any, memo: Any = None, *rest: Any) -> Any:
            if memo is not None:
                return original(x, memo, *rest)
            record = [name_id, 0.0, 0.0, stack[-1], OK, 0]
            stack.append(len(spans))
            spans.append(record)
            copy.deepcopy = original
            record[1] = clock()
            try:
                return original(x)
            except BaseException:
                record[4] = RAISED
                raise
            finally:
                record[2] = clock()
                copy.deepcopy = traced_deepcopy
                stack.pop()

        traced_deepcopy.__wrapped__ = original
        return traced_deepcopy

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, target: str, layer: str,
               wrap: Callable[[Callable, int], Callable]) -> None:
        try:
            owner, attr, original = resolve(target)
        except (ImportError, AttributeError):
            self.unresolved.append(target)
            return
        name_id = self._name_id(short_name(target), layer)
        setattr(owner, attr, wrap(original, name_id))
        self._patched.append((owner, attr, original))

    def install(self) -> "Tracer":
        """Wrap every table target; unresolvable ones are listed in
        :attr:`unresolved` and simply not traced."""
        for layer, targets in SPAN_TABLE.items():
            for target in targets:
                measure = MEASURES.get(target)
                self._patch(target, layer,
                            lambda fn, name_id, m=measure:
                            self._wrap(fn, name_id, m))
        for target in SCHEDULERS:
            self._patch(target, "sim", self._wrap_scheduler)
        self._patch(DEEPCOPY, "copy", self._wrap_deepcopy)
        return self

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class _OpenSpan:
    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self.tracer = tracer
        self.record = [name_id, 0.0, 0.0, -1, OK, 0]

    def __enter__(self) -> "_OpenSpan":
        tracer = self.tracer
        self.record[3] = tracer._stack[-1]
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = tracer.clock()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.record[2] = self.tracer.clock()
        if exc_type is not None:
            self.record[4] = RAISED
        self.tracer._stack.pop()


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus what its *direct* children cover.

    Grandchildren are inside a child already, and siblings never
    overlap on one thread, so nothing is subtracted twice."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def owners(spans: list[list], names: list[tuple[str, str]]) -> list[str]:
    """Per span: the layer of the nearest enclosing span, itself
    included, that is neither ``net`` nor ``copy`` — the layer a
    stable-storage put or a deepcopy is done *for* (``StableStorage``
    is a passive store).  A parent always precedes its children."""
    out: list[str] = []
    for span in spans:
        layer = names[span[0]][1]
        if layer in ("net", "copy"):
            layer = out[span[3]] if span[3] >= 0 else "root"
        out.append(layer)
    return out


def operations(spans: list[list], names: list[tuple[str, str]]
               ) -> list[int]:
    """Per span: the id of the designer operation that caused it — the
    index of the outermost layer span below scenario code; -1 for the
    scenario's and the kernel's own spans outside any operation."""
    out: list[int] = []
    for index, span in enumerate(spans):
        inherited = out[span[3]] if span[3] >= 0 else -1
        if inherited < 0 and names[span[0]][1] not in _SCENARIO:
            inherited = index
        out.append(inherited)
    return out


class _Totals:
    """Counts and times of one run's spans, by span name and by layer."""

    def __init__(self, spans: list[list],
                 names: list[tuple[str, str]]) -> None:
        self.root = spans[0][2] - spans[0][1]
        self.count: dict[str, int] = {}
        self.raised: dict[str, int] = {}
        #: spans whose measured value is truthy (hits, commits)
        self.positive: dict[str, int] = {}
        #: sum of the measured values (bytes, expiries)
        self.value: dict[str, float] = {}
        self.duration: dict[str, float] = {}
        self.self_by_name: dict[str, float] = {}
        self.self_by_layer: dict[str, float] = {}
        self.raised_by_layer: dict[str, int] = {}
        #: inclusive time of a layer's outermost spans
        self.busy: dict[str, float] = {}
        #: te self time below a client-TM checkout / checkin
        self.te_below = {"ClientTM.checkout": 0.0, "ClientTM.checkin": 0.0}
        #: deepcopy seconds / stable-storage puts by the layer they serve
        self.copied_for: dict[str, float] = {}
        self.puts_for: dict[str, int] = {}
        #: leases released by the table's own expiry event (a TTL ran
        #: out), as opposed to a release the server-TM asked for
        self.expired = 0

        def add(table: dict, key: str, amount: Any) -> None:
            table[key] = table.get(key, 0) + amount

        own = self_times(spans)
        owner = owners(spans, names)
        bit = {layer: 1 << i for i, layer in
               enumerate(sorted({layer for _, layer in names}))}
        #: per span: bit set of its ancestors' layers / the client-TM
        #: checkout or checkin it is below, itself included
        above: list[int] = []
        below: list[str] = []
        for index, span in enumerate(spans):
            name, layer = names[span[0]]
            parent = span[3]
            length = span[2] - span[1]
            add(self.count, name, 1)
            add(self.duration, name, length)
            add(self.self_by_name, name, own[index])
            add(self.self_by_layer, layer, own[index])
            if span[4] == RAISED:
                add(self.raised, name, 1)
                add(self.raised_by_layer, layer, 1)
            elif span[5]:
                add(self.positive, name, 1)
                add(self.value, name, span[5])
            above.append(above[parent] | bit[names[spans[parent][0]][1]]
                         if parent >= 0 else 0)
            if not above[index] & bit[layer]:
                add(self.busy, layer, length)
            below.append(name if name in self.te_below
                         else (below[parent] if parent >= 0 else ""))
            if below[index] and layer == "te":
                self.te_below[below[index]] += own[index]
            if name == "deepcopy":
                add(self.copied_for, owner[index], length)
            elif name == "StableStorage.put":
                add(self.puts_for, owner[index], 1)
            elif name == "LeaseTable.release" and span[5] \
                    and parent >= 0 and names[spans[parent][0]][0] == EVENT:
                self.expired += 1

    def n(self, name: str) -> int:
        return self.count.get(name, 0)

    def completed(self, name: str) -> int:
        return self.n(name) - self.raised.get(name, 0)

    def negative(self, name: str) -> int:
        """Calls that returned a refusal (or raised)."""
        return self.n(name) - self.positive.get(name, 0)


def _ratio(numerator: float, denominator: float) -> float:
    """0.0 when the run has no such work: the gating driver wants every
    metric on every workload, and the count beside each ratio
    (``te.checkins``, ``sim.events``, ...) says when that is the case."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[list], names: list[tuple[str, str]]
                  ) -> dict[str, float]:
    """Every per-layer metric, from the spans of one run.

    ``spans[0]`` is the root."""
    t = _Totals(spans, names)
    out: dict[str, float] = {}

    for layer in ("core", "dc", "tools", "te", "txn", "repository", "net",
                  "sim", "driver"):
        out[f"{layer}.self_s"] = t.self_by_layer.get(layer, 0.0)
        out[f"{layer}.self_share"] = out[f"{layer}.self_s"] / t.root
    for layer in ("core", "dc"):
        out[f"{layer}.busy_s"] = t.busy.get(layer, 0.0)
    for layer in ("core", "dc", "repository"):
        out[f"{layer}.failed"] = t.raised_by_layer.get(layer, 0)

    out["core.cm_ops"] = sum(t.n(short_name(target))
                             for target in SPAN_TABLE["core"]) \
        - t.n("CooperationManager.recover")
    out["core.recover_s"] = t.duration.get("CooperationManager.recover",
                                           0.0)
    out["core.stable_puts_per_op"] = _ratio(t.puts_for.get("core", 0),
                                            out["core.cm_ops"])
    out["dc.step_calls"] = t.n("DesignManager.start_step")
    out["dc.steps"] = t.positive.get("DesignManager.start_step", 0)
    out["tools.runs"] = t.n("ToolRegistry.run")

    out["te.dops"] = t.n("ClientTM.begin_dop")
    out["te.checkouts"] = t.n("ClientTM.checkout")
    out["te.checkout_self_s"] = t.te_below["ClientTM.checkout"]
    out["te.buffer_hit_ratio"] = _ratio(
        t.positive.get("ObjectBuffer.get", 0), t.n("ObjectBuffer.get"))
    out["te.checkins"] = t.n("ClientTM.checkin")
    out["te.checkin_self_s"] = t.te_below["ClientTM.checkin"]
    out["te.checkin_failed"] = t.negative("ClientTM.checkin")
    out["te.aborted_dops"] = t.n("ClientTM.abort_dop")
    out["te.recovery_points"] = t.n("RecoveryManager.take")
    out["te.recovery_point_s"] = t.duration.get("RecoveryManager.take", 0.0)
    out["te.recover_s"] = t.duration.get("ClientTM.recover_dop", 0.0)

    commits = ("CommitGateway.single_checkin",
               "CommitGateway.group_checkin")
    out["txn.single_commits"] = t.n(commits[0])
    out["txn.group_commits"] = t.n(commits[1])
    out["txn.commit_self_s"] = sum(t.self_by_name.get(c, 0.0)
                                   for c in commits)
    out["txn.aborts"] = sum(t.negative(c) for c in commits)
    out["txn.lease_grants"] = t.n("LeaseTable.grant")
    out["txn.lease_renewals"] = t.n("LeaseTable.renew_workstation")
    out["txn.lease_expiries"] = t.expired \
        + t.value.get("LeaseTable.expire_due", 0)
    out["txn.lease_self_s"] = sum(
        t.self_by_name.get(short_name(target), 0.0)
        for target in SPAN_TABLE["txn"] if ":LeaseTable." in target)

    out["repository.reads"] = t.n("DesignDataRepository.read")
    out["repository.stages"] = t.n("DesignDataRepository.stage_checkin")
    out["repository.commits"] = \
        t.n("DesignDataRepository.commit_checkin") \
        + t.n("DesignDataRepository.commit_group")
    out["repository.wal_appends"] = t.n("WriteAheadLog.append")
    out["repository.wal_forces"] = t.n("WriteAheadLog.force")
    out["repository.wal_forces_per_checkin"] = _ratio(
        t.n("WriteAheadLog.force"), t.n("ClientTM.checkin"))

    # a post_batch files its one message through post
    out["net.messages"] = t.completed("Network.send") \
        + t.completed("Network.post")
    out["net.bytes"] = t.value.get("Network.send", 0) \
        + t.value.get("Network.post", 0)
    out["net.rpc_calls"] = t.n("TransactionalRpc.call")
    out["net.rpc_failed"] = t.raised.get("TransactionalRpc.call", 0)
    out["net.stable_puts"] = t.n("StableStorage.put")
    out["net.stable_gets"] = t.n("StableStorage.get")

    out["sim.events"] = t.n(EVENT)
    out["sim.host_us_per_event"] = _ratio(out["sim.self_s"] * 1e6,
                                          t.n(EVENT))

    out["copy.deepcopy_calls"] = t.n("deepcopy")
    out["copy.deepcopy_s"] = t.duration.get("deepcopy", 0.0)
    out["copy.deepcopy_share"] = out["copy.deepcopy_s"] / t.root
    named = ("core", "dc", "te", "txn", "repository")
    for layer in named:
        out[f"copy.deepcopy_share.{layer}"] = \
            t.copied_for.get(layer, 0.0) / t.root
    out["copy.deepcopy_share.other"] = sum(
        seconds for layer, seconds in t.copied_for.items()
        if layer not in named) / t.root

    # what is left is the scenario's own code outside the kernel loop
    # and outside every table target: the root span's self time
    out["trace.accounted_share"] = \
        1.0 - t.self_by_layer.get("root", 0.0) / t.root
    return out


def write_spans(spans: list[list], names: list[tuple[str, str]],
                path: Path) -> None:
    """Dump one run's spans: ``names`` is the (span name, layer) table,
    each span ``[name id, start, end, parent, raised, value, op]`` with
    ``op`` the span index of the designer operation that caused it."""
    caused_by = operations(spans, names)
    with path.open("w", encoding="utf-8") as out:
        json.dump({"names": names,
                   "spans": [span + [op]
                             for span, op in zip(spans, caused_by)]}, out)
