"""The span arithmetic of ``spans.py`` on synthetic nests."""

from __future__ import annotations

import copy

import pytest

import spans
from spans import OK, RAISED


def _nest():
    """root[0,10] > core A[1,9] > te B[2,4], te C[5,8] > net D[6,7]."""
    names = [("bench.run", "root"), ("CooperationManager.start", "core"),
             ("ClientTM.checkout", "te"), ("ClientTM.checkin", "te"),
             ("Network.send", "net")]
    nest = [[0, 0.0, 10.0, -1, OK, 0],
            [1, 1.0, 9.0, 0, OK, 0],
            [2, 2.0, 4.0, 1, OK, 0],
            [3, 5.0, 8.0, 1, OK, True],
            [4, 6.0, 7.0, 3, OK, 512]]
    return nest, names


def test_self_time_is_duration_minus_direct_children():
    nest, names = _nest()
    # siblings B and C both come off A; D comes off C only, not off A
    # or the root a second time
    assert spans.self_times(nest) == [2.0, 3.0, 2.0, 2.0, 1.0]
    assert sum(spans.self_times(nest)) == nest[0][2] - nest[0][1]


def test_layer_metrics_of_a_nest():
    nest, names = _nest()
    metrics = spans.layer_metrics(nest, names)
    assert metrics["core.self_s"] == 3.0
    assert metrics["core.busy_s"] == 8.0
    assert metrics["te.self_s"] == 4.0
    assert metrics["te.checkout_self_s"] == 2.0
    assert metrics["te.checkin_self_s"] == 2.0
    assert metrics["net.self_share"] == pytest.approx(0.1)
    assert metrics["net.bytes"] == 512
    assert metrics["core.cm_ops"] == 1
    assert metrics["trace.accounted_share"] == pytest.approx(0.8)
    # no buffer lookups, no events: the ratios read 0, the counts say why
    assert metrics["te.buffer_hit_ratio"] == 0.0
    assert metrics["sim.events"] == 0


def test_operations_follow_the_outermost_layer_span():
    nest, names = _nest()
    assert spans.operations(nest, names) == [-1, 1, 1, 1, 1]


def test_deepcopy_shares_sum_to_the_total():
    names = [("bench.run", "root"), ("CooperationManager.start", "core"),
             ("RecoveryManager.take", "te"), ("StableStorage.put", "net"),
             ("deepcopy", "copy")]
    nest = [[0, 0.0, 20.0, -1, OK, 0],
            [1, 1.0, 8.0, 0, OK, 0],
            [3, 2.0, 7.0, 1, OK, 0],      # a CM persist ...
            [4, 3.0, 6.0, 2, OK, 0],      # ... copies for core
            [2, 9.0, 14.0, 0, OK, 0],
            [4, 10.0, 12.0, 4, OK, 0],    # a recovery point copies for te
            [4, 15.0, 16.0, 0, OK, 0]]    # the scenario's own copy
    metrics = spans.layer_metrics(nest, names)
    assert metrics["copy.deepcopy_calls"] == 3
    assert metrics["copy.deepcopy_share"] == pytest.approx(6.0 / 20.0)
    assert metrics["copy.deepcopy_share.core"] == pytest.approx(3.0 / 20.0)
    assert metrics["copy.deepcopy_share.te"] == pytest.approx(2.0 / 20.0)
    assert metrics["copy.deepcopy_share.other"] == pytest.approx(1.0 / 20.0)
    parts = sum(value for name, value in metrics.items()
                if name.startswith("copy.deepcopy_share."))
    assert parts == pytest.approx(metrics["copy.deepcopy_share"])
    assert metrics["core.stable_puts_per_op"] == 1.0


class _Ticks:
    """A clock that advances one second per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_a_span_raised_through_still_closes_and_counts_as_failed():
    tracer = spans.Tracer(clock=_Ticks())

    def refuse() -> None:
        raise ValueError("no")

    traced = tracer._wrap(
        refuse, tracer._name_id("CooperationManager.start", "core"))
    with tracer.root("bench.run"):
        with pytest.raises(ValueError):
            traced()
    assert tracer._stack == [-1]
    root, failed = tracer.spans
    assert failed[4] == RAISED and failed[2] > failed[1]
    assert root[4] == OK and root[2] > failed[2]
    metrics = spans.layer_metrics(tracer.spans, tracer.names)
    assert metrics["core.failed"] == 1
    assert metrics["core.cm_ops"] == 1


class _CopiesItself:
    """A ``__deepcopy__`` hook that calls back into ``copy.deepcopy``
    without a memo, as careless hooks do."""

    def __init__(self, inner: list) -> None:
        self.inner = inner

    def __deepcopy__(self, memo: dict) -> "_CopiesItself":
        return _CopiesItself(copy.deepcopy(self.inner))


def test_recursive_deepcopy_is_one_span_and_is_restored():
    original = copy.deepcopy
    tracer = spans.Tracer()
    tracer._patch(spans.DEEPCOPY, "copy", tracer._wrap_deepcopy)
    try:
        assert copy.deepcopy is not original
        with tracer.root("bench.run"):
            clone = copy.deepcopy({"a": [_CopiesItself([1, [2, 3]])]})
    finally:
        tracer.uninstall()
    assert copy.deepcopy is original
    assert clone["a"][0].inner == [1, [2, 3]]
    assert [tracer.names[span[0]][0] for span in tracer.spans] \
        == ["bench.run", "deepcopy"]


def test_an_unresolvable_target_is_listed_not_traced():
    tracer = spans.Tracer()
    tracer._patch("copy:no_such_function", "copy", tracer._wrap)
    tracer._patch("no_such_module:f", "copy", tracer._wrap)
    assert tracer.unresolved == ["copy:no_such_function", "no_such_module:f"]
    assert tracer._patched == []
