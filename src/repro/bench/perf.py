"""Microbenchmark harness for what no end-to-end run measures.

Absolute wall-clock throughput of the two paths the end-to-end
benchmark (``benchmarks/e2e``) does not cover — write-back group
flushes and cross-member federation commits — plus the **structural**
gates that do not depend on the host: the federation's member-count
scaling curve and the CM's cost per DA as the hierarchy grows must
both stay flat, and the decision log must stay bounded under
checkpointing.  Seeded-run determinism and directory-rebuild identity
are held by the tier-1 tests and T10, not here.

``python -m repro perf`` (or ``python benchmarks/perf/run_perf.py``)
runs the suite and emits ``BENCH_PERF.json`` at the repo root — the
perf trajectory future PRs diff against with ``tools/bench_report.py``.
All workloads are deterministic; only the wall-clock timings vary
between machines.  The CI perf job fails the build when the committed
full-mode artifact says ``acceptance.ok: false``.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from typing import Any, Callable

from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.te.rig import TeRig
from repro.te.transaction_manager import ClientTM
from repro.util.ids import IdGenerator

#: schema version of the BENCH_PERF.json envelope
SCHEMA = 1

#: repo-root artifact file the harness emits by default
DEFAULT_ARTIFACT = "BENCH_PERF.json"

#: acceptance ceiling (full mode only): per-batch cross-member commit
#: cost at the largest federation sweep point divided by the cost at
#: the smallest — the **flatness** of the member-count scaling curve.
#: The placement index makes home resolution O(batch); the only
#: member-count term left is building the federation itself, so the
#: curve must stay flat within noise
FEDERATION_FLATNESS_MAX = 1.3

#: acceptance ceiling (full mode only): CM cost per DA at the largest
#: hierarchy of the sweep divided by the cost at the smallest.  A CM
#: operation forces the after-images of what it touched, and a
#: checkpoint is paid for by the records that made it due, so the cost
#: of create + start must not depend on how many DAs already exist
CM_FLATNESS_MAX = 1.3

def _nested_payload(entries: int = 48, rev: int = 0) -> dict[str, Any]:
    """A representative design payload: shallow top, bushy below.

    Many container nodes (not just long strings), so freezing and
    sizing it is a real recursive walk.
    """
    return {
        "name": f"cell-{rev}",
        "meta": {"rev": rev, "tags": ["synth", "placed", "routed"]},
        "tree": {
            f"n{i}": {"v": i, "w": float(i), "s": "x" * 24}
            for i in range(entries)
        },
    }


#: the DOT of :func:`_nested_payload`
_CELL = DesignObjectType("Cell", attributes=[
    AttributeDef("name", AttributeKind.STRING),
    AttributeDef("meta", AttributeKind.JSON),
    AttributeDef("tree", AttributeKind.JSON),
])


def _make_rig(**te: Any) -> TeRig:
    """An open-scope TE rig on a quiet LAN (its kernel never runs, so
    posted messages hand over synchronously): workstation ``ws-1``
    works on derivation graph ``da-1``."""
    rig = TeRig(trace=False, **te)
    rig.open_scope()
    rig.repository.register_dot(_CELL)
    rig.add_workstation("ws-1")
    rig.repository.create_graph("da-1")
    return rig


def _best_ops_per_sec(run_ops: Callable[[], int], repeats: int) -> float:
    """Best-of-*repeats* throughput of one measured workload."""
    best = 0.0
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        ops = run_ops()
        elapsed = time.perf_counter() - start
        if elapsed > 0.0:
            best = max(best, ops / elapsed)
    return best


# -- the microbenchmarks -----------------------------------------------------


def _measure_group_flush(flushes: int, batch: int,
                         repeats: int) -> float:
    """Group-checkin flushes per second (*batch* deferred checkins per
    flush: one batched ship, one 2PC, one forced WAL write, rebind)."""
    client: ClientTM = _make_rig(write_back=True).client_tm("ws-1")
    state = {"rev": 0}

    def run_ops() -> int:
        for _ in range(flushes):
            dop = client.begin_dop("da-1", tool="bench")
            for _ in range(batch):
                state["rev"] += 1
                client.checkin(dop, "Cell",
                               data=_nested_payload(rev=state["rev"]),
                               parents=[])
            client.commit_dop(dop)  # End-of-DOP flush trigger
        return flushes

    return _best_ops_per_sec(run_ops, repeats)


def _measure_federation_scaling(quick: bool,
                                repeats: int) -> dict[str, Any]:
    """Per-batch cross-member commit cost as the federation grows.

    The sweep holds the *work* constant — the same four active DAs,
    pinned to the same four members, the same 16-version batch — and
    grows only the **member count** around it.  Every batch's prepare/
    decide/complete therefore touches exactly four members at every
    sweep point; the only thing that used to scale with federation
    size was the per-version home-resolution scan the placement index
    removed.  The gate is *flatness*: seconds per batch at the largest
    sweep point must stay within :data:`FEDERATION_FLATNESS_MAX` of
    the smallest.  A separate bounded-log run proves the decision log's
    checkpoint frontier keeps its record count (sampled after every
    batch) inside 2x its ``CHECKPOINT_WINDOW`` across >= 3 truncation
    cycles — ending with a coordinator crash + recovery over the
    truncated log.
    """
    from repro.repository.federation import FederatedRepository
    from repro.txn.decision_log import CHECKPOINT_WINDOW

    das = 4
    per_da = 4
    batches = 4 if quick else 10
    counts = (4, 8) if quick else (4, 16, 64)

    def build(members: int):
        ids = IdGenerator()
        federation = FederatedRepository(
            {f"site-{index}": DesignDataRepository(ids)
             for index in range(members)})
        federation.register_dot(_CELL)
        heads: dict[str, str] = {}
        for index in range(das):
            da_id = f"da-{index}"
            federation.assign(da_id, f"site-{index}")
            federation.create_graph(da_id)
            heads[da_id] = federation.checkin(
                da_id, "Cell", _nested_payload(4, rev=0), ()).dov_id
        return federation, heads

    def run_batches(federation, heads, count: int,
                    state: dict[str, int]) -> float:
        """Stage+commit *count* batches; returns timed commit seconds
        (staging happens outside the timed region — the benchmark
        isolates the cross-member commit path)."""
        elapsed = 0.0
        for _ in range(count):
            staged = []
            for index in range(das):
                da_id = f"da-{index}"
                for _ in range(per_da):
                    state["rev"] += 1
                    dov = federation.stage_checkin(
                        da_id, "Cell",
                        _nested_payload(4, rev=state["rev"]),
                        (heads[da_id],),
                        created_at=float(state["rev"]))
                    staged.append(dov.dov_id)
            start = time.perf_counter()
            committed = federation.commit_group(staged)
            elapsed += time.perf_counter() - start
            for dov in committed:
                heads[dov.created_by] = dov.dov_id
        return elapsed

    def seconds_per_batch(members: int) -> float:
        best = float("inf")
        for _ in range(max(repeats, 1)):
            federation, heads = build(members)
            elapsed = run_batches(federation, heads, batches,
                                  {"rev": 0})
            best = min(best, elapsed / batches)
        return best

    sweep = {members: seconds_per_batch(members) for members in counts}
    smallest, largest = min(counts), max(counts)
    flatness = round(sweep[largest] / sweep[smallest], 3) \
        if sweep[smallest] else None

    # -- bounded-log run: >= 3 checkpoint/truncation cycles, record
    # count sampled after every batch, then a coordinator crash over
    # the truncated log to prove recovery still resolves everything
    window = CHECKPOINT_WINDOW
    federation, heads = build(smallest)
    log = federation.decision_log
    state = {"rev": 0}
    peak_records = 0
    for _ in range(3 * window + 2):
        run_batches(federation, heads, 1, state)
        peak_records = max(peak_records, log.stats()["wal_records"])
    log_stats = log.stats()
    federation.crash_coordinator()
    recovery = federation.recover_coordinator()
    # the unforced completion tail may be lost with the coordinator;
    # recovery re-settles those batches — what matters is that nothing
    # stays incomplete afterwards
    bounded = (peak_records <= 2 * window
               and log_stats["truncations"] >= 3
               and len(log.incomplete()) == 0)

    batch_size = das * per_da
    return {
        "description":
            "cross-member commit_group seconds/batch at fixed work "
            f"({batch_size} versions over {das} pinned members) as "
            "the federation grows — O(batch) placement-index "
            "resolution",
        "ops": batches * batch_size,
        "ops_per_sec": round(1.0 / sweep[largest], 2)
        if sweep[largest] else None,
        "metric": "ops_per_sec = cross-member batches/sec at the "
                  "largest sweep point; flatness = largest-sweep "
                  "cost / smallest-sweep cost (lower is flatter)",
        "batch": batch_size,
        "active_members": das,
        "sweep": {f"members={members}": round(cost * 1000.0, 4)
                  for members, cost in sweep.items()},
        "sweep_unit": "ms per batch",
        "flatness": flatness,
        "flatness_max": FEDERATION_FLATNESS_MAX,
        "bounded_log": {
            "window": window,
            "batches": 3 * window + 2,
            "peak_wal_records": peak_records,
            "max_wal_records": 2 * window,
            "truncations": log_stats["truncations"],
            "forgotten_decisions": log_stats["forgotten_decisions"],
            "recovery_settled": recovery["settled"],
            "ok": bounded,
        },
    }


def _measure_cm_scaling(quick: bool, repeats: int) -> dict[str, Any]:
    """CM cost per DA as the hierarchy grows (T6's workload).

    Each sweep point builds a hierarchy of that many DAs — create +
    start for every one, sub-DAs under Zipf-drawn parents — and
    reports milliseconds per DA.  The gate is *flatness*: the cost at
    the largest point must stay within :data:`CM_FLATNESS_MAX` of the
    smallest.
    """
    from repro.bench.experiments import grow_hierarchy

    sizes = (10, 20) if quick else (40, 160, 640)
    sweep = {size: float("inf") for size in sizes}
    # the sizes take turns, so a drift in host speed hits each alike,
    # and no run collects the garbage of the one before it
    for _ in range(max(repeats, 1)):
        for size in sizes:
            gc.collect()
            sweep[size] = min(sweep[size], grow_hierarchy(size)[1] / size)
    smallest, largest = min(sizes), max(sizes)
    return {
        "description":
            "CM create + start seconds/DA as the DA hierarchy grows — "
            "one forced after-image record per operation, amortised "
            "checkpoints",
        "ops": 2 * largest,
        "ops_per_sec": round(2.0 / sweep[largest], 2),
        "metric": "ops_per_sec = CM operations/sec at the largest "
                  "sweep point; flatness = largest-sweep cost / "
                  "smallest-sweep cost (lower is flatter)",
        "sweep": {f"das={size}": round(cost * 1000.0, 4)
                  for size, cost in sweep.items()},
        "sweep_unit": "ms per DA",
        "flatness": round(sweep[largest] / sweep[smallest], 3),
        "flatness_max": CM_FLATNESS_MAX,
    }


def _environment() -> dict[str, Any]:
    """Host metadata stamped into the artifact: the context any reader
    of the wall-clock numbers needs."""
    import os
    import platform

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


# -- the suite ---------------------------------------------------------------


def run_perf(quick: bool = False, repeats: int = 3,
             emit_path: str | Path | None = None) -> dict[str, Any]:
    """Run every microbenchmark; optionally emit the JSON artifact.

    ``quick=True`` shrinks the op counts (smoke-test mode for the
    tier-1 suite); timings then say nothing, but the report structure
    and the workloads are identical.
    """
    flushes, batch = (8 if quick else 48), 16
    fps = _measure_group_flush(flushes, batch, repeats)
    benchmarks: dict[str, dict[str, Any]] = {
        "group_checkin_flush": {
            "description":
                f"write-back group flushes/sec ({batch} deferred checkins "
                "per flush: one batched ship, one 2PC, one WAL force, "
                "rebind)",
            "ops": flushes,
            "ops_per_sec": round(fps, 2),
            "batch": batch,
            "flush_latency_ms": round(1000.0 / fps, 3) if fps else None,
        },
    }

    federation = _measure_federation_scaling(quick, repeats)
    benchmarks["federation_scaling"] = federation

    cm = _measure_cm_scaling(quick, repeats)
    benchmarks["cm_scaling"] = cm

    # the bounded log is structural and binds in quick mode too; quick
    # mode shrinks op counts until timings say nothing, so the
    # flatness ratios bind on the full run only
    ok = federation["bounded_log"]["ok"]
    if not quick:
        ok = ok and (federation["flatness"] or float("inf")) \
            <= FEDERATION_FLATNESS_MAX \
            and cm["flatness"] <= CM_FLATNESS_MAX
    acceptance: dict[str, Any] = {
        "federation_flatness_max": FEDERATION_FLATNESS_MAX,
        "federation_flatness": federation["flatness"],
        "cm_flatness_max": CM_FLATNESS_MAX,
        "cm_flatness": cm["flatness"],
        "federation_log_bounded": federation["bounded_log"]["ok"],
        "perf_gates_applied": not quick,
        "ok": ok,
    }
    report = {
        "schema": SCHEMA,
        "suite": "repro.bench.perf",
        "mode": "quick" if quick else "full",
        "repeats": repeats,
        "environment": _environment(),
        "acceptance": acceptance,
        "benchmarks": benchmarks,
    }
    if emit_path is not None:
        Path(emit_path).write_text(
            json.dumps(report, indent=2, sort_keys=False) + "\n",
            encoding="utf-8")
    return report


def render(report: dict[str, Any]) -> str:
    """One-screen text rendering of a perf report."""
    lines = [f"== PERF: data-shipping, commit and CM hot paths "
             f"({report['mode']}, repeats={report['repeats']}) =="]
    for name, bench in report["benchmarks"].items():
        lines.append(f"{name:32s} {bench['ops_per_sec']:>12,.0f} ops/s")
    acceptance = report["acceptance"]
    gates = []
    if acceptance["perf_gates_applied"]:
        gates.append(
            f"federation-flatness {acceptance['federation_flatness']:.2f}x "
            f"<= {acceptance['federation_flatness_max']:.1f}x")
        gates.append(
            f"cm-flatness {acceptance['cm_flatness']:.2f}x "
            f"<= {acceptance['cm_flatness_max']:.1f}x")
    gates.append("federation-log "
                 + ("bounded" if acceptance["federation_log_bounded"]
                    else "UNBOUNDED"))
    lines.append("acceptance: " + ", ".join(gates) + " -> "
                 + ("OK" if acceptance["ok"] else "FAIL"))
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - convenience entry
    print(render(run_perf(emit_path=DEFAULT_ARTIFACT)))
