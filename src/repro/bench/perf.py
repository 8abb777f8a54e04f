"""Microbenchmark harness for what no end-to-end run measures.

Absolute wall-clock throughput of the one path the end-to-end
benchmark (``benchmarks/e2e``) does not cover: write-back group
flushes.  The federation's and the CM's flatness are exact line counts
in the tier-1 suite, where no host can tilt them:
``tests/test_perf_fast_path.py::TestTheFederationIsFlat`` (lines per
cross-member batch at 4, 16 and 64 members) and
``TestTheAcLevelIsFlat`` (lines per CM create + start at 40 and 640
DAs).  The decision log's bound is held by
``tests/test_federation_recovery.py`` and
``tests/test_txn_decision_log.py``.

``python -m repro perf`` (or ``python benchmarks/perf/run_perf.py``)
runs the suite and emits ``BENCH_PERF.json`` at the repo root — the
perf trajectory future PRs diff against with ``tools/bench_report.py``.
The workload is deterministic; only the wall-clock timing varies
between machines, and it gates nothing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable

from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.te.rig import TeRig
from repro.te.transaction_manager import ClientTM

#: schema version of the BENCH_PERF.json envelope
SCHEMA = 1

#: repo-root artifact file the harness emits by default
DEFAULT_ARTIFACT = "BENCH_PERF.json"


def _nested_payload(rev: int = 0) -> dict[str, Any]:
    """A representative design payload: shallow top, bushy below.

    Many container nodes (not just long strings), so freezing and
    sizing it is a real recursive walk.
    """
    return {
        "name": f"cell-{rev}",
        "meta": {"rev": rev, "tags": ["synth", "placed", "routed"]},
        "tree": {
            f"n{i}": {"v": i, "w": float(i), "s": "x" * 24}
            for i in range(48)
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


# -- the microbenchmark ------------------------------------------------------


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
    """Run the microbenchmark; optionally emit the JSON artifact.

    ``quick=True`` shrinks the op count (smoke-test mode for the
    tier-1 suite); the timing then says nothing, but the report
    structure and the workload are identical.
    """
    flushes, batch = (8 if quick else 48), 16
    fps = _measure_group_flush(flushes, batch, repeats)
    report = {
        "schema": SCHEMA,
        "suite": "repro.bench.perf",
        "mode": "quick" if quick else "full",
        "repeats": repeats,
        "environment": _environment(),
        "benchmarks": {
            "group_checkin_flush": {
                "description":
                    f"write-back group flushes/sec ({batch} deferred "
                    "checkins per flush: one batched ship, one 2PC, one "
                    "WAL force, rebind)",
                "ops": flushes,
                "ops_per_sec": round(fps, 2),
                "batch": batch,
                "flush_latency_ms":
                    round(1000.0 / fps, 3) if fps else None,
            },
        },
    }
    if emit_path is not None:
        Path(emit_path).write_text(
            json.dumps(report, indent=2, sort_keys=False) + "\n",
            encoding="utf-8")
    return report


def render(report: dict[str, Any]) -> str:
    """One-screen text rendering of a perf report."""
    lines = [f"== PERF: write-back group flush "
             f"({report['mode']}, repeats={report['repeats']}) =="]
    for name, bench in report["benchmarks"].items():
        lines.append(f"{name:32s} {bench['ops_per_sec']:>12,.0f} ops/s")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - convenience entry
    print(render(run_perf(emit_path=DEFAULT_ARTIFACT)))
