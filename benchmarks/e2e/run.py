"""The end-to-end benchmark: designer operations per second, by layer.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N]
        [--seconds S | --reps N] [--trace [0|1]] [--smoke] [--out PATH]
        [--spans-out DIR]

Runs the named workload (all four when none is named) as a closed loop
of one: a deterministic batch simulation, one fresh Python subprocess
per repetition, one thread, one repetition after another until
``--seconds`` are used up.  Prints every metric by name with its unit,
checks the outputs, and ends with one JSON object per workload — the
line a gating driver reads::

    {"correct": true, "attempted": 310075, "failed": 0,
     "metrics": {"designer_ops_per_s": {"value": 25012.3, "unit": "ops/s"},
                 ...}}

With ``--trace 0`` (the default) every repetition is untraced and the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace``
untraced and traced repetitions alternate and the metrics are the
per-layer ones.  The exit code is 1 when a workload's outputs are not
correct and 2 when a repetition could not be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import workloads
from workloads import HERE, SRC

CONTRACT = HERE.parents[1] / "BENCHMARK.json"
WORK = HERE / ".work"

#: the gating driver allows 180 s per invocation: a run measured by
#: ``--seconds`` gives up before that, and so does any one repetition
DEADLINE_S = 170.0

#: ``--seed N`` names a block of this many consecutive workload seeds:
#: the repetitions of an untraced run walk through it, so that the
#: median is over several draws of the input and not hostage to one
#: (one draw moves designer_ops_per_s of a campaign by 3.5 %)
SEED_BLOCK = 1000

#: units of host time: values in them are scaled to reference seconds
HOST_TIME_UNITS = ("s", "us")


class RepetitionFailed(Exception):
    """A repetition died without reporting a result."""


def run_repetition(name: str, config: Path, trace: bool,
                   spans_out: Path | None, timeout: float) -> dict[str, Any]:
    command = [sys.executable, str(HERE / "rep.py"),
               "--workload", name, "--config", str(config),
               "--trace", str(int(trace)),
               "--spawned-at", repr(time.monotonic())]
    if trace and spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RepetitionFailed(
            f"{name}: repetition exceeded {timeout:.0f} s") from exc
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RepetitionFailed(
            f"{name}: repetition exited {done.returncode}\n"
            f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict[str, float]:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def end_to_end(rep: dict[str, Any]) -> dict[str, float]:
    """One untraced repetition's end-to-end metrics, host times in
    reference seconds (see ``calibration.py``)."""
    return {
        "setup_s": rep["setup_s"] * rep["setup_speed"],
        "designer_ops_per_s": (rep["attempted"] - rep["failed"])
        / (rep["wall_s"] * rep["host_speed"]),
        "peak_rss_mib": rep["peak_rss_mib"],
    }


def simulated_side(rep: dict[str, Any]) -> dict[str, float]:
    """The metrics that repeat exactly at one seed.  What a workload's
    report does not carry is read off the traced pass's net spans."""
    attempted = rep["attempted"]
    sim = dict(rep["sim"])
    layers = rep.get("layers")
    if layers is not None:
        sim.setdefault("sim_bytes_per_op", layers["net.bytes"] / attempted)
        sim.setdefault("sim_msgs_per_op",
                       layers["net.messages"] / attempted)
    sim["failed_op_share"] = rep["failed"] / attempted
    return sim


def per_layer(rep: dict[str, Any], units: dict[str, str]
              ) -> dict[str, float]:
    """One traced repetition's per-layer metrics, host times in
    reference seconds."""
    out = {name: value * rep["layer_time_scale"]
           if units[name] in HOST_TIME_UNITS else value
           for name, value in rep["layers"].items()}
    out["trace.unresolved"] = len(rep["unresolved"])
    # printed as 0 where a workload cannot observe it (no simulated
    # time passes in cm_cooperation), because the driver wants every
    # per-layer metric on every workload
    for name in ("sim_makespan", "sim_bytes_per_op", "sim_msgs_per_op"):
        out[name] = 0.0
    out.update(simulated_side(rep))
    return out


def measure(name: str, seed: int, trace: bool, smoke: bool,
            seconds: float, reps: int | None,
            spans_out: Path | None, units: dict[str, str]
            ) -> dict[str, Any]:
    """Run one workload's repetitions and judge them."""
    workload = workloads.WORKLOADS[name]
    started = time.monotonic()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)

    def config_at(step: int) -> Path:
        path = work / f"{name}-{step}.toml"
        if not path.exists():
            path.write_text(
                workload.generate(seed * SEED_BLOCK + step, smoke),
                encoding="utf-8")
        return path

    try:
        spans_path = spans_out / f"{name}.spans.json" \
            if spans_out is not None else None
        untraced: list[dict[str, Any]] = []
        traced: list[dict[str, Any]] = []
        while True:
            elapsed = time.monotonic() - started
            rounds = len(untraced)
            if reps is not None:
                if rounds >= reps:
                    break
            elif rounds and elapsed + 0.5 * elapsed / rounds >= seconds:
                # the next round would overshoot by more than half
                break
            # an untraced run repeats its first seed once, as the
            # determinism check, then walks on through the block; a
            # traced run stays on the first seed, so that its counts
            # do not depend on how many rounds the time allowed
            step = 0 if trace else max(0, rounds - 1)
            for group in (untraced, traced) if trace else (untraced,):
                spent = time.monotonic() - started if reps is None else 0.0
                group.append(run_repetition(
                    name, config_at(step), group is traced, spans_path,
                    DEADLINE_S - spent))
                group[-1]["step"] = step
    finally:
        shutil.rmtree(work)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    every = untraced + traced
    problems = [line for rep in every for line in rep["problems"]]
    first_at: dict[int, dict[str, Any]] = {}
    for rep in every:
        if rep["report"] != first_at.setdefault(rep["step"], rep)["report"]:
            problems.append("repetitions at one seed returned different "
                            "reports (traced and untraced included)")
    rows = [end_to_end(rep) for rep in untraced]
    result: dict[str, Any] = {
        "seed": seed, "smoke": smoke,
        "attempted": sum(rep["attempted"] for rep in every),
        "failed": sum(rep["failed"] for rep in every),
        "problems": sorted(set(problems)),
        "report_digest": hashlib.sha256(json.dumps(
            every[0]["report"], sort_keys=True).encode()).hexdigest()[:16],
        "end_to_end": {metric: summarise([row[metric] for row in rows])
                       for metric in rows[0]},
        "simulated": simulated_side((traced or untraced)[0]),
        # as measured, before scaling: how fast and how steady the
        # host was while the untraced repetitions ran
        "host": {key: summarise([rep[key] for rep in untraced])
                 for key in ("host_speed", "wall_s", "setup_s")},
    }
    if traced:
        result["unresolved"] = traced[0]["unresolved"]
        layers = [per_layer(rep, units) for rep in traced]
        walls = [statistics.median(rep["wall_s"] * rep["host_speed"]
                                   for rep in group)
                 for group in (traced, untraced)]
        for layer in layers:
            layer["trace.overhead_share"] = walls[0] / walls[1] - 1.0
        # in the contract's order; a name either side lacks is an error
        result["per_layer"] = {
            metric: summarise([layer.pop(metric) for layer in layers])
            for metric in units if metric not in result["end_to_end"]}
        if layers[0]:
            raise KeyError(f"not in BENCHMARK.json: {sorted(layers[0])}")
    result["correct"] = not result["problems"] and not result["failed"]
    return result


def render(name: str, result: dict[str, Any], units: dict[str, str]
           ) -> list[str]:
    """The human-readable table of one workload."""
    lines = [f"{name}  seed {result['seed']}  "
             f"{result['attempted']} designer ops attempted, "
             f"{result['failed']} failed"
             + ("  [smoke size]" if result["smoke"] else "")]
    for problem in result["problems"]:
        lines.append(f"  INCORRECT: {problem}")
    for target in result.get("unresolved", ()):
        lines.append(f"  not traced, no longer resolves: {target}")
    for metric, value in result["simulated"].items():
        lines.append(f"  {metric:<34}{value:>16.6g} "
                     f"{units[metric]:<15} (exact at this seed)")
    speed = result["host"]["host_speed"]
    lines.append(f"  host speed while measuring: {speed['median']:.3f} of "
                 f"the reference host (min {speed['min']:.3f}  "
                 f"max {speed['max']:.3f})")
    for block in ("end_to_end", "per_layer"):
        for metric, s in result.get(block, {}).items():
            lines.append(
                f"  {metric:<34}{s['median']:>16.6g} "
                f"{units[metric]:<15} (min {s['min']:.6g}  "
                f"max {s['max']:.6g}  n {s['n']})")
    return lines


def driver_line(result: dict[str, Any], contract: dict[str, Any],
                trace: bool) -> str:
    """The one JSON object the gating driver reads."""
    block = "per_layer" if trace else "end_to_end"
    metrics = {}
    for entry in contract[block]:
        metrics[entry["name"]] = {
            "value": result[block][entry["name"]]["median"],
            "unit": entry["unit"]}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="which block of workload seeds to draw from")
    parser.add_argument("--seconds", type=float,
                        help="measure for about this long per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--reps", type=int,
                        help="a fixed number of repetitions instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a traced repetition to each untraced one "
                             "and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks the harness, measures "
                             "nothing")
    parser.add_argument("--out", type=Path,
                        help="write every workload's full result as JSON")
    parser.add_argument("--spans-out", type=Path,
                        help="directory for the last traced repetition's "
                             "spans, one file per workload")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    contract = json.loads(CONTRACT.read_text(encoding="utf-8"))
    units = {entry["name"]: entry["unit"]
             for block in ("end_to_end", "per_layer")
             for entry in contract[block]}
    seconds = args.seconds if args.seconds is not None \
        else contract["run_seconds"]
    names = [args.workload] if args.workload \
        else [entry["name"] for entry in contract["workloads"]]
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.spans_out is not None:
        args.spans_out.mkdir(parents=True, exist_ok=True)

    results: dict[str, Any] = {}
    for name in names:
        try:
            result = measure(name, args.seed, bool(args.trace), args.smoke,
                             seconds, args.reps, args.spans_out, units)
        except RepetitionFailed as exc:
            print(exc, file=sys.stderr)
            return 2
        results[name] = result
        print("\n".join(render(name, result, units)))
        print(driver_line(result, contract, bool(args.trace)), flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps({
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "workloads": results}, indent=1), encoding="utf-8")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
