#!/usr/bin/env python3
"""Lines per designer operation of one end-to-end workload.

Runs one ``benchmarks/e2e/workloads`` workload through its set-up and
its timed run (``workloads.WORKLOADS[name]``: compile, then run) with
:func:`sys.settrace` counting ``line`` events inside the run, and
prints the lines per designer operation, by layer of ``src/repro``
(``te``, ``txn``, ``scenario``, ...; ``outside`` is the stdlib,
generated dataclass code and the harness) and by the functions that
run the most::

    python tools/lines_per_op.py campaign_reads [--smoke] [--top N]
        [--root DIR] [--json] [--base DIR]

A line count is exact: it does not depend on ``PYTHONHASHSEED`` or on
the host, so two trees can be compared without pairing runs.  With
``--base DIR`` the workload is counted on the tree at *DIR* and on
this one, each in a fresh process, and one table shows both by layer,
then the ``--top`` functions whose lines per op moved most.
``--root DIR`` counts the tree at *DIR* (its ``src`` and its
``benchmarks/e2e``) instead of this one.

The workload runs at ``run.py``'s default seed, and the
designer-operation count is the workload's own (``Verdict.attempted``,
drawn from its input), as in ``benchmarks/e2e/run.py``.  The tool
reads ``benchmarks/e2e`` and writes nothing there: the generated
config goes to a temporary directory and no bytecode is cached.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def _site(filename: str, package: str) -> tuple[str, str]:
    """(layer, path) of a code object's file: the sub-package of
    ``repro`` it lives in, or ``outside``."""
    path = Path(filename)
    try:
        relative = path.resolve().relative_to(package)
    except ValueError:
        return "outside", path.name
    layer = relative.parts[0] if len(relative.parts) > 1 else "repro"
    return layer, relative.as_posix()


def count(root: Path, workload_name: str, smoke: bool) -> dict[str, Any]:
    """Count the line events of one run of *workload_name* on the tree
    at *root*; returns ops, lines, per-layer and per-function counts."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks" / "e2e")]
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    seed = workloads.DEFAULT_SEED
    package = str((root / "src" / "repro").resolve())
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / f"{workload_name}.toml"
        config.write_text(workload.generate(seed, smoke), encoding="utf-8")
        state = workload.setup(config)
        lines: Counter = Counter()

        def local(frame, event, arg):
            if event == "line":
                lines[frame.f_code] += 1
            return local

        def enter(frame, event, arg):
            return local

        sys.settrace(enter)
        try:
            outcome = workload.run(state)
        finally:
            sys.settrace(None)
        verdict = workload.judge(state, outcome)
    layers: Counter = Counter()
    functions: Counter = Counter()
    for code, executed in lines.items():
        layer, path = _site(code.co_filename, package)
        layers[layer] += executed
        functions[f"{path}:{code.co_qualname}"] += executed
    return {"workload": workload_name, "smoke": smoke, "seed": seed,
            "ops": verdict.attempted, "lines": sum(layers.values()),
            "problems": verdict.problems,
            "layers": dict(layers), "functions": dict(functions)}


def render(result: dict[str, Any], top: int) -> str:
    ops = result["ops"]
    size = "smoke size" if result["smoke"] else "full size"
    out = [f"{result['workload']} ({size}, seed {result['seed']}): "
           f"{ops:,} designer ops, {result['lines']:,} lines, "
           f"{result['lines'] / ops:.1f} lines/op",
           f"{'layer':<16}{'lines/op':>10}{'share':>9}"]
    for layer, executed in Counter(result["layers"]).most_common():
        out.append(f"{layer:<16}{executed / ops:>10.1f}"
                   f"{executed / result['lines']:>8.1%}")
    if top:
        out.append(f"top {top} functions (lines/op):")
        for name, executed in Counter(result["functions"]).most_common(top):
            out.append(f"{executed / ops:>10.1f}  {name}")
    return "\n".join(out)


def render_delta(base: dict[str, Any], head: dict[str, Any],
                 top: int) -> str:
    size = "smoke size" if head["smoke"] else "full size"
    out = [f"{head['workload']} ({size}, seed {head['seed']}): "
           f"lines per designer op, base vs head",
           f"{'layer':<16}{'base':>10}{'head':>10}{'ratio':>8}"]
    rows = [("total", base["lines"], head["lines"])] + [
        (layer, base["layers"].get(layer, 0), head["layers"].get(layer, 0))
        for layer in sorted(set(base["layers"]) | set(head["layers"]),
                            key=lambda name: -head["layers"].get(name, 0))]
    for name, old, new in rows:
        old_per_op, new_per_op = old / base["ops"], new / head["ops"]
        ratio = f"{new_per_op / old_per_op:.3f}" if old else "-"
        out.append(f"{name:<16}{old_per_op:>10.1f}{new_per_op:>10.1f}"
                   f"{ratio:>8}")
    if top:
        # the functions whose lines per op moved most, either way; a
        # function one tree lacks counts 0 there
        def per_op(result: dict[str, Any], name: str) -> float:
            return result["functions"].get(name, 0) / result["ops"]

        moved = sorted(set(base["functions"]) | set(head["functions"]),
                       key=lambda name: (-abs(per_op(head, name)
                                              - per_op(base, name)), name))
        out.append(f"top {top} functions by change (lines/op):")
        out.append(f"{'base':>10}{'head':>10}{'ratio':>8}  function")
        for name in moved[:top]:
            old_per_op, new_per_op = per_op(base, name), per_op(head, name)
            ratio = f"{new_per_op / old_per_op:.3f}" if old_per_op else "-"
            out.append(f"{old_per_op:>10.1f}{new_per_op:>10.1f}"
                       f"{ratio:>8}  {name}")
    return "\n".join(out)


def _counted_apart(root: Path, args: argparse.Namespace) -> dict[str, Any]:
    """Count one tree in a process of its own (two trees both define
    ``repro``, so one process cannot import both)."""
    command = [sys.executable, "-B", str(Path(__file__).resolve()),
               args.workload, "--root", str(root), "--json"] \
        + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Lines per designer op of one benchmarks/e2e "
                    "workload, by layer and by function.")
    parser.add_argument("workload")
    parser.add_argument("--smoke", action="store_true",
                        help="the workload's smoke size")
    parser.add_argument("--top", type=int, default=15,
                        help="functions to list (0: none); with --base, "
                             "the ones whose lines per op moved most")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="the tree to count (default: this one)")
    parser.add_argument("--json", action="store_true",
                        help="print the counts as one JSON object")
    parser.add_argument("--base", type=Path,
                        help="another tree to count and compare against")
    args = parser.parse_args(argv)
    if args.base is not None:
        base = _counted_apart(args.base.resolve(), args)
        head = _counted_apart(args.root.resolve(), args)
        print(render_delta(base, head, args.top))
        return 1 if base["problems"] or head["problems"] else 0
    result = count(args.root.resolve(), args.workload, args.smoke)
    print(json.dumps(result) if args.json else render(result, args.top))
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
