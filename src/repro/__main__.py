"""Command-line entry point: ``python -m repro [F1 T1 A2 ...]``.

With no arguments, regenerates and prints every figure (F1-F8),
experiment (T1-T11) and ablation (A1-A3); with arguments, only the named
ones.  ``python -m repro scorecard`` checks every expected shape;
``python -m repro perf`` runs the zero-copy microbenchmark harness and
emits ``BENCH_PERF.json`` (see ``docs/performance.md``).
"""

from __future__ import annotations

import sys


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args and args[0] == "scenario":
        from repro.scenario.cli import scenario_main

        return scenario_main(args[1:])
    if args and args[0] == "trace":
        from repro.scenario.cli import trace_main

        return trace_main(args[1:])
    wanted = {a.upper() for a in args}
    if wanted & {"--SCORECARD", "SCORECARD"}:
        from repro.bench.scorecard import run_scorecard

        card = run_scorecard()
        print(card.render())
        return 1 if card.data["failures"] else 0
    if wanted & {"--PERF", "PERF"}:
        from repro.bench.perf import DEFAULT_ARTIFACT, render, run_perf

        report = run_perf(quick="--QUICK" in wanted or "QUICK" in wanted,
                          emit_path=DEFAULT_ARTIFACT)
        print(render(report))
        print(f"note: wrote {DEFAULT_ARTIFACT}")
        return 0 if report["acceptance"]["ok"] else 1
    from repro.bench.ablations import ALL_ABLATIONS
    from repro.bench.experiments import ALL_EXPERIMENTS
    from repro.bench.figures import ALL_FIGURES

    drivers = {**ALL_FIGURES, **ALL_EXPERIMENTS, **ALL_ABLATIONS}
    unknown = wanted - set(drivers)
    if unknown:
        print(f"unknown experiments: {sorted(unknown)}; "
              f"available: {sorted(drivers)}, 'scorecard' or 'perf'")
        return 2
    for name, driver in drivers.items():
        if wanted and name not in wanted:
            continue
        print(driver().render())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
