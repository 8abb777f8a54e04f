"""``python -m repro scenario ...`` / ``python -m repro trace ...``.

The command surface of the scenario DSL and the trace oracle:

* ``scenario run <file.toml>`` — compile and execute a scenario file,
  printing its report;
* ``scenario validate <file.toml>`` — schema-check only;
* ``scenario list`` / ``scenario dump <name>`` — the shipped canonical
  library (``dump`` prints the exact TOML the repo ships);
* ``trace record <file.toml> [-o out.jsonl]`` — run a scenario and
  persist its full kernel event stream;
* ``trace replay <trace.jsonl>`` — re-run the embedded scenario and
  diff the streams (exit 1 on divergence: the CI regression gate);
* ``trace diff <a.jsonl> <b.jsonl>`` — structural diff of two trace
  files with a first-divergence report.
"""

from __future__ import annotations

import sys
from dataclasses import fields, is_dataclass
from typing import Any

from repro.scenario.compiler import canonical_scenarios, compile_scenario
from repro.scenario.schema import (
    ScenarioError,
    dump_scenario,
    load_scenario,
)
from repro.util.errors import KernelError
from repro.sim.trace import (
    TraceError,
    diff_traces,
    load_trace,
    record_scenario,
    replay_trace,
    save_trace,
)


def _print_report(name: str, report: Any) -> None:
    print(f"scenario {name}:")
    if is_dataclass(report):
        for spec in fields(report):
            value = getattr(report, spec.name)
            if spec.name == "signature" and isinstance(value, tuple) \
                    and value:
                value = f"({value[0]} events, final t={value[1]})"
            print(f"  {spec.name} = {value}")
    else:
        print(f"  {report}")


def _pop_option(args: list[str], option: str) -> str | None:
    if option not in args:
        return None
    index = args.index(option)
    try:
        value = args[index + 1]
    except IndexError:
        raise ScenarioError(f"{option} needs a value") from None
    del args[index:index + 2]
    return value


def scenario_main(argv: list[str]) -> int:
    """Entry point of the ``scenario`` subcommand."""
    usage = ("usage: python -m repro scenario "
             "{run <file.toml> | "
             "validate <file.toml> | list | dump <name>}")
    try:
        if not argv:
            print(usage)
            return 2
        command, rest = argv[0], list(argv[1:])
        if command == "run":
            if len(rest) != 1:
                print(usage)
                return 2
            config = load_scenario(rest[0])
            _print_report(config.name, compile_scenario(config).run())
            return 0
        if command == "validate":
            if len(rest) != 1:
                print(usage)
                return 2
            config = load_scenario(rest[0])
            print(f"OK: {config.name} (kind={config.kind}, "
                  f"seed={config.seed})")
            return 0
        if command == "list":
            for name, config in canonical_scenarios().items():
                description = config.get("scenario", "description")
                print(f"{name}: {config.kind}  {description}")
            return 0
        if command == "dump":
            if len(rest) != 1:
                print(usage)
                return 2
            library = canonical_scenarios()
            if rest[0] not in library:
                raise ScenarioError(
                    f"unknown canonical scenario {rest[0]!r} "
                    f"(available: {', '.join(library)})")
            print(dump_scenario(library[rest[0]]), end="")
            return 0
        print(usage)
        return 2
    except (ScenarioError, KernelError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2


def trace_main(argv: list[str]) -> int:
    """Entry point of the ``trace`` subcommand."""
    usage = ("usage: python -m repro trace "
             "{record <file.toml> [-o out.jsonl] | "
             "replay <trace.jsonl> | "
             "diff <a.jsonl> <b.jsonl>}")
    try:
        if not argv:
            print(usage)
            return 2
        command, rest = argv[0], list(argv[1:])
        if command == "record":
            out = _pop_option(rest, "-o") or _pop_option(rest, "--out")
            if len(rest) != 1:
                print(usage)
                return 2
            config = load_scenario(rest[0])
            trace = record_scenario(config)
            if out is None:
                out = f"{config.name}.trace.jsonl"
            save_trace(trace, out)
            print(f"recorded {len(trace.events)} events "
                  f"(final t={trace.final_time}) -> {out}")
            return 0
        if command == "replay":
            if len(rest) != 1:
                print(usage)
                return 2
            diff = replay_trace(load_trace(rest[0]))
            print(diff.render())
            if diff.identical:
                print("SUCCESS")
            return 0 if diff.identical else 1
        if command == "diff":
            if len(rest) != 2:
                print(usage)
                return 2
            diff = diff_traces(load_trace(rest[0]), load_trace(rest[1]))
            print(diff.render())
            return 0 if diff.identical else 1
        print(usage)
        return 2
    except (ScenarioError, TraceError, KernelError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
