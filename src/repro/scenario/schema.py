"""The scenario DSL: TOML definitions, validation, serialisation.

Workloads used to be hand-coded python in ``repro.bench.scenarios``;
this module makes them **data**.  A scenario file is plain TOML in a
fixed table layout (team shape, object pool, locality, write mix,
traffic profile, crash schedule, flush/lease knobs — see
``docs/scenarios.md`` for the full reference)::

    [scenario]
    name = "t8-object-buffers"
    kind = "object_buffers"
    seed = 11

    [team]
    size = 3
    steps_per_session = 4

Parsing is strict: every diagnostic names the offending TOML table and
key (``[locality].reread: 1.4 above the maximum 1.0``), unknown tables
and keys are rejected, and a validated :class:`ScenarioConfig` is
fully defaulted and canonical — ``parse(dumps(config)) == config`` for
every valid config (the round-trip property the DSL tests pin down).
Validation never mutates shared state, so configs can be parsed,
compiled and re-serialised back to back in one process.
"""

from __future__ import annotations

import json
import math
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.util.errors import ConcordError


class ScenarioError(ConcordError):
    """A scenario definition that does not satisfy the schema."""


#: the scenario kinds the compiler knows (see repro.scenario.compiler)
SCENARIO_KINDS = ("object_buffers", "write_back",
                  "concurrent_delegation", "campaign",
                  "federated_commit")


@dataclass(frozen=True)
class _Key:
    """Declarative spec of one ``table.key`` entry."""

    type: type
    default: Any
    required: bool = False
    lo: float | None = None
    hi: float | None = None
    choices: tuple[str, ...] | None = None
    #: element type for list-valued keys (str, or dict for the crash
    #: schedule's array-of-tables)
    item: type | None = None
    doc: str = ""


#: the full DSL schema: table -> key -> spec.  Order is the canonical
#: serialisation order of :func:`dump_scenario`.
SCENARIO_SCHEMA: dict[str, dict[str, _Key]] = {
    "scenario": {
        "name": _Key(str, "", required=True,
                     doc="artifact/report identifier"),
        "kind": _Key(str, "", required=True, choices=SCENARIO_KINDS,
                     doc="which runner the config compiles to"),
        "description": _Key(str, "", doc="free-form one-liner"),
        "seed": _Key(int, 0, lo=0, doc="the run's only RNG seed"),
    },
    "team": {
        "size": _Key(int, 3, lo=1, doc="designers (one ws each)"),
        "steps_per_session": _Key(int, 4, lo=1),
        "mean_step": _Key(float, 60.0, lo=1e-9,
                          doc="mean tool-step duration"),
        "subcells": _Key(list, [], item=str,
                         doc="delegation targets "
                             "(concurrent_delegation only)"),
    },
    "objects": {
        "pool": _Key(int, 4, lo=1, doc="shared library objects"),
        "payload_bytes": _Key(int, 4000, lo=0),
        "hotspots": _Key(int, 0, lo=0,
                         doc="skewed-popularity subset (campaign)"),
        "hotspot_bias": _Key(float, 0.0, lo=0.0, hi=1.0,
                             doc="P(read hits a hotspot)"),
    },
    "locality": {
        "reads_per_step": _Key(int, 2, lo=0),
        "reread": _Key(float, 0.6, lo=0.0, hi=1.0,
                       doc="P(read revisits the working set)"),
    },
    "writes": {
        "ratio": _Key(float, 0.3, lo=0.0, hi=1.0,
                      doc="P(step checks in a derived version)"),
        "write_back": _Key(bool, False,
                           doc="stage dirty + group-flush vs eager"),
        "flush_interval": _Key(int, 0, lo=0,
                               doc="deferred checkins per mid-DOP "
                                   "flush (0 = End-of-DOP only)"),
    },
    "buffers": {
        "caching": _Key(bool, True,
                        doc="workstation object buffers on/off"),
    },
    "traffic": {
        "bandwidth": _Key(float, 400.0, lo=1e-9,
                          doc="LAN bytes per time unit"),
        "lan_latency": _Key(float, 0.05, lo=0.0),
        "jitter": _Key(float, 0.0, lo=0.0),
    },
    "leases": {
        "ttl": _Key(float, 0.0, lo=0.0,
                    doc="TTL-renewal leases (0 = recall-only)"),
    },
    "federation": {
        "members": _Key(int, 1, lo=1,
                        doc="member repositories "
                            "(federated_commit only, >= 2 there)"),
        "batches": _Key(int, 4, lo=1,
                        doc="cross-member commit batches per crash "
                            "case"),
    },
    "crashes": {
        "schedule": _Key(list, [], item=dict,
                         doc="[[crashes.schedule]] node/at/"
                             "restart_after entries"),
        "server_restart": _Key(bool, True,
                               doc="seeded server restart + "
                                   "revalidation episode (write_back)"),
    },
    "campaign": {
        "days": _Key(int, 5, lo=1),
        "sessions_per_day": _Key(int, 3, lo=1),
        "day_length": _Key(float, 480.0, lo=1e-9,
                           doc="simulated time units per day"),
        "diurnal_peak": _Key(float, 2.0, lo=1.0,
                             doc="midday load multiplier"),
        "churn": _Key(float, 0.2, lo=0.0, hi=1.0,
                      doc="fraction of designers replaced per day"),
    },
}

#: keys of one [[crashes.schedule]] entry
_SCHEDULE_KEYS: dict[str, _Key] = {
    "node": _Key(str, "", required=True),
    "at": _Key(float, 0.0, required=True, lo=0.0),
    "restart_after": _Key(float, 1.0, lo=0.0),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated, fully-defaulted scenario definition.

    Frozen by design: compiling or serialising a config cannot bleed
    state into the next run.  ``tables`` holds every schema table with
    every key present (defaults filled in), in canonical form.
    """

    tables: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __getitem__(self, table: str) -> dict[str, Any]:
        return self.tables[table]

    def get(self, table: str, key: str) -> Any:
        return self.tables[table][key]

    # -- convenience accessors -------------------------------------------

    @property
    def name(self) -> str:
        return self.tables["scenario"]["name"]

    @property
    def kind(self) -> str:
        return self.tables["scenario"]["kind"]

    @property
    def seed(self) -> int:
        return self.tables["scenario"]["seed"]

    def as_tables(self) -> dict[str, dict[str, Any]]:
        """A deep, mutation-safe copy of the canonical table form
        (what trace headers embed)."""
        return json.loads(json.dumps(self.tables))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ScenarioConfig) \
            and self.tables == other.tables

    def __hash__(self) -> int:  # frozen dataclass wants one
        return hash(json.dumps(self.tables, sort_keys=True))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _check_value(table: str, key: str, spec: _Key, value: Any) -> Any:
    """Type/range-check one value; returns its canonical form."""
    where = f"[{table}].{key}"
    if spec.type is float:
        if type(value) is bool or not isinstance(value, (int, float)):
            raise ScenarioError(
                f"{where}: expected a number, got {value!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ScenarioError(
                f"{where}: expected a finite number, got {value!r}")
    elif spec.type is int:
        if type(value) is bool or not isinstance(value, int):
            raise ScenarioError(
                f"{where}: expected an integer, got {value!r}")
    elif spec.type is bool:
        if type(value) is not bool:
            raise ScenarioError(
                f"{where}: expected true/false, got {value!r}")
    elif spec.type is str:
        if not isinstance(value, str):
            raise ScenarioError(
                f"{where}: expected a string, got {value!r}")
    elif spec.type is list:
        if not isinstance(value, list):
            raise ScenarioError(
                f"{where}: expected an array, got {value!r}")
        if spec.item is str:
            bad = [v for v in value if not isinstance(v, str)]
            if bad:
                raise ScenarioError(
                    f"{where}: expected an array of strings, got "
                    f"{bad[0]!r}")
            value = list(value)
        elif spec.item is dict:
            value = [_check_schedule_entry(table, key, i, entry)
                     for i, entry in enumerate(value)]
    if spec.lo is not None and isinstance(value, (int, float)) \
            and value < spec.lo:
        raise ScenarioError(
            f"{where}: {value!r} below the minimum {spec.lo!r}")
    if spec.hi is not None and isinstance(value, (int, float)) \
            and value > spec.hi:
        raise ScenarioError(
            f"{where}: {value!r} above the maximum {spec.hi!r}")
    if spec.choices is not None and value not in spec.choices:
        raise ScenarioError(
            f"{where}: {value!r} is not one of "
            f"{', '.join(spec.choices)}")
    return value


def _check_schedule_entry(table: str, key: str, index: int,
                          entry: Any) -> dict[str, Any]:
    where = f"[{table}].{key}[{index}]"
    if not isinstance(entry, dict):
        raise ScenarioError(f"{where}: expected a table, got {entry!r}")
    unknown = set(entry) - set(_SCHEDULE_KEYS)
    if unknown:
        raise ScenarioError(
            f"{where}: unknown key {sorted(unknown)[0]!r} "
            f"(known: {', '.join(_SCHEDULE_KEYS)})")
    out: dict[str, Any] = {}
    for name, spec in _SCHEDULE_KEYS.items():
        if name not in entry:
            if spec.required:
                raise ScenarioError(f"{where}: missing required key "
                                    f"{name!r}")
            out[name] = spec.default
        else:
            out[name] = _check_value(table, f"{key}[{index}].{name}",
                                     spec, entry[name])
    return out


def validate_scenario(raw: dict[str, Any]) -> ScenarioConfig:
    """Validate a raw table dict into a canonical config.

    Every diagnostic names the offending table (and key, where one is
    involved); unknown tables/keys are errors, not warnings — a typo in
    a scenario file must never silently fall back to a default.
    """
    if not isinstance(raw, dict):
        raise ScenarioError(f"scenario definition must be a table of "
                            f"tables, got {raw!r}")
    unknown_tables = set(raw) - set(SCENARIO_SCHEMA)
    if unknown_tables:
        raise ScenarioError(
            f"unknown table [{sorted(unknown_tables)[0]}] "
            f"(known: {', '.join(SCENARIO_SCHEMA)})")
    tables: dict[str, dict[str, Any]] = {}
    for table, keys in SCENARIO_SCHEMA.items():
        given = raw.get(table, {})
        if not isinstance(given, dict):
            raise ScenarioError(
                f"[{table}] must be a table, got {given!r}")
        unknown = set(given) - set(keys)
        if unknown:
            raise ScenarioError(
                f"[{table}]: unknown key {sorted(unknown)[0]!r} "
                f"(known: {', '.join(keys)})")
        out: dict[str, Any] = {}
        for key, spec in keys.items():
            if key not in given:
                if spec.required:
                    raise ScenarioError(
                        f"[{table}]: missing required key {key!r}")
                out[key] = json.loads(json.dumps(spec.default))
            else:
                out[key] = _check_value(table, key, spec, given[key])
        tables[table] = out
    config = ScenarioConfig(tables=tables)
    _check_kind_constraints(config)
    return config


def _check_kind_constraints(config: ScenarioConfig) -> None:
    """Cross-table rules that depend on the scenario kind."""
    kind = config.kind
    if kind == "concurrent_delegation":
        if not config.get("team", "subcells"):
            raise ScenarioError(
                "[team].subcells: kind 'concurrent_delegation' needs "
                "at least one subcell")
    elif config.get("team", "subcells"):
        raise ScenarioError(
            f"[team].subcells: only kind 'concurrent_delegation' "
            f"delegates subcells (kind is {kind!r})")
    schedule = config.get("crashes", "schedule")
    if schedule and kind != "concurrent_delegation":
        raise ScenarioError(
            f"[crashes].schedule: crash injection is only compiled "
            f"for kind 'concurrent_delegation' (kind is {kind!r}; "
            f"write_back kinds use [crashes].server_restart)")
    if len(schedule) > 1:
        raise ScenarioError(
            "[crashes].schedule: concurrent_delegation compiles at "
            "most one crash entry")
    if schedule:
        nodes = ["server", "ws-0", *(f"ws-{cell}" for cell
                                     in config.get("team", "subcells"))]
        if schedule[0]["node"] not in nodes:
            raise ScenarioError(
                f"[crashes].schedule[0].node: "
                f"{schedule[0]['node']!r} is not one of "
                f"{', '.join(nodes)}")
    if config.get("objects", "hotspot_bias") > 0.0 \
            and config.get("objects", "hotspots") == 0:
        raise ScenarioError(
            "[objects].hotspot_bias: set [objects].hotspots > 0 to "
            "give the bias a target set")
    if config.get("objects", "hotspots") > config.get("objects", "pool"):
        raise ScenarioError(
            "[objects].hotspots: cannot exceed [objects].pool")
    if kind == "federated_commit":
        if config.get("federation", "members") < 2:
            raise ScenarioError(
                "[federation].members: kind 'federated_commit' needs "
                "at least 2 members (cross-member batches)")
    elif config.get("federation", "members") != 1:
        raise ScenarioError(
            f"[federation].members: only kind 'federated_commit' "
            f"runs a federation (kind is {kind!r})")


# ---------------------------------------------------------------------------
# parse / serialise
# ---------------------------------------------------------------------------

def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate scenario TOML source."""
    try:
        raw = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError(f"invalid TOML: {exc}") from exc
    return validate_scenario(raw)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate a ``.toml`` scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(
            f"cannot read scenario {path}: {exc}") from exc
    try:
        return parse_scenario(text)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _toml_value(value: Any) -> str:
    """Render one canonical config value as TOML."""
    if type(value) is bool:
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value)
        # TOML floats need a dot or exponent; repr guarantees one for
        # every non-integral value and '60.0' for integral ones
        return text
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, list):
        if value and isinstance(value[0], dict):
            rows = []
            for entry in value:
                body = ", ".join(f"{k} = {_toml_value(v)}"
                                 for k, v in entry.items())
                rows.append("{ " + body + " }")
            return "[\n    " + ",\n    ".join(rows) + ",\n]"
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    raise ScenarioError(f"cannot serialise {value!r} to TOML")


def dump_scenario(config: ScenarioConfig) -> str:
    """Serialise a config to canonical TOML.

    Emits every table and key in schema order with its effective value
    — a dumped file is self-documenting and survives
    ``parse(dumps(config)) == config`` byte-stable (the round-trip
    property).
    """
    lines: list[str] = []
    for table, keys in SCENARIO_SCHEMA.items():
        lines.append(f"[{table}]")
        for key in keys:
            lines.append(f"{key} = {_toml_value(config.get(table, key))}")
        lines.append("")
    return "\n".join(lines)
