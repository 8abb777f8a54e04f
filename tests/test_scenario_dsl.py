"""The scenario DSL: round-trips, diagnostics, and state isolation.

Three satellite surfaces of the scenario/trace PR:

* **property-based round-trips** — for arbitrary valid configs,
  ``parse(dump(config)) == config`` and a second dump is byte-stable;
* **diagnostics** — unknown tables/keys and out-of-range values raise
  :class:`ScenarioError` naming the offending TOML table and key;
* **no state leakage** — compiling and running the same scenario
  back to back (including two sequential CLI ``scenario run``
  invocations in one process) produces identical reports and output:
  the registry/compiler must not bleed RNG or counter state between
  runs.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import asdict, is_dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import (
    KIND_RUNNERS,
    SCENARIO_SCHEMA,
    ScenarioError,
    canonical_scenarios,
    compile_scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
    validate_scenario,
)
from repro.scenario.schema import KIND_KEYS

SCENARIOS_DIR = Path(__file__).parent.parent / "scenarios"
REPORTS_DIR = Path(__file__).parent / "data" / "reports"


# ---------------------------------------------------------------------------
# property-based round-trips
# ---------------------------------------------------------------------------

def _keys_the_kind_reads(raw: dict) -> dict:
    """*raw* without the keys its kind's runner does not read (which
    validation refuses at any value but the default)."""
    read = KIND_KEYS[raw["scenario"]["kind"]]
    return {table: keys if table == "scenario"
            else {key: value for key, value in keys.items()
                  if key in read.get(table, ())}
            for table, keys in raw.items()}


def _raw_configs() -> st.SearchStrategy:
    """Arbitrary *valid* raw scenario definitions."""
    kinds = st.sampled_from(["object_buffers", "write_back", "campaign",
                             "federated_commit"])
    probability = st.floats(min_value=0.0, max_value=1.0,
                            allow_nan=False)
    return st.builds(
        lambda kind, seed, team, steps, mean_step,
        pool, payload, reread, ratio, write_back, caching, jitter,
        ttl, days, members: _keys_the_kind_reads({
            "scenario": {"name": f"gen-{kind}-{seed}", "kind": kind,
                         "seed": seed},
            "team": {"size": team, "steps_per_session": steps,
                     "mean_step": mean_step},
            "objects": {"pool": pool, "payload_bytes": payload},
            "locality": {"reread": reread},
            "writes": {"ratio": ratio, "write_back": write_back},
            "buffers": {"caching": caching},
            "traffic": {"jitter": jitter},
            "leases": {"ttl": ttl},
            "federation": {"members": members},
            "campaign": {"days": days},
        }),
        kinds,
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=0.5, max_value=500.0, allow_nan=False),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=1 << 20),
        probability,
        probability,
        st.booleans(),
        st.booleans(),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=2, max_value=12),
    )


class TestRoundTripProperties:
    @settings(max_examples=100, deadline=None)
    @given(raw=_raw_configs())
    def test_parse_dump_parse_is_identity(self, raw):
        config = validate_scenario(raw)
        text = dump_scenario(config)
        assert parse_scenario(text) == config

    @settings(max_examples=50, deadline=None)
    @given(raw=_raw_configs())
    def test_dump_is_byte_stable(self, raw):
        config = validate_scenario(raw)
        once = dump_scenario(config)
        again = dump_scenario(parse_scenario(once))
        assert once == again

    @settings(max_examples=50, deadline=None)
    @given(raw=_raw_configs())
    def test_validation_is_pure(self, raw):
        """Validating twice from the same raw dict yields equal,
        independent configs — no shared mutable state."""
        first = validate_scenario(raw)
        second = validate_scenario(raw)
        assert first == second
        first.tables["scenario"]["seed"] = -99  # vandalise one copy
        assert second.seed != -99

    def test_subcell_round_trip(self):
        config = validate_scenario({
            "scenario": {"name": "x", "kind": "concurrent_delegation"},
            "team": {"subcells": ["A", "B"]},
            "crashes": {"schedule": [
                {"node": "ws-A", "at": 15.0, "restart_after": 5.0}]},
        })
        assert parse_scenario(dump_scenario(config)) == config


# ---------------------------------------------------------------------------
# diagnostics: every error names the offending [table].key
# ---------------------------------------------------------------------------

def _base(kind: str = "object_buffers", **tables) -> dict:
    raw = {"scenario": {"name": "diag", "kind": kind}}
    if kind == "concurrent_delegation":
        raw["team"] = {"subcells": ["A"]}
    raw.update(tables)
    return raw


class TestDiagnostics:
    def test_unknown_table_is_named(self):
        with pytest.raises(ScenarioError, match=r"\[typo\]"):
            validate_scenario(_base(typo={"x": 1}))
        # the removed kernel-layout table gets the same diagnostic
        with pytest.raises(ScenarioError, match=r"\[kernel\]"):
            validate_scenario(_base(kernel={"shards": 2}))

    def test_unknown_key_names_table_and_key(self):
        with pytest.raises(ScenarioError,
                           match=r"\[team\]: unknown key 'sizee'"):
            validate_scenario(_base(team={"sizee": 3}))

    def test_out_of_range_names_table_and_key(self):
        with pytest.raises(ScenarioError,
                           match=r"\[locality\]\.reread: 1\.4 above"):
            validate_scenario(_base(locality={"reread": 1.4}))
        # NaN compares False against every bound and inf clears any
        # open upper one: non-finite numbers are refused by name
        for text in ("nan", "inf", "-inf"):
            for table, key in (("traffic", "jitter"),
                               ("leases", "ttl"),
                               ("team", "mean_step")):
                with pytest.raises(
                        ScenarioError,
                        match=rf"\[{table}\]\.{key}: expected a "
                              rf"finite number, got {text}"):
                    validate_scenario(_base(**{table: {key: float(text)}}))

    def test_below_minimum_names_table_and_key(self):
        with pytest.raises(ScenarioError,
                           match=r"\[team\]\.size: 0 below"):
            validate_scenario(_base(team={"size": 0}))

    @pytest.mark.parametrize("kind, tables, named", [
        ("campaign", {"campaign": {"churn": 1.5}},
         r"\[campaign\]\.churn: 1\.5 above"),
        ("campaign", {"objects": {"pool": 6, "hotspots": 99}},
         r"\[objects\]\.hotspots: cannot exceed \[objects\]\.pool"),
        ("campaign", {"team": {"mean_step": -1.0}},
         r"\[team\]\.mean_step: -1\.0 below"),
        ("object_buffers", {"writes": {"ratio": 1.4}},
         r"\[writes\]\.ratio: 1\.4 above"),
        ("object_buffers", {"objects": {"payload_bytes": -5000}},
         r"\[objects\]\.payload_bytes: -5000 below"),
    ])
    def test_a_value_no_runner_can_take_is_refused(self, kind, tables,
                                                   named):
        """The config is a scenario's only parameter list, so these —
        which the keyword runners met with a ZeroDivisionError, a
        KeyError, the scheduler's ValueError, or a silent run — never
        reach a runner."""
        with pytest.raises(ScenarioError, match=named):
            validate_scenario(_base(kind, **tables))

    def test_wrong_type_names_table_and_key(self):
        with pytest.raises(ScenarioError,
                           match=r"\[writes\]\.write_back: expected "
                                 r"true/false"):
            validate_scenario(_base(writes={"write_back": "yes"}))

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ScenarioError,
                           match=r"\[team\]\.size: expected an integer"):
            validate_scenario(_base(team={"size": True}))

    def test_missing_required_key_is_named(self):
        with pytest.raises(ScenarioError,
                           match=r"\[scenario\]: missing required key "
                                 r"'kind'"):
            validate_scenario({"scenario": {"name": "x"}})

    def test_unknown_kind_lists_choices(self):
        with pytest.raises(ScenarioError,
                           match=r"\[scenario\]\.kind: 'bogus'"):
            validate_scenario(_base(kind="bogus"))

    @pytest.mark.parametrize("target", [
        "repro.scenario.no_such_module:object_buffer_scenario",
        "repro.scenario.shipping:no_such_runner",
    ])
    def test_a_runner_that_does_not_resolve_fails_at_compile(
            self, monkeypatch, target):
        """The compiler imports the kind's runner: a module or function
        that is not there is a ScenarioError naming it, before any
        run."""
        monkeypatch.setitem(KIND_RUNNERS, "object_buffers", target)
        with pytest.raises(ScenarioError,
                           match=rf"\[scenario\]\.kind: the runner "
                                 rf"'{target}' of 'object_buffers'"):
            compile_scenario(validate_scenario(_base()))

    def test_schedule_entry_errors_carry_the_index(self):
        with pytest.raises(ScenarioError,
                           match=r"\[crashes\]\.schedule\[0\]"):
            validate_scenario(_base(
                kind="concurrent_delegation",
                crashes={"schedule": [{"node": "ws-A"}]}))
        for key in ("at", "restart_after"):
            entry = {"node": "ws-A", "at": 1.0, key: float("nan")}
            with pytest.raises(
                    ScenarioError,
                    match=rf"\[crashes\]\.schedule\[0\]\.{key}: "
                          r"expected a finite number"):
                validate_scenario(_base(kind="concurrent_delegation",
                                        crashes={"schedule": [entry]}))

    def test_a_second_crash_entry_is_refused_at_validation(self):
        entry = {"node": "ws-A", "at": 15.0}
        with pytest.raises(ScenarioError,
                           match=r"\[crashes\]\.schedule: .*at most "
                                 r"one crash entry"):
            validate_scenario(_base(
                kind="concurrent_delegation",
                crashes={"schedule": [entry, {**entry, "at": 30.0}]}))

    def test_a_crash_names_a_node_of_the_team(self):
        with pytest.raises(ScenarioError,
                           match=r"\[crashes\]\.schedule\[0\]\.node: "
                                 r"'ws-Z' is not one of server, ws-0, "
                                 r"ws-A"):
            validate_scenario(_base(
                kind="concurrent_delegation",
                crashes={"schedule": [{"node": "ws-Z", "at": 15.0}]}))
        for node in ("server", "ws-0", "ws-A"):
            validate_scenario(_base(
                kind="concurrent_delegation",
                crashes={"schedule": [{"node": node, "at": 15.0}]}))

    @pytest.mark.parametrize("kind, table, key, value", [
        ("campaign", "writes", "write_back", True),
        ("object_buffers", "writes", "write_back", True),
        ("write_back", "buffers", "caching", False),
        ("write_back", "objects", "hotspots", 2),
        ("concurrent_delegation", "leases", "ttl", 30.0),
        ("concurrent_delegation", "objects", "pool", 8),
        ("object_buffers", "campaign", "churn", 0.5),
        ("concurrent_delegation", "buffers", "caching", False),
    ])
    def test_a_key_the_kind_never_reads_is_refused(self, kind, table,
                                                   key, value):
        """Each of these validated, ran, and gave the report of the
        run without the key: a setting that silently does nothing."""
        with pytest.raises(ScenarioError,
                           match=rf"\[{table}\]\.{key}: kind {kind!r}"):
            validate_scenario(_base(kind, **{table: {key: value}}))
        # the default is what the run uses anyway, so it stays valid
        default = SCENARIO_SCHEMA[table][key].default
        validate_scenario(_base(kind, **{table: {key: default}}))

    @pytest.mark.parametrize("kind, table, key, value", [
        ("write_back", "writes", "flush_interval", 0),
        ("object_buffers", "traffic", "bandwidth", 400.0),
        ("object_buffers", "traffic", "lan_latency", 0.05),
        ("write_back", "crashes", "server_restart", True),
        ("campaign", "campaign", "day_length", 480.0),
        ("campaign", "campaign", "diurnal_peak", 2.0),
        ("federated_commit", "federation", "batches", 4),
    ])
    def test_a_key_that_became_a_constant_is_unknown(self, kind, table,
                                                     key, value):
        """Every run left these at one value, so each is now a constant
        of its runner: a file still naming one is refused, even at the
        value the constant holds, rather than read and ignored."""
        with pytest.raises(ScenarioError,
                           match=rf"\[{table}\]: unknown key {key!r}"):
            validate_scenario(_base(kind, **{table: {key: value}}))

    @pytest.mark.parametrize("kind", sorted(KIND_KEYS))
    def test_the_canonical_form_is_what_the_kind_reads(self, kind):
        """``as_tables()`` (the trace header) and the dump hold
        ``[scenario]`` and exactly the keys the kind's runner reads."""
        raw = _base(kind)
        if kind == "federated_commit":
            raw["federation"] = {"members": 3}
        config = validate_scenario(raw)
        tables = config.as_tables()
        assert list(tables.pop("scenario")) == list(
            SCENARIO_SCHEMA["scenario"])
        assert {table: set(keys) for table, keys in tables.items()} \
            == {table: set(keys)
                for table, keys in KIND_KEYS[kind].items()}
        assert parse_scenario(dump_scenario(config)) == config
        for table in set(SCENARIO_SCHEMA) - set(KIND_KEYS[kind]) \
                - {"scenario"}:
            assert f"[{table}]" not in dump_scenario(config)

    def test_an_unread_key_at_its_default_loads_and_is_not_dumped(self):
        """A file may name a key its kind does not read at its default
        (the e2e campaign workloads say ``write_back = false``); the
        canonical form leaves it out."""
        config = parse_scenario(
            '[scenario]\nname = "x"\nkind = "campaign"\n\n'
            '[writes]\nwrite_back = false\n')
        assert config.as_tables()["writes"] == {"ratio": 0.3}
        assert "write_back" not in dump_scenario(config)

    def test_subcells_require_delegation_kind(self):
        with pytest.raises(ScenarioError, match=r"\[team\]\.subcells"):
            validate_scenario(_base(team={"subcells": ["A"]}))

    @pytest.mark.parametrize("subcells, named", [
        (["A", "A"], r"'A' is listed twice"),
        (["0"], r"'0' would share workstation ws-0"),
    ])
    def test_subcells_that_share_a_workstation_are_refused(self, subcells,
                                                          named):
        """Each subcell runs on workstation ``ws-<cell>`` and ``ws-0``
        is the top DA's: a repeat or a ``"0"`` validated, then died in
        ``run()`` registering the same node twice."""
        with pytest.raises(ScenarioError,
                           match=rf"\[team\]\.subcells: {named}"):
            validate_scenario(_base(kind="concurrent_delegation",
                                    team={"subcells": subcells}))

    def test_hotspot_bias_requires_hotspots(self):
        with pytest.raises(ScenarioError,
                           match=r"\[objects\]\.hotspot_bias"):
            validate_scenario(_base(objects={"hotspot_bias": 0.5}))

    def test_federation_members_require_federated_kind(self):
        with pytest.raises(ScenarioError,
                           match=r"\[federation\]\.members"):
            validate_scenario(_base(federation={"members": 3}))

    def test_federated_commit_needs_two_members(self):
        with pytest.raises(ScenarioError,
                           match=r"\[federation\]\.members"):
            validate_scenario(_base(kind="federated_commit",
                                    federation={"members": 1}))

    def test_federation_placement_is_an_unknown_key(self):
        with pytest.raises(
                ScenarioError,
                match=r"\[federation\]: unknown key 'placement'"):
            validate_scenario(_base(
                kind="federated_commit",
                federation={"members": 3, "placement": "directory"}))

    def test_invalid_toml_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="invalid TOML"):
            parse_scenario("this is = = not toml")

    def test_load_error_names_the_file(self, tmp_path):
        bad = tmp_path / "broken.toml"
        bad.write_text("[locality]\nreread = 2.0\n"
                       "[scenario]\nname='x'\nkind='object_buffers'\n")
        with pytest.raises(ScenarioError, match="broken.toml"):
            load_scenario(bad)


# ---------------------------------------------------------------------------
# the shipped library is the scenario files, in canonical form
# ---------------------------------------------------------------------------

class TestShippedLibrary:
    def test_every_shipped_file_is_in_canonical_form(self):
        """The library is the files: each one is the canonical dump of
        the config it loads to, every key in schema order with its
        effective value."""
        paths = sorted(SCENARIOS_DIR.glob("*.toml"))
        assert [path.stem for path in paths] == list(canonical_scenarios())
        for path in paths:
            assert path.read_text(encoding="utf-8") \
                == dump_scenario(load_scenario(path)), \
                f"{path} is not in canonical form"

    @pytest.mark.parametrize("name", sorted(canonical_scenarios()))
    def test_report_reproduces_the_committed_bytes(self, name):
        """The behaviour contract as committed bytes: every canonical
        scenario's full report (metrics, traffic, event-trace labels)
        equals the JSON recorded before the compat builds were
        removed.  A deliberate behaviour change re-records the file."""
        report = compile_scenario(canonical_scenarios()[name]).run()
        if is_dataclass(report):
            report = asdict(report)
        assert json.dumps(report, sort_keys=True) + "\n" \
            == (REPORTS_DIR / f"{name}.json").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# a knob needs a run that turns it
# ---------------------------------------------------------------------------

ROOT = SCENARIOS_DIR.parent

#: keys a kind reads that every run leaves at one value, each with the
#: reason it stays a key.  This list may only shrink: an entry whose
#: key some run varies fails the guard until it is dropped.
SINGLE_VALUED = {
    ("objects", "hotspot_bias"):
        "set by benchmarks/e2e/workloads/campaign_{reads,writes}.toml, "
        "which only a change to the benchmark may edit",
    ("campaign", "churn"):
        "set by benchmarks/e2e/workloads/campaign_{reads,writes}.toml, "
        "which only a change to the benchmark may edit",
    ("federation", "members"):
        "the multi-member write-back workload of ROADMAP.md 1B(b) needs "
        "another value",
}


def _configs_of_every_run(monkeypatch) -> list:
    """The validated configs of every run outside ``tests/``: the
    scenario library, the DSL workloads of the end-to-end benchmark,
    and whatever the T7-T10 drivers and the concurrent-team example
    validate on their way."""
    import runpy

    import repro.scenario
    from repro.bench import experiments

    configs = [load_scenario(path)
               for path in sorted(SCENARIOS_DIR.glob("*.toml"))]
    for path in sorted((ROOT / "benchmarks" / "e2e" / "workloads")
                       .glob("*.toml")):
        if "kind" in tomllib.loads(path.read_text(encoding="utf-8"))[
                "scenario"]:
            configs.append(load_scenario(path))
    real = repro.scenario.validate_scenario

    def spy(raw):
        configs.append(real(raw))
        return configs[-1]

    monkeypatch.setattr(repro.scenario, "validate_scenario", spy)
    for driver in (experiments.run_t7, experiments.run_t8,
                   experiments.run_t9, experiments.run_t10):
        driver()
    runpy.run_path(str(ROOT / "examples" / "concurrent_team.py"),
                   run_name="__main__")
    return configs


class TestEveryKnobIsTurned:
    def test_every_key_a_kind_reads_takes_two_values(self, monkeypatch,
                                                     capsys):
        """An option stays only when two runs need different values of
        it: a key every run leaves at one value is a constant of the
        runner that reads it."""
        seen: dict[tuple[str, str], set[str]] = {}
        for config in _configs_of_every_run(monkeypatch):
            for table, keys in KIND_KEYS[config.kind].items():
                for key in keys:
                    seen.setdefault((table, key), set()).add(json.dumps(
                        config.get(table, key), sort_keys=True))
        capsys.readouterr()  # the example's report
        single = {where for where, values in seen.items()
                  if len(values) < 2}
        unexplained = sorted(f"[{table}].{key}" for table, key
                             in single - set(SINGLE_VALUED))
        stale = sorted(f"[{table}].{key}" for table, key
                       in set(SINGLE_VALUED) - single)
        assert not unexplained, (
            f"every run leaves {', '.join(unexplained)} at one value: "
            f"make each a constant of the runner that reads it")
        assert not stale, (
            f"some run varies {', '.join(stale)}: drop it from "
            f"SINGLE_VALUED")


# ---------------------------------------------------------------------------
# state isolation: back-to-back runs must not bleed
# ---------------------------------------------------------------------------

class TestNoStateLeakage:
    def test_run_a_run_b_run_a_is_stable(self):
        """Interleaving a different scenario must not perturb the
        next run of the first — shared registries (RNGs, id
        generators) may not carry state across runs."""
        lib = canonical_scenarios()
        t8 = compile_scenario(lib["t8_object_buffers"])
        other = compile_scenario(lib["t9_write_back"])
        first = t8.run()
        other.run()
        third = t8.run()
        assert first == third

    def test_compiled_scenario_is_reusable(self):
        compiled = compile_scenario(
            canonical_scenarios()["t8_object_buffers"])
        assert compiled.run() == compiled.run()

    def test_campaign_back_to_back_is_stable(self):
        compiled = compile_scenario(validate_scenario(_base(
            "campaign", team={"size": 2},
            campaign={"days": 2, "sessions_per_day": 2})))
        reports = [compiled.run() for _ in range(2)]
        assert asdict(reports[0]) == asdict(reports[1])

    def test_two_sequential_cli_runs_print_identical_output(self, capsys):
        """The regression the issue names: two ``scenario run``
        invocations in one process must emit byte-identical reports."""
        from repro.__main__ import main

        path = str(SCENARIOS_DIR / "t8_object_buffers.toml")
        assert main(["scenario", "run", path]) == 0
        first = capsys.readouterr().out
        assert main(["scenario", "run", path]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "bytes_shipped" in first
