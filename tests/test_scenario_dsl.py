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
from dataclasses import asdict, is_dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.scenarios import concurrent_delegation_scenario
from repro.scenario import (
    SCENARIO_SCHEMA,
    ScenarioError,
    canonical_scenarios,
    compile_scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
    validate_scenario,
)

SCENARIOS_DIR = Path(__file__).parent.parent / "scenarios"
REPORTS_DIR = Path(__file__).parent / "data" / "reports"


# ---------------------------------------------------------------------------
# property-based round-trips
# ---------------------------------------------------------------------------

def _raw_configs() -> st.SearchStrategy:
    """Arbitrary *valid* raw scenario definitions."""
    kinds = st.sampled_from(["object_buffers", "write_back", "campaign",
                             "federated_commit"])
    probability = st.floats(min_value=0.0, max_value=1.0,
                            allow_nan=False)
    return st.builds(
        lambda kind, seed, team, steps, mean_step,
        pool, payload, reread, ratio, write_back, caching, bandwidth,
        latency, ttl, days, members, fed_batches: {
            "scenario": {"name": f"gen-{kind}-{seed}", "kind": kind,
                         "seed": seed},
            "team": {"size": team, "steps_per_session": steps,
                     "mean_step": mean_step},
            "objects": {"pool": pool, "payload_bytes": payload},
            "locality": {"reread": reread},
            "writes": {"ratio": ratio, "write_back": write_back},
            "buffers": {"caching": caching},
            "traffic": {"bandwidth": bandwidth,
                        "lan_latency": latency},
            "leases": {"ttl": ttl},
            "federation": {
                "members": members if kind == "federated_commit" else 1,
                "batches": fed_batches,
            },
            "campaign": {"days": days},
        },
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
        st.floats(min_value=1.0, max_value=10_000.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=8),
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
        first.tables["team"]["size"] = -99  # vandalise one copy
        assert second.get("team", "size") != -99

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
            for table, key in (("traffic", "lan_latency"),
                               ("traffic", "bandwidth"),
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
        ("campaign", {"campaign": {"diurnal_peak": 0.0}},
         r"\[campaign\]\.diurnal_peak: 0\.0 below"),
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

    def test_subcells_require_delegation_kind(self):
        with pytest.raises(ScenarioError, match=r"\[team\]\.subcells"):
            validate_scenario(_base(team={"subcells": ["A"]}))

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
# the shipped library stays in sync with the in-code canon
# ---------------------------------------------------------------------------

class TestShippedLibrary:
    def test_every_canonical_scenario_is_shipped(self):
        for name, config in canonical_scenarios().items():
            path = SCENARIOS_DIR / f"{name}.toml"
            assert path.is_file(), f"missing {path}"
            assert path.read_text(encoding="utf-8") \
                == dump_scenario(config), \
                f"{path} drifted from canonical_scenarios()"

    def test_no_stray_scenario_files(self):
        shipped = {p.stem for p in SCENARIOS_DIR.glob("*.toml")}
        assert shipped == set(canonical_scenarios())

    def test_t7_report_equals_hand_coded_runner(self):
        report = compile_scenario(
            canonical_scenarios()["t7_concurrent_team"]).run()
        __, reference = concurrent_delegation_scenario(("A", "B", "C"))
        assert report == reference

    def test_t10_report_equals_hand_coded_matrix(self):
        from repro.bench.scenarios import federated_commit_scenario

        report = compile_scenario(
            canonical_scenarios()["t10_federated_commit"]).run()
        assert report["states_identical"] is True
        assert set(report["crashes"]) \
            == {"none", "before", "after", "coordinator"}
        assert report["crashes"]["after"] \
            == asdict(federated_commit_scenario(crash="after"))

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

    def test_dumped_files_parse_back_to_the_canon(self):
        for name, config in canonical_scenarios().items():
            assert load_scenario(SCENARIOS_DIR / f"{name}.toml") \
                == config


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
