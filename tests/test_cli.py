"""Tests for the ``python -m repro`` entry point."""

from __future__ import annotations

import pytest

from repro.__main__ import main


def test_single_experiment(capsys):
    assert main(["F7"]) == 0
    out = capsys.readouterr().out
    assert "F7" in out
    assert "T1" not in out


def test_unknown_experiment(capsys):
    assert main(["Z9"]) == 2
    assert "unknown" in capsys.readouterr().out


def test_case_insensitive(capsys):
    assert main(["f2"]) == 0
    assert "F2" in capsys.readouterr().out


def test_scorecard_flag(capsys):
    assert main(["scorecard"]) == 0
    out = capsys.readouterr().out
    assert "SCORECARD" in out
    assert "21/21" in out


class TestScenarioSubcommand:
    SCENARIOS = "scenarios"

    def test_run_prints_the_report(self, capsys):
        assert main(["scenario", "run",
                     f"{self.SCENARIOS}/t8_object_buffers.toml"]) == 0
        out = capsys.readouterr().out
        assert "scenario t8-object-buffers:" in out
        assert "bytes_shipped" in out
        assert "hit_rate" in out

    def test_validate_accepts_shipped_files(self, capsys):
        assert main(["scenario", "validate",
                     f"{self.SCENARIOS}/t9_write_back.toml"]) == 0
        assert "OK: t9-write-back" in capsys.readouterr().out

    def test_validate_rejects_and_names_the_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text('[scenario]\nname = "x"\n'
                       'kind = "object_buffers"\n'
                       '[locality]\nreread = 3.0\n')
        assert main(["scenario", "validate", str(bad)]) == 2
        assert "[locality].reread" in capsys.readouterr().err

    @pytest.mark.parametrize("schedule, named", [
        ('{ node = "ws-A", at = 15.0 }, { node = "ws-A", at = 30.0 }',
         "[crashes].schedule: concurrent_delegation compiles at most"),
        ('{ node = "ws-Z", at = 15.0 }', "[crashes].schedule[0].node"),
    ])
    def test_validate_and_run_refuse_the_same_crash_schedules(
            self, tmp_path, capsys, schedule, named):
        bad = tmp_path / "bad.toml"
        bad.write_text('[scenario]\nname = "x"\n'
                       'kind = "concurrent_delegation"\n'
                       '[team]\nsubcells = ["A"]\n'
                       f'[crashes]\nschedule = [{schedule}]\n')
        for command in ("validate", "run"):
            assert main(["scenario", command, str(bad)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("scenario error:")
            assert named in err

    def test_list_names_the_library(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "t7_concurrent_team" in out
        assert "campaign_design_week" in out

    def test_dump_round_trips_through_the_parser(self, capsys):
        from repro.scenario import canonical_scenarios, parse_scenario

        assert main(["scenario", "dump", "t8_object_buffers"]) == 0
        text = capsys.readouterr().out
        assert parse_scenario(text) \
            == canonical_scenarios()["t8_object_buffers"]

    def test_usage_on_missing_args(self, capsys):
        assert main(["scenario"]) == 2
        assert "usage" in capsys.readouterr().out
        # the removed kernel-layout flags are plain surplus arguments
        assert main(["scenario", "run", "x.toml", "--shards", "2"]) == 2
        assert "usage" in capsys.readouterr().out


class TestTraceSubcommand:
    def test_record_then_replay_round_trip(self, tmp_path, capsys):
        out = tmp_path / "t8.jsonl"
        assert main(["trace", "record",
                     "scenarios/t8_object_buffers.toml",
                     "-o", str(out)]) == 0
        assert "recorded" in capsys.readouterr().out
        assert out.is_file()
        assert main(["trace", "replay", str(out)]) == 0
        assert "traces identical" in capsys.readouterr().out

    def test_replay_of_committed_golden_passes(self, capsys):
        assert main(["trace", "replay",
                     "tests/data/traces/t7_concurrent_team.jsonl"]) == 0
        assert "traces identical" in capsys.readouterr().out

    def test_diff_reports_divergence_and_fails(self, tmp_path, capsys):
        from repro.sim.trace import load_trace, save_trace

        golden = "tests/data/traces/t8_object_buffers.jsonl"
        doctored = load_trace(golden)
        time, priority, seq, _ = doctored.events[5]
        doctored.events[5] = (time, priority, seq, "doctored")
        doctored_path = tmp_path / "doctored.jsonl"
        save_trace(doctored, doctored_path)
        assert main(["trace", "diff", golden, str(doctored_path)]) == 1
        out = capsys.readouterr().out
        assert "DIVERGE" in out
        assert "#5" in out
        assert "doctored" in out

    def test_bad_trace_file_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace", "replay", str(bad)]) == 2
        assert "trace error" in capsys.readouterr().err

    def test_usage_on_missing_args(self, capsys):
        assert main(["trace"]) == 2
        assert "usage" in capsys.readouterr().out
        assert main(["trace", "record", "x.toml", "--parallel"]) == 2
        assert "usage" in capsys.readouterr().out
        # so is the removed build selector, on record and replay alike
        for command in ("record", "replay"):
            assert main(["trace", command, "x", "--compat"]) == 2
            assert "usage" in capsys.readouterr().out
