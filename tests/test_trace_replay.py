"""The trace record/replay oracle against the committed goldens.

The regression contract of this PR: the golden traces under
``tests/data/traces/`` pin the exact kernel event stream of the T7 and
T8 scenarios, and replaying them must be **byte-identical**, and
re-recording them in fresh interpreter processes with different hash
seeds must reproduce the committed bytes — any future
kernel, scheduler or protocol change that silently reorders the
simulation fails here with a first-divergence report instead of
passing unnoticed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenario import canonical_scenarios, validate_scenario
from repro.sim.trace import (
    TRACE_FORMAT,
    KernelTrace,
    TraceError,
    diff_traces,
    load_trace,
    record_scenario,
    replay_trace,
    save_trace,
)

ROOT = Path(__file__).parent.parent
TRACES = Path(__file__).parent / "data" / "traces"
GOLDENS = ("t7_concurrent_team", "t8_object_buffers")


@pytest.fixture(scope="module", params=GOLDENS)
def golden(request):
    return request.param, load_trace(TRACES / f"{request.param}.jsonl")


class TestGoldenReplay:
    def test_golden_traces_are_committed(self):
        for name in GOLDENS:
            assert (TRACES / f"{name}.jsonl").is_file()

    def test_replay_under_default_build(self, golden):
        name, trace = golden
        diff = replay_trace(trace)
        assert diff.identical, f"{name}:\n{diff.render()}"

    def test_rerecord_is_byte_identical(self, golden, tmp_path):
        """The artifact itself is deterministic: re-recording the
        embedded scenario reproduces the committed bytes exactly."""
        name, trace = golden
        config = validate_scenario(trace.scenario)
        fresh = record_scenario(config)
        out = save_trace(fresh, tmp_path / "fresh.jsonl")
        committed = (TRACES / f"{name}.jsonl").read_bytes()
        assert out.read_bytes() == committed

    @pytest.mark.parametrize("name", GOLDENS)
    def test_record_is_identical_across_processes(self, name, tmp_path):
        """Cross-process determinism: two fresh interpreters with
        different string-hash seeds record the same bytes, and from
        the header on down they are the committed golden's."""
        recorded = []
        for hashseed in ("1", "2"):
            out = tmp_path / f"{name}.{hashseed}.jsonl"
            env = dict(os.environ, PYTHONHASHSEED=hashseed,
                       PYTHONPATH=str(ROOT / "src"))
            subprocess.run(
                [sys.executable, "-m", "repro", "trace", "record",
                 str(ROOT / "scenarios" / f"{name}.toml"),
                 "-o", str(out)],
                check=True, env=env, cwd=ROOT, capture_output=True,
                timeout=120)
            recorded.append(out.read_bytes())
        assert recorded[0] == recorded[1]
        committed = (TRACES / f"{name}.jsonl").read_bytes()
        assert recorded[0].split(b"\n")[1:] \
            == committed.split(b"\n")[1:]

    def test_crash_schedule_records_and_replays(self):
        """A workstation crash armed from the DSL lands in the stream
        and replays identically."""
        raw = canonical_scenarios()["t7_concurrent_team"].as_tables()
        raw["crashes"]["schedule"] = [
            {"node": "ws-B", "at": 15.0, "restart_after": 5.0}]
        trace = record_scenario(validate_scenario(raw))
        assert any(label == "crash:ws-B" for *_, label in trace.events)
        diff = replay_trace(trace)
        assert diff.identical, diff.render()

    def test_golden_headers_are_self_contained(self, golden):
        name, trace = golden
        assert trace.meta["format"] == TRACE_FORMAT
        assert trace.meta["events"] == len(trace.events)
        assert trace.scenario["scenario"]["kind"]
        assert trace.scenario["scenario"]["seed"] >= 0


class TestDivergenceReporting:
    def test_doctored_event_reports_first_divergence(self, golden):
        name, trace = golden
        doctored = KernelTrace(
            meta=dict(trace.meta),
            events=list(trace.events))
        index = len(doctored.events) // 2
        time, priority, seq, label = doctored.events[index]
        doctored.events[index] = (time, priority, seq, "doctored")
        diff = diff_traces(doctored, trace)
        assert not diff.identical
        assert diff.first_divergence == index
        assert diff.expected[3] == "doctored"
        assert diff.actual[3] == label
        report = diff.render()
        assert f"#{index}" in report
        assert "doctored" in report

    def test_truncated_stream_reports_length_divergence(self, golden):
        __, trace = golden
        short = KernelTrace(meta=dict(trace.meta),
                            events=list(trace.events[:-2]))
        diff = diff_traces(trace, short)
        assert not diff.identical
        assert diff.first_divergence == len(trace.events) - 2
        assert diff.actual is None
        assert "(stream ended)" in diff.render()

    def test_identical_render_names_the_count(self, golden):
        __, trace = golden
        diff = diff_traces(trace, trace)
        assert diff.identical
        assert str(len(trace.events)) in diff.render()


class TestArtifactValidation:
    def test_load_rejects_wrong_format(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format":"concord-kernel-trace/99"}\n')
        with pytest.raises(TraceError, match="format"):
            load_trace(bad)

    def test_load_rejects_missing_header(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('[1.0,0,0,"x"]\n')
        with pytest.raises(TraceError, match="header"):
            load_trace(bad)

    def test_load_rejects_event_count_mismatch(self, tmp_path, golden):
        __, trace = golden
        lines = (TRACES / f"{golden[0]}.jsonl").read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:-1]) + "\n")  # drop one event
        with pytest.raises(TraceError, match="declares"):
            load_trace(bad)

    def test_load_names_the_bad_line(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        for row in ('[1.0,0]', '["x",0,1,"l"]', '[1.0,null,1,"l"]'):
            bad.write_text('{"format":"%s","events":1}\n%s\n'
                           % (TRACE_FORMAT, row))
            with pytest.raises(TraceError, match=":2:"):
                load_trace(bad)

    def test_load_names_the_bad_header_key(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format":"%s","events":0,"final_time":"soon"}\n'
                       % TRACE_FORMAT)
        with pytest.raises(TraceError, match=":1:.*'final_time'"):
            load_trace(bad)

    def test_replay_refuses_scenario_free_trace(self):
        trace = KernelTrace(meta={"format": TRACE_FORMAT}, events=[])
        with pytest.raises(TraceError, match="embedded scenario"):
            replay_trace(trace)


class TestGzipArtifacts:
    """``.jsonl.gz`` traces: same contract, smaller bytes."""

    def test_round_trip_preserves_meta_and_events(self, golden,
                                                  tmp_path):
        __, trace = golden
        out = save_trace(trace, tmp_path / "trace.jsonl.gz")
        assert out.read_bytes()[:2] == b"\x1f\x8b"
        loaded = load_trace(out)
        assert loaded.meta == trace.meta
        assert loaded.events == trace.events

    def test_compressed_bytes_are_deterministic(self, golden, tmp_path):
        """mtime is zeroed, so two saves of the same trace are
        byte-identical — gzipped goldens stay committable."""
        __, trace = golden
        first = save_trace(trace, tmp_path / "a.jsonl.gz").read_bytes()
        second = save_trace(trace, tmp_path / "b.jsonl.gz").read_bytes()
        assert first == second

    def test_payload_matches_the_plain_artifact(self, golden, tmp_path):
        import gzip

        __, trace = golden
        plain = save_trace(trace, tmp_path / "t.jsonl").read_bytes()
        packed = save_trace(trace,
                            tmp_path / "t.jsonl.gz").read_bytes()
        assert gzip.decompress(packed) == plain
        assert len(packed) < len(plain)

    def test_detection_is_by_magic_bytes_not_extension(self, golden,
                                                       tmp_path):
        __, trace = golden
        packed = save_trace(trace, tmp_path / "t.jsonl.gz")
        renamed = tmp_path / "renamed.jsonl"
        renamed.write_bytes(packed.read_bytes())
        assert load_trace(renamed).events == trace.events

    def test_corrupt_gzip_is_a_trace_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl.gz"
        bad.write_bytes(b"\x1f\x8b" + b"\x00" * 16)
        with pytest.raises(TraceError, match="gzip"):
            load_trace(bad)


class TestT9Coverage:
    """T9 is not pinned as a golden (the restart episode makes its
    stream longer) but must replay just as exactly."""

    def test_t9_records_and_replays(self):
        config = canonical_scenarios()["t9_write_back"]
        trace = record_scenario(config)
        assert trace.events
        # a header written before the build switches went carries a
        # "flags" key; it selects nothing now and must not hurt
        trace.meta["flags"] = {"kernel_fast_path": False}
        diff = replay_trace(trace)
        assert diff.identical, diff.render()
