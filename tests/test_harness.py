import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading

import pytest

from pacebench import harness
from pacebench.errors import (
    ConfigError,
    DeliveryAbortedError,
    EmptyGroupError,
    EncoderRunError,
    InvalidInputError,
    TemplateError,
)
from pacebench.harness import (
    BenchmarkConfig,
    EncoderProfile,
    InputMode,
    OutputMode,
    RunMode,
    RunRecord,
    achieved_bitrate,
    load_benchmark_config,
    load_run_record,
    mean_sample_std,
    render_command,
    run_basename,
    run_benchmark,
    run_metric_tool,
    run_paced,
    run_unpaced,
    runs_csv_text,
    save_run_record,
    throughput_stats,
)
from pacebench.pacer import PacingReport

from synthetic import make_sequence, mock_profile, write_raw_source

# Read while pytest collects, before any test has run the pacer
with open("/proc/self/timerslack_ns") as _fh:
    START_SLACK_NS = int(_fh.read())


X264_TEMPLATE = (
    "x264", "--preset", "medium", "--bitrate", "{bitrate_kbps}",
    "--fps", "{fps}", "--demuxer", "raw",
    "--input-res", "{width}x{height}", "-o", "{output}", "{input}",
)


class TestProfileValidation:
    def test_valid(self):
        profile = EncoderProfile("x264", X264_TEMPLATE)
        assert profile.input_mode is InputMode.STDIN_RAW

    def test_bitrate_placeholder_required(self):
        with pytest.raises(ConfigError, match="bitrate_kbps"):
            EncoderProfile("bad", ("enc", "-o", "{output}"))

    def test_bitrate_placeholder_once(self):
        with pytest.raises(ConfigError, match="bitrate_kbps"):
            EncoderProfile("bad", ("enc", "{bitrate_kbps}", "{bitrate_kbps}", "{output}"))

    def test_output_required_for_file_mode(self):
        with pytest.raises(ConfigError, match="output"):
            EncoderProfile("bad", ("enc", "{bitrate_kbps}"))

    def test_output_conflicts_with_stdout_mode(self):
        with pytest.raises(ConfigError, match="output"):
            EncoderProfile("bad", ("enc", "{bitrate_kbps}", "{output}"), output_mode="stdout")

    def test_stdout_mode_without_output(self):
        EncoderProfile("ok", ("enc", "{bitrate_kbps}"), output_mode="stdout")


class TestRenderCommand:
    def test_x264_style(self):
        profile = EncoderProfile("x264", X264_TEMPLATE)
        seq = make_sequence(width=1920, height=1080, fps_num=25, frame_count=250)
        tokens = render_command(profile, seq, 2500, output_path="out.264")
        assert tokens[:9] == [
            "x264", "--preset", "medium", "--bitrate", "2500",
            "--fps", "25", "--demuxer", "raw",
        ]
        assert "1920x1080" in tokens
        assert tokens[-1] == "-"  # stdin input renders as '-'
        assert not any("{" in t for t in tokens)

    def test_single_substitution(self):
        profile = EncoderProfile("e", ("enc", "{bitrate_kbps}"), output_mode="stdout")
        assert render_command(profile, make_sequence(), 800) == ["enc", "800"]

    def test_unknown_placeholder(self):
        profile = EncoderProfile("e", ("enc", "{bitrate_kbps}", "{unknown}"), output_mode="stdout")
        with pytest.raises(TemplateError, match="unknown"):
            render_command(profile, make_sequence(), 800)

    def test_fractional_fps_renders_ratio(self):
        profile = EncoderProfile("e", ("enc", "{bitrate_kbps}", "{fps}"), output_mode="stdout")
        seq = make_sequence(fps_num=30000, fps_den=1001, frame_count=30)
        assert render_command(profile, seq, 800)[-1] == "30000/1001"

    def test_deterministic_and_injective_in_bitrate(self):
        profile = EncoderProfile("e", ("enc", "{bitrate_kbps}"), output_mode="stdout")
        seq = make_sequence()
        first = render_command(profile, seq, 800)
        assert first == render_command(profile, seq, 800)
        assert first != render_command(profile, seq, 900)


class TestAchievedBitrate:
    def test_examples(self):
        assert achieved_bitrate(1_250_000, 10.0) == pytest.approx(1000.0)
        assert achieved_bitrate(0, 10.0) == 0.0
        assert achieved_bitrate(13_697_500, 10.96) == pytest.approx(9998.2, abs=0.05)

    def test_zero_duration(self):
        with pytest.raises(InvalidInputError):
            achieved_bitrate(1000, 0.0)

    def test_linear_in_size(self):
        assert achieved_bitrate(2_500_000, 10.0) == 2 * achieved_bitrate(1_250_000, 10.0)


class TestStats:
    def test_singleton(self):
        assert mean_sample_std([25.0]) == (25.0, 0.0)

    def test_textbook_sample_std(self):
        mean, std = mean_sample_std([10.0, 20.0, 30.0])
        assert mean == pytest.approx(20.0)
        assert std == pytest.approx(10.0)

    def test_constant(self):
        assert mean_sample_std([25.0, 25.0, 25.0]) == (25.0, 0.0)

    def test_matches_statistics_on_random_groups(self):
        rng = random.Random(7)
        for _ in range(500):
            base = rng.uniform(1.0, 500.0)
            spread = base * 10 ** rng.uniform(-4, 0)
            values = [base + rng.uniform(-spread, spread) for _ in range(rng.randint(2, 40))]
            mean, std = mean_sample_std(values)
            assert mean == statistics.fmean(values)
            assert std == pytest.approx(statistics.stdev(values), rel=1e-12, abs=0)

    def test_constant_group_keeps_its_value(self):
        # fmean of three 0.1s is not 0.1; a constant group gives its value back
        assert mean_sample_std([0.1, 0.1, 0.1]) == (0.1, 0.0)

    def test_empty(self):
        with pytest.raises(EmptyGroupError):
            mean_sample_std([])

    def test_throughput_stats_groups_by_bitrate(self):
        def rec(bitrate, fps):
            return RunRecord("p", "s", bitrate, RunMode.UNPACED, 1.0, 10, fps, 0, 0.0, 0)

        stats = throughput_stats([rec(800, 10.0), rec(800, 20.0), rec(900, 30.0)])
        assert stats[800.0] == (15.0, pytest.approx(7.0710678, abs=1e-6))
        assert stats[900.0] == (30.0, 0.0)

    def test_throughput_stats_empty(self):
        with pytest.raises(EmptyGroupError):
            throughput_stats([])


@pytest.fixture
def source_seq(tmp_path):
    seq = make_sequence(frame_count=60, path=tmp_path / "src.yuv")
    write_raw_source(seq.path, seq)
    return seq


class TestRunUnpaced:
    @pytest.mark.realtime
    def test_fast_mock_is_not_rate_capped(self, tmp_path):
        seq = make_sequence(frame_count=500, path=tmp_path / "src.yuv")
        write_raw_source(seq.path, seq)
        record = run_unpaced(mock_profile("fast"), seq, 800, output_path=tmp_path / "o.bin")
        assert record.frames_in == 500
        assert record.throughput_fps > 500
        assert record.exit_status == 0
        assert record.pacing is None

    def test_output_size_and_achieved_bitrate(self, source_seq, tmp_path):
        record = run_unpaced(mock_profile("fast"), source_seq, 800, output_path=tmp_path / "o.bin")
        # mock emits kbps*1000/8/fps bytes per frame: 4000 B x 60 frames
        assert record.output_size_bytes == 240_000
        assert record.achieved_bitrate_kbps == pytest.approx(800.0)

    def test_nonzero_exit_carries_stderr(self, source_seq, tmp_path):
        profile = mock_profile("failing", "--fail-after", "5")
        with pytest.raises(EncoderRunError) as err:
            run_unpaced(profile, source_seq, 800, output_path=tmp_path / "o.bin")
        assert err.value.exit_status == 1
        assert "simulated failure" in str(err.value)

    def test_spawn_failure(self, source_seq):
        profile = EncoderProfile(
            "ghost", ("definitely-not-a-real-encoder", "{bitrate_kbps}", "{output}")
        )
        with pytest.raises(EncoderRunError, match="spawn"):
            run_unpaced(profile, source_seq, 800)

    def test_stdout_output_mode(self, source_seq, tmp_path):
        profile = mock_profile("pipe-out", output_mode="stdout")
        record = run_unpaced(profile, source_seq, 800, output_path=tmp_path / "o.bin")
        assert record.output_size_bytes == 240_000
        assert (tmp_path / "o.bin").stat().st_size == 240_000

    def test_file_input_mode(self, source_seq, tmp_path):
        code = (
            "import sys, pathlib;"
            "data = pathlib.Path(sys.argv[1]).read_bytes();"
            "pathlib.Path(sys.argv[2]).write_bytes(b'z' * (len(data) // 6))"
        )
        profile = EncoderProfile(
            "file-reader",
            (sys.executable, "-c", code, "{input}", "{output}", "--bitrate", "{bitrate_kbps}"),
            input_mode="file",
        )
        record = run_unpaced(profile, source_seq, 800, output_path=tmp_path / "o.bin")
        assert record.frames_in == source_seq.frame_count
        assert record.output_size_bytes == source_seq.frame_count

    def test_y4m_framing(self, source_seq, tmp_path):
        code = (
            "import sys;"
            "data = sys.stdin.buffer.read();"
            "import pathlib;"
            "pathlib.Path(sys.argv[1]).write_bytes(b'%d %d' % "
            "(data.count(b'FRAME\\n'), data.startswith(b'YUV4MPEG2')))"
        )
        profile = EncoderProfile(
            "y4m-sink",
            (sys.executable, "-c", code, "{output}", "{bitrate_kbps}"),
            input_mode="stdin_y4m",
        )
        out = tmp_path / "o.bin"
        record = run_unpaced(profile, source_seq, 800, output_path=out)
        frames, has_header = out.read_text().split()
        assert int(frames) == source_seq.frame_count
        assert int(has_header) == 1
        assert record.frames_in == source_seq.frame_count


class TestRunPaced:
    @pytest.mark.realtime
    def test_fast_mock_tracks_capture_rate(self, tmp_path):
        # 75 frames: 75/74 < 1.02, so the rate cap holds even with instant exit
        seq = make_sequence(frame_count=75, path=tmp_path / "src.yuv")
        write_raw_source(seq.path, seq)
        record = run_paced(mock_profile("fast"), seq, 800, output_path=tmp_path / "o.bin")
        assert record.pacing is not None
        assert record.pacing.frames_sent == 75
        assert record.throughput_fps == pytest.approx(25.0, abs=1.0)
        assert record.throughput_fps <= seq.fps * 1.02

    def test_file_input_mode_rejected(self, source_seq):
        profile = EncoderProfile(
            "f", ("enc", "{bitrate_kbps}", "{input}", "{output}"), input_mode="file"
        )
        with pytest.raises(ConfigError, match="paced"):
            run_paced(profile, source_seq, 800)

    def test_encoder_stopping_early_aborts_delivery(self, source_seq, tmp_path):
        profile = mock_profile("quitter", "--stop-after", "10")
        with pytest.raises(DeliveryAbortedError) as err:
            run_paced(profile, source_seq, 800, output_path=tmp_path / "o.bin")
        record = err.value.run_record
        assert record is not None
        assert 10 <= record.frames_in < source_seq.frame_count
        assert record.pacing is not None

    def test_encoders_never_inherit_the_pacers_timer_slack(self, quick_seq, tmp_path):
        # a child keeps the timer slack of the thread that started it
        code = ("import sys, pathlib; sys.stdin.buffer.read();"
                "sys.stdout.write(pathlib.Path('/proc/self/timerslack_ns').read_text())")
        profile = EncoderProfile("slack", (sys.executable, "-c", code, "{bitrate_kbps}"),
                                 output_mode="stdout")
        for name in ("first.txt", "second.txt"):
            run_paced(profile, quick_seq, 800, output_path=tmp_path / name)
            assert int((tmp_path / name).read_text()) == START_SLACK_NS


def _script_profile(name: str, code: str, **kwargs) -> EncoderProfile:
    """A child running ``code`` with sys.argv[1] = {output}."""
    return EncoderProfile(
        name, (sys.executable, "-c", code, "{output}", "{bitrate_kbps}"), **kwargs
    )


_CHATTY_CODE = (
    "import sys, pathlib;"
    "sys.stdout.buffer.write(b'o' * (4 << 20)); sys.stdout.flush();"
    "sys.stderr.buffer.write(b'e' * (4 << 20)); sys.stderr.flush();"
    "pathlib.Path(sys.argv[1]).write_bytes(sys.stdin.buffer.read())"
)


@pytest.fixture
def quick_seq(tmp_path):
    """20 frames at 250 fps, so a paced run takes 80 ms."""
    seq = make_sequence(frame_count=20, fps_num=250, path=tmp_path / "quick.yuv")
    write_raw_source(seq.path, seq)
    return seq


class TestChildOutput:
    """stdin is a child's only pipe: stdout goes to a file or /dev/null, stderr to a temp file."""

    @pytest.mark.parametrize("run", [run_unpaced, run_paced])
    def test_child_writing_megabytes_before_reading_stdin(self, run, tmp_path):
        seq = make_sequence(frame_count=10, path=tmp_path / "src.yuv")
        write_raw_source(seq.path, seq)
        out = tmp_path / "o.bin"
        record = run(_script_profile("chatty", _CHATTY_CODE), seq, 800, output_path=out)
        assert record.frames_in == 10
        assert out.read_bytes() == seq.path.read_bytes()

    def test_failing_child_stderr_tail_is_last_64_kib(self, source_seq):
        code = (
            "import sys;"
            "sys.stderr.buffer.write(bytes(65 + k % 26 for k in range(200_000)));"
            "sys.exit(1)"
        )
        with pytest.raises(EncoderRunError) as err:
            run_unpaced(_script_profile("loud", code, input_mode="file"), source_seq, 800)
        expected = bytes(65 + k % 26 for k in range(200_000))[-65536:].decode()
        assert err.value.stderr_tail == expected
        assert err.value.exit_status == 1

    def test_stdout_mode_without_output_path(self, source_seq, tmp_path, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        record = run_unpaced(mock_profile("pipe-out", output_mode="stdout"), source_seq, 800)
        assert record.output_size_bytes == 240_000
        assert list(scratch.iterdir()) == []

    def test_runs_leave_no_open_descriptors(self, quick_seq, tmp_path):
        before = len(os.listdir("/proc/self/fd"))
        run_unpaced(mock_profile("a"), quick_seq, 800, output_path=tmp_path / "a.bin")
        run_unpaced(mock_profile("b", output_mode="stdout"), quick_seq, 800)
        run_paced(mock_profile("c"), quick_seq, 800, output_path=tmp_path / "c.bin")
        with pytest.raises(EncoderRunError):
            run_unpaced(mock_profile("d", "--fail-after", "5"), quick_seq, 800)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_run_starts_no_thread(self, quick_seq, tmp_path, monkeypatch):
        counts = []

        class CountingPopen(subprocess.Popen):
            def wait(self, timeout=None):
                counts.append(threading.active_count())
                return super().wait(timeout)

        monkeypatch.setattr(harness.subprocess, "Popen", CountingPopen)
        base = threading.active_count()
        run_unpaced(mock_profile("a"), quick_seq, 800, output_path=tmp_path / "a.bin")
        run_unpaced(mock_profile("b", output_mode="stdout"), quick_seq, 800)
        run_paced(mock_profile("c"), quick_seq, 800, output_path=tmp_path / "c.bin")
        assert len(counts) == 3 and all(count == base for count in counts)


def _run_metric_tool_writing_ff(status: int, tmp_path) -> None:
    """A metric tool that writes a byte that is not UTF-8 to stderr, then exits."""
    code = f"import sys; sys.stderr.buffer.write(b'bad \\xff byte'); sys.exit({status})"
    run_metric_tool((sys.executable, "-c", code, "{report_out}"), reference="r",
                    distorted="d", seq=make_sequence(), report_out=tmp_path / "q.json")


class TestMetricTool:
    def test_non_utf8_stderr_on_success(self, tmp_path):
        _run_metric_tool_writing_ff(0, tmp_path)

    def test_non_utf8_stderr_on_failure(self, tmp_path):
        with pytest.raises(EncoderRunError) as err:
            _run_metric_tool_writing_ff(1, tmp_path)
        assert err.value.exit_status == 1
        assert err.value.stderr_tail == "bad \ufffd byte"


class TestRecordPersistence:
    def test_json_round_trip(self, tmp_path):
        record = RunRecord(
            profile_name="x264",
            sequence_short_name="BS25",
            target_bitrate_kbps=800.0,
            mode=RunMode.PACED,
            wall_time_s=10.0,
            frames_in=250,
            throughput_fps=25.0,
            output_size_bytes=1_000_000,
            achieved_bitrate_kbps=800.0,
            exit_status=0,
            pacing=PacingReport(250, 9.96, [0.0, 0.001], 0.25, 12345.0),
        )
        path = tmp_path / "r.json"
        save_run_record(record, path)
        assert load_run_record(path) == record

    def test_runs_csv_round_trip(self):
        record = RunRecord(
            "p", "s", 812.5, RunMode.UNPACED, 1.2345678901234567, 10,
            8.101929871234567, 123456, 812.0001234, 0,
        )
        text = runs_csv_text([record])
        import csv, io

        row = next(csv.DictReader(io.StringIO(text)))
        assert float(row["wall_time_s"]) == record.wall_time_s
        assert float(row["throughput_fps"]) == record.throughput_fps
        assert float(row["achieved_kbps"]) == record.achieved_bitrate_kbps
        assert int(row["frames"]) == record.frames_in
        assert row["mode"] == "unpaced"


class TestBenchmarkConfig:
    def _config_dict(self, tmp_path, **overrides):
        data = {
            "profiles": [
                {
                    "name": "mock",
                    "command_template": list(mock_profile("mock").command_template),
                    "input_mode": "stdin_raw",
                    "output_mode": "file",
                }
            ],
            "sequences": ["SY25"],
            "bitrates_kbps": [800, 1600],
            "modes": ["unpaced"],
            "output_dir": "runs",
            "repetitions": 1,
        }
        data.update(overrides)
        return data

    def _write(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return path

    def test_load_and_resolve_paths(self, tmp_path):
        path = self._write(tmp_path, self._config_dict(tmp_path, manifest="m.json"))
        config = load_benchmark_config(path)
        assert config.output_dir == tmp_path / "runs"
        assert config.manifest == tmp_path / "m.json"

    @pytest.mark.parametrize(
        "bitrates", [[], [0, 100], [-5], [800, 800], [900, 800]]
    )
    def test_bitrate_ladder_validation(self, tmp_path, bitrates):
        path = self._write(tmp_path, self._config_dict(tmp_path, bitrates_kbps=bitrates))
        with pytest.raises(ConfigError):
            load_benchmark_config(path)

    def test_duplicate_profile_names(self, tmp_path):
        data = self._config_dict(tmp_path)
        data["profiles"].append(dict(data["profiles"][0]))
        path = self._write(tmp_path, data)
        with pytest.raises(ConfigError, match="unique"):
            load_benchmark_config(path)

    def test_bad_mode(self, tmp_path):
        path = self._write(tmp_path, self._config_dict(tmp_path, modes=["warp"]))
        with pytest.raises(ConfigError):
            load_benchmark_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [("repetitions", 2.7), ("repetitions", "3"), ("repetitions", True),
         ("bitrates_kbps", ["800", 1600]), ("bitrates_kbps", [True, 1600]),
         ("sequences", "SY25"), ("sequences", ["SY25", 7]),
         ("metric_command", "vmaf"), ("metric_command", ["vmaf", None]),
         ("modes", "paced"), ("modes", ["paced", 1])],
        ids=["repetitions-float", "repetitions-string", "repetitions-bool",
             "bitrate-string", "bitrate-bool", "sequences-string", "sequences-number",
             "metric-command-string", "metric-command-null", "modes-string", "modes-number"],
    )
    def test_non_numeric_value_rejected(self, tmp_path, key, value):
        path = self._write(tmp_path, self._config_dict(tmp_path, **{key: value}))
        with pytest.raises(ConfigError, match=key):
            load_benchmark_config(path)

    @pytest.mark.parametrize(
        "template", ["x264 --bitrate {bitrate_kbps} -o {output}", ["x264", 264]],
        ids=["string", "number"],
    )
    def test_command_template_must_be_string_array(self, tmp_path, template):
        data = self._config_dict(tmp_path)
        data["profiles"][0]["command_template"] = template
        path = self._write(tmp_path, data)
        with pytest.raises(ConfigError, match="profile 'mock': command_template"):
            load_benchmark_config(path)

    def test_zero_repetitions(self, tmp_path):
        path = self._write(tmp_path, self._config_dict(tmp_path, repetitions=0))
        with pytest.raises(ConfigError):
            load_benchmark_config(path)


class TestRunBenchmark:
    def test_campaign_persists_records(self, tmp_path):
        seq = make_sequence(frame_count=20, path=tmp_path / "src.yuv")
        write_raw_source(seq.path, seq)
        config = BenchmarkConfig(
            profiles=(mock_profile("mock-a"),),
            sequences=("SY25",),
            bitrates_kbps=(800, 1600),
            modes=(RunMode.UNPACED,),
            output_dir=tmp_path / "runs",
        )
        records = run_benchmark(config, {"SY25": seq})
        assert len(records) == 2
        assert (tmp_path / "runs" / "runs.csv").exists()
        for bitrate in (800, 1600):
            base = run_basename("mock-a", "SY25", bitrate, RunMode.UNPACED, 0)
            assert (tmp_path / "runs" / f"{base}.json").exists()
            assert (tmp_path / "runs" / f"{base}.bin").exists()
        assert records[1].achieved_bitrate_kbps == pytest.approx(1600.0)

    def test_only_filter(self, tmp_path):
        seq = make_sequence(frame_count=10, path=tmp_path / "src.yuv")
        write_raw_source(seq.path, seq)
        config = BenchmarkConfig(
            profiles=(mock_profile("a"), mock_profile("b")),
            sequences=("SY25",),
            bitrates_kbps=(800,),
            modes=(RunMode.UNPACED,),
            output_dir=tmp_path / "runs",
        )
        records = run_benchmark(config, {"SY25": seq}, only={"profile": "b"})
        assert [r.profile_name for r in records] == ["b"]

    def test_only_filter_unknown_key(self, tmp_path):
        config = BenchmarkConfig(
            profiles=(mock_profile("a"),),
            sequences=("SY25",),
            bitrates_kbps=(800,),
            modes=(RunMode.UNPACED,),
            output_dir=tmp_path / "runs",
        )
        with pytest.raises(ConfigError, match="only"):
            run_benchmark(config, {}, only={"codec": "a"})

    def test_missing_sequence(self, tmp_path):
        config = BenchmarkConfig(
            profiles=(mock_profile("a"),),
            sequences=("NOPE",),
            bitrates_kbps=(800,),
            modes=(RunMode.UNPACED,),
            output_dir=tmp_path / "runs",
        )
        with pytest.raises(ConfigError, match="NOPE"):
            run_benchmark(config, {})

    def test_metric_command_invoked(self, tmp_path):
        seq = make_sequence(frame_count=10, path=tmp_path / "src.yuv")
        write_raw_source(seq.path, seq)
        metric_code = (
            "import json, sys, pathlib;"
            "pathlib.Path(sys.argv[1]).write_text("
            "json.dumps({'metric': 'vmaf', 'pooled': 77.0}))"
        )
        config = BenchmarkConfig(
            profiles=(mock_profile("a"),),
            sequences=("SY25",),
            bitrates_kbps=(800,),
            modes=(RunMode.UNPACED,),
            output_dir=tmp_path / "runs",
            metric_command=(sys.executable, "-c", metric_code, "{report_out}",
                            "{reference}", "{distorted}", "{width}", "{height}", "{fps}"),
        )
        run_benchmark(config, {"SY25": seq})
        base = run_basename("a", "SY25", 800, RunMode.UNPACED, 0)
        report = json.loads((tmp_path / "runs" / f"{base}.quality.json").read_text())
        assert report["pooled"] == 77.0
