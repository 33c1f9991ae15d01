import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pacebench
from pacebench import quality
from pacebench.cli import _percentile, dispatch
from pacebench.curves import RateQualityCurve, save_curve_csv
from pacebench.harness import RunMode, RunRecord, load_run_record, save_run_record
from pacebench.ioutil import atomic_write_text

from synthetic import make_sequence, mock_profile, write_raw_source


def _write_manifest(tmp_path, sequences):
    entries = []
    for seq in sequences:
        entries.append({
            "name": seq.name,
            "short_name": seq.short_name,
            "path": str(seq.path),
            "fps_num": seq.fps_num,
            "fps_den": seq.fps_den,
            "width": seq.width,
            "height": seq.height,
            "pixel_format": seq.pixel_format.value,
            "frame_count": seq.frame_count,
        })
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(entries))
    return path


def _write_curve(tmp_path, name, points):
    path = tmp_path / name
    save_curve_csv(RateQualityCurve(tuple(points)), path)
    return path


class TestDispatchExitCodes:
    def test_bd_self_delta_prints_zero(self, tmp_path, capsys):
        curve = _write_curve(tmp_path, "a.csv", [(1000, 50), (2000, 60), (4000, 70)])
        code = dispatch(["bd", "--ref", str(curve), "--test", str(curve), "--kind", "rate"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "0.00"
        assert "common quality range" in out

    def test_bd_no_overlap_exits_one(self, tmp_path, capsys):
        lo = _write_curve(tmp_path, "lo.csv", [(1000, 10), (2000, 20)])
        hi = _write_curve(tmp_path, "hi.csv", [(1000, 50), (2000, 60)])
        code = dispatch(["bd", "--ref", str(lo), "--test", str(hi), "--kind", "rate"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: no-overlap:")
        assert "no common quality range" in err

    @pytest.mark.parametrize(
        "rows", ["1000,50\n2000,nan\n4000,70\n", "1000,50\n2000,60\ninf,70\n"],
        ids=["nan-quality", "inf-rate"],
    )
    def test_bd_non_finite_point_exits_one(self, tmp_path, capsys, rows):
        ref = _write_curve(tmp_path, "r.csv", [(1000, 50), (2000, 60), (4000, 70)])
        test = tmp_path / "t.csv"
        test.write_text("bitrate_kbps,quality\n" + rows)
        code = dispatch(["bd", "--ref", str(ref), "--test", str(test), "--kind", "rate"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: invalid-input:")

    def test_bd_quality_kinds(self, tmp_path, capsys):
        ref = _write_curve(tmp_path, "r.csv", [(1000, 50), (2000, 60), (4000, 70)])
        test = _write_curve(tmp_path, "t.csv", [(1000, 55), (2000, 65), (4000, 75)])
        code = dispatch(["bd", "--ref", str(ref), "--test", str(test),
                         "--kind", "quality", "--rate-domain", "log"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "5.00"

    def test_unknown_subcommand_exits_two(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    def test_color_option_is_a_usage_error(self, tmp_path, capsys):
        curve = _write_curve(tmp_path, "a.csv", [(1000, 50), (2000, 60)])
        argv = ["bd", "--ref", str(curve), "--test", str(curve), "--kind", "rate"]
        assert dispatch(["--color=never"] + argv) == 2
        assert "unrecognized arguments: --color=never" in capsys.readouterr().err

    def test_bd_output_is_deterministic(self, tmp_path, capsys):
        ref = _write_curve(tmp_path, "r.csv", [(1000, 50), (2000, 60), (4000, 70)])
        test = _write_curve(tmp_path, "t.csv", [(900, 52), (2100, 62), (3900, 72)])
        argv = ["bd", "--ref", str(ref), "--test", str(test), "--kind", "rate"]
        assert dispatch(argv) == 0
        first = capsys.readouterr().out
        assert dispatch(argv) == 0
        assert capsys.readouterr().out == first

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = dispatch(["bd", "--ref", str(tmp_path / "none.csv"),
                         "--test", str(tmp_path / "none.csv"), "--kind", "rate"])
        assert code == 2
        assert "error: io:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["pace", "--help"],
            ["bench", "--help"],
            ["bd", "--help"],
            ["report", "--help"],
        ],
    )
    def test_help_exits_zero(self, argv, capsys):
        assert dispatch(argv) == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_child_failure_exits_three(self, tmp_path, capsys):
        seq = make_sequence(frame_count=10, path=tmp_path / "src.yuv")
        write_raw_source(seq.path, seq)
        manifest = _write_manifest(tmp_path, [seq])
        profile = mock_profile("crash", "--fail-after", "2")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "profiles": [profile.to_dict()],
            "sequences": ["SY25"],
            "bitrates_kbps": [800],
            "modes": ["unpaced"],
            "output_dir": str(tmp_path / "runs"),
        }))
        code = dispatch(["--manifest", str(manifest), "bench", "--config", str(config)])
        assert code == 3
        assert "error: encoder-run:" in capsys.readouterr().err


class TestPaceCommand:
    def test_paced_copy_to_file(self, tmp_path, capsys):
        seq = make_sequence(frame_count=5, fps_num=100, path=tmp_path / "src.yuv")
        write_raw_source(seq.path, seq)
        manifest = _write_manifest(tmp_path, [seq])
        out = tmp_path / "out.yuv"
        code = dispatch([
            "--manifest", str(manifest), "pace",
            "--input", str(seq.path), "--seq", "SY25", "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == seq.path.read_bytes()
        printed = capsys.readouterr().out
        assert "frames sent:      5" in printed

    def test_fps_override(self, tmp_path, capsys):
        seq = make_sequence(frame_count=4, fps_num=1, path=tmp_path / "src.yuv")
        write_raw_source(seq.path, seq)
        manifest = _write_manifest(tmp_path, [seq])
        out = tmp_path / "out.yuv"
        code = dispatch([
            "--manifest", str(manifest), "pace",
            "--input", str(seq.path), "--seq", "SY25",
            "--fps-override", "200/1", "--out", str(out),
        ])
        assert code == 0  # 4 frames at 1 fps would take 3 s; override keeps it fast

    def test_bad_fps_override_exits_two(self, tmp_path, capsys):
        seq = make_sequence(frame_count=2, path=tmp_path / "src.yuv")
        write_raw_source(seq.path, seq)
        manifest = _write_manifest(tmp_path, [seq])
        code = dispatch([
            "--manifest", str(manifest), "pace", "--input", str(seq.path),
            "--seq", "SY25", "--fps-override", "fast", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "error: config: cannot parse frame rate 'fast'" in capsys.readouterr().err
        for rate in ("0", "25/0", "-5"):
            code = dispatch([
                "--manifest", str(manifest), "pace", "--input", str(seq.path),
                "--seq", "SY25", "--fps-override", rate, "--out", str(tmp_path / "o"),
            ])
            assert code == 2
            assert f"error: config: frame rate '{rate}' must have positive parts" in (
                capsys.readouterr().err)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 101, 1000, 1501])
    def test_p99_equals_numpy_percentile(self, n):
        lateness = list(np.random.default_rng(n).exponential(1e-3, n))
        assert _percentile(lateness, 99) == np.percentile(lateness, 99)

    def test_unknown_sequence(self, tmp_path, capsys):
        seq = make_sequence(frame_count=5, path=tmp_path / "src.yuv")
        write_raw_source(seq.path, seq)
        manifest = _write_manifest(tmp_path, [seq])
        code = dispatch([
            "--manifest", str(manifest), "pace",
            "--input", str(seq.path), "--seq", "GHOST", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_unopenable_out_leaks_no_fd(self, tmp_path, capsys):
        seq = make_sequence(frame_count=2, path=tmp_path / "src.yuv")
        write_raw_source(seq.path, seq)
        manifest = _write_manifest(tmp_path, [seq])
        argv = ["--manifest", str(manifest), "pace", "--input", str(seq.path),
                "--seq", "SY25", "--out", str(tmp_path / "missing" / "out.yuv")]
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            assert dispatch(argv) == 2
        assert len(os.listdir("/proc/self/fd")) == before

    def test_non_integer_manifest_field_exits_2(self, tmp_path, capsys):
        seq = make_sequence(frame_count=5, path=tmp_path / "src.yuv")
        write_raw_source(seq.path, seq)
        manifest = _write_manifest(tmp_path, [seq])
        entries = json.loads(manifest.read_text())
        entries[0]["frame_count"] = "5"
        manifest.write_text(json.dumps(entries))
        code = dispatch([
            "--manifest", str(manifest), "pace",
            "--input", str(seq.path), "--seq", "SY25", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "error: manifest: SY25: frame_count must be an integer" in capsys.readouterr().err

    def test_manifest_required(self, tmp_path, capsys):
        code = dispatch(["pace", "--input", str(tmp_path / "x.yuv"),
                         "--seq", "SY25", "--out", "-"])
        assert code == 2
        assert "manifest" in capsys.readouterr().err


class TestBenchCommand:
    def test_unpaced_campaign(self, tmp_path, capsys):
        seq = make_sequence(frame_count=12, path=tmp_path / "src.yuv")
        write_raw_source(seq.path, seq)
        manifest = _write_manifest(tmp_path, [seq])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "manifest": str(manifest),
            "profiles": [mock_profile("mock-a").to_dict()],
            "sequences": ["SY25"],
            "bitrates_kbps": [800, 1600],
            "modes": ["unpaced"],
            "output_dir": str(tmp_path / "runs"),
        }))
        code = dispatch(["bench", "--config", str(config), "--mode", "unpaced"])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "runs" / "runs.csv").exists()
        assert "2 run record(s)" in out

    def test_report_skips_a_record_without_quality_report(self, tmp_path, capsys, caplog):
        seq = make_sequence(frame_count=4, path=tmp_path / "src.yuv")
        write_raw_source(seq.path, seq)
        manifest = _write_manifest(tmp_path, [seq])
        runs = tmp_path / "runs"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "manifest": str(manifest),
            "profiles": [mock_profile("mock-a").to_dict(), mock_profile("mock-b").to_dict()],
            "sequences": ["SY25"],
            "bitrates_kbps": [800, 1600, 3200],
            "modes": ["unpaced"],
            "output_dir": str(runs),
        }))
        assert dispatch(["bench", "--config", str(config)]) == 0
        records = sorted(p for p in runs.glob("*.json") if not p.name.endswith(".quality.json"))
        assert len(records) == 6
        for path in records[1:]:
            pooled = load_run_record(path).target_bitrate_kbps / 40
            path.with_name(path.stem + ".quality.json").write_text(
                json.dumps({"metric": "vmaf", "pooled": pooled}))
        code = dispatch(["--manifest", str(manifest), "report", "--runs", str(runs),
                         "--anchor", "mock-a", "--kind", "rate", "--format", "md",
                         "--out", str(tmp_path / "m.md")])
        assert code == 0
        skipped = [m for m in caplog.messages if "no quality report" in m]
        assert skipped == [f"no quality report for {records[0].name}; skipping"]

    def test_only_filter_no_match(self, tmp_path, capsys):
        seq = make_sequence(frame_count=4, path=tmp_path / "src.yuv")
        write_raw_source(seq.path, seq)
        manifest = _write_manifest(tmp_path, [seq])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "manifest": str(manifest),
            "profiles": [mock_profile("mock-a").to_dict()],
            "sequences": ["SY25"],
            "bitrates_kbps": [800],
            "modes": ["unpaced"],
            "output_dir": str(tmp_path / "runs"),
        }))
        code = dispatch(["bench", "--config", str(config), "--only", "profile=ghost"])
        assert code == 2


def _write_report_campaign(tmp_path):
    """Two profiles x one sequence x three rungs, unpaced and paced, with
    per-frame logs in the external VMAF layout; "b" needs 0.8x the rate."""
    seq = make_sequence(frame_count=4, path=tmp_path / "src.yuv")
    write_raw_source(seq.path, seq)
    manifest = _write_manifest(tmp_path, [seq])
    runs = tmp_path / "runs"
    runs.mkdir()
    for profile, scale in (("a", 1.0), ("b", 0.8)):
        for rung, (kbps, vmaf) in enumerate(((800, 40.0), (1600, 60.0), (3200, 80.0))):
            for mode in RunMode:
                base = f"{profile}__SY25__{kbps}__{mode.value}__rep0"
                fps = 100.0 + rung + (mode is RunMode.PACED)
                save_run_record(RunRecord(profile, "SY25", float(kbps), mode, 1.0, 4, fps,
                                          0, scale * kbps * 1.01, 0), runs / f"{base}.json")
                frames = [{"metrics": {"vmaf": vmaf + d}} for d in (-1.5, 0.5, 1.0)]
                _write_log(runs / f"{base}.quality.json",
                           {"pooled_metrics": {"vmaf": {"mean": vmaf}}, "frames": frames})
    return manifest, runs


def _write_log(path, payload):
    path.write_text(json.dumps(payload))


def _report_argv(manifest, runs, out, kind="rate", fmt="md"):
    return ["--manifest", str(manifest), "report", "--runs", str(runs),
            "--anchor", "a", "--kind", kind, "--format", fmt, "--out", str(out)]


def _report(manifest, runs, out, kind="rate", fmt="md"):
    return dispatch(_report_argv(manifest, runs, out, kind, fmt))


@pytest.fixture
def parse_calls(monkeypatch):
    """Names of the quality logs parse_metric_report was called on."""
    calls = []
    original = quality.parse_metric_report

    def counting(path, *args, **kwargs):
        calls.append(Path(path).name)
        return original(path, *args, **kwargs)

    monkeypatch.setattr(quality, "parse_metric_report", counting)
    return calls


def _stat(path):
    st = path.stat()
    return st.st_ino, st.st_mtime_ns


class TestReportScoreCache:
    LOGS = 6  # one log per (profile, rung): unpaced runs are selected

    def test_second_report_parses_no_log(self, tmp_path, capsys, parse_calls):
        manifest, runs = _write_report_campaign(tmp_path)
        assert _report(manifest, runs, tmp_path / "m.md") == 0
        assert len(parse_calls) == self.LOGS
        assert "6 quality log(s) parsed, 0 reused" in capsys.readouterr().out
        parse_calls.clear()
        assert _report(manifest, runs, tmp_path / "m.md") == 0
        assert parse_calls == []
        assert "0 quality log(s) parsed, 6 reused" in capsys.readouterr().out

    def test_rewritten_log_alone_is_parsed_again(self, tmp_path, parse_calls):
        manifest, runs = _write_report_campaign(tmp_path)
        assert _report(manifest, runs, tmp_path / "m.md") == 0
        name = "b__SY25__1600__unpaced__rep0.quality.json"
        _write_log(runs / name, {"metric": "vmaf", "pooled": 61.0})
        parse_calls.clear()
        assert _report(manifest, runs, tmp_path / "m.md") == 0
        assert parse_calls == [name]

    def test_deleting_the_cache_parses_every_log_again(self, tmp_path, parse_calls):
        manifest, runs = _write_report_campaign(tmp_path)
        assert _report(manifest, runs, tmp_path / "m.md") == 0
        (runs / quality.SCORE_CACHE_NAME).unlink()
        parse_calls.clear()
        assert _report(manifest, runs, tmp_path / "m.md") == 0
        assert len(parse_calls) == self.LOGS

    @pytest.mark.parametrize("corrupt", [
        lambda cache: b"\xff{not json",
        lambda cache: b"[1, 2]",
        lambda cache: b"{not json",
        lambda cache: b"[" * 200_000,
        lambda cache: json.dumps({**cache, "version": cache["version"] + 1}).encode(),
        lambda cache: json.dumps({**cache, "scores": []}).encode(),
    ], ids=["garbage", "not-an-object", "not-json", "nested", "other-version",
            "scores-not-an-object"])
    def test_bad_cache_is_ignored_and_rewritten(self, tmp_path, parse_calls, corrupt):
        manifest, runs = _write_report_campaign(tmp_path)
        assert _report(manifest, runs, tmp_path / "m.md") == 0
        cache = runs / quality.SCORE_CACHE_NAME
        cache.write_bytes(corrupt(json.loads(cache.read_text())))
        parse_calls.clear()
        assert _report(manifest, runs, tmp_path / "m.md") == 0
        assert len(parse_calls) == self.LOGS
        parse_calls.clear()
        assert _report(manifest, runs, tmp_path / "m.md") == 0
        assert parse_calls == []

    @pytest.mark.parametrize("entry", [
        ["0" * 32, "vmaf", 50.0], ["DIGEST", "vmaf", 150.0], ["DIGEST", "vmaf", None],
        ["DIGEST", 7, 50.0], ["DIGEST", "vmaf"], "DIGEST",
    ])
    def test_entry_failing_its_checks_is_parsed_again(self, tmp_path, parse_calls, entry):
        manifest, runs = _write_report_campaign(tmp_path)
        assert _report(manifest, runs, tmp_path / "m.md") == 0
        cache_path = runs / quality.SCORE_CACHE_NAME
        cache = json.loads(cache_path.read_text())
        name = "a__SY25__800__unpaced__rep0.quality.json"
        digest = cache["scores"][name][0]
        cache["scores"][name] = (entry.replace("DIGEST", digest) if isinstance(entry, str)
                                 else [digest if e == "DIGEST" else e for e in entry])
        cache_path.write_text(json.dumps(cache))
        parse_calls.clear()
        assert _report(manifest, runs, tmp_path / "m.md") == 0
        assert parse_calls == [name]
        assert json.loads(cache_path.read_text())["scores"][name] == [digest, "vmaf", 40.0]

    def test_entry_of_a_deleted_log_is_pruned(self, tmp_path, parse_calls):
        manifest, runs = _write_report_campaign(tmp_path)
        assert _report(manifest, runs, tmp_path / "m.md") == 0
        cache = runs / quality.SCORE_CACHE_NAME
        gone = "b__SY25__3200__unpaced__rep0.quality.json"
        assert gone in json.loads(cache.read_text())["scores"]
        (runs / gone).unlink()
        parse_calls.clear()
        assert _report(manifest, runs, tmp_path / "m.md") == 0
        assert parse_calls == []
        scores = json.loads(cache.read_text())["scores"]
        assert gone not in scores and len(scores) == self.LOGS - 1

    def test_logs_of_unselected_runs_stay_cached(self, tmp_path, parse_calls):
        manifest, runs = _write_report_campaign(tmp_path)
        assert _report(manifest, runs, tmp_path / "m.md") == 0
        argv = ["--manifest", str(manifest), "report", "--runs", str(runs), "--anchor", "a",
                "--kind", "rate", "--format", "md", "--out", str(tmp_path / "p.md")]
        assert dispatch(argv + ["--mode", "paced"]) == 0
        parse_calls.clear()
        assert _report(manifest, runs, tmp_path / "m.md") == 0
        assert dispatch(argv + ["--mode", "paced"]) == 0
        assert parse_calls == []

    def test_invalid_log_is_not_cached_and_fails_again(self, tmp_path, capsys, parse_calls):
        manifest, runs = _write_report_campaign(tmp_path)
        assert _report(manifest, runs, tmp_path / "m.md") == 0
        cache = runs / quality.SCORE_CACHE_NAME
        before = cache.read_bytes(), _stat(cache)
        bad = "a__SY25__1600__unpaced__rep0.quality.json"
        _write_log(runs / bad, {"pooled_metrics": {"vmaf": {"mean": 70.0}},
                                "frames": [{"metrics": {"vmaf": 60.0}}]})
        capsys.readouterr()
        for _ in range(2):
            parse_calls.clear()
            assert _report(manifest, runs, tmp_path / "m.md") == 1
            assert capsys.readouterr().err.startswith("error: metric-schema: ")
            assert parse_calls == [bad]
            assert (cache.read_bytes(), _stat(cache)) == before

    def test_cold_report_failing_writes_no_cache(self, tmp_path, capsys):
        manifest, runs = _write_report_campaign(tmp_path)
        (runs / "b__SY25__800__unpaced__rep0.quality.json").write_bytes(b"\xff")
        assert _report(manifest, runs, tmp_path / "m.md") == 1
        assert not (runs / quality.SCORE_CACHE_NAME).exists()

    def test_report_failing_after_scoring_writes_no_cache(self, tmp_path, capsys):
        manifest, runs = _write_report_campaign(tmp_path)
        code = dispatch(["--manifest", str(manifest), "report", "--runs", str(runs),
                         "--anchor", "ghost", "--kind", "rate", "--format", "md",
                         "--out", str(tmp_path / "m.md")])
        assert code != 0
        assert not (runs / quality.SCORE_CACHE_NAME).exists()

    def test_warm_report_does_not_rewrite_the_cache(self, tmp_path):
        manifest, runs = _write_report_campaign(tmp_path)
        assert _report(manifest, runs, tmp_path / "m.md") == 0
        cache = runs / quality.SCORE_CACHE_NAME
        before = _stat(cache)
        for kind, fmt in (("rate", "md"), ("quality", "csv")):
            assert _report(manifest, runs, tmp_path / f"m.{fmt}", kind, fmt) == 0
        assert _stat(cache) == before

    @pytest.mark.parametrize("kind", ["rate", "quality"])
    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_documents_identical_cold_warm_and_uncached(self, tmp_path, monkeypatch,
                                                        kind, fmt):
        manifest, runs = _write_report_campaign(tmp_path)
        outputs = []

        def documents(name):
            out = tmp_path / f"{name}.{fmt}"
            assert _report(manifest, runs, out, kind, fmt) == 0
            return out.read_bytes(), (runs / "throughput.csv").read_bytes()

        outputs.append(documents("cold"))
        outputs.append(documents("warm"))
        # the reading without a cache: every log parsed, as the report did before it had one

        def uncached(runs_dir, names, listed):
            reports = [quality.parse_metric_report(runs_dir / n) for n in names]
            return reports, len(names), lambda: None

        monkeypatch.setattr(quality, "pooled_scores", uncached)
        outputs.append(documents("uncached"))
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][0].strip()


class TestMalformedReportInputs:
    @pytest.mark.parametrize("content", [b"{not json", b"{}", b'{"profile_name": "a"}',
                                         b"[]", b"\xff", b'{"mode": "x"}'])
    def test_bad_run_record_exits_one_naming_it(self, tmp_path, capsys, content):
        manifest, runs = _write_report_campaign(tmp_path)
        bad = runs / "a__SY25__800__unpaced__rep0.json"
        if content == b'{"mode": "x"}':
            content = json.dumps({**json.loads(bad.read_text()), "mode": "x"}).encode()
        bad.write_bytes(content)
        assert _report(manifest, runs, tmp_path / "m.md") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input: ") and str(bad) in err

    def test_quality_log_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        manifest, runs = _write_report_campaign(tmp_path)
        bad = runs / "a__SY25__800__unpaced__rep0.quality.json"
        bad.write_bytes(b'{"metric": "vmaf\xff", "pooled": 50}')
        assert _report(manifest, runs, tmp_path / "m.md") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: metric-schema: ") and str(bad) in err


def _command_reading(tmp_path, kind):
    """argv of a command that reads an input file of *kind*, and that file's path."""
    if kind == "config":
        config = tmp_path / "config.json"
        return ["bench", "--config", str(config)], config
    if kind == "curve-csv":
        good = _write_curve(tmp_path, "good.csv", [(1000, 50), (2000, 60)])
        bad = tmp_path / "bad.csv"
        return ["bd", "--ref", str(bad), "--test", str(good), "--kind", "rate"], bad
    manifest, runs = _write_report_campaign(tmp_path)
    path = {"manifest": manifest,
            "run-record": runs / "a__SY25__800__unpaced__rep0.json",
            "quality-log": runs / "a__SY25__800__unpaced__rep0.quality.json"}[kind]
    return _report_argv(manifest, runs, tmp_path / "m.md"), path


def _unusable_inputs():
    """(kind, content, exit code, error code) of input files each command must refuse."""
    json_inputs = [("manifest", 2, "manifest", b"{}"), ("config", 2, "config", b"[]"),
                   ("run-record", 1, "invalid-input", b"[]"),
                   ("quality-log", 1, "metric-schema", b"[]")]
    for kind, exit_code, code, wrong_type in json_inputs:
        for name, content in (("not-utf8", b'{"a": "\xff"}'), ("not-json", b"{not json"),
                              ("nested", b"[" * 200_000), ("wrong-type", wrong_type)):
            yield pytest.param(kind, content, exit_code, code, id=f"{kind}-{name}")
    for name, content in (("not-utf8", b"bitrate_kbps,quality\n1000,50\xff\n2000,60\n"),
                          ("field-too-large", b"bitrate_kbps,quality\n1" + b"0" * 200_000)):
        yield pytest.param("curve-csv", content, 1, "invalid-input", id=f"curve-csv-{name}")


class TestUnusableInputFiles:
    @pytest.mark.parametrize("kind,content,exit_code,code", _unusable_inputs())
    def test_one_error_line_naming_the_file(self, tmp_path, capsys, kind, content,
                                            exit_code, code):
        argv, path = _command_reading(tmp_path, kind)
        path.write_bytes(content)
        capsys.readouterr()
        assert dispatch(argv) == exit_code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {code}: {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key,value", [
        ("path", 5), ("name", None), ("short_name", ["A"]), ("pixel_format", 420),
        ("duration_s", "x"), ("duration_s", True), ("duration_s", float("nan")),
        ("duration_s", 10 ** 400),
    ], ids=["path-int", "name-null", "short-name-list", "pixel-format-int", "duration-str",
            "duration-bool", "duration-nan", "duration-huge"])
    def test_manifest_field_of_wrong_type_exits_two(self, tmp_path, capsys, key, value):
        manifest, runs = _write_report_campaign(tmp_path)
        entries = json.loads(manifest.read_text())
        entries[0][key] = value
        manifest.write_text(json.dumps(entries))
        assert _report(manifest, runs, tmp_path / "m.md") == 2
        err = capsys.readouterr().err
        label = "entry #0" if key == "short_name" else "SY25"
        assert err.startswith(f"error: manifest: {label}: ") and err.count("\n") == 1


class TestAtomicWrites:
    def test_overwrites_existing_completely(self, tmp_path):
        target = tmp_path / "doc.md"
        target.write_text("old content that is long")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "doc.md"]
        assert leftovers == []

    def test_creates_parent_dirs(self, tmp_path):
        target = tmp_path / "a" / "b" / "doc.md"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"


def test_mock_encoder_import_stays_light():
    code = ("import sys, pacebench.mock_encoder; "
            "print(sorted({'pacebench.dataset', 'json'} & set(sys.modules)))")
    src = str(Path(pacebench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_numeric_stack():
    # ctypes too: the pacer loads it on its first run, so that start-up does not pay for it
    code = ("import sys, pacebench.cli, pacebench.bd, pacebench.report, pacebench.harness, "
            "pacebench.pacer; "
            "curve = pacebench.RateQualityCurve(((1000, 30), (2000, 40), (4000, 50))); "
            "pacebench.bd.bd_rate(curve, curve); "
            "print(sorted({'numpy', 'scipy', 'ctypes'} & set(sys.modules)))")
    src = str(Path(pacebench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
