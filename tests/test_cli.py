import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pacebench
from pacebench.cli import _percentile, dispatch
from pacebench.curves import RateQualityCurve, save_curve_csv
from pacebench.harness import load_run_record
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
