"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The timing-sensitive criteria (5 and 6) assume an otherwise idle
machine, as real-time pacing measurements always do.
"""

import csv
import json
import os
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from pacebench.bd import bd_quality, bd_rate, common_range, prune_monotone
from pacebench.cli import dispatch
from pacebench.curves import RateQualityCurve
from pacebench.dataset import load_manifest
from pacebench.errors import DegenerateCurveError, PruningWarning
from pacebench.harness import load_run_record, run_paced, run_unpaced
from pacebench.pacer import buffer_latency, run_paced as pace_frames
from pacebench.quality import MosLabel, vmaf_to_mos
from pacebench.report import group_average

from synthetic import (
    make_sequence,
    mock_profile,
    trapezoid_bd_quality,
    trapezoid_bd_rate,
    write_raw_source,
    write_y4m_source,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{description}]: FAIL")
        raise
    print(f"criterion {number:2d} [{description}]: PASS")


# Per-video cells of the two published comparison tables, column by column,
# split into the 7-sequence 25 fps group and the 5-sequence 50 fps group.
BD_RATE_CELLS = {
    "openh264": ([-61.43, -56.12, -52.39, -50.78, -47.44, -65.01, -68.18],
                 [-61.73, -66.20, -68.62, -62.80, -62.98]),
    "x264": ([-12.70, -22.39, -42.83, -26.08, -6.58, -2.26, -15.59],
             [-24.24, -21.68, -20.14, -18.55, -6.03]),
    "VP8": ([-39.29, -40.35, -32.72, -31.52, -33.41, -26.04, -25.96],
            [-41.74, -34.05, -40.96, -56.18, -34.54]),
    "VP9": ([-9.49, -10.91, -4.03, -6.93, -16.50, -15.69, -1.16],
            [-13.63, -15.33, -8.31, -14.95, -13.78]),
    "x265": ([7.63, 16.10, -0.97, 16.22, 40.99, 34.49, 20.84],
             [-1.65, 22.54, 7.52, 12.56, 14.10]),
    "SVT": ([3.61, 28.94, 17.38, 18.74, 33.33, 34.65, 31.39],
            [8.90, 39.03, 19.98, 22.24, 39.18]),
}
BD_RATE_AVG = {
    "openh264": (-57.34, -64.47), "x264": (-18.35, -18.13), "VP8": (-32.76, -41.49),
    "VP9": (-9.24, -13.20), "x265": (19.33, 11.01), "SVT": (24.01, 25.87),
}
BD_VMAF_CELLS = {
    "openh264": ([12.61, 14.70, 24.88, 10.59, 8.63, 12.11, 23.35],
                 [24.60, 25.06, 21.77, 14.64, 21.70]),
    "x264": ([1.36, 4.41, 14.91, 4.51, 0.61, 0.34, 3.75],
             [8.06, 5.81, 5.02, 3.03, 1.75]),
    "VP8": ([3.90, 6.62, 13.17, 4.30, 3.98, 2.88, 4.14],
            [12.78, 9.99, 4.85, 7.11, 8.33]),
    "VP9": ([0.96, 1.76, 1.21, 0.82, 1.14, 1.10, 0.14],
            [3.94, 3.72, 1.44, 1.47, 3.51]),
    "x265": ([-0.55, -2.09, 0.35, -1.64, -1.79, -1.54, -3.20],
             [0.44, -4.27, -1.21, -1.03, -2.81]),
    "SVT": ([-0.31, -3.39, -4.36, -1.84, -1.76, -1.52, -4.62],
            [-2.06, -6.82, -2.90, -1.67, -7.17]),
}
BD_VMAF_AVG = {
    "openh264": (15.27, 21.55), "x264": (4.27, 4.73), "VP8": (5.57, 8.61),
    "VP9": (1.02, 2.82), "x265": (-1.49, -1.78), "SVT": (-2.54, -4.12),
}


def test_criterion_01_group_average_reproduces_avg_rows():
    with criterion(1, "Avg-row reproduction"):
        for cells, avgs in ((BD_RATE_CELLS, BD_RATE_AVG), (BD_VMAF_CELLS, BD_VMAF_AVG)):
            for column, (group25, group50) in cells.items():
                assert len(group25) == 7 and len(group50) == 5
                assert group_average(group25) == pytest.approx(avgs[column][0], abs=0.005)
                assert group_average(group50) == pytest.approx(avgs[column][1], abs=0.005)


def test_criterion_02_common_range_worked_example():
    with criterion(2, "common-range worked example"):
        anchor = RateQualityCurve(((2160.0, 27.0), (9925.0, 61.0)))
        competitor = RateQualityCurve(((810.0, 6.0), (10000.0, 55.0)))
        quality_span = common_range(anchor, competitor, "quality")
        assert (quality_span.lo, quality_span.hi) == (27.0, 55.0)
        rate_span = common_range(anchor, competitor, "rate")
        assert (rate_span.lo, rate_span.hi) == (2160.0, 9925.0)


def _eight_point_curve(base_rate=800.0, label="ref"):
    qualities = np.linspace(30.0, 65.0, 8)
    rates = base_rate * np.exp((qualities - 30.0) / 12.0)
    return RateQualityCurve(tuple(zip(rates, qualities)), label=label)


def test_criterion_03_bd_analytic_oracles():
    with criterion(3, "BD analytic oracles"):
        ref = _eight_point_curve()
        # (a) self-delta zero
        assert abs(bd_rate(ref, ref, "paper_area").value) < 1e-9
        assert abs(bd_rate(ref, ref, "log_domain").value) < 1e-9
        assert abs(bd_quality(ref, ref, "linear").value) < 1e-9
        assert abs(bd_quality(ref, ref, "log").value) < 1e-9
        # (b) constant ratio c = 0.8 -> -20 % for both methods
        ratio = RateQualityCurve(
            tuple((0.8 * r, q) for r, q in ref.points), label="ratio"
        )
        for method in ("paper_area", "log_domain"):
            assert bd_rate(ratio, ref, method).value == pytest.approx(-20.0, abs=1e-6)
        # (c) constant offset d = 5 -> 5.0 points in both rate domains
        offset = RateQualityCurve(
            tuple((r, q + 5.0) for r, q in ref.points), label="offset"
        )
        for domain in ("linear", "log"):
            assert bd_quality(offset, ref, domain).value == pytest.approx(5.0, abs=1e-6)
        # (d) everything matches the dense trapezoid oracle
        bumpy = RateQualityCurve(
            tuple((r * (0.7 + 0.05 * i), q + 1.5) for i, (r, q) in enumerate(ref.points)),
            label="bumpy",
        )
        for method in ("paper_area", "log_domain"):
            assert bd_rate(bumpy, ref, method).value == pytest.approx(
                trapezoid_bd_rate(bumpy, ref, method), abs=1e-6
            )
        for domain in ("linear", "log"):
            assert bd_quality(bumpy, ref, domain).value == pytest.approx(
                trapezoid_bd_quality(bumpy, ref, domain), abs=1e-6
            )


def _random_monotone_pair(rng):
    n = int(rng.integers(5, 11))
    qualities = np.cumsum(rng.uniform(1.5, 8.0, n)) + rng.uniform(5.0, 15.0)
    log_rates = np.cumsum(rng.uniform(0.05, 0.25, n)) + rng.uniform(2.5, 3.0)
    ref = RateQualityCurve(tuple(zip(10.0 ** log_rates, qualities)), label="ref")
    ratio = rng.uniform(0.6, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 1.4)
    offset = rng.uniform(-3.0, 3.0)
    test = RateQualityCurve(
        tuple((ratio * r, q + offset) for r, q in ref.points), label="test"
    )
    return test, ref, ratio


def test_criterion_04_randomized_property_suite():
    with criterion(4, "randomized curve-pair properties"):
        rng = np.random.default_rng(20260809)
        for pair_index in range(200):
            test, ref, ratio = _random_monotone_pair(rng)

            # rate-unit invariance within 1e-9
            scale = float(rng.uniform(0.01, 100.0))
            scaled_test = RateQualityCurve(tuple((scale * r, q) for r, q in test.points))
            scaled_ref = RateQualityCurve(tuple((scale * r, q) for r, q in ref.points))
            for method in ("paper_area", "log_domain"):
                baseline = bd_rate(test, ref, method).value
                scaled = bd_rate(scaled_test, scaled_ref, method).value
                assert abs(scaled - baseline) < 1e-9
            baseline = bd_quality(test, ref, "log").value
            scaled = bd_quality(scaled_test, scaled_ref, "log").value
            assert abs(scaled - baseline) < 1e-9

            # every variant within 1e-7 of a 2e5-panel trapezoid over the
            # interpolant, on every tenth pair (the oracle is the slow part)
            if pair_index % 10 == 0:
                for method in ("paper_area", "log_domain"):
                    oracle = trapezoid_bd_rate(test, ref, method, panels=2 * 10**5)
                    assert abs(bd_rate(test, ref, method).value - oracle) < 1e-7
                for domain in ("linear", "log"):
                    oracle = trapezoid_bd_quality(test, ref, domain, panels=2 * 10**5)
                    assert abs(bd_quality(test, ref, domain).value - oracle) < 1e-7

            # sign antisymmetry under strict dominance (constant ratio, same knots)
            dominance = RateQualityCurve(tuple((ratio * r, q) for r, q in ref.points))
            forward = bd_rate(dominance, ref).value
            backward = bd_rate(ref, dominance).value
            assert forward != 0 and backward != 0
            assert np.sign(forward) == -np.sign(backward)

            # pruning idempotence on a noisy (possibly non-monotone) curve
            noisy = RateQualityCurve(
                tuple(
                    (r, q + rng.normal(0.0, 2.0))
                    for (r, _), q in zip(ref.points, ref.qualities)
                )
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PruningWarning)
                try:
                    once = prune_monotone(noisy)
                except DegenerateCurveError:
                    continue
                assert prune_monotone(once) == once


@pytest.mark.realtime
def test_criterion_05_pacer_timing():
    with criterion(5, "pacer timing"):
        # (a) 100 synthetic 2x2 frames at 50 fps into a null sink
        with open(os.devnull, "wb", buffering=0) as sink:
            report = pace_frames([b"\0" * 6] * 100, sink, 50, 1)
        assert 1.98 <= report.total_duration_s <= 2.08
        assert report.delivery_fps <= 50 * 1.02

        # (b) p99 lateness < 5 ms over 500 frames at 25 fps
        with open(os.devnull, "wb", buffering=0) as sink:
            report = pace_frames([b"\0" * 6] * 500, sink, 25, 1)
        lateness = np.asarray(report.lateness_per_frame)
        assert np.percentile(lateness, 99) < 0.005
        # (c) the delivery rate never exceeds 1.02x the target
        assert report.delivery_fps <= 25 * 1.02


@pytest.mark.realtime
def test_criterion_06_harness_with_shipped_mocks(tmp_path):
    with criterion(6, "harness behavior with shipped mocks"):
        # fast mock, 250 tiny frames at 25 fps
        fast_seq = make_sequence(short_name="FA25", frame_count=250,
                                 path=tmp_path / "fast.yuv")
        write_raw_source(fast_seq.path, fast_seq)
        fast = mock_profile("mock-fast")
        paced = run_paced(fast, fast_seq, 800, output_path=tmp_path / "paced.bin")
        assert 24.5 <= paced.throughput_fps <= 25.5
        unpaced = run_unpaced(fast, fast_seq, 800, output_path=tmp_path / "unpaced.bin")
        assert unpaced.throughput_fps >= 5 * paced.throughput_fps

        # sleeping mock: 60 ms per frame against a 40 ms frame budget; frames
        # big enough (128x128) that the OS pipe fills and writes block
        slow_seq = make_sequence(short_name="SL25", width=128, height=128,
                                 frame_count=250, path=tmp_path / "slow.yuv")
        write_raw_source(slow_seq.path, slow_seq)
        sleeper = mock_profile("mock-sleep", "--mode", "sleep", "--sleep-ms", "60")
        record = run_paced(sleeper, slow_seq, 800, output_path=tmp_path / "slow.bin")
        assert 15.5 <= record.throughput_fps <= 17.5
        lateness = record.pacing.lateness_per_frame
        tail = lateness[-40:]
        assert all(b >= a - 0.005 for a, b in zip(tail, tail[1:]))
        assert tail[-1] > tail[0] + 0.3


def test_criterion_07_buffer_latency_anchor():
    with criterion(7, "buffer-latency anchor"):
        assert buffer_latency(60, 30, 1) == 2.0


def test_criterion_08_mos_anchors_and_monotonicity():
    with criterion(8, "MOS anchors"):
        anchors = [
            (20.0, 1.0, MosLabel.BAD),
            (40.0, 2.0, MosLabel.POOR),
            (60.0, 3.0, MosLabel.FAIR),
            (80.0, 4.0, MosLabel.GOOD),
            (100.0, 5.0, MosLabel.EXCELLENT),
        ]
        for score, mos, label in anchors:
            category = vmaf_to_mos(score)
            assert category.mos_value == mos
            assert category.label is label
        sweep = [vmaf_to_mos(v / 4.0).mos_value for v in range(0, 401)]
        assert all(b >= a for a, b in zip(sweep, sweep[1:]))


def test_criterion_09_end_to_end(tmp_path, capsys):
    with criterion(9, "end-to-end bench -> curves -> bd -> report"):
        seq = make_sequence(short_name="SY25", width=16, height=16,
                            frame_count=30, path=tmp_path / "src.y4m")
        write_y4m_source(seq.path, seq)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{
            "name": "synthetic", "short_name": "SY25", "path": str(seq.path),
            "fps_num": 25, "fps_den": 1, "width": 16, "height": 16,
            "pixel_format": "I420_8bit", "frame_count": 30,
        }]))
        runs_dir = tmp_path / "runs"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "manifest": str(manifest),
            "profiles": [mock_profile("mock-a").to_dict(),
                         mock_profile("mock-b").to_dict()],
            "sequences": ["SY25"],
            "bitrates_kbps": [800, 1600, 3200],
            "modes": ["paced", "unpaced"],
            "output_dir": str(runs_dir),
        }))

        assert dispatch(["bench", "--config", str(config), "--mode", "both"]) == 0

        # synthetic quality reports: score rises with the target bitrate,
        # identically for both profiles
        scores = {800.0: 40.0, 1600.0: 60.0, 3200.0: 80.0}
        record_paths = [
            p for p in runs_dir.glob("*.json") if not p.name.endswith(".quality.json")
        ]
        assert len(record_paths) == 12  # 2 profiles x 3 bitrates x 2 modes
        for path in record_paths:
            record = load_run_record(path)
            quality_path = path.with_name(path.name[: -len(".json")] + ".quality.json")
            quality_path.write_text(json.dumps(
                {"metric": "vmaf", "pooled": scores[record.target_bitrate_kbps]}
            ))

        # the second report reuses the first one's validated scores and
        # must write the same bytes
        documents = []
        for attempt in range(2):
            out_md = tmp_path / f"matrix-{attempt}.md"
            assert dispatch([
                "--manifest", str(manifest), "report", "--runs", str(runs_dir),
                "--anchor", "mock-a", "--kind", "rate", "--format", "md",
                "--out", str(out_md),
            ]) == 0
            parsed = 6 if attempt == 0 else 0
            assert f"{parsed} quality log(s) parsed, {6 - parsed} reused" in (
                capsys.readouterr().out)
            documents.append((out_md.read_bytes(),
                              (runs_dir / "throughput.csv").read_bytes()))
        assert documents[0] == documents[1]

        markdown = out_md.read_text()
        data_cells = [
            cell.strip()
            for line in markdown.splitlines()[2:]
            for cell in line.split("|")[2:-1]
        ]
        assert data_cells and all(cell == "0.00" for cell in data_cells)

        # identical mock curves -> bd of one against the other is zero
        curve_a = runs_dir / "curves" / "mock-a__SY25.csv"
        curve_b = runs_dir / "curves" / "mock-b__SY25.csv"
        assert dispatch(["bd", "--ref", str(curve_a), "--test", str(curve_b),
                         "--kind", "rate"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0.00"

        # runs.csv round-trips losslessly against the persisted records
        records = {
            (r.profile_name, r.sequence_short_name, r.target_bitrate_kbps, r.mode.value): r
            for r in (load_run_record(p) for p in record_paths)
        }
        with open(runs_dir / "runs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        for row in rows:
            record = records[(row["profile"], row["seq"],
                              float(row["bitrate_kbps"]), row["mode"])]
            assert float(row["wall_time_s"]) == record.wall_time_s
            assert int(row["frames"]) == record.frames_in
            assert float(row["throughput_fps"]) == record.throughput_fps
            assert int(row["output_bytes"]) == record.output_size_bytes
            assert float(row["achieved_kbps"]) == record.achieved_bitrate_kbps


def test_criterion_10_dataset_manifest_validation():
    with criterion(10, "dataset manifest validation"):
        sequences = load_manifest(REPO_ROOT / "configs" / "manifest-1080p.json")
        assert len(sequences) == 12
        by_name = {s.short_name: s for s in sequences}
        assert round(by_name["BS25"].duration_s * by_name["BS25"].fps) == 217
        assert by_name["ST25"].frame_count == 313
        assert by_name["TR25"].frame_count == 690
        for seq in sequences:
            assert abs(seq.frame_count - seq.duration_s * seq.fps) <= 0.5
            assert seq.width == 1920 and seq.height == 1080
        assert sum(1 for s in sequences if s.fps == 25) == 7
        assert sum(1 for s in sequences if s.fps == 50) == 5
