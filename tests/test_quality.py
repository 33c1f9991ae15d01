import json

import pytest
from hypothesis import given, strategies as st

from pacebench.errors import (
    DuplicatePointError,
    InsufficientDataError,
    MetricSchemaError,
    ScoreRangeError,
)
from pacebench.harness import RunMode, RunRecord
from pacebench.quality import (
    MosLabel,
    QualityReport,
    collect_curve,
    parse_metric_report,
    vmaf_to_mos,
)


def _write_report(tmp_path, payload, name="report.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestParseMetricReport:
    def test_pooled_passthrough(self, tmp_path):
        report = parse_metric_report(_write_report(tmp_path, {"metric": "vmaf", "pooled": 83.2}))
        assert report.pooled_score == 83.2
        assert report.per_frame_scores is None

    def test_frames_pooled_as_mean(self, tmp_path):
        report = parse_metric_report(_write_report(tmp_path, {"metric": "vmaf", "frames": [80, 90]}))
        assert report.pooled_score == pytest.approx(85.0)
        assert report.per_frame_scores == (80.0, 90.0)

    def test_pooled_out_of_range(self, tmp_path):
        with pytest.raises(ScoreRangeError):
            parse_metric_report(_write_report(tmp_path, {"metric": "vmaf", "pooled": 120}))

    def test_frame_out_of_range(self, tmp_path):
        with pytest.raises(ScoreRangeError):
            parse_metric_report(_write_report(tmp_path, {"metric": "vmaf", "frames": [50, -3]}))

    def test_missing_both(self, tmp_path):
        with pytest.raises(MetricSchemaError, match="neither"):
            parse_metric_report(_write_report(tmp_path, {"metric": "vmaf"}))

    def test_missing_metric_field(self, tmp_path):
        with pytest.raises(MetricSchemaError, match="metric"):
            parse_metric_report(_write_report(tmp_path, {"pooled": 50.0}))

    def test_inconsistent_pooled_vs_frames(self, tmp_path):
        payload = {"metric": "vmaf", "pooled": 90.0, "frames": [80, 90]}
        with pytest.raises(MetricSchemaError, match="disagrees"):
            parse_metric_report(_write_report(tmp_path, payload))

    def test_external_pooled_layout(self, tmp_path):
        payload = {"pooled_metrics": {"vmaf": {"mean": 83.2, "min": 10}}}
        report = parse_metric_report(_write_report(tmp_path, payload))
        assert report.pooled_score == 83.2
        assert report.metric_name == "vmaf"

    def test_external_frames_layout(self, tmp_path):
        payload = {
            "frames": [
                {"frameNum": 0, "metrics": {"vmaf": 80.0}},
                {"frameNum": 1, "metrics": {"vmaf": 90.0}},
            ],
            "pooled_metrics": {"vmaf": {"mean": 85.0}},
        }
        report = parse_metric_report(_write_report(tmp_path, payload))
        assert report.pooled_score == 85.0
        assert report.per_frame_scores == (80.0, 90.0)

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        with pytest.raises(MetricSchemaError):
            parse_metric_report(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"metric": "vmaf", "pooled": 50, "x": "\xff"}')
        with pytest.raises(MetricSchemaError, match="UTF-8"):
            parse_metric_report(path)

    def test_given_bytes_are_parsed_instead_of_the_file(self, tmp_path):
        path = _write_report(tmp_path, {"metric": "vmaf", "pooled": 10.0})
        report = parse_metric_report(path, data=b'{"metric": "psnr", "frames": [20, 30]}')
        assert (report.metric_name, report.pooled_score) == ("psnr", 25.0)

    def test_round_trip_preserves_pooled_to_six_decimals(self, tmp_path):
        original = QualityReport("vmaf", 83.123456789, (83.123456789,))
        path = _write_report(tmp_path, original.to_dict())
        reparsed = parse_metric_report(path)
        assert abs(reparsed.pooled_score - original.pooled_score) < 1e-6


class TestScoreTypes:
    @pytest.mark.parametrize("pooled,frames", [(50.0, ("50",)), (1.0, (True,))])
    def test_report_rejects_non_number_frames(self, pooled, frames):
        with pytest.raises(MetricSchemaError, match="must be a number"):
            QualityReport("vmaf", pooled, frames)

    @pytest.mark.parametrize("payload", [
        {"metric": "vmaf", "pooled": "50"},
        {"metric": "vmaf", "pooled": True},
        {"metric": "vmaf", "frames": ["50", "60"]},
        {"metric": "vmaf", "pooled": 50, "frames": [50, None]},
        {"metric": "vmaf", "frames": 5},
    ])
    def test_parse_rejects_non_number_scores(self, tmp_path, payload):
        with pytest.raises(MetricSchemaError):
            parse_metric_report(_write_report(tmp_path, payload))

    def test_int_scores_become_floats(self, tmp_path):
        report = parse_metric_report(_write_report(tmp_path, {"metric": "vmaf", "pooled": 70}))
        assert type(report.pooled_score) is float


class TestVmafToMos:
    @pytest.mark.parametrize(
        "vmaf,mos,label",
        [
            (100, 5.0, MosLabel.EXCELLENT),
            (80, 4.0, MosLabel.GOOD),
            (60, 3.0, MosLabel.FAIR),
            (40, 2.0, MosLabel.POOR),
            (20, 1.0, MosLabel.BAD),
        ],
    )
    def test_anchors_exact(self, vmaf, mos, label):
        category = vmaf_to_mos(vmaf)
        assert category.mos_value == mos
        assert category.label is label

    def test_interpolated_midpoint_ties_round_up(self):
        category = vmaf_to_mos(50)
        assert category.mos_value == pytest.approx(2.5)
        assert category.label is MosLabel.FAIR

    def test_clamped_at_low_end(self):
        assert vmaf_to_mos(10) == (1.0, MosLabel.BAD)
        assert vmaf_to_mos(0) == (1.0, MosLabel.BAD)

    @pytest.mark.parametrize("bad", [-0.1, 100.1, 500])
    def test_out_of_range(self, bad):
        with pytest.raises(ScoreRangeError):
            vmaf_to_mos(bad)

    def test_monotone_over_sweep(self):
        values = [vmaf_to_mos(v / 10).mos_value for v in range(0, 1001)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @given(
        a=st.floats(min_value=0, max_value=100),
        b=st.floats(min_value=0, max_value=100),
    )
    def test_monotone_property(self, a, b):
        lo, hi = sorted((a, b))
        assert vmaf_to_mos(lo).mos_value <= vmaf_to_mos(hi).mos_value


def _scored_run(achieved_kbps: float, pooled: float, target: float | None = None):
    record = RunRecord(
        profile_name="enc",
        sequence_short_name="SY25",
        target_bitrate_kbps=target if target is not None else achieved_kbps,
        mode=RunMode.UNPACED,
        wall_time_s=1.0,
        frames_in=10,
        throughput_fps=10.0,
        output_size_bytes=int(achieved_kbps * 1000 / 8),
        achieved_bitrate_kbps=achieved_kbps,
        exit_status=0,
    )
    return record, QualityReport("vmaf", pooled)


class TestCollectCurve:
    def test_two_runs(self):
        curve = collect_curve([_scored_run(2000, 80), _scored_run(1000, 70)], label="enc/SY25")
        assert curve.points == ((1000.0, 70.0), (2000.0, 80.0))

    def test_single_run_insufficient(self):
        with pytest.raises(InsufficientDataError):
            collect_curve([_scored_run(1000, 70)])

    def test_duplicate_within_half_kbps(self):
        with pytest.raises(DuplicatePointError):
            collect_curve([_scored_run(1000.0, 70), _scored_run(1000.4, 71)])

    def test_uses_achieved_not_target(self):
        # target 800 but the encoder landed at 810
        curve = collect_curve(
            [_scored_run(810, 6, target=800), _scored_run(10000, 55, target=10000)]
        )
        assert curve.rate_range == (810.0, 10000.0)
        assert curve.quality_range == (6.0, 55.0)

    def test_ten_point_ladder(self):
        targets = [800, 900, 1000, 1250, 1500, 1750, 2000, 2500, 5000, 10000]
        achieved = [810, 905, 1010, 1260, 1505, 1760, 2010, 2510, 5010, 10000]
        scores = [6 + 5 * i for i in range(10)]
        curve = collect_curve(
            [_scored_run(a, s, target=t) for t, a, s in zip(targets, achieved, scores)]
        )
        assert len(curve.points) == 10
        assert curve.rate_range == (810.0, 10000.0)
        assert curve.qualities == tuple(float(s) for s in scores)
