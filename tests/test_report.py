import csv
import io

import numpy as np
import pytest

from pacebench.bd import BdResult, CommonRange
from pacebench.curves import RateQualityCurve
from pacebench.errors import (
    ConfigError,
    EmptyGroupError,
    RankingUnavailableError,
    RankTieWarning,
)
from pacebench.harness import RunMode, RunRecord
from pacebench.report import (
    build_matrix,
    group_average,
    rank_profiles,
    render,
    throughput_summary_csv,
)
import pacebench.report as report_mod

from synthetic import make_sequence


class TestGroupAverage:
    def test_first_column_25fps_group(self):
        values = [-61.43, -56.12, -52.39, -50.78, -47.44, -65.01, -68.18]
        assert group_average(values) == pytest.approx(-57.34, abs=0.005)

    def test_first_column_50fps_group(self):
        values = [-61.73, -66.20, -68.62, -62.80, -62.98]
        assert group_average(values) == pytest.approx(-64.47, abs=0.005)

    def test_quality_column(self):
        values = [12.61, 14.70, 24.88, 10.59, 8.63, 12.11, 23.35]
        assert group_average(values) == pytest.approx(15.27, abs=0.005)

    def test_empty(self):
        with pytest.raises(EmptyGroupError):
            group_average([])

    def test_permutation_invariant(self):
        values = [1.5, -2.25, 7.0, 0.125]
        assert group_average(values) == group_average(list(reversed(values)))


def _ladder_curve(label="", scale=1.0, offset=0.0):
    rates = [800 * scale * (1.3 ** i) for i in range(6)]
    qualities = [30 + 6 * i + offset for i in range(6)]
    return RateQualityCurve(tuple(zip(rates, qualities)), label=label)


def _sequences_25_50():
    return [
        make_sequence(short_name="AA25", fps_num=25, frame_count=250),
        make_sequence(short_name="BB25", fps_num=25, frame_count=250),
        make_sequence(short_name="CC50", fps_num=50, frame_count=500),
    ]


class TestBuildMatrix:
    def test_identical_curves_give_zero_cells(self):
        sequences = _sequences_25_50()
        curves = {
            profile: {s.short_name: _ladder_curve(f"{profile}/{s.short_name}") for s in sequences}
            for profile in ("anchor", "compA", "compB")
        }
        matrix = build_matrix(curves, sequences, "anchor", "rate")
        assert matrix.competitors == ("compA", "compB")
        for cell in matrix.cells.values():
            assert cell is not None
            assert abs(cell.value) < 1e-9
        for group in matrix.groups:
            for avg in group.averages.values():
                assert avg == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_competitor_is_undefined_and_average_omitted(self):
        sequences = _sequences_25_50()
        curves = {
            "anchor": {s.short_name: _ladder_curve() for s in sequences},
            "near": {s.short_name: _ladder_curve(offset=1.0) for s in sequences},
            "far": {s.short_name: _ladder_curve(offset=1000.0) for s in sequences},
        }
        # quality ranges [30,60] vs [1030,1060]: no overlap for bd_rate
        matrix = build_matrix(curves, sequences, "anchor", "rate")
        for s in sequences:
            assert matrix.cells[(s.short_name, "far")] is None
            assert matrix.cells[(s.short_name, "near")] is not None
        for group in matrix.groups:
            assert group.averages["far"] is None
            assert group.averages["near"] is not None

    def test_missing_curve_is_undefined(self):
        sequences = _sequences_25_50()
        curves = {
            "anchor": {s.short_name: _ladder_curve() for s in sequences},
            "spotty": {"AA25": _ladder_curve(offset=1.0)},
        }
        matrix = build_matrix(curves, sequences, "anchor", "rate")
        assert matrix.cells[("AA25", "spotty")] is not None
        assert matrix.cells[("BB25", "spotty")] is None
        group25 = matrix.groups[0]
        assert group25.averages["spotty"] is None

    def test_anchor_missing(self):
        with pytest.raises(ConfigError, match="anchor"):
            build_matrix({"only": {}}, [], "ghost", "rate")

    def test_table_layout_with_injected_values(self, monkeypatch):
        # 12 sequences in two fps groups, cells injected per (seq, competitor):
        # the rendered rows must follow manifest order with Avg rows appended.
        names25 = ["BS25", "PA25", "RB25", "RH25", "ST25", "SF25", "TR25"]
        names50 = ["CR50", "DT50", "IT50", "OT50", "PJ50"]
        sequences = [
            make_sequence(short_name=n, fps_num=25, frame_count=250) for n in names25
        ] + [
            make_sequence(short_name=n, fps_num=50, frame_count=500) for n in names50
        ]
        table = {
            name: dict(zip(("openh264", "x264"), vals))
            for name, vals in {
                "BS25": (-61.43, -12.70), "PA25": (-56.12, -22.39),
                "RB25": (-52.39, -42.83), "RH25": (-50.78, -26.08),
                "ST25": (-47.44, -6.58), "SF25": (-65.01, -2.26),
                "TR25": (-68.18, -15.59), "CR50": (-61.73, -24.24),
                "DT50": (-66.20, -21.68), "IT50": (-68.62, -20.14),
                "OT50": (-62.80, -18.55), "PJ50": (-62.98, -6.03),
            }.items()
        }
        curves = {
            profile: {
                s.short_name: _ladder_curve(label=f"{profile}/{s.short_name}")
                for s in sequences
            }
            for profile in ("aom-rt8", "openh264", "x264")
        }

        def fake_bd_rate(test, ref, method="paper_area", **kw):
            seq_name = test.label.split("/")[1]
            competitor = ref.label.split("/")[0]
            return BdResult(
                kind="bd_rate_percent",
                value=table[seq_name][competitor],
                common_range=CommonRange(27.0, 55.0, "quality"),
                method=method,
                points_used=(6, 6),
            )

        monkeypatch.setattr(report_mod.bd_metrics, "bd_rate", fake_bd_rate)
        matrix = build_matrix(curves, sequences, "aom-rt8", "rate")
        assert [g.label for g in matrix.groups] == ["25", "50"]
        assert list(matrix.groups[0].sequences) == names25
        assert list(matrix.groups[1].sequences) == names50
        assert matrix.groups[0].averages["openh264"] == pytest.approx(-57.34, abs=0.005)
        assert matrix.groups[0].averages["x264"] == pytest.approx(-18.35, abs=0.005)
        assert matrix.groups[1].averages["openh264"] == pytest.approx(-64.47, abs=0.005)
        assert matrix.groups[1].averages["x264"] == pytest.approx(-18.13, abs=0.005)

        markdown = render(matrix, "md")
        rows = [line.split("|")[1].strip() for line in markdown.splitlines()[2:]]
        assert rows == names25 + ["Avg 25"] + names50 + ["Avg 50"]
        assert "| -21.68 |" in markdown.splitlines()[2 + rows.index("DT50")] + " |"


class TestRankProfiles:
    def test_quality_ranking_example(self):
        averages = {
            "openh264": 21.55, "x264": 4.73, "VP8": 8.61,
            "VP9": 2.82, "x265": -1.78, "SVT": -4.12,
        }
        order = rank_profiles(averages, anchor="anchor")
        assert order == ["openh264", "VP8", "x264", "VP9", "anchor", "x265", "SVT"]
        # read back to front for the actual quality ranking:
        assert list(reversed(order)) == ["SVT", "x265", "anchor", "VP9", "x264", "VP8", "openh264"]

    def test_single_competitor(self):
        assert rank_profiles({"other": -3.0}, anchor="a") == ["a", "other"]

    def test_tie_warns_and_breaks_lexicographically(self):
        with pytest.warns(RankTieWarning):
            order = rank_profiles({"zeta": 1.0, "alpha": 1.0}, anchor="m")
        assert order == ["alpha", "zeta", "m"]

    def test_undefined_average(self):
        with pytest.raises(RankingUnavailableError, match="broken"):
            rank_profiles({"ok": 1.0, "broken": None})

    def test_competitor_order_invariant_under_shift(self):
        averages = {"a": 3.0, "b": -1.0, "c": 0.5}
        base = [p for p in rank_profiles(averages) if p != "anchor"]
        shifted = {k: v + 10 for k, v in averages.items()}
        assert [p for p in rank_profiles(shifted) if p != "anchor"] == base


def _one_cell_matrix(value):
    # value=None builds an undefined cell (disjoint quality ranges); any other
    # value is injected through a monkeypatched bd_rate by the caller.
    sequences = [make_sequence(short_name="DT50", fps_num=50, frame_count=500)]
    curves = {
        "anchor": {"DT50": _ladder_curve("anchor/DT50")},
        "x264": {"DT50": _ladder_curve("x264/DT50", offset=1000.0 if value is None else 0.0)},
    }
    return build_matrix(curves, sequences, "anchor", "rate")


class TestRender:
    def test_single_cell_value(self, monkeypatch):
        def fake_bd_rate(test, ref, method="paper_area", **kw):
            return BdResult("bd_rate_percent", -21.68, CommonRange(27, 55, "quality"),
                            method, (6, 6))

        monkeypatch.setattr(report_mod.bd_metrics, "bd_rate", fake_bd_rate)
        matrix = _one_cell_matrix(-21.68)
        markdown = render(matrix, "md")
        assert "| DT50 | -21.68 |" in markdown
        csv_text = render(matrix, "csv")
        assert "DT50,-21.68" in csv_text

    def test_undefined_cells(self):
        matrix = _one_cell_matrix(None)  # offset 1000 -> no quality overlap
        markdown = render(matrix, "md")
        assert "| DT50 | — |" in markdown
        assert "| Avg 50 | — |" in markdown
        csv_text = render(matrix, "csv")
        assert "DT50,\n" in csv_text or "DT50,\r\n" in csv_text

    def test_deterministic_bytes(self):
        matrix = _one_cell_matrix(None)
        assert render(matrix, "md") == render(matrix, "md")
        assert render(matrix, "csv") == render(matrix, "csv")

    def test_csv_full_precision_round_trip(self):
        sequences = _sequences_25_50()
        curves = {
            "anchor": {s.short_name: _ladder_curve() for s in sequences},
            "comp": {s.short_name: _ladder_curve(scale=1.17) for s in sequences},
        }
        matrix = build_matrix(curves, sequences, "anchor", "rate")
        text = render(matrix, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["video", "comp"]
        parsed = {row[0]: row[1] for row in rows[1:]}
        for s in sequences:
            cell = matrix.cells[(s.short_name, "comp")]
            assert float(parsed[s.short_name]) == cell.value

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            render(_one_cell_matrix(None), "html")


class TestThroughputCsv:
    def test_layout(self):
        sequences = _sequences_25_50()

        def rec(profile, seq, bitrate, mode, fps):
            return RunRecord(profile, seq, bitrate, mode, 1.0, 10, fps, 0, 0.0, 0)

        records = [
            rec("enc", "AA25", 800, RunMode.UNPACED, 100.0),
            rec("enc", "BB25", 800, RunMode.UNPACED, 110.0),
            rec("enc", "AA25", 1600, RunMode.UNPACED, 90.0),
            rec("enc", "CC50", 800, RunMode.PACED, 50.0),
        ]
        text = throughput_summary_csv(records, sequences)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["fps_group"] for r in rows] == ["50", "25", "25"]
        unpaced_800 = next(
            r for r in rows if r["mode"] == "unpaced" and float(r["bitrate_kbps"]) == 800.0
        )
        assert float(unpaced_800["mean_fps"]) == pytest.approx(105.0)
        assert float(unpaced_800["std_fps"]) == pytest.approx(7.0710678, abs=1e-6)
