"""Comparison matrices, group averages, rankings, and document rendering.

A matrix compares one anchor profile against every other profile: each cell
is the BD delta of the anchor (test) versus a competitor (reference) on one
sequence. Rows are grouped by nominal frame rate, with an average row per
group that is present only when every cell in the group is defined.
"""

from __future__ import annotations

import csv
import io
import statistics
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import bd as bd_metrics
from .bd import BdResult
from .curves import RateQualityCurve
from .dataset import VideoSequence
from .errors import (
    ConfigError,
    DegenerateCurveError,
    EmptyGroupError,
    InsufficientDataError,
    NoOverlapError,
    RankingUnavailableError,
    RankTieWarning,
)
from .harness import RunRecord, throughput_stats

THROUGHPUT_CSV_COLUMNS = ("profile", "mode", "fps_group", "bitrate_kbps", "mean_fps", "std_fps")

UNDEFINED_MD = "—"  # em dash


def group_average(values: Sequence[float]) -> float:
    """Arithmetic mean of one fps group's BD values."""
    if not values:
        raise EmptyGroupError("cannot average an empty group")
    return statistics.fmean(values)


def _fps_label(seq: VideoSequence) -> str:
    return f"{seq.fps_num / seq.fps_den:g}"


@dataclass(frozen=True)
class MatrixGroup:
    label: str                       # nominal fps, e.g. "25"
    sequences: tuple[str, ...]       # row order within the group
    averages: Mapping[str, float | None]  # per competitor; None if any cell undefined


@dataclass(frozen=True)
class ComparisonMatrix:
    anchor_profile: str
    kind: str                        # "rate" | "quality"
    competitors: tuple[str, ...]
    groups: tuple[MatrixGroup, ...]
    cells: Mapping[tuple[str, str], BdResult | None]  # (sequence, competitor)


def build_matrix(
    curves: Mapping[str, Mapping[str, RateQualityCurve]],
    sequences: Sequence[VideoSequence],
    anchor: str,
    kind: str = "rate",
    *,
    method: str = "paper_area",
    rate_domain: str = "linear",
) -> ComparisonMatrix:
    """BD deltas of the anchor against every competitor, per sequence.

    ``curves`` maps profile name -> sequence short name -> curve. Cells
    where the comparison is impossible (missing curve, no common range,
    degenerate after pruning) are undefined, never zero. Each sequence's
    anchor curve is wrapped once in a ``bd.PreparedCurve``, so it is pruned
    and interpolated once per row; every cell still equals the standalone
    ``bd_rate``/``bd_quality`` call.
    """
    if anchor not in curves:
        raise ConfigError(f"anchor profile '{anchor}' has no curves")
    if kind not in ("rate", "quality"):
        raise ConfigError(f"kind must be 'rate' or 'quality', got {kind!r}")
    competitors = tuple(name for name in curves if name != anchor)
    if not competitors:
        raise ConfigError("need at least one competitor profile besides the anchor")

    cells: dict[tuple[str, str], BdResult | None] = {}
    for seq in sequences:
        anchor_curve = curves[anchor].get(seq.short_name)
        if anchor_curve is not None:
            anchor_curve = bd_metrics.PreparedCurve(anchor_curve)
        for competitor in competitors:
            competitor_curve = curves[competitor].get(seq.short_name)
            if anchor_curve is None or competitor_curve is None:
                cells[(seq.short_name, competitor)] = None
                continue
            try:
                if kind == "rate":
                    result = bd_metrics.bd_rate(anchor_curve, competitor_curve, method)
                else:
                    result = bd_metrics.bd_quality(anchor_curve, competitor_curve, rate_domain)
            except (NoOverlapError, DegenerateCurveError, InsufficientDataError):
                result = None
            cells[(seq.short_name, competitor)] = result

    by_group: dict[str, list[str]] = {}
    group_fps: dict[str, float] = {}
    for seq in sequences:
        label = _fps_label(seq)
        by_group.setdefault(label, []).append(seq.short_name)
        group_fps[label] = seq.fps_num / seq.fps_den

    groups = []
    for label in sorted(by_group, key=lambda lb: group_fps[lb]):
        names = tuple(by_group[label])
        averages: dict[str, float | None] = {}
        for competitor in competitors:
            values = [cells[(name, competitor)] for name in names]
            if any(v is None for v in values):
                averages[competitor] = None
            else:
                averages[competitor] = group_average([v.value for v in values])
        groups.append(MatrixGroup(label=label, sequences=names, averages=averages))

    return ComparisonMatrix(
        anchor_profile=anchor,
        kind=kind,
        competitors=competitors,
        groups=tuple(groups),
        cells=cells,
    )


def rank_profiles(
    averages: Mapping[str, float | None],
    anchor: str = "anchor",
) -> list[str]:
    """Order profiles by descending BD-quality average relative to the anchor.

    The anchor joins the ranking at value 0 (its delta against itself). With
    the anchor-minus-competitor sign convention the head of the list is the
    weakest profile and the tail the strongest. Ties fall back to name order
    with a warning.
    """
    for name, value in averages.items():
        if value is None:
            raise RankingUnavailableError(f"group average undefined for profile '{name}'")
    entries: list[tuple[str, float]] = [(anchor, 0.0)]
    entries.extend((name, float(value)) for name, value in averages.items())
    ordered = sorted(entries, key=lambda item: (-item[1], item[0]))
    values = [value for _, value in ordered]
    if len(set(values)) != len(values):
        warnings.warn(
            RankTieWarning("equal group averages; tie broken lexicographically"),
            stacklevel=2,
        )
    return [name for name, _ in ordered]


def render(matrix: ComparisonMatrix, fmt: str) -> str:
    """Render the matrix deterministically as Markdown or CSV.

    Markdown rounds to 2 decimals and marks undefined cells with an em dash;
    CSV keeps full precision and leaves undefined cells empty.
    """
    if fmt == "md":
        return _render_markdown(matrix)
    if fmt == "csv":
        return _render_csv(matrix)
    raise ConfigError(f"unknown report format {fmt!r}")


def _iter_rows(matrix: ComparisonMatrix):
    """Yields ("seq"|"avg", row label, per-competitor value list)."""
    for group in matrix.groups:
        for name in group.sequences:
            values = [matrix.cells[(name, c)] for c in matrix.competitors]
            yield "seq", name, [v.value if v is not None else None for v in values]
        yield "avg", f"Avg {group.label}", [
            group.averages[c] for c in matrix.competitors
        ]


def _render_markdown(matrix: ComparisonMatrix) -> str:
    lines = []
    lines.append("| Video | " + " | ".join(matrix.competitors) + " |")
    lines.append("|" + " --- |" * (len(matrix.competitors) + 1))
    for _, label, values in _iter_rows(matrix):
        cells = [f"{v:.2f}" if v is not None else UNDEFINED_MD for v in values]
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def _render_csv(matrix: ComparisonMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["video", *matrix.competitors])
    for _, label, values in _iter_rows(matrix):
        writer.writerow([label, *[repr(v) if v is not None else "" for v in values]])
    return buf.getvalue()


def throughput_summary_csv(
    records: Iterable[RunRecord],
    sequences: Sequence[VideoSequence],
) -> str:
    """Mean and sample-std throughput per (profile, mode, fps group, bitrate)."""
    fps_by_seq = {seq.short_name: _fps_label(seq) for seq in sequences}
    grouped: dict[tuple[str, str, str], list[RunRecord]] = {}
    for record in records:
        label = fps_by_seq.get(record.sequence_short_name)
        if label is None:
            continue
        key = (record.profile_name, record.mode.value, label)
        grouped.setdefault(key, []).append(record)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(THROUGHPUT_CSV_COLUMNS)
    for profile, mode, label in sorted(grouped):
        for bitrate, (mean, std) in throughput_stats(grouped[(profile, mode, label)]).items():
            writer.writerow([profile, mode, label, repr(bitrate), repr(mean), repr(std)])
    return buf.getvalue()
