"""Quality-score ingestion, pooling, and the VMAF-to-MOS mapping.

The harness never computes perceptual metrics itself; it ingests reports
written by an external tool, either in the native schema
``{"metric": str, "pooled": number?, "frames": [number]?}`` or in the
common external log layout (``pooled_metrics`` / per-frame ``metrics``
objects), which an adapter normalizes.

``pacebench report`` parses a log only when its bytes are not those of the
log it scored last time: it keeps each pooled score, as ``[metric, pooled]``,
in ``<runs>/report.cache`` beside the run records it loaded (see
``cli.cmd_report`` and ``ioutil.DigestCache``), and a reused score is
checked again by ``QualityReport``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple

from .curves import RateQualityCurve
from .errors import (
    DuplicatePointError,
    InsufficientDataError,
    MetricSchemaError,
    ScoreRangeError,
)
from .harness import RunRecord
from .ioutil import load_json

SCORE_MIN = 0.0
SCORE_MAX = 100.0
_POOLED_MEAN_TOLERANCE = 1e-6
DUPLICATE_RATE_KBPS = 0.5


@dataclass(frozen=True)
class QualityReport:
    """Per-run quality scores: a pooled score and optional per-frame detail.

    When both are present the pooled score must equal the arithmetic mean
    of the frame scores to within 1e-6; the tool's pooled value is kept
    verbatim rather than recomputed. A pooled score of None becomes that mean.
    """

    metric_name: str
    pooled_score: float | None
    per_frame_scores: tuple[float, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.metric_name, str):
            raise MetricSchemaError(f"metric name must be a string, got {self.metric_name!r}")
        mean = None
        if self.per_frame_scores is not None:
            for score in self.per_frame_scores:
                _check_score(score, "frame score")
            frames = tuple(map(float, self.per_frame_scores))
            object.__setattr__(self, "per_frame_scores", frames)
            if not frames:
                raise MetricSchemaError("per-frame score list is empty")
            mean = statistics.fmean(frames)
            if self.pooled_score is None:
                object.__setattr__(self, "pooled_score", mean)
        _check_score(self.pooled_score, "pooled score")
        object.__setattr__(self, "pooled_score", float(self.pooled_score))
        if mean is not None and abs(self.pooled_score - mean) > _POOLED_MEAN_TOLERANCE:
            raise MetricSchemaError(
                f"pooled score {self.pooled_score} disagrees with the mean of "
                f"{len(self.per_frame_scores)} frame scores ({mean})"
            )

    def to_dict(self) -> dict:
        data: dict = {"metric": self.metric_name, "pooled": self.pooled_score}
        if self.per_frame_scores is not None:
            data["frames"] = list(self.per_frame_scores)
        return data


def _check_score(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MetricSchemaError(f"{what} must be a number, got {value!r}")
    if not SCORE_MIN <= value <= SCORE_MAX:
        raise ScoreRangeError(f"{what} {value} outside [{SCORE_MIN:g}, {SCORE_MAX:g}]")


def _normalize_external(data: dict) -> dict:
    """Normalize the common external VMAF log layout to the native schema.
    Every entry of a non-empty ``frames`` must be an object with ``metrics.vmaf``."""
    native: dict = {"metric": "vmaf"}
    pooled = data.get("pooled_metrics")
    if isinstance(pooled, dict):
        try:
            native["pooled"] = pooled["vmaf"]["mean"]
        except (KeyError, TypeError) as exc:
            raise MetricSchemaError(f"malformed pooled_metrics: {exc}") from exc
    frames = data.get("frames")
    if frames:
        try:
            native["frames"] = [frame["metrics"]["vmaf"] for frame in frames]
        except (KeyError, TypeError) as exc:
            raise MetricSchemaError(f"malformed per-frame metrics: {exc}") from exc
    return native


def parse_metric_report(path: str | Path, data: bytes | None = None) -> QualityReport:
    """Read a metric report; pooled score is derived from frames when absent.

    *data*, when given, is the report's content already read from *path*,
    which then only names the report in errors.
    """
    data = load_json(path, MetricSchemaError, dict, data=data)

    frames = data.get("frames")
    if "pooled_metrics" in data or (isinstance(frames, list) and frames
                                    and isinstance(frames[0], dict)):
        data = _normalize_external(data)
    elif "metric" not in data:
        raise MetricSchemaError(f"{path}: missing 'metric' field")

    pooled = data.get("pooled")
    frames = data.get("frames")
    if pooled is None and not frames:
        raise MetricSchemaError(
            f"{path}: report contains neither a pooled score nor per-frame scores"
        )
    if frames is not None and not isinstance(frames, list):
        raise MetricSchemaError(f"{path}: 'frames' must be a list, got {frames!r}")
    return QualityReport(
        metric_name=data["metric"],
        pooled_score=pooled,
        per_frame_scores=tuple(frames) if frames is not None else None,
    )


class MosLabel(str, Enum):
    BAD = "bad"
    POOR = "poor"
    FAIR = "fair"
    GOOD = "good"
    EXCELLENT = "excellent"


class MosCategory(NamedTuple):
    mos_value: float
    label: MosLabel


_MOS_LABELS = {
    1: MosLabel.BAD,
    2: MosLabel.POOR,
    3: MosLabel.FAIR,
    4: MosLabel.GOOD,
    5: MosLabel.EXCELLENT,
}


def vmaf_to_mos(vmaf: float) -> MosCategory:
    """Map a 0-100 score onto the 1-5 opinion scale.

    Linear through the five anchor pairs (20->bad ... 100->excellent),
    clamped to [1, 5]; the label comes from rounding the value with ties
    going to the better category.
    """
    if not SCORE_MIN <= vmaf <= SCORE_MAX:
        raise ScoreRangeError(f"score {vmaf} outside [{SCORE_MIN:g}, {SCORE_MAX:g}]")
    mos = min(5.0, max(1.0, vmaf / 20.0))
    label_index = min(5, int(math.floor(mos + 0.5)))
    return MosCategory(mos, _MOS_LABELS[label_index])


def collect_curve(
    runs_with_quality: Iterable[tuple[RunRecord, QualityReport]],
    label: str = "",
) -> RateQualityCurve:
    """Build the rate-quality curve for one encoder on one sequence.

    Points are keyed by *achieved* bitrate, not the target: targets are
    labels, what lands on the rate axis is what the encoder actually
    produced. Two runs landing within 0.5 kbps of each other count as
    duplicates.
    """
    points = [
        (record.achieved_bitrate_kbps, report.pooled_score)
        for record, report in runs_with_quality
    ]
    if len(points) < 2:
        raise InsufficientDataError(
            f"curve '{label}': need at least 2 scored runs, got {len(points)}"
        )
    points.sort()
    for (r0, _), (r1, _) in zip(points, points[1:]):
        if r1 - r0 <= DUPLICATE_RATE_KBPS:
            raise DuplicatePointError(
                f"curve '{label}': achieved bitrates {r0:g} and {r1:g} kbps are "
                f"within {DUPLICATE_RATE_KBPS} kbps"
            )
    return RateQualityCurve(tuple(points), label=label)
