"""Quality-score ingestion, pooling, and the VMAF-to-MOS mapping.

The harness never computes perceptual metrics itself; it ingests reports
written by an external tool, either in the native schema
``{"metric": str, "pooled": number?, "frames": [number]?}`` or in the
common external log layout (``pooled_metrics`` / per-frame ``metrics``
objects), which an adapter normalizes.

``pooled_scores`` is how ``pacebench report`` reads a campaign's logs. It
keeps each validated pooled score in ``<runs>/quality-scores.cache``, keyed
by the BLAKE2b digest of the log's bytes, and parses a log again only when
its bytes differ from the ones it validated. Deleting the file resets it.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

from .curves import RateQualityCurve
from .errors import (
    ComputationError,
    DuplicatePointError,
    InsufficientDataError,
    InvalidInputError,
    MetricSchemaError,
    ScoreRangeError,
)
from .harness import RunRecord
from .ioutil import atomic_write_text, load_json

SCORE_MIN = 0.0
SCORE_MAX = 100.0
_POOLED_MEAN_TOLERANCE = 1e-6
DUPLICATE_RATE_KBPS = 0.5

SCORE_CACHE_NAME = "quality-scores.cache"
# Bump whenever what parse_metric_report accepts or returns changes: a score
# it validated under the old rules must not be reused under the new ones.
_SCORE_CACHE_VERSION = 1


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
    """Normalize the common external VMAF log layout to the native schema."""
    native: dict = {"metric": "vmaf"}
    pooled = data.get("pooled_metrics")
    if isinstance(pooled, dict):
        try:
            native["pooled"] = pooled["vmaf"]["mean"]
        except (KeyError, TypeError) as exc:
            raise MetricSchemaError(f"malformed pooled_metrics: {exc}") from exc
    frames = data.get("frames")
    if isinstance(frames, list) and frames and isinstance(frames[0], dict):
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

    is_external = "pooled_metrics" in data or (
        isinstance(data.get("frames"), list)
        and data["frames"]
        and isinstance(data["frames"][0], dict)
    )
    if is_external:
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
        metric_name=str(data.get("metric", "vmaf")),
        pooled_score=pooled,
        per_frame_scores=tuple(frames) if frames is not None else None,
    )


def pooled_scores(
    runs_dir: Path, names: Sequence[str], listed: Collection[str]
) -> tuple[list[QualityReport], int, Callable[[], None]]:
    """Pooled score of each quality log in *names*, in order, how many of
    them were parsed, and a function that saves the cache.

    A log whose bytes have the digest recorded in ``<runs_dir>/quality-scores.cache``
    reuses the score stored with it; every other log goes through
    parse_metric_report and all its checks, so the first bad log raises as
    it would without the cache, and is never cached. A missing, unreadable
    or outdated file counts as empty. Entries of logs that are not in
    *listed* (the directory's quality logs) are dropped. The caller saves
    once its report has succeeded; the file is rewritten only when an entry
    was added, changed or dropped.
    """
    # imported here: at module level, loading OpenSSL would add about 3 ms
    # and 3.5 MB to every `import pacebench.cli`
    import hashlib

    cache_path = runs_dir / SCORE_CACHE_NAME
    cached = _read_score_cache(cache_path)
    entries = {name: entry for name, entry in cached.items() if name in listed}
    reports, parsed = [], 0
    for name in names:
        path = runs_dir / name
        data = path.read_bytes()
        digest = hashlib.blake2b(data, digest_size=16).hexdigest()
        report = _cached_report(entries.get(name), digest)
        if report is None:
            full = parse_metric_report(path, data=data)
            report = QualityReport(full.metric_name, full.pooled_score)
            entries[name] = [digest, report.metric_name, report.pooled_score]
            parsed += 1
        reports.append(report)

    def save() -> None:
        if entries != cached:
            cache = {"version": _SCORE_CACHE_VERSION, "scores": entries}
            atomic_write_text(cache_path, json.dumps(cache, sort_keys=True) + "\n")

    return reports, parsed, save


def _read_score_cache(path: Path) -> dict:
    try:
        cache = load_json(path, InvalidInputError, dict)
    except (OSError, InvalidInputError):
        return {}
    if cache.get("version") != _SCORE_CACHE_VERSION or not isinstance(cache.get("scores"), dict):
        return {}
    return cache["scores"]


def _cached_report(entry, digest: str) -> QualityReport | None:
    """The entry's score if it was stored for these bytes and still passes
    QualityReport's checks, else None."""
    if not (isinstance(entry, list) and len(entry) == 3 and entry[0] == digest
            and isinstance(entry[1], str)):
        return None
    try:
        return QualityReport(entry[1], entry[2])
    except ComputationError:
        return None


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
