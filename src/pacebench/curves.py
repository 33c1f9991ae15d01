"""Rate-quality curves and their CSV persistence."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DuplicatePointError, InsufficientDataError, InvalidInputError
from .ioutil import atomic_write_text

CURVE_CSV_HEADER = ("bitrate_kbps", "quality")


@dataclass(frozen=True)
class RateQualityCurve:
    """Sampled (bitrate, quality) points for one encoder on one sequence.

    Points are keyed by achieved bitrate and sorted strictly ascending in
    rate. Quality need not be monotone here; BD computations prune to the
    monotone Pareto subset first.
    """

    points: tuple[tuple[float, float], ...]
    label: str = ""
    # computed once in __post_init__: bd reads them for every matrix cell
    rates: tuple[float, ...] = field(init=False, compare=False, repr=False)
    qualities: tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pts = tuple((float(r), float(q)) for r, q in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise InsufficientDataError(
                f"curve '{self.label}' needs at least 2 points, got {len(pts)}"
            )
        if pts[0][0] <= 0:
            raise InvalidInputError(f"curve '{self.label}': rates must be positive")
        for (r0, q0), (r1, q1) in zip(pts, pts[1:]):
            if not all(map(math.isfinite, (r0, q0, r1, q1))):
                raise InvalidInputError(
                    f"curve '{self.label}': rates and qualities must be finite, "
                    f"got ({r0}, {q0}), ({r1}, {q1})"
                )
            if r1 == r0:
                raise DuplicatePointError(f"curve '{self.label}': duplicate rate {r0}")
            if r1 < r0:
                raise InvalidInputError(
                    f"curve '{self.label}': rates must be strictly increasing"
                )
        rates, qualities = zip(*pts)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "qualities", qualities)

    @classmethod
    def from_points(cls, points, label: str = "") -> "RateQualityCurve":
        return cls(tuple(sorted((float(r), float(q)) for r, q in points)), label=label)

    @property
    def rate_range(self) -> tuple[float, float]:
        return self.points[0][0], self.points[-1][0]

    @property
    def quality_range(self) -> tuple[float, float]:
        return min(self.qualities), max(self.qualities)


def curve_to_csv(curve: RateQualityCurve) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CURVE_CSV_HEADER)
    for rate, quality in curve.points:
        writer.writerow([repr(rate), repr(quality)])
    return buf.getvalue()


def save_curve_csv(curve: RateQualityCurve, path: str | Path) -> None:
    atomic_write_text(path, curve_to_csv(curve))


def load_curve_csv(path: str | Path, label: str | None = None) -> RateQualityCurve:
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidInputError(f"{path}: not a UTF-8 CSV file: {exc}") from exc
    if not rows or tuple(rows[0]) != CURVE_CSV_HEADER:
        raise InvalidInputError(
            f"{path}: expected header {','.join(CURVE_CSV_HEADER)}"
        )
    points = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            rate, quality = float(row[0]), float(row[1])
        except (ValueError, IndexError) as exc:
            raise InvalidInputError(f"{path}:{lineno}: malformed point {row!r}") from exc
        points.append((rate, quality))
    return RateQualityCurve.from_points(points, label=label if label is not None else path.stem)
