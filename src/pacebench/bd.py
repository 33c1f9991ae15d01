"""Bjontegaard-style deltas between two rate-quality curves.

The continuous curve through the sampled points is a shape-preserving
monotone piecewise cubic (PCHIP, Fritsch-Carlson 1980 with Fritsch-Butland
harmonically weighted derivative estimates, so the interpolant never
overshoots the data). In the quality->rate direction the rate axis is
interpolated as log10(rate) and exponentiated on output, which makes the
classic constant-ratio identity exact and the result invariant under
rate-unit changes.

Both deltas are linear in the two curves, so each curve is integrated
alone over its own cubic pieces, clipped to the common range: exactly for
a cubic integrand, by a fixed Gauss-Legendre rule otherwise. A common range
cuts at most a curve's first and last piece; the whole pieces between them
are integrated once per ``PreparedCurve``, so an anchor compared with many
competitors is pruned, interpolated and integrated once, not per pair.
"""

from __future__ import annotations

import math
import numbers
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .curves import RateQualityCurve
from .errors import (
    DegenerateCurveError,
    ExtrapolationError,
    NoOverlapError,
    PruningWarning,
)

BD_RATE_METHODS = ("paper_area", "log_domain")
BD_QUALITY_RATE_DOMAINS = ("linear", "log")

# The 8-point Gauss-Legendre rule on [-1, 1], for 10**cubic and cubic(10**u).
# Each piece is cut into parts of at most half a decade of rate: with whole
# decades, random sparse curve pairs were off by up to 5e-7.
_GL_NODES = (
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
)
_GL_WEIGHTS = (
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
)
_MAX_PIECE_DECADES = 0.5

_Piece = tuple[float, float, float, float, float, float]  # (x0, x1, y0, d0, c2, c3)


@dataclass(frozen=True)
class CommonRange:
    """Overlap of two curves' spans on the integration axis."""

    lo: float
    hi: float
    axis: str  # "quality" | "rate"

    def __post_init__(self):
        if not self.lo < self.hi:
            raise NoOverlapError(
                f"empty common {self.axis} range: [{self.lo}, {self.hi}]"
            )


@dataclass(frozen=True)
class BdResult:
    """A signed BD delta, its common range, and how it was computed.

    ``method`` records the computation mode: "paper_area" or "log_domain"
    for rate deltas, the rate domain ("linear" or "log") for quality deltas.
    ``points_used`` counts the (test, reference) points that survived pruning.
    """

    kind: str  # "bd_rate_percent" | "bd_quality_points"
    value: float
    common_range: CommonRange
    method: str
    points_used: tuple[int, int]


def prune_monotone(curve: RateQualityCurve) -> RateQualityCurve:
    """Keep only Pareto points: quality strictly above everything cheaper.

    Scanning by ascending rate, a point whose quality does not improve on
    the best seen so far is dropped (with a PruningWarning listing the
    casualties). The result is strictly increasing on both axes, which the
    interpolant needs to be invertible. A curve with nothing to drop is
    returned as it is.
    """
    kept: list[tuple[float, float]] = []
    dropped: list[tuple[float, float]] = []
    best = -math.inf
    for rate, quality in curve.points:
        if quality > best:
            kept.append((rate, quality))
            best = quality
        else:
            dropped.append((rate, quality))
    if dropped:
        warnings.warn(
            PruningWarning(
                f"curve '{curve.label}': dropped {len(dropped)} dominated point(s): {dropped}"
            ),
            stacklevel=2,
        )
    if len(kept) < 2:
        raise DegenerateCurveError(
            f"curve '{curve.label}': fewer than 2 points survive monotone pruning"
        )
    return RateQualityCurve(tuple(kept), label=curve.label) if dropped else curve


def common_range(curve_a: RateQualityCurve, curve_b: RateQualityCurve, axis: str) -> CommonRange:
    """[max of minima, min of maxima] on the chosen axis."""
    if axis == "quality":
        span_a, span_b = curve_a.quality_range, curve_b.quality_range
    elif axis == "rate":
        span_a, span_b = curve_a.rate_range, curve_b.rate_range
    else:
        raise ValueError(f"axis must be 'quality' or 'rate', got {axis!r}")
    lo = max(span_a[0], span_b[0])
    hi = min(span_a[1], span_b[1])
    if lo >= hi:
        raise NoOverlapError(
            f"no common {axis} range: [{span_a[0]:g}, {span_a[1]:g}] vs "
            f"[{span_b[0]:g}, {span_b[1]:g}]"
        )
    return CommonRange(lo, hi, axis)


def _pieces(x: Sequence[float], y: Sequence[float]) -> list[_Piece]:
    """PCHIP through (x, y), both strictly increasing: y0 + s*(d0 + s*(c2 + s*c3))
    at s = x - x0 on each interval [x0, x1].

    Interior slopes are Fritsch-Butland weighted harmonic means of the
    secants; end slopes are the three-point estimate floored at zero (the
    general rule's sign-change clamps never apply to increasing data).
    """
    h = [x1 - x0 for x0, x1 in zip(x, x[1:])]
    delta = [(y1 - y0) / hk for y0, y1, hk in zip(y, y[1:], h)]
    d = [delta[0]] * len(x)
    if len(x) > 2:
        for k in range(1, len(x) - 1):
            w1 = 2.0 * h[k] + h[k - 1]
            w2 = h[k] + 2.0 * h[k - 1]
            d[k] = (w1 + w2) / (w1 / delta[k - 1] + w2 / delta[k])
        d[0] = max(0.0, ((2.0 * h[0] + h[1]) * delta[0] - h[0] * delta[1]) / (h[0] + h[1]))
        d[-1] = max(0.0, ((2.0 * h[-1] + h[-2]) * delta[-1] - h[-1] * delta[-2]) / (h[-1] + h[-2]))
    return [
        (x0, x1, y0, d0, (3.0 * dk - 2.0 * d0 - d1) / hk, (d0 + d1 - 2.0 * dk) / (hk * hk))
        for x0, x1, y0, d0, d1, dk, hk in zip(x, x[1:], y, d, d[1:], delta, h)
    ]


def _log_rate_pieces(curve: RateQualityCurve) -> list[_Piece]:
    return _pieces(curve.qualities, [math.log10(r) for r in curve.rates])


def interpolate(curve: RateQualityCurve, axis_in: str, x):
    """Evaluate the curve at ``x`` on ``axis_in``, returning the other axis.

    Exact at the knots; refuses to extrapolate. A real number in, a float
    out; any other iterable of numbers in, a list of floats out.
    """
    qs = curve.qualities
    if any(q1 <= q0 for q0, q1 in zip(qs, qs[1:])):
        raise DegenerateCurveError(
            f"curve '{curve.label}' is not strictly increasing in quality; "
            "apply prune_monotone first"
        )
    if axis_in == "quality":
        lo, hi = curve.quality_range
        pieces = _log_rate_pieces(curve)
    elif axis_in == "rate":
        lo, hi = curve.rate_range
        pieces = _pieces(curve.rates, qs)
    else:
        raise ValueError(f"axis_in must be 'quality' or 'rate', got {axis_in!r}")
    scalar = isinstance(x, numbers.Real)
    values = [float(x)] if scalar else [float(v) for v in x]
    if values and (min(values) < lo or max(values) > hi):
        raise ExtrapolationError(
            f"input outside the curve's {axis_in} range [{lo:g}, {hi:g}]"
        )
    starts = [piece[0] for piece in pieces]  # searching from starts[1] clamps the ends
    out = []
    for xv in values:
        x0, _, y0, d0, c2, c3 = pieces[bisect_right(starts, xv, 1) - 1]
        s = xv - x0
        out.append(y0 + s * (d0 + s * (c2 + s * c3)))
    if axis_in == "quality":
        out = [10.0 ** v for v in out]
    return out[0] if scalar else out


def _cubic_rule(piece: _Piece, a: float, b: float) -> float:
    """Exact integral of the piece's cubic over [a, b], by its antiderivative."""
    x0, _, y0, d0, c2, c3 = piece
    # the integral of s**k over [a, b] is (b - a) * sum(a**i * b**(k-i)) / (k+1)
    a, b = a - x0, b - x0
    return (b - a) * (y0 + d0 * (a + b) / 2.0 + c2 * (a * a + a * b + b * b) / 3.0
                      + c3 * (a + b) * (a * a + b * b) / 4.0)


def _gauss_rule(piece: _Piece, a: float, b: float, over_log_rate: bool = False) -> float:
    """Integral over [a, b] of 10**piece, or with ``over_log_rate`` of the piece
    over log10 of its rate axis, by the Gauss-Legendre rule.

    The piece is cut into even parts, one per _MAX_PIECE_DECADES of the rate it
    spans: the rise of its log10(rate) values, or the log10 of its knots' ratio.
    """
    x0, x1, y0, d0, c2, c3 = piece
    if over_log_rate:
        a, b, decades = math.log10(a), math.log10(b), math.log10(x1 / x0)
    else:
        h = x1 - x0
        decades = h * (d0 + h * (c2 + h * c3))
    parts = max(1, math.ceil(decades / _MAX_PIECE_DECADES))
    half = (b - a) / (2 * parts)
    terms = []
    for j in range(parts):
        mid = a + half * (2 * j + 1)
        for t, w in zip(_GL_NODES, _GL_WEIGHTS):
            u = mid + half * t
            s = (10.0 ** u if over_log_rate else u) - x0
            y = y0 + s * (d0 + s * (c2 + s * c3))
            terms.append(w * half * (y if over_log_rate else 10.0 ** y))
    return math.fsum(terms)


_log_rate_gauss_rule = partial(_gauss_rule, over_log_rate=True)


class _Integrand:
    """One pruned curve's pieces on one axis, integrated by one per-piece rule.

    Each whole piece's integral is computed at most once, so integrating
    over many spans costs the rule only on the pieces that a span cuts.
    """

    def __init__(self, curve: RateQualityCurve, axis: str, rule):
        if axis == "quality":
            self.pieces = _log_rate_pieces(curve)
        else:
            self.pieces = _pieces(curve.rates, curve.qualities)
        self.rule = rule
        self.starts = [piece[0] for piece in self.pieces]
        self.ends = [piece[1] for piece in self.pieces]
        self.whole: list[float | None] = [None] * len(self.pieces)

    def over(self, span: CommonRange) -> float:
        """The integral over a span inside the curve's range."""
        lo, hi = span.lo, span.hi
        first, stop = bisect_right(self.ends, lo), bisect_left(self.starts, hi)
        return math.fsum(self._part(k, lo, hi) for k in range(first, stop))

    def _part(self, k: int, lo: float, hi: float) -> float:
        x0, x1 = self.starts[k], self.ends[k]
        if x0 < lo or hi < x1:  # only the first and the last piece can be cut
            return self.rule(self.pieces[k], max(x0, lo), min(x1, hi))
        if self.whole[k] is None:
            self.whole[k] = self.rule(self.pieces[k], x0, x1)
        return self.whole[k]


class PreparedCurve:
    """A curve for many BD calls, pruned and interpolated once.

    ``bd_rate`` and ``bd_quality`` accept it wherever they accept a curve,
    with the same values to the bit. Pruning (and its PruningWarning) and
    each integrand are done in the first call that needs them and live as
    long as this object; a matrix keeps one per anchor curve for one row.
    """

    def __init__(self, curve: RateQualityCurve):
        self.curve = curve
        self.label = curve.label
        self._pruned: RateQualityCurve | None = None
        self._integrands: dict[tuple, _Integrand] = {}

    @property
    def pruned(self) -> RateQualityCurve:
        if self._pruned is None:
            self._pruned = prune_monotone(self.curve)
        return self._pruned

    def integral(self, axis: str, rule, span: CommonRange) -> float:
        integrand = self._integrands.get((axis, rule))
        if integrand is None:
            integrand = self._integrands[(axis, rule)] = _Integrand(self.pruned, axis, rule)
        return integrand.over(span)


def _prepared(curve: RateQualityCurve | PreparedCurve) -> PreparedCurve:
    return curve if isinstance(curve, PreparedCurve) else PreparedCurve(curve)


def bd_rate(
    test: RateQualityCurve | PreparedCurve,
    ref: RateQualityCurve | PreparedCurve,
    method: str = "paper_area",
) -> BdResult:
    """Average bitrate delta (%) at equal quality; negative = test is cheaper.

    ``paper_area`` compares the areas under the two rate(quality) curves over
    the common quality range, divided by the reference's area. PAPER.md
    divides "by the area to the left of the aomenc-rt8 blue curve", its
    anchor; the reference's area gives a constant rate ratio c exactly
    100(c - 1) %, where the anchor's would turn the paper's -21.68 into
    -27.68. ``log_domain`` averages log10(rate_test) - log10(rate_ref) and
    converts the mean back to a percentage. Each curve's log10(rate) is
    integrated alone over its own pieces: exactly for ``log_domain``, by
    the Gauss-Legendre rule on 10**piece for ``paper_area``. Either curve
    may be a PreparedCurve, whose whole-piece integrals carry over from
    earlier calls.
    """
    test, ref = _prepared(test), _prepared(ref)
    span = common_range(test.pruned, ref.pruned, "quality")

    if method == "paper_area":
        area_test, area_ref = (c.integral("quality", _gauss_rule, span) for c in (test, ref))
        value = 100.0 * (area_test - area_ref) / area_ref
    elif method == "log_domain":
        log_test, log_ref = (c.integral("quality", _cubic_rule, span) for c in (test, ref))
        value = 100.0 * (10.0 ** ((log_test - log_ref) / (span.hi - span.lo)) - 1.0)
    else:
        raise ValueError(f"method must be one of {BD_RATE_METHODS}, got {method!r}")

    return BdResult(kind="bd_rate_percent", value=value, common_range=span, method=method,
                    points_used=(len(test.pruned.points), len(ref.pruned.points)))


def bd_quality(
    test: RateQualityCurve | PreparedCurve,
    ref: RateQualityCurve | PreparedCurve,
    rate_domain: str = "linear",
) -> BdResult:
    """Average quality delta (score points) at equal bitrate; positive = test scores higher.

    The difference quality_test - quality_ref is averaged over the common
    bitrate range, on a linear or log10 rate axis per ``rate_domain``: each
    curve's quality is integrated alone over its own pieces, exactly for
    ``linear``, by the Gauss-Legendre rule over log10(rate) for ``log``.
    Either curve may be a PreparedCurve, as for ``bd_rate``.
    """
    test, ref = _prepared(test), _prepared(ref)
    span = common_range(test.pruned, ref.pruned, "rate")

    if rate_domain == "linear":
        area_test, area_ref = (c.integral("rate", _cubic_rule, span) for c in (test, ref))
        width = span.hi - span.lo
    elif rate_domain == "log":
        area_test, area_ref = (c.integral("rate", _log_rate_gauss_rule, span)
                               for c in (test, ref))
        width = math.log10(span.hi) - math.log10(span.lo)
    else:
        raise ValueError(
            f"rate_domain must be one of {BD_QUALITY_RATE_DOMAINS}, got {rate_domain!r}"
        )
    value = (area_test - area_ref) / width

    return BdResult(kind="bd_quality_points", value=value, common_range=span, method=rate_domain,
                    points_used=(len(test.pruned.points), len(ref.pruned.points)))
