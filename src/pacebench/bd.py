"""Bjontegaard-style deltas between two rate-quality curves.

The continuous curve through the sampled points is a shape-preserving
monotone piecewise cubic (PCHIP, Fritsch-Carlson 1980 with Fritsch-Butland
harmonically weighted derivative estimates, so the interpolant never
overshoots the data). In the quality->rate direction the rate axis is
interpolated as log10(rate) and exponentiated on output, which makes the
classic constant-ratio identity exact and the result invariant under
rate-unit changes.

Integrals apply a fixed Gauss-Legendre rule to each segment between the
merged knots of both curves, on which each curve is a single cubic.
"""

from __future__ import annotations

import math
import numbers
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

from .curves import RateQualityCurve
from .errors import (
    DegenerateCurveError,
    ExtrapolationError,
    NoOverlapError,
    PruningWarning,
)

BD_RATE_METHODS = ("paper_area", "log_domain")
BD_QUALITY_RATE_DOMAINS = ("linear", "log")

# The 8-point Gauss-Legendre rule on [-1, 1], exact for the cubic integrands
# (log_domain, linear bd_quality). 10**cubic and cubic(10**u) need pieces of
# at most half a decade of rate: at a whole decade, sparse curves were still
# off by 5e-6.
_GL_NODES = (
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
)
_GL_WEIGHTS = (
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
)
_MAX_PIECE_DECADES = 0.5


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
    interpolant needs to be invertible.
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
    return RateQualityCurve(tuple(kept), label=curve.label)


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


def _require_monotone_quality(curve: RateQualityCurve) -> None:
    qs = curve.qualities
    if any(q1 <= q0 for q0, q1 in zip(qs, qs[1:])):
        raise DegenerateCurveError(
            f"curve '{curve.label}' is not strictly increasing in quality; "
            "apply prune_monotone first"
        )


def _pchip(x: Sequence[float], y: Sequence[float]) -> Callable[[Sequence[float]], list[float]]:
    """PCHIP through (x, y), both strictly increasing; evaluates without range checks.

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
    cubics = [
        (x0, y0, d0, (3.0 * dk - 2.0 * d0 - d1) / hk, (d0 + d1 - 2.0 * dk) / (hk * hk))
        for x0, y0, d0, d1, dk, hk in zip(x, y, d, d[1:], delta, h)
    ]
    inner = len(x) - 1  # searching x[1:inner] clamps every input to a cubic

    def evaluate(xs: Sequence[float]) -> list[float]:
        out = []
        for xv in xs:
            x0, y0, d0, c2, c3 = cubics[bisect_right(x, xv, 1, inner) - 1]
            s = xv - x0
            out.append(y0 + s * (d0 + s * (c2 + s * c3)))
        return out

    return evaluate


def _log_rate_of_quality(curve: RateQualityCurve) -> Callable:
    return _pchip(curve.qualities, [math.log10(r) for r in curve.rates])


def _quality_of_rate(curve: RateQualityCurve) -> Callable:
    return _pchip(curve.rates, curve.qualities)


def interpolate(curve: RateQualityCurve, axis_in: str, x):
    """Evaluate the curve at ``x`` on ``axis_in``, returning the other axis.

    Exact at the knots; refuses to extrapolate. A real number in, a float
    out; any other iterable of numbers in, a list of floats out.
    """
    _require_monotone_quality(curve)
    if axis_in == "quality":
        lo, hi = curve.quality_range
        log_rate = _log_rate_of_quality(curve)
        evaluate = lambda xs: [10.0 ** v for v in log_rate(xs)]
    elif axis_in == "rate":
        lo, hi = curve.rate_range
        evaluate = _quality_of_rate(curve)
    else:
        raise ValueError(f"axis_in must be 'quality' or 'rate', got {axis_in!r}")
    scalar = isinstance(x, numbers.Real)
    values = [float(x)] if scalar else [float(v) for v in x]
    if values and (min(values) < lo or max(values) > hi):
        raise ExtrapolationError(
            f"input outside the curve's {axis_in} range [{lo:g}, {hi:g}]"
        )
    out = evaluate(values)
    return out[0] if scalar else out


def _segments(
    test: RateQualityCurve, ref: RateQualityCurve, span: CommonRange
) -> tuple[list[float], int]:
    """Merged knots of both curves inside ``span``, and how many even pieces
    each segment needs so that no curve's rate spans over _MAX_PIECE_DECADES."""
    knots = sorted(set(
        test.qualities + ref.qualities if span.axis == "quality" else test.rates + ref.rates
    ))
    decades = max(
        math.log10(r1) - math.log10(r0) for c in (test, ref) for r0, r1 in zip(c.rates, c.rates[1:])
    )
    pieces = max(1, math.ceil(decades / _MAX_PIECE_DECADES))
    return [k for k in knots if span.lo <= k <= span.hi], pieces


def _rule(edges: Sequence[float], pieces: int) -> tuple[list[float], list[float]]:
    """Nodes and weights of the mean over [edges[0], edges[-1]]: the
    Gauss-Legendre rule on ``pieces`` even parts of every segment."""
    fine = [a + (b - a) * (j / pieces) for a, b in zip(edges, edges[1:]) for j in range(pieces)]
    fine.append(edges[-1])
    halves = [(b - a) / 2.0 for a, b in zip(fine, fine[1:])]
    nodes = [a + half * (1.0 + t) for a, half in zip(fine, halves) for t in _GL_NODES]
    width = edges[-1] - edges[0]
    return nodes, [half * w / width for half in halves for w in _GL_WEIGHTS]


def bd_rate(
    test: RateQualityCurve,
    ref: RateQualityCurve,
    method: str = "paper_area",
) -> BdResult:
    """Average bitrate delta (%) at equal quality; negative = test is cheaper.

    ``paper_area`` compares the areas under the two rate(quality) curves over
    the common quality range, normalized by the reference area. ``log_domain``
    averages log10(rate_test) - log10(rate_ref) and converts the mean back to
    a percentage. Both integrate log10(rate) of quality, one Gauss-Legendre
    sum per segment between the curves' merged quality knots.
    """
    test_p = prune_monotone(test)
    ref_p = prune_monotone(ref)
    span = common_range(test_p, ref_p, "quality")
    log_rate_test = _log_rate_of_quality(test_p)
    log_rate_ref = _log_rate_of_quality(ref_p)
    q, weights = _rule(*_segments(test_p, ref_p, span))

    if method == "paper_area":
        area_test = math.fsum(10.0 ** v * w for v, w in zip(log_rate_test(q), weights))
        area_ref = math.fsum(10.0 ** v * w for v, w in zip(log_rate_ref(q), weights))
        value = 100.0 * (area_test - area_ref) / area_ref
    elif method == "log_domain":
        mean_log_delta = math.fsum(
            (t - r) * w for t, r, w in zip(log_rate_test(q), log_rate_ref(q), weights)
        )
        value = 100.0 * (10.0 ** mean_log_delta - 1.0)
    else:
        raise ValueError(f"method must be one of {BD_RATE_METHODS}, got {method!r}")

    return BdResult(
        kind="bd_rate_percent",
        value=value,
        common_range=span,
        method=method,
        points_used=(len(test_p.points), len(ref_p.points)),
    )


def bd_quality(
    test: RateQualityCurve,
    ref: RateQualityCurve,
    rate_domain: str = "linear",
) -> BdResult:
    """Average quality delta (score points) at equal bitrate; positive = test scores higher.

    The difference quality_test - quality_ref is averaged over the common
    bitrate range, on a linear or log10 rate axis per ``rate_domain``.
    """
    test_p = prune_monotone(test)
    ref_p = prune_monotone(ref)
    span = common_range(test_p, ref_p, "rate")
    quality_test = _quality_of_rate(test_p)
    quality_ref = _quality_of_rate(ref_p)
    edges, pieces = _segments(test_p, ref_p, span)

    if rate_domain == "linear":
        rates, weights = _rule(edges, pieces)
    elif rate_domain == "log":
        log_rates, weights = _rule([math.log10(e) for e in edges], pieces)
        rates = [10.0 ** u for u in log_rates]
    else:
        raise ValueError(
            f"rate_domain must be one of {BD_QUALITY_RATE_DOMAINS}, got {rate_domain!r}"
        )
    value = math.fsum(
        (t - r) * w for t, r, w in zip(quality_test(rates), quality_ref(rates), weights)
    )

    return BdResult(
        kind="bd_quality_points",
        value=value,
        common_range=span,
        method=rate_domain,
        points_used=(len(test_p.points), len(ref_p.points)),
    )
