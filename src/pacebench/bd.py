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
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curves import RateQualityCurve
from .errors import (
    DegenerateCurveError,
    ExtrapolationError,
    NoOverlapError,
    PruningWarning,
)

BD_RATE_METHODS = ("paper_area", "log_domain")
BD_QUALITY_RATE_DOMAINS = ("linear", "log")

# Exact for the cubic integrands (log_domain, linear bd_quality). 10**cubic
# and cubic(10**u) need pieces of at most half a decade of rate: at a whole
# decade, sparse curves were still off by 5e-6.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
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


def _pchip(x, y) -> Callable:
    """PCHIP through (x, y), both strictly increasing; evaluates without range checks.

    Interior slopes are Fritsch-Butland weighted harmonic means of the
    secants; end slopes are the three-point estimate floored at zero (the
    general rule's sign-change clamps never apply to increasing data).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    delta = np.diff(y) / h
    d = np.full_like(y, delta[0])
    if len(x) > 2:
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        d[1:-1] = (w1 + w2) / (w1 / delta[:-1] + w2 / delta[1:])
        d[0] = max(0.0, ((2.0 * h[0] + h[1]) * delta[0] - h[0] * delta[1]) / (h[0] + h[1]))
        d[-1] = max(0.0, ((2.0 * h[-1] + h[-2]) * delta[-1] - h[-1] * delta[-2]) / (h[-1] + h[-2]))
    c2 = (3.0 * delta - 2.0 * d[:-1] - d[1:]) / h
    c3 = (d[:-1] + d[1:] - 2.0 * delta) / h**2

    def evaluate(xs):
        k = np.clip(np.searchsorted(x, xs, side="right") - 1, 0, len(h) - 1)
        s = xs - x[k]
        return y[k] + s * (d[k] + s * (c2[k] + s * c3[k]))

    return evaluate


def _log_rate_of_quality(curve: RateQualityCurve) -> Callable:
    return _pchip(curve.qualities, np.log10(curve.rates))


def _quality_of_rate(curve: RateQualityCurve) -> Callable:
    return _pchip(curve.rates, curve.qualities)


def interpolate(curve: RateQualityCurve, axis_in: str, x):
    """Evaluate the curve at ``x`` on ``axis_in``, returning the other axis.

    Exact at the knots; refuses to extrapolate. Scalar in, scalar out;
    array in, array out.
    """
    _require_monotone_quality(curve)
    if axis_in == "quality":
        lo, hi = curve.quality_range
        transform = _log_rate_of_quality(curve)
        post = lambda v: 10.0 ** v
    elif axis_in == "rate":
        lo, hi = curve.rate_range
        transform = _quality_of_rate(curve)
        post = lambda v: v
    else:
        raise ValueError(f"axis_in must be 'quality' or 'rate', got {axis_in!r}")
    values = np.asarray(x, dtype=float)
    if values.size and (values.min() < lo or values.max() > hi):
        raise ExtrapolationError(
            f"input outside the curve's {axis_in} range [{lo:g}, {hi:g}]"
        )
    out = post(transform(values))
    if np.ndim(x) == 0:
        return float(out)
    return out


def _segments(
    test: RateQualityCurve, ref: RateQualityCurve, span: CommonRange
) -> tuple[np.ndarray, int]:
    """Merged knots of both curves inside ``span``, and how many even pieces
    each segment needs so that no curve's rate spans over _MAX_PIECE_DECADES."""
    knots = np.union1d(*(c.qualities if span.axis == "quality" else c.rates for c in (test, ref)))
    decades = max(np.diff(np.log10(c.rates)).max() for c in (test, ref))
    pieces = max(1, math.ceil(decades / _MAX_PIECE_DECADES))
    return knots[(knots >= span.lo) & (knots <= span.hi)], pieces


def _rule(edges: np.ndarray, pieces: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the mean over [edges[0], edges[-1]]: the
    Gauss-Legendre rule on ``pieces`` even parts of every segment."""
    edges = np.interp(
        np.arange((len(edges) - 1) * pieces + 1) / pieces, np.arange(len(edges)), edges
    )
    half = np.diff(edges)[:, None] / 2.0
    nodes = edges[:-1, None] + half * (1.0 + _GL_NODES)
    return nodes.ravel(), (half * _GL_WEIGHTS).ravel() / (edges[-1] - edges[0])


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
        area_test = (10.0 ** log_rate_test(q)) @ weights
        area_ref = (10.0 ** log_rate_ref(q)) @ weights
        value = float(100.0 * (area_test - area_ref) / area_ref)
    elif method == "log_domain":
        mean_log_delta = (log_rate_test(q) - log_rate_ref(q)) @ weights
        value = float(100.0 * (10.0 ** mean_log_delta - 1.0))
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
        log_rates, weights = _rule(np.log10(edges), pieces)
        rates = 10.0 ** log_rates
    else:
        raise ValueError(
            f"rate_domain must be one of {BD_QUALITY_RATE_DOMAINS}, got {rate_domain!r}"
        )
    value = float((quality_test(rates) - quality_ref(rates)) @ weights)

    return BdResult(
        kind="bd_quality_points",
        value=value,
        common_range=span,
        method=rate_domain,
        points_used=(len(test_p.points), len(ref_p.points)),
    )
