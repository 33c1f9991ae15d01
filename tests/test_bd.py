import math
import warnings

import numpy as np
import pytest

from pacebench.bd import (
    _GL_NODES,
    _GL_WEIGHTS,
    BdResult,
    CommonRange,
    bd_quality,
    bd_rate,
    common_range,
    interpolate,
    prune_monotone,
)
from pacebench.curves import RateQualityCurve
from pacebench.errors import (
    DegenerateCurveError,
    ExtrapolationError,
    InvalidInputError,
    NoOverlapError,
    PruningWarning,
)
from synthetic import trapezoid_bd_quality, trapezoid_bd_rate


def make_curve(rates, qualities, label=""):
    return RateQualityCurve(tuple(zip(rates, qualities)), label=label)


def synthetic_curve(n=8, lo_q=30.0, hi_q=65.0, base_rate=800.0, label="synth"):
    qs = np.linspace(lo_q, hi_q, n)
    rs = base_rate * np.exp((qs - lo_q) / 12.0)
    return make_curve(rs, qs, label)


@pytest.mark.parametrize(
    "point",
    [(math.nan, 55.0), (math.inf, 55.0), (2000.0, math.nan), (2000.0, math.inf), (2000.0, -math.inf)],
    ids=["nan-rate", "inf-rate", "nan-quality", "inf-quality", "minus-inf-quality"],
)
def test_curve_rejects_non_finite_point(point):
    with pytest.raises(InvalidInputError, match="finite"):
        RateQualityCurve.from_points([(1000.0, 50.0), point, (3000.0, 60.0)])


def test_gauss_legendre_constants_match_numpy():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    np.testing.assert_allclose(_GL_NODES, nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(_GL_WEIGHTS, weights, rtol=0, atol=1e-15)


class TestPruneMonotone:
    def test_dominated_point_dropped(self):
        curve = make_curve([1, 2, 3, 4], [10, 20, 15, 25])
        with pytest.warns(PruningWarning):
            pruned = prune_monotone(curve)
        assert pruned.points == ((1.0, 10.0), (2.0, 20.0), (4.0, 25.0))

    def test_strictly_increasing_unchanged(self):
        curve = make_curve([1, 2, 3], [10, 20, 30])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert prune_monotone(curve) is curve

    def test_degenerate(self):
        with pytest.warns(PruningWarning):
            with pytest.raises(DegenerateCurveError):
                prune_monotone(make_curve([1, 2], [20, 10]))

    def test_idempotent(self):
        curve = make_curve([1, 2, 3, 4, 5], [10, 8, 20, 19, 25])
        with pytest.warns(PruningWarning):
            once = prune_monotone(curve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert prune_monotone(once) == once


class TestCommonRange:
    def test_quality_worked_example(self):
        a = make_curve([2160, 9925], [27, 61])
        b = make_curve([810, 10000], [6, 55])
        span = common_range(a, b, "quality")
        assert (span.lo, span.hi) == (27.0, 55.0)

    def test_rate_worked_example(self):
        a = make_curve([2160, 9925], [27, 61])
        b = make_curve([810, 10000], [6, 55])
        span = common_range(a, b, "rate")
        assert (span.lo, span.hi) == (2160.0, 9925.0)

    def test_disjoint(self):
        a = make_curve([1, 2], [0, 1])
        b = make_curve([1, 2], [2, 3])
        with pytest.raises(NoOverlapError):
            common_range(a, b, "quality")

    def test_invariant(self):
        with pytest.raises(NoOverlapError):
            CommonRange(5.0, 5.0, "rate")


class TestInterpolate:
    def test_two_point_log_rate_midpoint(self):
        curve = make_curve([1000, 2000], [50, 70])
        value = interpolate(curve, "quality", 60.0)
        assert 1000 < value < 2000
        assert value == pytest.approx(10 ** ((math.log10(1000) + math.log10(2000)) / 2), rel=1e-12)

    def test_exact_at_knots(self):
        curve = synthetic_curve()
        for rate, quality in curve.points:
            assert interpolate(curve, "quality", quality) == pytest.approx(rate, rel=1e-9)
            assert interpolate(curve, "rate", rate) == pytest.approx(quality, rel=1e-9)

    def test_output_within_bracketing_knots(self):
        curve = synthetic_curve()
        points = curve.points
        for (r0, q0), (r1, q1) in zip(points, points[1:]):
            mid_quality = (q0 + q1) / 2
            rate = interpolate(curve, "quality", mid_quality)
            assert r0 <= rate <= r1

    def test_dense_monotonicity(self):
        curve = make_curve([1000, 1500, 3000, 8000], [30, 42, 55, 70])
        probes = np.linspace(30, 70, 1000)
        rates = interpolate(curve, "quality", probes)
        assert (np.diff(rates) >= 0).all()
        probes_r = np.linspace(1000, 8000, 1000)
        qualities = interpolate(curve, "rate", probes_r)
        assert (np.diff(qualities) >= 0).all()

    def test_extrapolation_refused(self):
        curve = synthetic_curve()
        with pytest.raises(ExtrapolationError):
            interpolate(curve, "quality", curve.quality_range[1] + 1)
        with pytest.raises(ExtrapolationError):
            interpolate(curve, "rate", curve.rate_range[0] - 1)

    @pytest.mark.parametrize(
        "rates, qualities",
        [
            ([1000, 2000], [50, 70]),
            ([500, 900, 4000], [30, 41, 60]),
            ([1000, 1010, 9000], [30, 50, 60]),  # an end slope floors at zero
            ([200, 210, 800, 5000, 5100, 9000], [20, 22, 45, 70, 71, 90]),
        ],
        ids=["two-knot", "three-knot", "flat-end", "uneven"],
    )
    def test_matches_scipy_pchip(self, rates, qualities):
        scipy_interpolate = pytest.importorskip("scipy.interpolate")
        pchip = scipy_interpolate.PchipInterpolator
        curve = make_curve(rates, qualities)
        qs = np.linspace(qualities[0], qualities[-1], 1001)
        expected = 10.0 ** pchip(qualities, np.log10(rates))(qs)
        np.testing.assert_allclose(interpolate(curve, "quality", qs), expected, rtol=1e-12)
        rs = np.linspace(rates[0], rates[-1], 1001)
        expected = pchip(rates, qualities)(rs)
        np.testing.assert_allclose(interpolate(curve, "rate", rs), expected, rtol=1e-12)

    def test_non_monotone_curve_rejected(self):
        curve = make_curve([1, 2, 3], [10, 20, 15])
        with pytest.raises(DegenerateCurveError, match="prune"):
            interpolate(curve, "quality", 12)


class TestBdRate:
    def test_self_delta_zero(self):
        curve = synthetic_curve()
        assert abs(bd_rate(curve, curve, "paper_area").value) < 1e-9
        assert abs(bd_rate(curve, curve, "log_domain").value) < 1e-9

    @pytest.mark.parametrize("method", ["paper_area", "log_domain"])
    def test_constant_ratio_closed_form(self, method):
        ref = synthetic_curve(label="ref")
        test = make_curve([0.8 * r for r in ref.rates], ref.qualities, "test")
        result = bd_rate(test, ref, method)
        assert result.value == pytest.approx(-20.0, abs=1e-6)
        assert result.kind == "bd_rate_percent"
        assert result.method == method
        assert result.points_used == (8, 8)

    @pytest.mark.parametrize("method", ["paper_area", "log_domain"])
    def test_matches_dense_trapezoid_oracle(self, method):
        ref = synthetic_curve(label="ref")
        test = make_curve(
            [r * (0.7 + 0.05 * i) for i, r in enumerate(ref.rates)],
            [q + 1.5 for q in ref.qualities],
            "test",
        )
        ours = bd_rate(test, ref, method).value
        oracle = trapezoid_bd_rate(test, ref, method)
        assert ours == pytest.approx(oracle, abs=1e-6)

    def test_no_overlap_propagates(self):
        a = make_curve([100, 200], [10, 20])
        b = make_curve([100, 200], [30, 40])
        with pytest.raises(NoOverlapError):
            bd_rate(a, b)

    def test_degenerate_propagates(self):
        good = synthetic_curve()
        bad = make_curve([1, 2], [20, 10])
        with pytest.warns(PruningWarning):
            with pytest.raises(DegenerateCurveError):
                bd_rate(bad, good)

    def test_unknown_method(self):
        curve = synthetic_curve()
        with pytest.raises(ValueError):
            bd_rate(curve, curve, "quartic-fit")

    def test_common_range_attached(self):
        ref = synthetic_curve(lo_q=30, hi_q=65)
        test = synthetic_curve(lo_q=35, hi_q=70)
        result = bd_rate(test, ref)
        assert result.common_range.axis == "quality"
        assert (result.common_range.lo, result.common_range.hi) == (35.0, 65.0)


class TestBdQuality:
    def test_self_delta_zero(self):
        curve = synthetic_curve()
        assert abs(bd_quality(curve, curve, "linear").value) < 1e-9
        assert abs(bd_quality(curve, curve, "log").value) < 1e-9

    @pytest.mark.parametrize("rate_domain", ["linear", "log"])
    def test_constant_offset_closed_form(self, rate_domain):
        ref = synthetic_curve(label="ref")
        test = make_curve(ref.rates, [q + 5 for q in ref.qualities], "test")
        result = bd_quality(test, ref, rate_domain)
        assert result.value == pytest.approx(5.0, abs=1e-6)
        assert result.kind == "bd_quality_points"
        assert result.method == rate_domain

    @pytest.mark.parametrize("rate_domain", ["linear", "log"])
    def test_matches_dense_trapezoid_oracle(self, rate_domain):
        ref = synthetic_curve(label="ref")
        test = make_curve(
            [r * 1.1 for r in ref.rates],
            [q + 0.5 * i for i, q in enumerate(ref.qualities)],
            "test",
        )
        ours = bd_quality(test, ref, rate_domain).value
        oracle = trapezoid_bd_quality(test, ref, rate_domain)
        assert ours == pytest.approx(oracle, abs=1e-6)

    def test_unknown_domain(self):
        curve = synthetic_curve()
        with pytest.raises(ValueError):
            bd_quality(curve, curve, "sqrt")


class TestCrossCuttingProperties:
    def test_rate_unit_invariance(self):
        ref = synthetic_curve(label="ref")
        test = make_curve([0.85 * r for r in ref.rates], ref.qualities, "test")
        for scale in (0.001, 1000.0):
            scaled_ref = make_curve([scale * r for r in ref.rates], ref.qualities)
            scaled_test = make_curve([scale * r for r in test.rates], test.qualities)
            for method in ("paper_area", "log_domain"):
                assert bd_rate(scaled_test, scaled_ref, method).value == pytest.approx(
                    bd_rate(test, ref, method).value, abs=1e-9
                )
            assert bd_quality(scaled_test, scaled_ref, "log").value == pytest.approx(
                bd_quality(test, ref, "log").value, abs=1e-9
            )

    def test_every_variant_within_1e7_of_dense_trapezoid(self):
        ref = synthetic_curve(label="ref")
        test = make_curve(
            [r * (0.75 + 0.03 * i) for i, r in enumerate(ref.rates)],
            [q + 2 for q in ref.qualities],
        )
        for method in ("paper_area", "log_domain"):
            oracle = trapezoid_bd_rate(test, ref, method)
            assert abs(bd_rate(test, ref, method).value - oracle) < 1e-7
        for domain in ("linear", "log"):
            oracle = trapezoid_bd_quality(test, ref, domain)
            assert abs(bd_quality(test, ref, domain).value - oracle) < 1e-7

    def test_sparse_knots_spanning_decades(self):
        # Knots two to four decades of rate apart: each piece of the
        # interpolant is steep, the hardest case for a fixed-order rule.
        ref = make_curve([100.0, 1e6], [20.0, 80.0], "ref")
        test = make_curve([300.0, 40.0e3, 2e6], [25.0, 60.0, 90.0], "test")
        for method in ("paper_area", "log_domain"):
            oracle = trapezoid_bd_rate(test, ref, method)
            assert bd_rate(test, ref, method).value == pytest.approx(oracle, abs=1e-6)
        for domain in ("linear", "log"):
            oracle = trapezoid_bd_quality(test, ref, domain)
            assert bd_quality(test, ref, domain).value == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize(
        "test_points,ends",
        [
            # inside the reference on both axes: the reference is cut at both ends
            ([(1500, 35), (2600, 45), (2700, 44), (4500, 52), (7000, 56)], "inside"),
            # staggered: the range starts inside a reference piece, ends inside a test piece
            ([(1500, 35), (2600, 45), (2700, 44), (5000, 55), (11000, 66)], "inside"),
            # the whole common range lies inside one piece of the reference
            ([(2200, 42), (2600, 45), (2700, 44), (3800, 48.5)], "one-piece"),
            # the common range starts and ends on interior knots of the reference
            ([(2000, 40), (2600, 45), (2700, 44), (4000, 50)], "knots"),
        ],
        ids=["nested", "staggered", "one-piece", "on-knots"],
    )
    def test_common_range_ends_inside_pieces(self, test_points, ends):
        # Where the common range cuts a curve's pieces decides which pieces
        # are integrated clipped and which whole; the test curve loses
        # (2700, 44) to pruning.
        ref = make_curve([1000, 2000, 4000, 8000], [30, 40, 50, 60], "ref")
        test = make_curve(*zip(*test_points), "test")
        with pytest.warns(PruningWarning):
            pruned = prune_monotone(test)
        for axis, column in (("quality", 1), ("rate", 0)):
            span = common_range(pruned, ref, axis)
            ref_knots = [p[column] for p in ref.points]
            ref_pieces = list(zip(ref_knots, ref_knots[1:]))
            if ends == "inside":
                for end in (span.lo, span.hi):
                    assert any(a[column] < end < b[column]
                               for c in (pruned, ref) for a, b in zip(c.points, c.points[1:]))
            elif ends == "one-piece":
                assert any(a < span.lo and span.hi < b for a, b in ref_pieces)
            else:
                assert span.lo in ref_knots[1:-1] and span.hi in ref_knots[1:-1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PruningWarning)
            for method in ("paper_area", "log_domain"):
                oracle = trapezoid_bd_rate(test, ref, method)
                assert bd_rate(test, ref, method).value == pytest.approx(oracle, abs=1e-6)
            for domain in ("linear", "log"):
                oracle = trapezoid_bd_quality(test, ref, domain)
                assert bd_quality(test, ref, domain).value == pytest.approx(oracle, abs=1e-6)

    def test_sign_antisymmetry_under_dominance(self):
        ref = synthetic_curve(label="ref")
        test = make_curve([0.8 * r for r in ref.rates], ref.qualities, "test")
        forward = bd_rate(test, ref).value
        backward = bd_rate(ref, test).value
        assert forward < 0 < backward
        quality_fwd = bd_quality(test, ref).value
        quality_bwd = bd_quality(ref, test).value
        assert quality_fwd > 0 > quality_bwd
