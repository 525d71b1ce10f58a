import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isscert as iss
from isscert.errors import DomainError, OutOfImageError


class TestPhi:
    def test_anchor(self):
        assert iss.PhiTransform(iss.linear_rate(2.0)).value(1.0) == 0.0

    def test_linear_closed_form(self):
        assert iss.PhiTransform(iss.linear_rate(2.0)).value(math.e) == pytest.approx(0.5, abs=1e-12)

    def test_power_quadrature(self):
        assert iss.PhiTransform(iss.power_rate(1.0, 2.0)).value(2.0) == pytest.approx(0.5, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            iss.PhiTransform(iss.linear_rate(1.0)).value(0.0)
        with pytest.raises(DomainError):
            iss.PhiTransform(iss.linear_rate(1.0)).value(-1.0)

    def test_strictly_increasing(self):
        t = iss.PhiTransform(iss.power_rate(1.0, 2.0))
        vals = [t.value(v) for v in (0.1, 0.5, 1.0, 2.0, 10.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestPhiInverse:
    def test_anchor(self):
        assert iss.PhiTransform(iss.linear_rate(1.0)).inverse(0.0) == pytest.approx(1.0)

    def test_linear(self):
        assert iss.PhiTransform(iss.linear_rate(2.0)).inverse(0.5) == pytest.approx(math.e)

    def test_power(self):
        assert iss.PhiTransform(iss.power_rate(1.0, 2.0)).inverse(0.5) == pytest.approx(2.0, rel=1e-8)

    def test_out_of_image(self):
        t = iss.PhiTransform(iss.power_rate(1.0, 2.0))
        with pytest.raises(OutOfImageError) as exc:
            t.inverse(2.0)  # the image is (-inf, 1)
        assert exc.value.image == (-math.inf, 1.0)
        t = iss.PhiTransform(iss.power_rate(1.0, 0.5))  # the image is (-2, inf)
        assert t.inverse(-7.0, below="zero") == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        t = iss.PhiTransform(iss.power_rate(0.5, 2.0))
        for v in rng.uniform(0.01, 100.0, 25):
            back = t.inverse(t.value(float(v)))
            assert back == pytest.approx(v, rel=1e-8)


class TestImages:
    def test_linear_full(self):
        t = iss.PhiTransform(iss.linear_rate(-3.0))
        assert t.image_is_full()

    def test_power_superlinear(self):
        t = iss.PhiTransform(iss.power_rate(1.0, 2.0))
        assert t.image_inf() == -math.inf
        assert t.image_sup() == pytest.approx(1.0)

    def test_power_sublinear(self):
        t = iss.PhiTransform(iss.power_rate(1.0, 0.5))
        assert t.image_inf() == pytest.approx(-2.0)
        assert t.image_sup() == math.inf

    def test_tabulated_probe_matches_linear(self):
        pts = [(s, 2.0 * s) for s in np.logspace(-3, 3, 25)]
        t = iss.PhiTransform(iss.tabulated_rate(pts))
        assert t.image_inf() == -math.inf
        assert t.image_sup() == math.inf


class TestEnvelopeCheck:
    def test_equal_envelope(self):
        r = iss.linear_rate(-3.0)
        assert iss.envelope_check({"p": r}, iss.linear_rate(3.0), iss.linear_rate(3.0))

    def test_two_rates(self):
        rates = {"a": iss.linear_rate(-1.0), "b": iss.linear_rate(2.0)}
        assert iss.envelope_check(rates, iss.linear_rate(1.0), iss.linear_rate(2.0))

    def test_lower_too_large(self):
        rates = {"a": iss.linear_rate(-1.0), "b": iss.linear_rate(2.0)}
        assert not iss.envelope_check(rates, iss.linear_rate(1.5), iss.linear_rate(2.0))

    @pytest.mark.parametrize("excess", [1e-8, -1e-8])
    def test_a_relative_break_of_1e_8_is_caught(self, excess):
        # |rate| = 3 (1 + excess) s leaves the envelope [3 s, 3 s].
        rate = iss.linear_rate(-3.0 * (1 + excess))
        assert not iss.envelope_check({"p": rate}, iss.linear_rate(3.0), iss.linear_rate(3.0))


class TestEnvelopeTransfer:
    def test_transform_difference_ordering(self):
        """For k >= l the envelope transform differences bracket the
        cross-mode difference."""
        lo, hi = iss.PhiTransform(iss.linear_rate(1.0)), iss.PhiTransform(iss.linear_rate(2.0))
        tp = iss.PhiTransform(iss.linear_rate(-1.5))
        tq = iss.PhiTransform(iss.linear_rate(1.2))
        rng = np.random.default_rng(3)
        for _ in range(50):
            # The transfer holds with distinct modes when l and k straddle
            # the transform anchor at 1 (both correction terms then have a
            # definite sign).
            l = float(rng.uniform(0.05, 1.0))
            k = float(rng.uniform(1.0, 50.0))
            cross = tp.value(float(k)) - tq.value(float(l))
            assert lo.value(float(k)) - lo.value(float(l)) >= cross - 1e-9
            assert cross >= hi.value(float(k)) - hi.value(float(l)) - 1e-9


class TestComparisonFunctions:
    def test_linear_and_power(self):
        assert iss.linear_cf(2.0)(3.0) == 6.0
        assert iss.power_cf(2.0, 2.0)(3.0) == 18.0
        assert iss.linear_cf(2.0).inverse(6.0) == pytest.approx(3.0)
        assert iss.power_cf(2.0, 2.0).inverse(18.0) == pytest.approx(3.0)

    def test_max_and_compose(self):
        g = iss.compose_cf(iss.power_cf(1.0, 2.0), iss.linear_cf(3.0))
        assert g(2.0) == 36.0
        assert g.inverse(36.0) == pytest.approx(2.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            iss.linear_cf(1.0)(-1.0)
        assert iss.linear_cf(5.0).inverse(0.0) == 0.0


class TestTabulatedRate:
    def test_interpolation_through_origin(self):
        r = iss.tabulated_rate([(1.0, -1.0), (2.0, -3.0)])
        assert r(0.5) == pytest.approx(-0.5)
        assert r(1.5) == pytest.approx(-2.0)
        assert r(3.0) == pytest.approx(-5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            iss.tabulated_rate([(1.0, 1.0)])
        with pytest.raises(ValueError):
            iss.tabulated_rate([(1.0, 1.0), (2.0, 0.5)])


@settings(max_examples=200, deadline=None)
@given(st.floats(0.1, 10.0), st.booleans(), st.floats(0.01, 1000.0))
def test_linear_quadrature_matches_closed_form(eta_mag, negative, v):
    """Log-substituted quadrature agrees with ln(v)/|eta| when forced through
    the generic integration path (tabulated representation of a linear rate)."""
    eta = -eta_mag if negative else eta_mag
    pts = [(s, eta * s) for s in np.logspace(-10, 10, 41)]
    t = iss.PhiTransform(iss.tabulated_rate(pts))
    assert t.value(v) == pytest.approx(math.log(v) / abs(eta), abs=1e-9)


class TestTabulatedInterpolation:
    """Tabulated rates and comparison functions share one rule: the line
    through the origin below the first point, np.interp inside, and the last
    segment's slope above the final point."""

    POINTS = ((0.5, 0.3), (1.0, 0.7), (2.5, 1.9), (4.0, 2.2))

    @pytest.mark.parametrize("s", [0.0, 0.1, 0.5, 0.75, 1.0, 1.7, 2.5, 3.99, 4.0, 7.3, 1e3])
    def test_rate_and_comparison_agree(self, s):
        xs = [p[0] for p in self.POINTS]
        ys = [p[1] for p in self.POINTS]
        if s <= xs[0]:
            expected = ys[0] * s / xs[0]
        elif s >= xs[-1]:
            expected = ys[-1] + (ys[-1] - ys[-2]) / (xs[-1] - xs[-2]) * (s - xs[-1])
        else:
            expected = float(np.interp(s, xs, ys))
        rate = iss.tabulated_rate(self.POINTS)
        cf = iss.ComparisonFunction("tabulated", points=self.POINTS)
        assert rate(s) == cf(s) == expected

    def test_comparison_table_from_the_origin(self):
        cf = iss.ComparisonFunction("tabulated", points=((0.0, 0.0), (1.0, 2.0), (2.0, 3.0)))
        assert cf(0.0) == 0.0
        assert cf(0.5) == 1.0
        assert cf(3.0) == 4.0
