"""Closed-form transforms and inverses against the quadrature, Brent and
extended-precision oracles in ``tests/oracles.py``.

Phi values must agree to 1e-12 relative.  Inverses are held to 1e-12
relative in the same sense, with the condition number of the inverse
problem applied: a relative change e in y moves v = Phi^{-1}(y) by
e·|y|·|rate(v)|, which is large where Phi saturates toward a finite image
end (a power rate with k > 1 at large v), so the bound there is
1e-12·(v + |y|·|rate(v)|).  An inverse found by Brent's method is only
located to within its own bracket tolerance (1e-14 absolute plus 1e-14
relative), so comparisons with it add that width.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import isscert as iss
from isscert.errors import DomainError

from oracles import cf_inverse_brentq, phi_inverse_brentq, phi_mp, phi_quad

REL = 1e-12
BRENT = 4e-14


def close(got: float, want: float, absolute: float = 0.0) -> bool:
    return abs(got - want) <= REL * abs(want) + absolute


def close_inverse(rate, y: float, got: float, want: float, absolute: float = 0.0) -> bool:
    """``close`` for v = Phi^{-1}(y), scaled by the condition number."""
    return abs(got - want) <= REL * (want + abs(y) * rate.magnitude(want)) + absolute


def exponents(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False).map(lambda e: 10.0 ** e)


signs = st.sampled_from([-1.0, 1.0])
power_exponents = st.one_of(st.just(1.0), st.floats(0.2, 0.95), st.floats(1.05, 3.0))


@st.composite
def ladders(draw, size: int, first: tuple[float, float]):
    """``size`` increasing numbers from 10**first[0..1] on, each 10**0.01 to
    10 times the one before."""
    start = draw(st.floats(*first))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=size - 1, max_size=size - 1))
    out = [start]
    for step in steps:
        out.append(out[-1] + step)
    return [10.0 ** e for e in out]


@st.composite
def tables(draw, min_size=3, max_size=8):
    """Rate tables of one sign, the first breakpoint between 1e-2 and 10**0.5.

    Consecutive points lie at least 2.3 % apart in s and in magnitude, which
    the float quadrature resolves to 1e-12; ``crowded_tables`` drops that."""
    n = draw(st.integers(min_size, max_size))
    ss = draw(ladders(n, (-2.0, 0.5)))
    mags = draw(ladders(n, (-2.0, 1.0)))
    sign = draw(signs)
    return tuple((s, sign * m) for s, m in zip(ss, mags))


@st.composite
def crowded_tables(draw, min_size=3, max_size=8):
    """Rate tables whose breakpoints or levels may lie an ulp apart."""
    n = draw(st.integers(min_size, max_size))
    ss = sorted(set(draw(st.lists(exponents(-2.0, 2.0), min_size=n, max_size=n))))
    mags = sorted(set(draw(st.lists(exponents(-2.0, 2.0), min_size=n, max_size=n))))
    size = min(len(ss), len(mags))
    assume(size >= min_size)
    sign = draw(signs)
    return tuple((s, sign * m) for s, m in zip(ss[:size], mags[:size]))


@st.composite
def cf_tables(draw):
    """Class-K tables, from the origin or from a first point above it."""
    n = draw(st.integers(2, 8))
    points = tuple(zip(draw(ladders(n, (-2.0, 0.5))), draw(ladders(n, (-2.0, 1.0)))))
    return ((0.0, 0.0),) + points if draw(st.booleans()) else points


# Levels over [1e-9, 1e9]: both sides of 1, and beyond both
# ends of a table.
levels = exponents(-9.0, 9.0)
# Brent's method needs a sign change across the bracket, which a level on its
# edge, where the two transforms differ by an ulp, does not always give.
inner_levels = exponents(-8.0, 8.0)


class TestPowerTransform:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.1, 10.0), signs, power_exponents, levels)
    def test_value_matches_quadrature(self, c, sign, k, v):
        rate = iss.power_rate(sign * c, k)
        assert close(iss.PhiTransform(rate).value(v), phi_quad(rate, v))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.1, 10.0), signs, power_exponents, levels)
    def test_round_trip(self, c, sign, k, v):
        rate = iss.power_rate(sign * c, k)
        t = iss.PhiTransform(rate)
        y = t.value(v)
        assert close_inverse(rate, y, t.inverse(y), v)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.1, 10.0), signs, power_exponents, inner_levels)
    def test_inverse_matches_brent(self, c, sign, k, v):
        rate = iss.power_rate(sign * c, k)
        y = phi_quad(rate, v)
        want = phi_inverse_brentq(rate, y)
        assert close_inverse(rate, y, iss.PhiTransform(rate).inverse(y), want, BRENT)


    @pytest.mark.parametrize("c, k, v", [(-1.0, 3.0, 1e9), (1.0, 0.5, 1e-40)])
    def test_round_trip_near_a_finite_image_end(self, c, k, v):
        """Phi(v) rounds onto the finite image end (0.5 for k = 3 at 1e9,
        -2 for k = 0.5 at 1e-40); the value stays an ulp inside the image,
        so the inverse is finite and positive."""
        rate = iss.power_rate(c, k)
        t = iss.PhiTransform(rate)
        y = t.value(v)
        assert t.image_inf() < y < t.image_sup()
        assert 0.0 < t.inverse(y) < math.inf
        assert close_inverse(rate, y, t.inverse(y), v)

    def test_beyond_float_range(self):
        """Phi_p(1e-9) = -(1e9^39 - 1)/39 for k = 40 exceeds the floats."""
        t = iss.PhiTransform(iss.power_rate(-1.0, 40.0))
        assert t.value(1e-9) == -math.inf
        assert t.inverse(-math.inf) == 0.0
        assert close(t.inverse(t.value(0.5)), 0.5)
        assert 1e-9 < t.inverse(-1e300) < 0.5


class TestTabulatedTransform:
    @settings(max_examples=300, deadline=None)
    @given(tables(), levels)
    def test_value_matches_quadrature(self, points, v):
        rate = iss.tabulated_rate(points)
        assert close(iss.PhiTransform(rate).value(v), phi_quad(rate, v))

    @settings(max_examples=300, deadline=None)
    @given(tables(), levels)
    def test_round_trip(self, points, v):
        rate = iss.tabulated_rate(points)
        t = iss.PhiTransform(rate)
        y = t.value(v)
        assert close_inverse(rate, y, t.inverse(y), v)

    @settings(max_examples=40, deadline=None)
    @given(tables(), inner_levels)
    def test_inverse_matches_brent(self, points, v):
        rate = iss.tabulated_rate(points)
        y = phi_quad(rate, v)
        want = phi_inverse_brentq(rate, y)
        assert close_inverse(rate, y, iss.PhiTransform(rate).inverse(y), want, BRENT)

    @settings(max_examples=60, deadline=None)
    @given(crowded_tables(), levels)
    def test_crowded_table_matches_extended_precision(self, points, v):
        """Near-coincident breakpoints defeat the float quadrature (see
        ``oracles.phi_mp``), not the closed form."""
        rate = iss.tabulated_rate(points)
        t = iss.PhiTransform(rate)
        y = t.value(v)
        assert close(y, phi_mp(rate, v))
        assert close_inverse(rate, y, t.inverse(y), v)

    @pytest.mark.parametrize("v", [0.5, 1.0, 2.0])
    def test_level_one_on_a_breakpoint(self, v):
        rate = iss.tabulated_rate([(0.5, 1.0), (1.0, 2.0), (2.0, 2.5)])
        t = iss.PhiTransform(rate)
        y = t.value(v)
        assert close(y, phi_quad(rate, v))
        assert close_inverse(rate, y, t.inverse(y), v)

    @settings(max_examples=50, deadline=None)
    @given(tables())
    def test_image_is_full(self, points):
        assert iss.PhiTransform(iss.tabulated_rate(points)).image_is_full()

    def test_sign_change_has_no_transform(self):
        with pytest.raises(DomainError):
            iss.PhiTransform(iss.tabulated_rate([(1.0, -1.0), (2.0, 3.0)]))

    def test_bracket_and_image_kept(self):
        """The transform covers (0, inf) down to the smallest floats, and
        the ends of its image R invert to 0 and inf."""
        t = iss.PhiTransform(iss.tabulated_rate([(0.5, 1.0), (2.0, 3.0), (4.0, 5.0)]))
        for v in (5e-324, 1e-300, 1e-10, 1e10, 1e300):
            y = t.value(v)
            assert math.isfinite(y) and close_inverse(t.rate, y, t.inverse(y), v)
        assert (t.inverse(-math.inf), t.inverse(math.inf)) == (0.0, math.inf)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                t.value(bad)
        with pytest.raises(iss.OutOfImageError):
            t.inverse(math.nan)


class TestComparisonInverse:
    @settings(max_examples=300, deadline=None)
    @given(cf_tables(), exponents(-4.0, 4.0))
    def test_tabulated_matches_brent(self, points, y):
        f = iss.ComparisonFunction("tabulated", points=points)
        got = f.inverse(y)
        assert close(got, cf_inverse_brentq(f, y), BRENT)
        assert close(f(got), y)

    @pytest.mark.parametrize("points", [
        ((1.0, 1.0),),
        ((1.0, 2.0), (2.0, 1.0)),
        ((0.0, 1.0), (1.0, 2.0)),
        ((1.0, 0.0), (2.0, 1.0)),
        ((2.0, 1.0), (1.0, 2.0)),
    ])
    def test_tabulated_must_be_class_k(self, points):
        with pytest.raises(ValueError):
            iss.ComparisonFunction("tabulated", points=points)

    def test_nested(self):
        f = iss.compose_cf(iss.compose_cf(iss.linear_cf(2.0), iss.power_cf(1.0, 3.0)),
                           iss.ComparisonFunction("tabulated", points=((1.0, 1.0), (2.0, 4.0))))
        for s in (0.1, 0.9, 1.5, 3.0):
            assert close(f.inverse(f(s)), s)
        assert math.isclose(f.inverse(2.0), 1.0)
