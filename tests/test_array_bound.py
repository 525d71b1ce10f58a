"""The elementwise transforms, comparison inverses and beta against the
one-number references in ``tests/oracles.py``.

The library runs NumPy over arrays (a number is a 0-d array), whose exp,
expm1, log, log1p and power may round differently from ``math``'s in the
last place, so values are compared by ``conftest.mismatches``.
"""

import math

import numpy as np
import pytest

import isscert as iss
from isscert.errors import DomainError, OutOfImageError

from conftest import mismatches
from oracles import ScalarPhiTransform, cf_inverse, scalar_beta

TABLE = ((0.5, 0.8), (1.0, 1.5), (2.0, 4.0), (10.0, 30.0))
TABLE_ABOVE_ONE = ((2.0, 3.0), (5.0, 6.0), (9.0, 20.0))
TABLE_BELOW_ONE = ((0.1, 0.3), (0.4, 0.5), (0.8, 2.0))


def image_levels(t: iss.PhiTransform) -> np.ndarray:
    """Levels across a transform's image: a grid, its ends, and levels that
    overflow the floats (and underflow to 0) where the image is unbounded."""
    lo, hi = t.image_inf(), t.image_sup()
    grid = np.linspace(max(lo, -50.0), min(hi, 50.0), 801)
    ends = [lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, 0.0)]
    far = [-1e308, -800.0, 800.0, 1e308]
    return np.concatenate([grid, [y for y in ends + far if lo <= y <= hi], [0.0]])


TRANSFORM_RATES = [
    iss.linear_rate(1.0), iss.linear_rate(-2.5),
    iss.power_rate(1.0, 0.5), iss.power_rate(-3.0, 0.25),
    iss.power_rate(2.0, 1.0),
    iss.power_rate(1.0, 2.0), iss.power_rate(0.5, 3.0),
    iss.tabulated_rate(TABLE), iss.tabulated_rate(TABLE_ABOVE_ONE),
    iss.tabulated_rate(TABLE_BELOW_ONE), iss.tabulated_rate([(s, -y) for s, y in TABLE]),
]


class TestPhiInverseArray:
    @pytest.mark.parametrize("rate", TRANSFORM_RATES, ids=lambda r: f"{r.kind}-{r.k}")
    def test_matches_scalar(self, rate):
        t, ref = iss.PhiTransform(rate), ScalarPhiTransform(rate)
        ys = image_levels(t)
        want = [ref.inverse(float(y)) for y in ys]
        assert mismatches(t.inverse(ys), want) == []

    @pytest.mark.parametrize("rate", TRANSFORM_RATES, ids=lambda r: f"{r.kind}-{r.k}")
    def test_round_trip_levels(self, rate):
        # Levels Phi(v) for v across many decades land on every piece.
        t, ref = iss.PhiTransform(rate), ScalarPhiTransform(rate)
        ys = t.value(np.logspace(-12, 12, 241))
        assert mismatches(t.inverse(ys), [ref.inverse(float(y)) for y in ys]) == []

    @pytest.mark.parametrize("rate", TRANSFORM_RATES, ids=lambda r: f"{r.kind}-{r.k}")
    def test_value_matches_scalar(self, rate):
        t, ref = iss.PhiTransform(rate), ScalarPhiTransform(rate)
        vs = np.concatenate([np.logspace(-300, 300, 601), [5e-324, 1.0, 1.7e308],
                             [s for s, _ in rate.points]])
        assert mismatches(t.value(vs), [ref.value(float(v)) for v in vs]) == []
        with pytest.raises(DomainError):
            t.value(np.array([1.0, 0.0]))

    def test_shape_kept(self):
        t = iss.PhiTransform(iss.tabulated_rate(TABLE))
        ys = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert t.inverse(ys).shape == (3, 4)
        assert t.value(np.exp(ys)).shape == (3, 4)
        # A number gives a float.
        out = t.inverse(0.7)
        assert type(out) is float
        assert mismatches(out, ScalarPhiTransform(t.rate).inverse(0.7)) == []
        assert type(t.value(2.0)) is float

    @pytest.mark.parametrize("rate", [iss.power_rate(1.0, 0.5), iss.power_rate(1.0, 2.0)],
                             ids=["sublinear", "superlinear"])
    def test_out_of_image(self, rate):
        t = iss.PhiTransform(rate)
        lo, hi = t.image_inf(), t.image_sup()
        beyond = lo - 1.0 if lo > -math.inf else hi + 1.0
        ys = np.array([0.0, beyond, beyond - 1.0 if lo > -math.inf else beyond + 1.0])
        with pytest.raises(OutOfImageError) as got:
            t.inverse(ys)
        with pytest.raises(OutOfImageError) as want:
            ScalarPhiTransform(rate).inverse(beyond)
        assert (got.value.y, got.value.image) == (want.value.y, want.value.image)
        with pytest.raises(OutOfImageError):
            t.inverse(np.array([0.0, math.nan]))

    def test_below_zero_clamps(self):
        t = iss.PhiTransform(iss.power_rate(1.0, 0.5))
        ref = ScalarPhiTransform(t.rate)
        ys = np.array([-7.0, -2.0, -1.0, 0.0, -math.inf])
        want = [ref.inverse(float(y), below="zero") for y in ys]
        assert mismatches(t.inverse(ys, below="zero"), want) == []
        assert t.inverse(ys, below="zero")[[0, 4]].tolist() == [0.0, 0.0]
        # Above the image nothing clamps.
        t2 = iss.PhiTransform(iss.power_rate(1.0, 2.0))
        with pytest.raises(OutOfImageError):
            t2.inverse(np.array([2.0]), below="zero")


CF_CASES = [
    iss.linear_cf(2.5),
    iss.power_cf(3.0, 2.0),
    iss.power_cf(0.5, 0.5),
    iss.compose_cf(iss.linear_cf(4.0), iss.power_cf(1.0, 3.0)),
    iss.ComparisonFunction("tabulated", points=((0.5, 1.0), (2.0, 3.0), (5.0, 10.0))),
    iss.ComparisonFunction("tabulated", points=((0.0, 0.0), (1.0, 0.2), (3.0, 7.0))),
]


class TestComparisonInverseArray:
    @pytest.mark.parametrize("f", CF_CASES, ids=lambda f: f.kind)
    def test_matches_scalar(self, f):
        ys = np.concatenate([[0.0, 5e-324, 1e-300, math.inf],
                             np.logspace(-8, 8, 161), np.linspace(0.0, 12.0, 97)])
        assert mismatches(f.inverse(ys), [cf_inverse(f, float(y)) for y in ys]) == []

    def test_root_beyond_floats_is_inf(self):
        f = iss.power_cf(1.0, 0.5)  # inverse y^2
        assert f.inverse(1e200) == cf_inverse(f, 1e200) == math.inf
        assert f.inverse(np.array([1e200, 4.0])).tolist() == [math.inf, 16.0]

    @pytest.mark.parametrize("f", CF_CASES, ids=lambda f: f.kind)
    def test_negative_rejected(self, f):
        with pytest.raises(DomainError):
            f.inverse(np.array([1.0, -1e-300]))

    def test_power_beyond_floats_is_inf(self):
        # The power overflows the floats: inf, and no RuntimeWarning (which
        # the test configuration turns into an error).
        f = iss.power_cf(1.0, 2.0)
        assert f(1e200) == math.inf
        assert f(np.array([1e200, 3.0])).tolist() == [math.inf, 9.0]
        assert iss.power_rate(-1.0, 3.0)(1e150) == -math.inf


def stable_cert(alpha1, alpha2=None, T_S=0.0, delta=0.5):
    return iss.Certificate(
        V={"a": iss.quadratic_v([[1.0]])},
        alpha1=alpha1,
        alpha2=alpha2 or iss.power_cf(1.0, 2.0),
        alpha3=iss.linear_cf(1.0),
        chi=iss.linear_cf(1.0),
        phi={"a": iss.linear_rate(-1.0)},
        psi={"a": iss.linear_rate(1.0)},
        partition=iss.ModePartition(frozenset({"a"}), frozenset()),
        dwell=iss.DwellSpec({"a": 1.0}, delta, T_S=T_S),
    )


ALPHA1 = {
    "linear": iss.linear_cf(1.5),
    "power": iss.power_cf(1.0, 2.0),
    "compose": iss.compose_cf(iss.linear_cf(2.0), iss.power_cf(1.0, 3.0)),
    "tabulated": iss.ComparisonFunction("tabulated", points=((0.5, 0.2), (2.0, 4.0), (4.0, 9.0))),
}

# (lower, upper, T_S): T_S = 2 with delta = 0.5 gives C = 1 and a patch
# window of 2; T_S = 0 gives C = 0.
ENVELOPES = {
    "linear": (iss.linear_rate(1.0), iss.linear_rate(2.0), 2.0),
    "power-sublinear": (iss.power_rate(1.0, 0.5), iss.linear_rate(2.0), 2.0),
    "power-sublinear-both": (iss.power_rate(1.0, 0.5), iss.power_rate(2.0, 0.75), 2.0),
    "power-superlinear-C0": (iss.power_rate(1.0, 2.0), iss.power_rate(1.0, 3.0), 0.0),
    "tabulated": (iss.tabulated_rate(TABLE), iss.tabulated_rate([(s, 2 * y) for s, y in TABLE]),
                  2.0),
}

ELAPSED = np.concatenate([np.linspace(0.0, 6.0, 121), [2.0, np.nextafter(2.0, 3.0), 1e6]])
# r = 1e154 puts alpha2(r) = 1e308, whose levels, lifted by C, overflow the
# floats near s = 0.
RADII = [0.0, 1e-3, 0.3, 1.0, 4.0, 1e154]


class TestBetaArray:
    @pytest.mark.parametrize("alpha1", ALPHA1.values(), ids=ALPHA1.keys())
    @pytest.mark.parametrize("envelopes", ENVELOPES.values(), ids=ENVELOPES.keys())
    @pytest.mark.parametrize("patched", [False, True], ids=["plain", "patched"])
    def test_matches_scalar(self, alpha1, envelopes, patched):
        lower, upper, T_S = envelopes
        cert = stable_cert(alpha1, T_S=T_S)
        gains = (3.0, 0.5) if patched else None
        bound = iss.build_bound(cert, cert.dwell, lower, upper, gains=gains)
        ref_tilde, ref_beta = scalar_beta(cert, cert.dwell, lower, upper, gains)
        for r in RADII:
            want = [ref_beta(r, s) for s in ELAPSED.tolist()]
            assert mismatches(bound.beta(r, ELAPSED), want) == [], r
            level = cert.alpha2(r)
            want = [ref_tilde(level, s) for s in ELAPSED.tolist()]
            assert mismatches(bound.beta_tilde(level, ELAPSED), want) == [], r

    def test_cases_reached(self):
        # The grid above reaches every branch it is meant to: the patch
        # inside the window only, the finite-m clamp to 0, and inf.
        lower, upper, T_S = ENVELOPES["power-sublinear"]
        cert = stable_cert(ALPHA1["linear"], T_S=T_S)
        bound = iss.build_bound(cert, cert.dwell, lower, upper, gains=(50.0, 0.0))
        assert bound.case == "finite-m"
        out = bound.beta(1.0, ELAPSED)
        inside = ELAPSED <= bound.metadata["patch_window"]
        assert np.all(out[inside] == 50.0)
        assert np.all(out[~inside] < 50.0) and out[-1] == 0.0
        assert bound.beta(1e154, 0.0) == math.inf
        # The patch a r is 0 at r = 0: a zero start is bounded by 0 throughout.
        assert np.array_equal(bound.beta(0.0, ELAPSED), np.zeros_like(ELAPSED))

    @pytest.mark.parametrize("alpha1", ALPHA1.values(), ids=ALPHA1.keys())
    @pytest.mark.parametrize("envelopes", ENVELOPES.values(), ids=ENVELOPES.keys())
    @pytest.mark.parametrize("patched", [False, True], ids=["plain", "patched"])
    def test_a_column_of_levels_gives_the_one_level_rows(self, alpha1, envelopes, patched):
        """beta and beta_tilde over a column of levels against the elapsed
        times, and gamma over an array of input bounds: row (entry) i is the
        call at level i alone, bit for bit, r = 0 included."""
        lower, upper, T_S = envelopes
        cert = stable_cert(alpha1, T_S=T_S)
        bound = iss.build_bound(cert, cert.dwell, lower, upper,
                                gains=(3.0, 0.5) if patched else None)
        radii = np.array(RADII)
        levels = cert.alpha2(radii)
        for f, column in ((bound.beta, radii), (bound.beta_tilde, levels)):
            rows = f(column[:, None], ELAPSED)
            assert rows.shape == (len(column), len(ELAPSED))
            for row, r in zip(rows, column.tolist()):
                assert row.tobytes() == f(r, ELAPSED).tobytes(), r
        inputs = np.array([0.0, 1e-3, 0.3, 1.0, 4.0, 50.0])
        gains = bound.gamma(inputs)
        assert gains.tobytes() == np.array([bound.gamma(u) for u in inputs.tolist()]).tobytes()
        assert gains[0] == 0.0 and np.all(gains[1:] > 0.0)

    def test_scalar_elapsed_gives_float(self):
        cert = stable_cert(ALPHA1["power"], T_S=2.0)
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0), iss.linear_rate(2.0))
        assert type(bound.beta(1.0, 0.5)) is float
        assert type(bound.gamma(0.5)) is float
