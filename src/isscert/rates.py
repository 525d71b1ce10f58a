"""Rate functions, comparison functions and the integral transform machinery.

A rate function bounds the growth/decay of a Lyapunov value along flows
(``phi``) or across jumps (``psi``).  The transform

    Phi(v) = integral from 1 to v of ds / |phi(s)|

maps Lyapunov values to a scale on which flow evolution is linear in
time; it is strictly increasing with Phi(1) = 0.  Every rate kind has an
elementary transform: log(v)/|eta| for linear rates,
(v^(1-k) - 1)/((1-k)|c|) for power rates (log(v)/|c| at k = 1), and a sum
of log-ratio terms for tabulated rates, whose magnitude is affine between
and beyond the breakpoints.  The transform and its inverse are evaluated
in closed form; so are the inverses of the comparison functions.

Every function here is elementwise, with one NumPy body: a number gives a
Python float and an array gives an array of its shape.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DomainError, OutOfImageError, SignAmbiguousError

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _result(out):
    """An elementwise result: an array as it is, a 0-d one (a number came in)
    as a Python float."""
    out = np.asarray(out)
    return out if out.ndim else float(out)


def _exp(x, f=np.exp):
    """f(x) for f = np.exp or np.expm1, and inf where x exceeds the log of the
    largest float (NaN included), through one temporary of x's shape."""
    out = np.minimum(x, _LOG_FLOAT_MAX, out=np.empty(np.shape(x)))
    f(out, out=out)
    out[~(x <= _LOG_FLOAT_MAX)] = math.inf
    return out


def _interp_table(points, s):
    """A tabulated function at s >= 0: linear through the origin below the
    first point (its value, if that point sits at 0), ``np.interp`` inside,
    and the last segment's slope above the final point."""
    (s0, y0), (s1, y1), (s2, y2) = points[0], points[-2], points[-1]
    return np.where(s <= s0, y0 * s / s0 if s0 > 0 else y0,
                    np.where(s >= s2, y2 + (y2 - y1) / (s2 - s1) * (s - s2),
                             np.interp(s, [p[0] for p in points], [p[1] for p in points])))


def _invert_table(points, y):
    """The s with ``_interp_table(points, s) == y`` for y > 0 and a strictly
    increasing table: the same three pieces, inverted."""
    (s0, y0), (s1, y1), (s2, y2) = points[0], points[-2], points[-1]
    return np.where(y <= y0, s0 * y / y0,
                    np.where(y >= y2, s2 + (s2 - s1) / (y2 - y1) * (y - y2),
                             np.interp(y, [p[1] for p in points], [p[0] for p in points])))


@dataclass(frozen=True)
class RateFunction:
    """Parametric rate in P or -P: linear, power, or tabulated-monotone.

    Each kind keeps one sign on all of (0, inf): the sign of eta, of c, or of
    every tabulated value (a table whose values change sign raises
    ``SignAmbiguousError``)."""

    kind: str
    eta: float = 0.0
    c: float = 0.0
    k: float = 1.0
    points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind == "linear":
            if self.eta == 0.0:
                raise ValueError("linear rate needs a nonzero coefficient")
        elif self.kind == "power":
            if self.c == 0.0 or self.k <= 0.0:
                raise ValueError("power rate needs c != 0 and k > 0")
        elif self.kind == "tabulated":
            pts = tuple((float(s), float(y)) for s, y in self.points)
            object.__setattr__(self, "points", pts)
            if len(pts) < 2:
                raise ValueError("tabulated rate needs at least two points")
            ss = [s for s, _ in pts]
            mags = [abs(y) for _, y in pts]
            if any(b <= a for a, b in zip(ss, ss[1:])):
                raise ValueError("tabulated abscissae must be strictly increasing")
            if any(b <= a for a, b in zip(mags, mags[1:])) or ss[0] <= 0 or mags[0] <= 0:
                raise ValueError("tabulated magnitude must be strictly increasing and positive")
            if len({y > 0 for _, y in pts}) > 1:
                raise SignAmbiguousError("tabulated rate changes sign, so it is in neither "
                                         "P nor -P")
        else:
            raise ValueError(f"unknown rate kind {self.kind!r}")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if (s < 0).any():
            raise DomainError("rates are defined on s >= 0")
        with np.errstate(over="ignore"):  # a power beyond the floats is inf
            if self.kind == "linear":
                out = self.eta * s
            elif self.kind == "power":
                out = self.c * s**self.k
            else:
                out = _interp_table(self.points, s)
        return _result(out)

    def magnitude(self, s):
        return abs(self(s))


def linear_rate(eta: float) -> RateFunction:
    return RateFunction("linear", eta=eta)


def power_rate(c: float, k: float) -> RateFunction:
    return RateFunction("power", c=c, k=k)


def tabulated_rate(points) -> RateFunction:
    return RateFunction("tabulated", points=tuple(points))


class PhiTransform:
    """Strictly increasing map Phi(v) = int_1^v ds/|rate(s)| on all of (0, inf).

    Every rate kind has a closed form.  A tabulated magnitude is affine on
    each of the n + 1 pieces its n breakpoints s_j cut: piece 0 is the line
    through the origin below s_0, piece j the segment [s_{j-1}, s_j], and
    piece n carries the last slope beyond s_{n-1}.  Phi is then a sum of
    log-ratio terms; Phi at every breakpoint is kept, summed outwards from
    v = 1 so that no sum cancels.  The image is the open interval between
    ``image_inf()`` and ``image_sup()``.
    """

    def __init__(self, rate: RateFunction):
        self.rate = rate
        if rate.kind == "tabulated":
            self._tabulate(rate.points)
        self._image = (self.image_inf(), self.image_sup())

    def _tabulate(self, points) -> None:
        ss = [s for s, _ in points]
        mags = [abs(y) for _, y in points]
        inner = [(m1 - m0) / (s1 - s0) for s0, s1, m0, m1 in zip(ss, ss[1:], mags, mags[1:])]
        self._knots = np.array(ss)
        self._slopes = np.array([mags[0] / ss[0]] + inner + [inner[-1]])
        # Each piece's lower end and the magnitude there; piece 0 starts at
        # the origin.
        self._starts = np.array([0.0] + ss)
        self._start_mags = np.array([0.0] + mags)
        self._home = home = bisect.bisect_left(ss, 1.0)  # the piece holding v = 1
        at = self._at_knots = np.zeros(len(ss))
        for j in range(home, len(ss)):  # breakpoints at or above 1, outwards
            start, base = self._anchor(j, upward=True)
            at[j] = base + self._integral(j, start, ss[j])
        for j in range(home - 1, -1, -1):  # breakpoints below 1, outwards
            start, base = self._anchor(j + 1, upward=False)
            at[j] = base + self._integral(j + 1, start, ss[j])

    def _magnitude(self, piece, s):
        return self._start_mags[piece] + self._slopes[piece] * (s - self._starts[piece])

    def _integral(self, piece, start, end):
        """int_start^end ds/|rate(s)| with both ends on one piece: the log of
        the magnitudes' ratio over the slope, through log1p unless the
        magnitude more than halves, so that short steps and long steps
        toward the origin both keep their relative accuracy.  On piece 0
        the log of the magnitudes' ratio is log(end) - log(start), which
        does not underflow as end approaches 0."""
        b = self._slopes[piece]
        # Overflow gives inf as with floats; the other branches are masked.
        with np.errstate(all="ignore"):
            m = self._magnitude(piece, start)
            x = b * (end - start) / m
            return np.where(x > -0.5, np.log1p(x),
                            np.where(piece == 0, np.log(end) - np.log(start),
                                     np.log(self._magnitude(piece, end) / m))) / b

    def _anchor(self, piece, upward):
        """(s, Phi(s)) at the end of ``piece`` nearest v = 1: 1 itself on its
        own piece, the lower breakpoint above 1, the upper one below it."""
        # Clipped because ``where`` also indexes the far side of pieces 0 and
        # n, which are only ever anchored on their near side.
        j = np.clip(np.where(upward, piece - 1, piece), 0, len(self._knots) - 1)
        home = piece == self._home
        return np.where(home, 1.0, self._knots[j]), np.where(home, 0.0, self._at_knots[j])

    def value(self, v):
        """Phi(v) in closed form for every rate kind.

        Linear rates give log(v)/|eta|, power rates
        (v^(1-k) - 1)/((1-k)|c|) (log(v)/|c| at k = 1, -inf where v^(1-k)
        exceeds the floats), tabulated ones the sum of the log-ratio terms
        of the pieces between 1 and v.
        """
        v = np.asarray(v, dtype=float)
        outside = ~((0.0 < v) & (v < math.inf))
        if outside.any():
            raise DomainError(f"Phi needs 0 < v < inf, got {float(v[outside][0])}")
        r = self.rate
        if r.kind == "linear":
            return _result(np.log(v) / abs(r.eta))
        if r.kind == "power":
            if r.k == 1.0:
                return _result(np.log(v) / abs(r.c))
            y = _exp((1.0 - r.k) * np.log(v), np.expm1) / ((1.0 - r.k) * abs(r.c))
            # Where v^(1-k) is below an ulp of 1, y rounds onto the finite
            # image end, whose inverse is 0 (k < 1) or inf (k > 1); a finite
            # v stays an ulp inside the open image instead.
            lo, hi = self._image
            if r.k < 1.0:
                return _result(np.maximum(y, math.nextafter(lo, 0.0)))
            return _result(np.minimum(y, math.nextafter(hi, 0.0)))
        piece = np.searchsorted(self._knots, v)
        start, base = self._anchor(piece, v > 1.0)
        return _result(base + self._integral(piece, start, v))

    def inverse(self, y, below: str = "raise"):
        """Phi^{-1}(y), in closed form.

        The image ends map to the ends of (0, inf): 0.0 at ``image_inf()``
        and inf at ``image_sup()``, as does a level beyond the floats.
        ``below="zero"`` returns 0.0 for y beneath the image, matching the
        clamp convention used in decay-bound assembly; any other level
        outside the image raises ``OutOfImageError`` (for the first such
        level).
        """
        y = np.asarray(y, dtype=float)
        r = self.rate
        if r.kind == "linear":  # the image is all of R; NaN -> inf
            with np.errstate(all="ignore"):  # overflow to inf
                return _result(_exp(abs(r.eta) * y))
        lo, hi = self._image
        clamp = (y < lo) & (below == "zero")
        outside = ~((lo <= y) & (y <= hi) | clamp)
        if outside.any():
            raise OutOfImageError(float(y[outside][0]), lo, hi)
        with np.errstate(all="ignore"):  # overflow to inf; branches masked below
            if r.kind == "power":
                if r.k == 1.0:
                    out = _exp(abs(r.c) * y)
                else:
                    x = (1.0 - r.k) * abs(r.c) * y
                    # x <= -1: y on the finite image end, or rounded onto it.
                    out = np.where(x <= -1.0, 0.0 if r.k < 1.0 else math.inf,
                                   _exp(np.log1p(x) / (1.0 - r.k)))
            else:
                piece = np.searchsorted(self._at_knots, y)
                start, base = self._anchor(piece, y > 0.0)
                b = self._slopes[piece]
                e = b * (y - base)
                out = np.where(piece == 0, start * np.exp(e),  # |rate(s)| = b s
                               start + self._magnitude(piece, start) * _exp(e, np.expm1) / b)
        return _result(np.where(clamp, 0.0, out))

    def image_inf(self) -> float:
        """inf of the image as v -> 0+, -inf if the transform is unbounded below."""
        r = self.rate
        if r.kind == "power" and r.k < 1.0:
            return -1.0 / ((1.0 - r.k) * abs(r.c))
        # Linear and tabulated magnitudes vanish linearly at the origin.
        return -math.inf

    def image_sup(self) -> float:
        """sup of the image as v -> infinity, +inf if unbounded above."""
        r = self.rate
        if r.kind == "power" and r.k > 1.0:
            return 1.0 / ((r.k - 1.0) * abs(r.c))
        # Linear and tabulated magnitudes grow at most linearly.
        return math.inf

    def image_is_full(self) -> bool:
        return self._image == (-math.inf, math.inf)


_ENVELOPE_GRID = np.logspace(-6, 6, 256)


def envelope_check(
    rates: Mapping[str, RateFunction], lower: RateFunction, upper: RateFunction
) -> bool:
    """Sampled verification of lower(s) <= |rate_p(s)| <= upper(s) for all p,
    at 256 log-spaced levels s in [1e-6, 1e6]."""
    lo, hi = lower.magnitude(_ENVELOPE_GRID), upper.magnitude(_ENVELOPE_GRID)
    for r in rates.values():
        m = r.magnitude(_ENVELOPE_GRID)
        slack = 1e-12 * np.maximum(1.0, m)
        if not np.all((lo <= m + slack) & (m <= hi + slack)):
            return False
    return True


@dataclass(frozen=True)
class ComparisonFunction:
    """Comparison function (class P / K / K-infinity) with a closed-form inverse."""

    kind: str
    a: float = 1.0
    c: float = 1.0
    k: float = 1.0
    parts: tuple["ComparisonFunction", ...] = ()
    points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind == "tabulated":
            pts = tuple((float(s), float(y)) for s, y in self.points)
            object.__setattr__(self, "points", pts)
            # Class K: through the origin and strictly increasing.
            full = pts if pts and pts[0][0] == 0 else ((0.0, 0.0),) + pts
            if len(pts) < 2 or full[0] != (0.0, 0.0) or any(
                    s1 <= s0 or y1 <= y0 for (s0, y0), (s1, y1) in zip(full, full[1:])):
                raise ValueError("a tabulated comparison function needs at least two points, "
                                 "strictly increasing in s >= 0 and in value, from 0 at s = 0")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if (s < 0).any():
            raise DomainError("comparison functions are defined on s >= 0")
        with np.errstate(over="ignore"):  # a power beyond the floats is inf
            if self.kind == "linear":
                out = self.a * s
            elif self.kind == "power":
                out = self.c * s**self.k
            elif self.kind == "compose":
                outer, inner = self.parts
                out = outer(inner(s))
            else:
                out = _interp_table(self.points, s)
        return _result(out)

    def inverse(self, y):
        """The level s with f(s) = y, for y >= 0: 0 at 0, and inf where the
        root exceeds the floats."""
        y = np.asarray(y, dtype=float)
        if (y < 0).any():
            raise DomainError("inverse defined for y >= 0")
        with np.errstate(all="ignore"):  # overflow to inf; y = 0 masked below
            if self.kind == "linear":
                out = y / self.a
            elif self.kind == "power":
                out = np.power(y / self.c, 1.0 / self.k)
            elif self.kind == "compose":
                outer, inner = self.parts
                out = inner.inverse(outer.inverse(y))
            else:
                out = _invert_table(self.points, y)
        return _result(np.where(y == 0, 0.0, out))


def linear_cf(a: float) -> ComparisonFunction:
    if a <= 0:
        raise ValueError("class-K linear coefficient must be > 0")
    return ComparisonFunction("linear", a=a)


def power_cf(c: float, k: float) -> ComparisonFunction:
    if c <= 0 or k <= 0:
        raise ValueError("class-K power needs c > 0 and k > 0")
    return ComparisonFunction("power", c=c, k=k)


def compose_cf(outer: ComparisonFunction, inner: ComparisonFunction) -> ComparisonFunction:
    return ComparisonFunction("compose", parts=(outer, inner))


def scale_cf(factor: float, f: ComparisonFunction) -> ComparisonFunction:
    return compose_cf(linear_cf(factor), f) if factor != 1.0 else f
