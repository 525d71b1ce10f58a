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
in closed form; so are the inverses of the comparison functions.  Both
inverses also have an array form, ``inverse_array``, with the same branches
elementwise; the scalar forms stay for per-sample callers, where ``math``
on one float is several times faster than a NumPy call.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DomainError, OutOfImageError

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _exp(x: float, f=math.exp) -> float:
    """f(x) for f = exp or expm1, and inf where that exceeds the floats."""
    return f(x) if x <= _LOG_FLOAT_MAX else math.inf


def _exp_array(x: np.ndarray, f=np.exp) -> np.ndarray:
    """``_exp`` elementwise: f(x), and inf where x exceeds the log of the
    largest float (NaN included, as in ``_exp``)."""
    return np.where(x <= _LOG_FLOAT_MAX, f(np.minimum(x, _LOG_FLOAT_MAX)), math.inf)


def _interp_table(points, s: float) -> float:
    """A tabulated function at s >= 0: linear through the origin below the
    first point (its value, if that point sits at 0), ``np.interp`` inside,
    and the last segment's slope above the final point."""
    s0, y0 = points[0]
    if s <= s0:
        return y0 * s / s0 if s0 > 0 else y0
    (s1, y1), (s2, y2) = points[-2], points[-1]
    if s >= s2:
        return y2 + (y2 - y1) / (s2 - s1) * (s - s2)
    return float(np.interp(s, [p[0] for p in points], [p[1] for p in points]))


def _invert_table(points, y: float) -> float:
    """The s with ``_interp_table(points, s) == y`` for y > 0 and a strictly
    increasing table: the same three pieces, inverted."""
    s0, y0 = points[0]
    if y <= y0:
        return s0 * y / y0
    (s1, y1), (s2, y2) = points[-2], points[-1]
    if y >= y2:
        return s2 + (s2 - s1) / (y2 - y1) * (y - y2)
    return float(np.interp(y, [p[1] for p in points], [p[0] for p in points]))


def _invert_table_array(points, y: np.ndarray) -> np.ndarray:
    """``_invert_table`` elementwise over an array of levels y >= 0."""
    s0, y0 = points[0]
    (s1, y1), (s2, y2) = points[-2], points[-1]
    return np.where(y <= y0, s0 * y / y0,
                    np.where(y >= y2, s2 + (s2 - s1) / (y2 - y1) * (y - y2),
                             np.interp(y, [p[1] for p in points], [p[0] for p in points])))


@dataclass(frozen=True)
class RateFunction:
    """Parametric rate in P or -P: linear, power, or tabulated-monotone."""

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
        else:
            raise ValueError(f"unknown rate kind {self.kind!r}")

    def __call__(self, s: float) -> float:
        if s < 0:
            raise DomainError("rates are defined on s >= 0")
        if self.kind == "linear":
            return self.eta * s
        if self.kind == "power":
            return self.c * s**self.k
        return _interp_table(self.points, s)

    def magnitude(self, s: float) -> float:
        return abs(self(s))

    def sign_at(self, s: float) -> int:
        v = self(s)
        return (v > 0) - (v < 0)


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
        if len({y > 0 for _, y in points}) > 1:
            raise DomainError("Phi needs a rate of one sign: this table crosses zero, "
                              "where 1/|rate| is not integrable")
        ss = self._knots = [s for s, _ in points]
        mags = self._mags = [abs(y) for _, y in points]
        inner = [(m1 - m0) / (s1 - s0) for s0, s1, m0, m1 in zip(ss, ss[1:], mags, mags[1:])]
        self._slopes = [mags[0] / ss[0]] + inner + [inner[-1]]
        self._home = home = bisect.bisect_left(ss, 1.0)  # the piece holding v = 1
        at = self._at_knots = [0.0] * len(ss)
        for j in range(home, len(ss)):  # breakpoints at or above 1, outwards
            start, base = self._anchor(j, upward=True)
            at[j] = base + self._integral(j, start, ss[j])
        for j in range(home - 1, -1, -1):  # breakpoints below 1, outwards
            start, base = self._anchor(j + 1, upward=False)
            at[j] = base + self._integral(j + 1, start, ss[j])
        # The anchors of ``inverse_array``, indexed [quantity, v > 1, piece]:
        # (s, Phi(s), |rate(s)|) at the anchor of each piece, and the piece's
        # slope.  The pieces an inverse never reaches from that side (piece 0
        # above 1, piece n below 1, unless either is home) hold v = 1.
        n = len(ss)
        rows = []
        for upward in (False, True):
            row = []
            for p in range(n + 1):
                reachable = p == home or (p > 0 if upward else p < n)
                s, phi = self._anchor(p, upward) if reachable else (1.0, 0.0)
                row.append((s, phi, self._magnitude(p, s), self._slopes[p]))
            rows.append(row)
        self._anchor_table = np.array(rows).transpose(2, 0, 1)

    def _magnitude(self, piece: int, s: float) -> float:
        if piece == 0:
            return self._slopes[0] * s
        return self._mags[piece - 1] + self._slopes[piece] * (s - self._knots[piece - 1])

    def _integral(self, piece: int, start: float, end: float) -> float:
        """int_start^end ds/|rate(s)| with both ends on one piece: the log of
        the magnitudes' ratio over the slope, through log1p unless the
        magnitude more than halves, so that short steps and long steps
        toward the origin both keep their relative accuracy.  On piece 0
        the log of the magnitudes' ratio is log(end) - log(start), which
        does not underflow as end approaches 0."""
        b = self._slopes[piece]
        m = self._magnitude(piece, start)
        x = b * (end - start) / m
        if x > -0.5:
            return math.log1p(x) / b
        if piece == 0:
            return (math.log(end) - math.log(start)) / b
        return math.log(self._magnitude(piece, end) / m) / b

    def _anchor(self, piece: int, upward: bool) -> tuple[float, float]:
        """(s, Phi(s)) at the end of ``piece`` nearest v = 1: 1 itself on its
        own piece, the lower breakpoint above 1, the upper one below it."""
        if piece == self._home:
            return 1.0, 0.0
        j = piece - 1 if upward else piece
        return self._knots[j], self._at_knots[j]

    def value(self, v: float) -> float:
        """Phi(v) in closed form for every rate kind.

        Linear rates give log(v)/|eta|, power rates
        (v^(1-k) - 1)/((1-k)|c|) (log(v)/|c| at k = 1, -inf where v^(1-k)
        exceeds the floats), tabulated ones the sum of the log-ratio terms
        of the pieces between 1 and v.
        """
        if not 0.0 < v < math.inf:
            raise DomainError(f"Phi needs 0 < v < inf, got {v}")
        r = self.rate
        if r.kind == "linear":
            return math.log(v) / abs(r.eta)
        if r.kind == "power":
            if r.k == 1.0:
                return math.log(v) / abs(r.c)
            x = (1.0 - r.k) * math.log(v)
            if x > _LOG_FLOAT_MAX:  # k > 1, v < 1, and v^(1-k) is beyond floats
                return -math.inf
            y = math.expm1(x) / ((1.0 - r.k) * abs(r.c))
            # Where v^(1-k) is below an ulp of 1, y rounds onto the finite
            # image end, whose inverse is 0 (k < 1) or inf (k > 1); a finite
            # v stays an ulp inside the open image instead.
            lo, hi = self._image
            if r.k < 1.0:
                return max(y, math.nextafter(lo, 0.0))
            return min(y, math.nextafter(hi, 0.0))
        piece = bisect.bisect_left(self._knots, v)
        start, base = self._anchor(piece, v > 1.0)
        return base + self._integral(piece, start, v)

    def inverse(self, y: float, below: str = "raise") -> float:
        """Phi^{-1}(y), in closed form.

        The image ends map to the ends of (0, inf): 0.0 at ``image_inf()``
        and inf at ``image_sup()``, as does a level beyond the floats.
        ``below="zero"`` returns 0.0 for y beneath the image, matching the
        clamp convention used in decay-bound assembly.
        """
        r = self.rate
        if r.kind == "linear":
            x = abs(r.eta) * y
            return math.exp(x) if x <= _LOG_FLOAT_MAX else math.inf
        lo, hi = self._image
        if not lo <= y <= hi:
            if y < lo and below == "zero":
                return 0.0
            raise OutOfImageError(y, lo, hi)
        if r.kind == "power":
            if r.k == 1.0:
                return _exp(abs(r.c) * y)
            x = (1.0 - r.k) * abs(r.c) * y
            if x <= -1.0:  # y on the finite image end, or rounded onto it
                return 0.0 if r.k < 1.0 else math.inf
            return _exp(math.log1p(x) / (1.0 - r.k))
        piece = bisect.bisect_left(self._at_knots, y)
        start, base = self._anchor(piece, y > 0.0)
        b = self._slopes[piece]
        if piece == 0:  # |rate(s)| = b s
            return start * math.exp(b * (y - base))
        return start + self._magnitude(piece, start) * _exp(b * (y - base), math.expm1) / b

    def inverse_array(self, y, below: str = "raise") -> np.ndarray:
        """``inverse`` elementwise over an array of levels, with the same
        branches: the image ends map to 0.0 and inf, as do levels beyond the
        floats, ``below="zero"`` clamps levels beneath the image to 0.0, and
        any other level outside the image raises ``OutOfImageError`` (for the
        first such level).  Agrees with ``inverse`` to within a few ulps
        (NumPy's exp, expm1 and log1p against ``math``'s)."""
        y = np.asarray(y, dtype=float)
        r = self.rate
        if r.kind == "linear":
            with np.errstate(over="ignore"):
                return _exp_array(abs(r.eta) * y)
        lo, hi = self._image
        clamp = y < lo if below == "zero" else np.zeros(y.shape, dtype=bool)
        outside = ~((lo <= y) & (y <= hi) | clamp)
        if outside.any():
            raise OutOfImageError(float(y[outside][0]), lo, hi)
        with np.errstate(all="ignore"):  # branches masked below
            if r.kind == "power":
                if r.k == 1.0:
                    out = _exp_array(abs(r.c) * y)
                else:
                    x = (1.0 - r.k) * abs(r.c) * y
                    out = np.where(x <= -1.0, 0.0 if r.k < 1.0 else math.inf,
                                   _exp_array(np.log1p(x) / (1.0 - r.k)))
            else:
                piece = np.searchsorted(self._at_knots, y)
                start, base, mag, b = self._anchor_table[:, (y > 0.0).astype(np.intp), piece]
                e = b * (y - base)
                out = np.where(piece == 0, start * np.exp(e),
                               start + mag * _exp_array(e, np.expm1) / b)
        return np.where(clamp, 0.0, out)

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


def envelope_check(
    rates: Mapping[str, RateFunction], lower: RateFunction, upper: RateFunction
) -> bool:
    """Sampled verification of lower(s) <= |rate_p(s)| <= upper(s) for all p,
    at 256 log-spaced levels s in [1e-6, 1e6]."""
    for r in rates.values():
        for s in np.logspace(-6, 6, 256).tolist():
            m = r.magnitude(s)
            slack = 1e-12 * max(1.0, m)
            if not (lower.magnitude(s) <= m + slack and m <= upper.magnitude(s) + slack):
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

    def __call__(self, s: float) -> float:
        if s < 0:
            raise DomainError("comparison functions are defined on s >= 0")
        if self.kind == "linear":
            return self.a * s
        if self.kind == "power":
            return self.c * s**self.k
        if self.kind == "compose":
            outer, inner = self.parts
            return outer(inner(s))
        return _interp_table(self.points, s)

    def inverse(self, y: float) -> float:
        if y < 0:
            raise DomainError("inverse defined for y >= 0")
        if y == 0:
            return 0.0
        if self.kind == "linear":
            return y / self.a
        if self.kind == "power":
            try:
                return (y / self.c) ** (1.0 / self.k)
            except OverflowError:  # the root exceeds the floats
                return math.inf
        if self.kind == "compose":
            outer, inner = self.parts
            return inner.inverse(outer.inverse(y))
        return _invert_table(self.points, y)

    def inverse_array(self, y) -> np.ndarray:
        """``inverse`` elementwise over an array of levels y >= 0."""
        y = np.asarray(y, dtype=float)
        if (y < 0).any():
            raise DomainError("inverse defined for y >= 0")
        with np.errstate(all="ignore"):  # y = 0 and the table's branches masked below
            if self.kind == "linear":
                out = y / self.a
            elif self.kind == "power":
                out = np.power(y / self.c, 1.0 / self.k)
            elif self.kind == "compose":
                outer, inner = self.parts
                out = inner.inverse_array(outer.inverse_array(y))
            else:
                out = _invert_table_array(self.points, y)
        return np.where(y == 0, 0.0, out)


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

