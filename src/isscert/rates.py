"""Rate functions, comparison functions and the integral transform machinery.

A rate function bounds the growth/decay of a Lyapunov value along flows
(``phi``) or across jumps (``psi``).  The transform

    Phi(v) = integral from 1 to v of ds / |phi(s)|

maps Lyapunov values to a scale on which flow evolution is linear in
time; it is strictly increasing with Phi(1) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import DivergentIntegralError, DomainError, OutOfImageError

QUAD_ABS_TOL = 1e-10
DIVERGENCE_LIMIT = 1e12


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
    """Strictly increasing map Phi(v) = int_1^v ds/|rate(s)| on a bracket."""

    def __init__(self, rate: RateFunction, v_min: float = 1e-9, v_max: float = 1e9):
        if not (0 < v_min < 1 < v_max):
            raise ValueError("bracket must satisfy 0 < v_min < 1 < v_max")
        self.rate = rate
        self.v_min = v_min
        self.v_max = v_max

    def value(self, v: float) -> float:
        """Phi(v); closed form for linear rates, adaptive quadrature otherwise."""
        if v <= 0:
            raise DomainError(f"Phi needs v > 0, got {v}")
        if self.rate.kind == "linear":
            return math.log(v) / abs(self.rate.eta)
        if not (self.v_min <= v <= self.v_max):
            raise DomainError(f"v={v} outside bracket [{self.v_min}, {self.v_max}]")
        return self._integrate(1.0, v)

    def _integrate(self, a: float, b: float) -> float:
        # Substituting s = e^u tames the near-zero endpoint where 1/|rate|
        # blows up; the transformed integrand is exp(u)/|rate(exp(u))|.
        la, lb = math.log(a), math.log(b)
        lo, hi = min(la, lb), max(la, lb)
        breaks = None
        if self.rate.kind == "tabulated":
            breaks = [math.log(s) for s, _ in self.rate.points if lo < math.log(s) < hi]
            breaks = breaks or None
        result, abserr = quad(
            lambda u: math.exp(u) / self.rate.magnitude(math.exp(u)),
            lo, hi,
            epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=500, points=breaks,
        )
        if not math.isfinite(result) or abserr > max(1e-7, 1e-9 * abs(result)):
            raise DivergentIntegralError(
                f"quadrature did not converge on [{a}, {b}]")
        return result if la <= lb else -result

    def inverse(self, y: float, below: str = "raise") -> float:
        """Phi^{-1}(y).

        ``below="zero"`` returns 0.0 for y beneath the attained image,
        matching the clamp convention used in decay-bound assembly.
        """
        if self.rate.kind == "linear":
            return math.exp(abs(self.rate.eta) * y)
        lo, hi = self.value(self.v_min), self.value(self.v_max)
        if y < lo:
            if below == "zero":
                return 0.0
            raise OutOfImageError(y, lo, hi)
        if y > hi:
            raise OutOfImageError(y, lo, hi)
        if y == lo:
            return self.v_min
        if y == hi:
            return self.v_max
        return float(brentq(lambda v: self.value(v) - y, self.v_min, self.v_max,
                            xtol=1e-14, rtol=1e-14, maxiter=200))

    def image_inf(self) -> float:
        """inf of the image as v -> 0+ (analytic where possible), -inf if divergent."""
        r = self.rate
        if r.kind == "linear":
            return -math.inf
        if r.kind == "power":
            if r.k >= 1.0:
                return -math.inf
            return -1.0 / ((1.0 - r.k) * abs(r.c))
        return self._probe(toward_zero=True)

    def image_sup(self) -> float:
        """sup of the image as v -> infinity, +inf if divergent."""
        r = self.rate
        if r.kind == "linear":
            return math.inf
        if r.kind == "power":
            if r.k <= 1.0:
                return math.inf
            return 1.0 / ((r.k - 1.0) * abs(r.c))
        return self._probe(toward_zero=False)

    def image_is_full(self) -> bool:
        return self.image_inf() == -math.inf and self.image_sup() == math.inf

    def _probe(self, toward_zero: bool) -> float:
        # Decade-by-decade extension of the integral past the bracket.  The
        # per-decade contribution of a converging tail must vanish; a piece
        # that is still above threshold after the decade budget (or a partial
        # integral past the limit) marks the corresponding end as divergent.
        total = self.value(self.v_min if toward_zero else self.v_max)
        edge = self.v_min if toward_zero else self.v_max
        for _ in range(60):
            nxt = edge / 10.0 if toward_zero else edge * 10.0
            piece = self._integrate(edge, nxt)
            total += piece
            edge = nxt
            if abs(total) > DIVERGENCE_LIMIT:
                break
            if abs(piece) < 1e-12:
                return total
        return -math.inf if toward_zero else math.inf


def phi(rate: RateFunction, v: float) -> float:
    """Transform value Phi(v) for a rate; see :class:`PhiTransform`."""
    return PhiTransform(rate).value(v)


def phi_inverse(rate: RateFunction, y: float) -> float:
    """Inverse transform; |Phi(result) - y| <= 1e-10 on the default bracket."""
    return PhiTransform(rate).inverse(y)


def envelope_check(
    rates: Mapping[str, RateFunction],
    lower: RateFunction,
    upper: RateFunction,
    grid: int = 256,
    s_range: tuple[float, float] = (1e-6, 1e6),
) -> bool:
    """Sampled verification of lower(s) <= |rate_p(s)| <= upper(s) for all p."""
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    ss = np.logspace(math.log10(s_range[0]), math.log10(s_range[1]), grid)
    for r in rates.values():
        for s in ss:
            m = r.magnitude(float(s))
            slack = 1e-12 * max(1.0, m)
            if not (lower.magnitude(float(s)) <= m + slack
                    and m <= upper.magnitude(float(s)) + slack):
                return False
    return True


@dataclass(frozen=True)
class ComparisonFunction:
    """Comparison function (class P / K / K-infinity) with a numeric inverse."""

    kind: str
    a: float = 1.0
    c: float = 1.0
    k: float = 1.0
    parts: tuple["ComparisonFunction", ...] = ()
    points: tuple[tuple[float, float], ...] = ()

    def __call__(self, s: float) -> float:
        if s < 0:
            raise DomainError("comparison functions are defined on s >= 0")
        if self.kind == "linear":
            return self.a * s
        if self.kind == "power":
            return self.c * s**self.k
        if self.kind == "max":
            return max(f(s) for f in self.parts)
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
            return (y / self.c) ** (1.0 / self.k)
        if self.kind == "compose":
            outer, inner = self.parts
            return inner.inverse(outer.inverse(y))
        hi = 1.0
        for _ in range(400):
            if self(hi) >= y:
                break
            hi *= 2.0
        else:
            raise OutOfImageError(y, 0.0, self(hi))
        return float(brentq(lambda s: self(s) - y, 0.0, hi, xtol=1e-14, rtol=1e-14))

    def is_increasing(self, grid: int = 128, s_range=(1e-9, 1e9)) -> bool:
        ss = np.logspace(math.log10(s_range[0]), math.log10(s_range[1]), grid)
        vals = [self(float(s)) for s in ss]
        return all(b > a for a, b in zip(vals, vals[1:]))


def linear_cf(a: float) -> ComparisonFunction:
    if a <= 0:
        raise ValueError("class-K linear coefficient must be > 0")
    return ComparisonFunction("linear", a=a)


def power_cf(c: float, k: float) -> ComparisonFunction:
    if c <= 0 or k <= 0:
        raise ValueError("class-K power needs c > 0 and k > 0")
    return ComparisonFunction("power", c=c, k=k)


def max_cf(*fs: ComparisonFunction) -> ComparisonFunction:
    return ComparisonFunction("max", parts=tuple(fs))


def compose_cf(outer: ComparisonFunction, inner: ComparisonFunction) -> ComparisonFunction:
    return ComparisonFunction("compose", parts=(outer, inner))


def scale_cf(factor: float, f: ComparisonFunction) -> ComparisonFunction:
    return compose_cf(linear_cf(factor), f) if factor != 1.0 else f

