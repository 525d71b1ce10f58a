"""Reference implementations kept as oracles for the library's fast paths.

* The dwell-budget quantities by direct enumeration: every window's
  activations and active time are counted anew.  These are the earlier
  library implementations, kept verbatim as oracles for the
  cumulative-budget ledger in ``isscert.switching`` and
  ``isscert.construct``: ``slack_sup`` costs O(K^3) per signal and
  ``correction`` O(K^2) per query.
* The transform Phi(v) = int_1^v ds/|rate(s)| by adaptive quadrature, its
  inverse by Brent's method and comparison-function inverses by bracketing
  and Brent's method: the earlier library implementations, kept as oracles
  for the closed forms in ``isscert.rates``; and the transform of a
  tabulated rate by mpmath quadrature in extended precision.
* The transform and comparison-function inverses for one number at a time
  through ``math``: ``ScalarPhiTransform`` (value and inverse) and
  ``cf_inverse``, the earlier library implementations kept verbatim as
  oracles for the elementwise ``PhiTransform`` and
  ``ComparisonFunction.inverse`` in ``isscert.rates``.
* The ISS bound per sample: ``beta_tilde``/``beta`` as scalar closures over
  the scalar transform and comparison inverses, and the ISS check as a
  loop over ``Trajectory.rows()`` with one ``beta`` call per sample.  These
  are the earlier library implementations, kept as oracles for the
  elementwise ``beta`` and the array ``iss_check`` in ``isscert.bounds``.
* The trajectory checks per sample: ``trajectory_reports``, a loop over the
  segments with one rate-function call per sample, and ``decrease_rows``,
  one ``compose`` call per sample.  These are the earlier
  library implementations, kept as oracles for the whole-trajectory arrays
  of ``isscert.certify`` and ``isscert.construct.decrease_check``.
"""

import bisect
import math
import sys

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from isscert.bounds import ISS_REL_TOL
from isscert.certify import FORMS, JUMP_TOL, SANDWICH_TOL, _report
from isscert.errors import DegenerateGammaError, DomainError, OutOfImageError
from isscert.switching import active_time


def _count(
    sig,
    p: str,
    s1: float,
    s2: float,
    left_limit: bool,
    include_end: bool = True,
) -> int:
    """Activations of p in (s1, s2]; left_limit counts an event at s1 itself,
    include_end=False drops an event sitting exactly at s2."""
    n = 0
    for t, mode in sig.events():
        if mode != p:
            continue
        if (t > s1 or (left_limit and t == s1)) and (t < s2 or (include_end and t == s2)):
            n += 1
    return n


def slack_sup(sig, mode_set, tau, sign: int) -> float:
    # Both window endpoints may approach a switching instant from the left
    # (the objective is only semi-continuous there: the count jumps when an
    # event enters at s1 or at s2), but s1 never drops below t0.
    events = sig.events()
    s1_cands = [(t, left) for t, _ in events for left in (True, False) if t > sig.t0 or not left]
    s2_cands = [
        (t, inc)
        for t in sorted({t for t, _ in events} | {sig.horizon})
        for inc in (True, False)
    ]
    best = 0.0  # attained at s1 == s2
    for s1, left in s1_cands:
        for s2, inc in s2_cands:
            if s2 < s1 or (s2 == s1 and not (left and inc)):
                continue
            value = 0.0
            for p in mode_set:
                n = _count(sig, p, s1, s2, left_limit=left, include_end=inc)
                value += sign * (n * tau[p] - active_time(sig, p, s1, s2))
            best = max(best, value)
    return best


def mdadt_slack(sig, partition, tau) -> float:
    if not partition.stable:
        return 0.0
    return slack_sup(sig, partition.stable, tau, sign=+1)


def mdalt_slack(sig, partition, tau) -> float:
    if not partition.unstable:
        return 0.0
    return slack_sup(sig, partition.unstable, tau, sign=-1)


def correction(sig, partition, dwell, t: float, side: str = "right") -> float:
    """Correction value h(t) <= 0.

    Minimum over all switching instants t_j <= t (and the initial time) of 0
    and the weighted dwell-budget balance

        (sum over stable p of T_p(t_j, t) - tau_p N_p(t_j-, t)) (1 - delta)
      - (sum over unstable p of T_p(t_j, t) - tau_p N_p(t_j, t)) (1 + delta).

    Stable activation counts include an event at the window start (the
    left-limit endpoint); unstable ones do not.  ``side="left"`` evaluates
    the left limit h(t-), which excludes an activation at t itself.
    """
    sig._check_range(t)
    count_at_end = side != "left"
    anchors = [sig.t0] + [ti for ti in sig.instants if ti < t or (count_at_end and ti == t)]
    best = 0.0
    for tj in anchors:
        stable_sum = 0.0
        for p in partition.stable & sig.mode_set:
            n = _count(sig, p, tj, t, left_limit=True, include_end=count_at_end)
            stable_sum += active_time(sig, p, tj, t) - dwell.tau[p] * n
        unstable_sum = 0.0
        for p in partition.unstable & sig.mode_set:
            n = _count(sig, p, tj, t, left_limit=False, include_end=count_at_end)
            unstable_sum += active_time(sig, p, tj, t) - dwell.tau[p] * n
        value = stable_sum * (1 - dwell.delta) - unstable_sum * (1 + dwell.delta)
        best = min(best, value)
    return best


def phi_quad(rate, v: float) -> float:
    """Phi(v) = int_1^v ds/|rate(s)| by adaptive quadrature.

    Substituting s = e^u tames the near-zero endpoint where 1/|rate| blows
    up; the transformed integrand is exp(u)/|rate(exp(u))|, split at the
    breakpoints of a tabulated rate.  The library's quadrature also allowed
    an absolute error of 1e-10, which is coarser than 1e-12 relative for
    transforms below 1e-2 in size; the oracle asks for the relative
    tolerance alone.
    """
    lv = math.log(v)
    lo, hi = min(0.0, lv), max(0.0, lv)
    breaks = None
    if rate.kind == "tabulated":
        breaks = [math.log(s) for s, _ in rate.points if lo < math.log(s) < hi] or None
    result, abserr = quad(
        lambda u: math.exp(u) / rate.magnitude(math.exp(u)),
        lo, hi, epsabs=0.0, epsrel=1e-12, limit=500, points=breaks,
    )
    assert math.isfinite(result) and abserr <= max(1e-7, 1e-9 * abs(result))
    return result if lv >= 0 else -result


def phi_inverse_brentq(rate, y: float) -> float:
    """The v in the bracket [1e-9, 1e9] with phi_quad(rate, v) == y, by
    Brent's method."""
    return float(brentq(lambda v: phi_quad(rate, v) - y, 1e-9, 1e9,
                        xtol=1e-14, rtol=1e-14, maxiter=200))


def cf_inverse_brentq(f, y: float) -> float:
    """The s >= 0 with f(s) == y > 0: doubling until f(hi) >= y, then Brent's
    method on [0, hi]."""
    hi = 1.0
    while f(hi) < y:
        hi *= 2.0
    return float(brentq(lambda s: f(s) - y, 0.0, hi, xtol=1e-14, rtol=1e-14))


def phi_mp(rate, v: float) -> float:
    """Phi(v) for a tabulated rate by mpmath quadrature at 40 digits.

    The float quadrature above evaluates the table at float abscissae, so
    near two breakpoints a relative distance g apart it resolves the
    integrand only to about 1e-16/g; this oracle interpolates the table in
    extended precision, which keeps it exact to rounding for any spacing.
    """
    with mp.workdps(40):
        pts = [(mp.mpf(s), abs(mp.mpf(y))) for s, y in rate.points]

        def magnitude(s):
            if s <= pts[0][0]:
                return pts[0][1] * s / pts[0][0]
            for (s0, m0), (s1, m1) in zip(pts, pts[1:]):
                if s <= s1:
                    break  # past the last point, the last pair's line
            return m0 + (m1 - m0) / (s1 - s0) * (s - s0)

        lo, hi = sorted((mp.mpf(1), mp.mpf(v)))
        knots = [lo] + [s for s, _ in pts if lo < s < hi] + [hi]
        total = sum(mp.quad(lambda s: 1 / magnitude(s), [a, b])
                    for a, b in zip(knots, knots[1:]))
        return float(total if v >= 1 else -total)


def decay_interpolant(u: float, v: float, C: float, m: float) -> float:
    """m + (u + C - m) exp(-v / (u + C - m)) for one v, through ``math``."""
    gap = u + C - m
    if gap < 0:
        raise DegenerateGammaError(f"negative gap u + C - m = {gap}")
    if gap == 0.0:
        return u + C
    return m + gap * math.exp(-v / gap)


def scalar_beta(cert, dwell, lower, upper, short_horizon_envelope=None):
    """(beta_tilde, beta) of ``build_bound`` for one elapsed time s per call."""
    delta = dwell.delta
    C = (1 - delta) * dwell.T_S + (1 + delta) * dwell.T_U
    tr_lo = ScalarPhiTransform(lower)
    tr_hi = ScalarPhiTransform(upper)
    m = tr_lo.image_inf()
    finite_m = m > -math.inf

    def beta_tilde(r: float, s: float) -> float:
        if r <= 0.0:
            return 0.0
        if finite_m:
            a = tr_lo.inverse(decay_interpolant(tr_lo.value(r), delta * s, C, m),
                              below="zero")
            b = tr_hi.inverse(tr_hi.value(r) + C - delta * s, below="zero")
        else:
            a = tr_lo.inverse(tr_lo.value(r) + C - delta * s)
            b = tr_hi.inverse(tr_hi.value(r) + C - delta * s)
        return max(a, b)

    patch_window = C / delta

    def beta(r: float, s: float) -> float:
        level = beta_tilde(cert.alpha2(r), s)
        if short_horizon_envelope is not None and s <= patch_window:
            level = max(level, short_horizon_envelope(cert.alpha2(r)))
        return cf_inverse(cert.alpha1, level)

    return beta_tilde, beta


def iss_rows(bound, traj, x0, input):
    """(reports, max_margin) of ``iss_check`` by one ``beta`` call per row."""
    r0 = float(np.linalg.norm(np.atleast_1d(np.asarray(x0, dtype=float))))
    t0 = traj.t0
    g = bound.gamma(input.sup_norm)
    out = []
    max_margin = -math.inf
    for t, mode, x, _ in traj.rows():
        rhs = bound.beta(r0, t - t0) + g
        lhs = float(np.linalg.norm(x))
        max_margin = max(max_margin, lhs - rhs)
        if lhs > rhs * (1 + ISS_REL_TOL) + 1e-12:
            out.append(_report("iss", t, mode, lhs, rhs))
    return out, max_margin


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _exp(x: float, f=math.exp) -> float:
    """f(x) for f = exp or expm1, and inf where that exceeds the floats."""
    return f(x) if x <= _LOG_FLOAT_MAX else math.inf


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


def cf_inverse(f, y: float) -> float:
    """``ComparisonFunction.inverse`` for one level y."""
    if y < 0:
        raise DomainError("inverse defined for y >= 0")
    if y == 0:
        return 0.0
    if f.kind == "linear":
        return y / f.a
    if f.kind == "power":
        try:
            return (y / f.c) ** (1.0 / f.k)
        except OverflowError:  # the root exceeds the floats
            return math.inf
    if f.kind == "compose":
        outer, inner = f.parts
        return cf_inverse(inner, cf_inverse(outer, y))
    return _invert_table(f.points, y)


class ScalarPhiTransform:
    """``PhiTransform`` for one number at a time, through ``math``."""

    def __init__(self, rate):
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

    def _magnitude(self, piece: int, s: float) -> float:
        if piece == 0:
            return self._slopes[0] * s
        return self._mags[piece - 1] + self._slopes[piece] * (s - self._knots[piece - 1])

    def _integral(self, piece: int, start: float, end: float) -> float:
        b = self._slopes[piece]
        m = self._magnitude(piece, start)
        x = b * (end - start) / m
        if x > -0.5:
            return math.log1p(x) / b
        if piece == 0:
            return (math.log(end) - math.log(start)) / b
        return math.log(self._magnitude(piece, end) / m) / b

    def _anchor(self, piece: int, upward: bool) -> tuple[float, float]:
        if piece == self._home:
            return 1.0, 0.0
        j = piece - 1 if upward else piece
        return self._knots[j], self._at_knots[j]

    def value(self, v: float) -> float:
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
            lo, hi = self._image
            if r.k < 1.0:
                return max(y, math.nextafter(lo, 0.0))
            return min(y, math.nextafter(hi, 0.0))
        piece = bisect.bisect_left(self._knots, v)
        start, base = self._anchor(piece, v > 1.0)
        return base + self._integral(piece, start, v)

    def inverse(self, y: float, below: str = "raise") -> float:
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

    def image_inf(self) -> float:
        r = self.rate
        if r.kind == "power" and r.k < 1.0:
            return -1.0 / ((1.0 - r.k) * abs(r.c))
        return -math.inf

    def image_sup(self) -> float:
        r = self.rate
        if r.kind == "power" and r.k > 1.0:
            return 1.0 / ((r.k - 1.0) * abs(r.c))
        return math.inf


def _segment_values(cert, traj, ends_only: bool = False):
    """Per segment, V of its mode at each sample (first and last if ends_only)."""
    idx = [0, -1] if ends_only else slice(None)
    return [[float(cert.V[seg.mode](t, x))
             for t, x in zip(seg.times[idx].tolist(), seg.states[idx])] for seg in traj.segments]


def _flow_reports(mode, ts, vs, allowed, threshold, dini_coeff):
    """The flow rule on one segment: where v >= threshold, the forward difference
    (v[i+1] - v[i]) / h may exceed allowed(mode, v[i]) by at most dini_coeff h."""
    out = []
    for i in range(len(ts) - 1):
        h = ts[i + 1] - ts[i]
        if h <= 0 or vs[i] < threshold:
            continue
        slope = (vs[i + 1] - vs[i]) / h
        rhs = allowed(mode, vs[i]) + dini_coeff * h
        if slope > rhs:
            out.append(_report("flow", ts[i], mode, slope, rhs))
    return out


def _jump_report(time, mode, pre, post, threshold, bound, cap):
    """The jump rule at a jump out of ``mode``: post <= bound(mode, pre) where
    pre >= threshold, post <= cap below it, up to JUMP_TOL (1 + |rhs|)."""
    kind, rhs = ("jump", bound(mode, pre)) if pre >= threshold else ("small-input-jump", cap)
    return [_report(kind, time, mode, post, rhs)] if post > rhs + JUMP_TOL * (1 + abs(rhs)) else []


def trajectory_reports(cert, traj, kinds, input=None, form="implication", dini_coeff=None):
    """``certify._reports``: reports of ``kinds`` (in the order sandwich,
    flow, jump) by a loop over the segments and their samples."""
    if input is not None:
        if form not in FORMS:
            raise ValueError(f"unknown certificate form {form!r}; choose one of {FORMS}")
        chi = cert.chi(input.sup_norm)
        threshold, cap, slack = ((chi, cert.alpha3(input.sup_norm), -0.0)
                                 if form == "implication" else (-math.inf, math.inf, chi))
        allowed = lambda p, v: cert.phi[p](v) + slack  # noqa: E731
        bound = lambda p, v: cert.psi[p](v) + slack  # noqa: E731
    values = _segment_values(cert, traj, ends_only=kinds == ("jump",))
    sandwich, flows, jumps = [], [], []
    for k, (seg, vs) in enumerate(zip(traj.segments, values)):
        ts = seg.times.tolist()
        if "sandwich" in kinds:
            for t, x, v in zip(ts, seg.states, vs):
                nx = float(np.linalg.norm(x))
                lo, hi = cert.alpha1(nx), cert.alpha2(nx)
                if lo > v + SANDWICH_TOL:
                    sandwich.append(_report("sandwich", t, seg.mode, lo, v))
                if v > hi + SANDWICH_TOL:
                    sandwich.append(_report("sandwich", t, seg.mode, v, hi))
        if "flow" in kinds:
            flows += _flow_reports(seg.mode, ts, vs, allowed, threshold, dini_coeff)
        if "jump" in kinds and k:
            # Segment k starts at the post-jump state of the jump ending k - 1.
            jumps += _jump_report(ts[0], traj.segments[k - 1].mode,
                                  values[k - 1][-1], vs[0], threshold, bound, cap)
    return sandwich + flows + jumps


def decrease_rows(dec, traj, input, dini_coeff):
    """``construct.decrease_check``: (reports, rows) with one ledger query
    and one ``compose`` call per sample."""
    cert = dec.cert
    delta_eff = min(cert.dwell.delta, 1.0)
    u_norm = input.sup_norm
    threshold = cert.chi(u_norm)
    cap = max(cert.alpha3(u_norm), threshold)
    decay = lambda p, w: -delta_eff * cert.phi[p].magnitude(w)  # noqa: E731
    flows, jumps, rows = [], [], []
    for k, (seg, vs) in enumerate(zip(traj.segments, _segment_values(cert, traj))):
        ts = seg.times.tolist()
        pre_jump = len(ts) - 1 if k < len(traj.segments) - 1 else None
        hs = [dec.h(t, side="left" if i == pre_jump else "right") for i, t in enumerate(ts)]
        ws = [dec.compose(v, seg.mode, seg.mode, h) for v, h in zip(vs, hs)]
        flows += _flow_reports(seg.mode, ts, ws, decay, threshold, dini_coeff)
        if k:
            mode_prev = traj.segments[k - 1].mode
            w_post = dec.compose(vs[0], seg.mode, mode_prev, hs[0])
            jumps += _jump_report(ts[0], mode_prev, w_pre, w_post, threshold, lambda p, w: w, cap)
        rows += zip(ts, vs, [w_post, *ws[1:]] if k else ws, hs)
        w_pre = ws[-1]
    return flows + jumps, rows
