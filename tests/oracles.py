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
  loop over ``Trajectory.samples`` with one ``beta`` call per sample.  These
  are the earlier library implementations, kept as oracles for the
  elementwise ``beta`` and the batched ``iss_check`` in ``isscert.bounds``.
* The CSV writer one cell at a time: ``write_csv_per_cell`` walks the
  columns a row at a time and formats each number through its own
  ``f"{float(x):.17g}"`` call, the earlier library implementation kept as
  the oracle for the dtype-picked template of ``isscert.jsonio.write_csv``.
  ``write_csv_template`` is that template, every row through one ``%``
  call: the earlier ``write_csv`` kept verbatim as the reference for the
  column formatter of ``isscert.csvtext`` and as the baseline that
  ``tools/time_csv.py`` times it against.
* The JSON writer through the standard library: ``json_dumps`` is
  ``json.dumps(obj, indent=2, sort_keys=True)`` after ``finite_floats``
  has replaced every float that is not finite by its ``'%.17g'`` string
  and every NumPy array by its ``tolist()``: the earlier
  ``isscert.jsonio.write_json`` (which converted no arrays; its callers
  did), kept as the oracle for the joined rows of the writer that
  replaced it and as the baseline that ``tools/time_json.py`` times it
  against.
* The trajectory checks per sample: ``trajectory_reports``, a loop over the
  segments with one rate-function call per sample, and ``decrease_rows``,
  one ``compose`` call per sample, each report one
  (kind, time, mode, lhs, rhs, margin) tuple.  These are the earlier
  library implementations, kept as oracles for the whole-trajectory arrays
  and the columnar ``Reports`` of ``isscert.certify`` and
  ``isscert.construct.decrease_check``.
* The Monte-Carlo runs one ``simulate`` call at a time:
  ``monte_carlo_per_run`` takes the runs that ``cmd_bound`` draws,
  simulates each run alone and checks it before the next.  It is the
  earlier loop of ``isscert.cli.cmd_bound``, kept as the oracle for the one
  ``simulate_batch`` call that it now makes.
* The reachable norm by sampling: ``reachability_runs`` simulates sampled
  starts in the C-ball under inputs bounded by D (constants, sinusoids and
  one-switch steps) on the signal cut at t0 + tau, and
  ``reachability_bound`` is the largest sup norm among them, a Monte-Carlo
  lower estimate.  This is the short-horizon patch that ``bound`` once
  used, kept as the oracle that the proved gains of
  ``isscert.bounds.window_gains`` must dominate run by run.
* The linear RK4 recurrence one step at a time: ``linear_flow_stepwise``
  runs X+ = P X + F_i as one ``np.dot`` per step over the (n, R) states,
  the earlier library loop kept as the oracle for the doubling prefix scan
  of ``isscert.simulate``; in ``np.longdouble`` it is the
  extended-precision reference for the scan's rounding.
* A linear run one segment at a time: ``simulate_per_segment`` is the
  earlier ``simulate_batch`` loop for a ``LinearSystemModel``: every
  segment samples each run's input and runs its own doubling prefix scan
  from the segment's start, then each run jumps.  It is the oracle for the
  grouped scans of ``isscert.simulate``, which scan every segment of one
  mode, step size and step count together.
* The LMI blocks one at a time: ``flow_block`` and ``jump_block`` assemble
  one mode's or one mode change's block with 2-D products, decided one
  ``is_negative_semidefinite`` call each, and ``synthesize_per_mode`` runs
  the search mode by mode and link by link with one SciPy ``eigh`` call per
  symmetric matrix, one ``isscert.lmi._lyapunov_gram`` call on a stack of
  one matrix per mode, and one Cholesky reduction per link.  These are the
  earlier library implementations, kept as oracles for the stacked blocks
  of ``isscert.lmi.check_blocks`` and the staged ``synthesize``; the
  Lyapunov solver and the reduction are the library's own, so that the
  oracle checks the stacking, and ``test_lmi.TestGramAccuracy`` checks
  both against SciPy.  The jump-factor loop visits each mode's successors in
  sorted order and inflates Q_q once, by the largest top eigenvalue over
  them, as the library now does (the earlier loop inflated once per
  successor in the iteration order of a frozenset).
* The linear dwell condition against its worst case:
  ``periodic_dwell_bound`` runs the scalar comparison system of linear
  rates (w = ln V moves at rate eta_p in mode p and jumps by ln mu_q out of
  q) on a periodic signal at the dwell boundary, exactly, as a sum of
  eta d and ln mu terms, and gives the bound that
  ``isscert.certify.linear_dwell_conditions`` claims for every signal that
  fits the dwell constants; ``periodic_cases`` draws the rates, jump
  factors, dwell data and signals.
* The decreasing-certificate test on a grid: ``decreasing_on_grid`` samples
  psi(s) <= s at 64 levels, the earlier library implementation kept as the
  oracle of the closed form of
  ``isscert.certify.check_decreasing_certificate``.
* The tolerance rule for one pair of numbers: ``exceeds_scalar`` is what the
  per-sample oracles above decide by, written apart from
  ``isscert.tolerance.exceeds`` and sharing only its ``REL_TOL``.
"""

import bisect
import json
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from isscert.bounds import iss_check
from isscert.certify import FORMS, linear_dwell_conditions
from isscert.cli import _monte_carlo_runs
from isscert.errors import DegenerateGammaError, DomainError, NonFiniteError, OutOfImageError
from isscert.lmi import (
    Infeasible,
    QuadraticCertificate,
    _lyapunov_gram,
    is_negative_semidefinite,
)
from isscert.simulate import (
    FINITE_LIMIT,
    Segment,
    Trajectory,
    _doubling_powers,
    _in_range,
    _step_map,
    constant_input,
    simulate,
    simulate_batch,
    sinusoid_input,
    step_input,
    zero_input,
)
from isscert import switching
from isscert.switching import ModePartition, SwitchingSignal, active_time
from isscert.tolerance import REL_TOL


def exceeds_scalar(lhs: float, rhs: float) -> bool:
    """The checks' tolerance rule for one pair of numbers, written apart
    from ``isscert.tolerance.exceeds``: lhs > rhs + REL_TOL |rhs|, exact
    where rhs is infinite; NaN never exceeds."""
    return lhs > (rhs + REL_TOL * abs(rhs) if math.isfinite(rhs) else rhs)


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


def scalar_beta(cert, dwell, lower, upper, gains=None):
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
        out = cf_inverse(cert.alpha1, beta_tilde(cert.alpha2(r), s))
        if gains is not None and s <= patch_window:
            out = max(out, gains[0] * r)
        return out

    return beta_tilde, beta


def iss_rows(bound, traj, x0, input):
    """(reports, max_margin) of ``iss_check`` by one ``beta`` call per row."""
    r0 = float(np.linalg.norm(np.atleast_1d(np.asarray(x0, dtype=float))))
    t0 = traj.t0
    g = bound.gamma(input.sup_norm)
    out = []
    max_margin = -math.inf
    times, states, modes, _ = traj.samples
    for t, mode, x in zip(times.tolist(), modes.tolist(), states):
        rhs = bound.beta(r0, t - t0) + g
        lhs = float(np.linalg.norm(x))
        max_margin = max(max_margin, lhs - rhs)
        if exceeds_scalar(lhs, rhs):
            out.append(_row("iss", t, mode, lhs, rhs))
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


def _segment_values(cert, traj):
    """Per segment, V of its mode at each sample."""
    return [[float(cert.V[seg.mode](t, x)) for t, x in zip(seg.times.tolist(), seg.states)]
            for seg in traj.segments]


def _row(kind, time, mode, lhs, rhs):
    """One report as (kind, time, mode, lhs, rhs, margin), the earlier
    library's one object per failed inequality, as ``Reports.rows`` gives it."""
    return kind, float(time), str(mode), float(lhs), float(rhs), float(lhs - rhs)


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
            out.append(_row("flow", ts[i], mode, slope, rhs))
    return out


def _jump_report(time, mode, pre, post, threshold, bound, cap):
    """The jump rule at a jump out of ``mode``: post <= bound(mode, pre) where
    pre >= threshold, post <= cap below it, as ``exceeds_scalar`` decides."""
    kind, rhs = ("jump", bound(mode, pre)) if pre >= threshold else ("small-input-jump", cap)
    return [_row(kind, time, mode, post, rhs)] if exceeds_scalar(post, rhs) else []


def trajectory_reports(cert, traj, input, form, dini_coeff):
    """``certify.check_trajectory``: sandwich, flow and jump reports, in that
    order, by a loop over the segments and their samples."""
    if form not in FORMS:
        raise ValueError(f"unknown certificate form {form!r}; choose one of {FORMS}")
    chi = cert.chi(input.sup_norm)
    threshold, cap, slack = ((chi, cert.alpha3(input.sup_norm), -0.0)
                             if form == "implication" else (-math.inf, math.inf, chi))
    allowed = lambda p, v: cert.phi[p](v) + slack  # noqa: E731
    bound = lambda p, v: cert.psi[p](v) + slack  # noqa: E731
    values = _segment_values(cert, traj)
    sandwich, flows, jumps = [], [], []
    for k, (seg, vs) in enumerate(zip(traj.segments, values)):
        ts = seg.times.tolist()
        for t, x, v in zip(ts, seg.states, vs):
            nx = float(np.linalg.norm(x))
            lo, hi = cert.alpha1(nx), cert.alpha2(nx)
            if exceeds_scalar(lo, v):
                sandwich.append(_row("sandwich", t, seg.mode, lo, v))
            if exceeds_scalar(v, hi):
                sandwich.append(_row("sandwich", t, seg.mode, v, hi))
        flows += _flow_reports(seg.mode, ts, vs, allowed, threshold, dini_coeff)
        if k:
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


def write_csv_per_cell(path, header, columns):
    """``jsonio.write_csv`` with one format call per cell, a row at a time."""
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else f"{float(c):.17g}" for c in row)
              for row in zip(*columns)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_csv_template(path, header, columns):
    """A CSV file of the column names in ``header`` and one line per entry of
    the equally long ``columns``, all through one template that each
    column's dtype picks: ``%s`` for strings, ``%.17g`` else."""
    columns = [np.asarray(c) for c in columns]
    template = ",".join("%s" if c.dtype.kind in "US" else "%.17g" for c in columns)
    lines = [",".join(header)]
    lines += [template % row for row in zip(*(c.tolist() for c in columns))]
    Path(path).write_text("\n".join(lines) + "\n")


def finite_floats(obj):
    """``obj`` with every float that is not finite replaced by its ``'%.17g'``
    text and every array by its ``tolist()``."""
    if isinstance(obj, np.ndarray):
        return finite_floats(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return "%.17g" % obj
    if isinstance(obj, dict):
        return {k: finite_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [finite_floats(v) for v in obj]
    return obj


def json_dumps(obj) -> str:
    """The text of the earlier ``jsonio.write_json``, without its newline."""
    return json.dumps(finite_floats(obj), indent=2, sort_keys=True)


def write_json_dumps(path, obj):
    """The earlier ``jsonio.write_json``: ``json_dumps`` and a newline."""
    Path(path).write_text(json_dumps(obj) + "\n")


def _unit_vector(rng, m: int) -> np.ndarray:
    """A random direction in R^m from the NumPy generator ``rng``: a
    standard normal draw, normalised (the first basis vector if the draw is
    zero)."""
    v = rng.standard_normal(m)
    nv = np.linalg.norm(v)
    return v / nv if nv > 0 else np.eye(m)[0]


def _sample_inputs(D, m, horizon_mid, rng):
    """Cheap family of bounded inputs: constants, sinusoids, one-switch steps."""
    if D == 0.0:
        return [zero_input(m)]
    out = []
    out.append(constant_input(D * _unit_vector(rng, m)))
    out.append(sinusoid_input(D * _unit_vector(rng, m), omega=rng.uniform(0.5, 5.0),
                              phase=rng.uniform(0, 2 * math.pi)))
    out.append(step_input(D * _unit_vector(rng, m),
                          D * _unit_vector(rng, m) * rng.uniform(-1, 1), horizon_mid))
    return out


def _restrict(sig, tau):
    """``sig`` cut at t0 + tau, the instants up to the new horizon kept."""
    end = min(sig.horizon, sig.t0 + tau)
    instants = tuple(t for t in sig.instants if t <= end)
    modes = sig.modes[: len(instants) + 1]
    return SwitchingSignal(sig.t0, instants, modes, end)


def reachability_runs(model, sig, C, D, tau, samples, step=1e-2, seed=0):
    """(x0s, inputs, trajectories) of ``samples`` starts in the C-ball, each
    under every input of `_sample_inputs`, simulated as one batch on ``sig``
    cut at t0 + tau."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    sub = _restrict(sig, tau)
    mid = sub.t0 + (sub.horizon - sub.t0) / 2
    x0s, inputs = [], []
    for _ in range(samples):
        x0 = _unit_vector(rng, model.state_dim) * C * rng.uniform(0, 1) ** (
            1 / max(1, model.state_dim))
        for inp in _sample_inputs(D, model.input_dim, mid, rng):
            x0s.append(x0)
            inputs.append(inp)
    return x0s, inputs, simulate_batch(model, sub, x0s, inputs, step)


def reachability_bound(model, sig, C, D, tau, samples, step=1e-2, seed=0):
    """Monte-Carlo lower estimate of the reachable-state norm on [t0, t0 +
    tau]: the largest sup norm of `reachability_runs`.  An estimate, not a
    certificate."""
    if C == 0.0 and D == 0.0:
        return 0.0
    _, _, trajs = reachability_runs(model, sig, C, D, tau, samples, step, seed)
    return max(traj.sup_norm() for traj in trajs)


def monte_carlo_per_run(model, sig, bound, runs, x0_range, u_bound, step, seed):
    """The Monte-Carlo ISS check of ``cmd_bound`` on the runs it draws, each
    run simulated alone and checked before the next: (violations, max
    margin)."""
    total_violations = 0
    max_margin = -np.inf
    for run_x0, run_inp in zip(*_monte_carlo_runs(model.dims, runs, x0_range, u_bound, seed)):
        traj = simulate(model, sig, run_x0, run_inp, step)
        reports, margin = iss_check(bound, traj, run_x0, run_inp)
        total_violations += len(reports)
        max_margin = max(max_margin, margin)
    return total_violations, max_margin


def linear_flow_stepwise(step_map, times, xs, inputs, dtype=np.float64):
    """A linear flow segment one step at a time in ``dtype``: the step
    map and every run's forcing are converted to it and X+ = P X + F_i runs
    as one ``np.dot`` per step over the (n, R) matrix of the runs' states.
    Returns the (R, len(times), n) states."""
    P, G0, Gm, G1 = (np.asarray(g, dtype=dtype) for g in step_map)
    mid = times[:-1] + np.diff(times) / 2
    states = np.empty((len(times), P.shape[0], len(xs)), dtype=dtype)
    forcing = np.empty((len(times) - 1, *states.shape[1:]), dtype=dtype)
    for j, (x, inp) in enumerate(zip(xs, inputs)):
        states[0, :, j] = x
        u = inp.sample(times).astype(dtype)
        forcing[:, :, j] = u[:-1] @ G0.T + inp.sample(mid).astype(dtype) @ Gm.T + u[1:] @ G1.T
    X = states[0]
    for i, f in enumerate(forcing, start=1):
        X = np.dot(P, X) + f
        states[i] = X
    return np.moveaxis(states, 2, 0)



def _grid_per_segment(t_start, t_end, step):
    n_steps = max(1, math.ceil((t_end - t_start) / step - 1e-12))
    h = (t_end - t_start) / n_steps
    times = np.arange(n_steps + 1.0) * h + t_start
    times[-1] = t_end
    return times, h


def _linear_flow_per_segment(step_map, powers, times, xs, inputs):
    """One segment of every run: X_{i+1} = P X_i + F_i with P X_0 folded
    into F_0, as a chunked doubling prefix scan over the (R, N + 1, n)
    states."""
    P, G0, Gm, G1 = step_map
    n_steps = len(times) - 1
    u_at = np.concatenate([times, times[:-1] + (times[1:] - times[:-1]) / 2])
    states = np.empty((len(xs), n_steps + 1, P.shape[0]))
    for j, (x, inp) in enumerate(zip(xs, inputs)):
        u = inp.sample(u_at)
        states[j, 0] = x
        states[j, 1:] = u[:n_steps] @ G0.T + u[n_steps + 1:] @ Gm.T + u[1:n_steps + 1] @ G1.T
    powers = _doubling_powers(powers, n_steps)
    span = 2 ** len(powers)
    for a in range(0, n_steps, span):
        Y = states[:, a + 1:a + 1 + span]
        Y[:, :1] += states[:, a:a + 1] @ P.T
        for k, Pk in enumerate(powers[:(Y.shape[1] - 1).bit_length()]):
            Y[:, 1 << k:] += Y[:, :-(1 << k)] @ Pk.T
    return states


def simulate_per_segment(model, sig, x0s, inputs, step):
    """``simulate_batch`` of a ``LinearSystemModel`` one segment at a time:
    per segment, one input ``sample`` call and one prefix scan for every
    run, then one jump per run.  Raises the NonFiniteError of the first
    failing run in run order."""
    xs = [np.atleast_1d(np.asarray(x0, dtype=float)) for x0 in x0s]
    segments = [[] for _ in xs]
    failed = {}
    runs = list(range(len(xs)))
    step_maps = {}
    for k, (a, b, mode) in enumerate(sig.segments()):
        if b > a:
            times, h = _grid_per_segment(a, b, step)
            if (mode, h) not in step_maps:
                step_map = _step_map(model.A[mode], model.B[mode], h)
                step_maps[mode, h] = step_map, [step_map[0]]
            with np.errstate(over="ignore", invalid="ignore"):
                states = _linear_flow_per_segment(*step_maps[mode, h], times, xs,
                                                  [inputs[r] for r in runs])
                bad = ~_in_range(states[:, 1:])
            ends = [int(np.argmax(run)) + 2 if run.any() else len(times) for run in bad]
            flows = [(times[:e], run[:e], not b.any()) for run, e, b in zip(states, ends, bad)]
        else:
            flows = [(np.array([a]), x[None, :].copy(), True) for x in xs]
        going, xs = [], []
        for r, (times, states, ok) in zip(runs, flows):
            segments[r].append(Segment(mode, times, states))
            x, error = states[-1], None
            if not ok:
                error = f"state norm exceeded {FINITE_LIMIT:.0e} at t={times[-1]}"
            elif k < len(sig.modes) - 1:
                t_i = sig.instants[k]
                with np.errstate(over="ignore", invalid="ignore"):
                    x = model.J[mode] @ x + model.H[mode] @ inputs[r](t_i - step / 2)
                    jumped = _in_range(x)
                if not jumped:
                    error = f"jump at t={t_i} produced non-finite state"
            if error is None:
                going.append(r)
                xs.append(x)
            else:
                failed[r] = NonFiniteError(
                    error, partial=Trajectory(tuple(segments[r]), inputs[r], step))
        runs = going
        if failed and (not runs or min(failed) < runs[0]):
            break
    if failed:
        raise failed[min(failed)]
    return [Trajectory(tuple(segs), inp, step) for segs, inp in zip(segments, inputs)]


def flow_block(model, qc, p):
    A, B = model.A[p], model.B[p]
    M, Q, eta = qc.M[p], qc.Q[p], qc.eta[p]
    top_left = A.T @ M + M @ A - eta * M
    top_right = M @ B
    return np.block([[top_left, top_right], [top_right.T, -Q]])


def jump_block(model, qc, pair):
    p, q = pair
    J, H = model.J[q], model.H[q]
    Mp, Mq, Qq, mu = qc.M[p], qc.M[q], qc.Q[q], qc.mu[q]
    top_left = J.T @ Mp @ J - mu * Mq
    top_right = J.T @ Mp @ H
    bottom_right = H.T @ Mp @ H - Qq
    return np.block([[top_left, top_right], [top_right.T, bottom_right]])


def block_verdicts(model, qc, pairs):
    """(flow, jump) as ``check_blocks`` returns them, one block at a time."""
    return ({p: is_negative_semidefinite(flow_block(model, qc, p)) for p in sorted(model.A)},
            {pair: is_negative_semidefinite(jump_block(model, qc, pair))
             for pair in sorted(pairs)})


def synthesize_per_mode(model, partition, q_set, dwell):
    from scipy.linalg import eigh

    def lyapunov_gram(A_shifted):
        return _lyapunov_gram(A_shifted[None])[0]  # a stack of one

    def schur_q(M, B, R):
        S = M @ B
        bound = S.T @ np.linalg.solve(-R, S)
        level = max(0.0, float(eigh(bound, eigvals_only=True)[-1]))
        return (level + 1e-6) * np.eye(m)

    modes = sorted(model.A)
    n, m = model.dims
    M, Q, eta = {}, {}, {}
    for p in modes:
        A = model.A[p]
        if p in partition.stable:
            abscissa = float(np.max(np.real(np.linalg.eigvals(A))))
            if abscissa >= 0:
                return Infeasible(f"mode {p} declared stable but not Hurwitz",
                                  {"mode": p, "spectral_abscissa": abscissa})
            M[p] = lyapunov_gram(A)
            sym_top = float(eigh((A + A.T) / 2, eigvals_only=True)[-1])
            edge = -(1 - 1e-9) / float(eigh(M[p], eigvals_only=True)[-1])
            lo = min(2 * sym_top, -1e-6)
            eta_p = lo if lo >= edge else 0.99 * edge
            eta[p] = eta_p
            R = -np.eye(n) - eta_p * M[p]
        else:
            abscissa = float(np.max(np.real(np.linalg.eigvals(A))))
            eta_p = max(0.0, 2 * abscissa + 1.0)
            M[p] = lyapunov_gram(A - (eta_p / 2) * np.eye(n))
            eta[p] = eta_p
            R = -np.eye(n)
        condition = float(np.linalg.cond(M[p]))
        if condition > 1e12:
            return Infeasible(f"ill-conditioned Lyapunov solution for mode {p}",
                              {"mode": p, "condition": condition})
        Q[p] = schur_q(M[p], model.B[p], R)

    mu = {}
    for q in modes:
        successors = sorted(p for (p, old) in q_set.pairs if old == q) or [q]
        J, H = model.J[q], model.H[q]
        raise_q = max(float(eigh(H.T @ M[p] @ H - Q[q], eigvals_only=True)[-1])
                      for p in successors)
        if raise_q >= 0:
            Q[q] = Q[q] + (raise_q + 1e-6) * np.eye(m)
        best = 0.0
        for p in successors:
            bottom = H.T @ M[p] @ H - Q[q]
            S = J.T @ M[p] @ J - (J.T @ M[p] @ H) @ np.linalg.solve(bottom, H.T @ M[p] @ J)
            S = (S + S.T) / 2
            # The Cholesky reduction M_q = LL' of the pencil (S, M_q).
            Li = np.linalg.inv(np.linalg.cholesky(M[q]))
            best = max(best, float(np.linalg.eigvalsh(Li @ S @ Li.T)[-1]))
        mu[q] = max(best, 1e-12)

    qc = QuadraticCertificate(M, Q, eta, mu)
    flow, jump = block_verdicts(model, qc, q_set.pairs)
    for p, (ok, top) in flow.items():
        if not ok:
            return Infeasible("flow block infeasible", {"mode": p, "max_eig": top})
    for pair, (ok, top) in jump.items():
        if not ok:
            return Infeasible("jump block infeasible", {"pair": pair, "max_eig": top})
    left = dict.fromkeys(sorted({q for _, q in q_set.pairs}), math.nan)
    reports = linear_dwell_conditions(qc.eta, qc.mu, partition, dwell.tau, dwell.delta, left)
    if reports:
        kind, _, where, lhs, rhs, _ = reports.rows()[0]
        return Infeasible("rate condition infeasible",
                          {"kind": kind, "where": where, "lhs": lhs, "rhs": rhs})
    return qc


def _dwell_edges(eta, stable, tau, delta):
    """(eta_S, eta_U, c): the smallest |eta| over the stable modes, the
    largest eta over the unstable ones, and each mode's largest ln mu
    under the linear dwell condition."""
    eta_s = min((-eta[p] for p in eta if stable[p]), default=0.0)
    eta_u = max((eta[p] for p in eta if not stable[p]), default=0.0)
    return eta_s, eta_u, {p: eta_s * tau[p] * (1 - delta) if stable[p]
                          else -eta_u * tau[p] * (1 + delta) for p in eta}


@st.composite
def periodic_cases(draw):
    """Two or three modes, each stable (eta in [-5, -0.05]) or unstable (eta
    in [0, 5]), with tau in [0.01, 1], delta in [0.05, 0.95] and ln mu_q from
    1 below to 1 above the largest value c_q the linear dwell condition
    allows, in units of max(eta_S, eta_U, 0.05) tau_q.  The signal visits
    every mode once a cycle, for 1 to 40 cycles.  A cycle gives each class
    the sum of its tau, stretched (stable) or shrunk (unstable) by up to
    90 %, which is the dwell boundary at a stretch of 0, and shares it out
    among the class's modes in drawn proportions, so that one mode may
    spend another's dwell budget."""
    modes = [f"m{i}" for i in range(draw(st.integers(2, 3)))]
    stable = {p: draw(st.booleans()) for p in modes}
    eta = {p: -draw(st.floats(0.05, 5.0)) if stable[p] else draw(st.floats(0.0, 5.0))
           for p in modes}
    tau = {p: draw(st.floats(0.01, 1.0)) for p in modes}
    delta = draw(st.floats(0.05, 0.95))
    eta_s, eta_u, c = _dwell_edges(eta, stable, tau, delta)
    unit = max(eta_s, eta_u, 0.05)
    # Half the draws sit on the far side of c_q or of the dwell boundary.
    excess = st.floats(0.0, 1.0) | st.floats(-1.0, 0.0)
    stretch = st.just(0.0) | st.floats(0.0, 0.9)
    return {"eta": eta,
            "log_mu": {p: c[p] + draw(excess) * unit * tau[p] for p in modes},
            "tau": tau, "share": {p: draw(st.floats(0.05, 1.0)) for p in modes},
            "stretch": {"stable": draw(stretch), "unstable": draw(stretch)},
            "stable": stable, "delta": delta, "cycles": draw(st.integers(1, 40))}


def periodic_dwell_bound(case):
    """(signal, partition, w, bound) of a ``periodic_cases`` case.  w[k] is
    ln V(t-) - ln V(t0) of the scalar comparison system at the end t of the
    k-th visit, before its jump.  bound[k] is the linear dwell condition's
    bound on the window [t0, t): eta_S (1 - delta) T_S + eta_U (1 + delta)
    T_U - delta (eta_S T_stab + eta_U T_unst) + c_sigma(t0) - c_sigma(t-),
    with T_S and T_U the signal's dwell and leave slack."""
    eta, stable, tau, delta = case["eta"], case["stable"], case["tau"], case["delta"]
    dwell = {}
    for kind, members in (("stable", [p for p in eta if stable[p]]),
                          ("unstable", [p for p in eta if not stable[p]])):
        stretch = case["stretch"][kind] if kind == "stable" else -case["stretch"][kind]
        budget = sum(tau[p] for p in members) * (1 + stretch)
        weight = sum(case["share"][p] for p in members)
        dwell.update({p: budget * case["share"][p] / weight for p in members})
    modes = list(eta) * case["cycles"]
    dwells = [dwell[p] for p in modes]
    ends = np.cumsum(dwells)
    sig = SwitchingSignal(0.0, tuple(ends[:-1]), tuple(modes), float(ends[-1]))
    part = ModePartition(frozenset(p for p in eta if stable[p]),
                         frozenset(p for p in eta if not stable[p]))
    eta_s, eta_u, c = _dwell_edges(eta, stable, tau, delta)
    # The library's O(K) slack suprema; the enumerations above are their oracles.
    constant = (eta_s * (1 - delta) * switching.mdadt_slack(sig, part, tau)
                + eta_u * (1 + delta) * switching.mdalt_slack(sig, part, tau))
    w, bound, level, t_stab, t_unst = [], [], 0.0, 0.0, 0.0
    for k, (p, d) in enumerate(zip(modes, dwells)):
        if k:
            level += case["log_mu"][modes[k - 1]]
        level += eta[p] * d
        t_stab, t_unst = (t_stab + d, t_unst) if stable[p] else (t_stab, t_unst + d)
        w.append(level)
        bound.append(constant - delta * (eta_s * t_stab + eta_u * t_unst) + c[modes[0]] - c[p])
    return sig, part, np.array(w), np.array(bound)


def decreasing_on_grid(cert) -> bool:
    """``isscert.certify.check_decreasing_certificate`` as it was sampled:
    every flow rate negative at s = 1 and every jump rate non-expansive,
    |psi(s)| <= s, at 64 log-spaced levels in [1e-6, 1e6], one level at a
    time.  A necessary condition of the closed form, which decides all of
    (0, inf)."""
    if any(rate(1.0) > 0 for rate in cert.phi.values()):
        return False
    return not any(exceeds_scalar(rate.magnitude(s), s)
                   for rate in cert.psi.values() for s in np.logspace(-6, 6, 64).tolist())
