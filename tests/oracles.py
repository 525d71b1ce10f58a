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
* The ISS bound per sample: ``beta_tilde``/``beta`` as scalar closures over
  the scalar transform and comparison inverses, and the ISS check as a
  loop over ``Trajectory.rows()`` with one ``beta`` call per sample.  These
  are the earlier library implementations, kept as oracles for the
  elementwise ``beta`` and the array ``iss_check`` in ``isscert.bounds``.
"""

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from isscert.bounds import ISS_REL_TOL
from isscert.certify import _report
from isscert.errors import DegenerateGammaError
from isscert.rates import PhiTransform
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
    tr_lo = PhiTransform(lower)
    tr_hi = PhiTransform(upper)
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
        return cert.alpha1.inverse(level)

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
