"""Tilting a non-decreasing Lyapunov certificate into a decreasing one.

The correction function h accumulates the dwell-budget credit/debit of the
switching history; composing it with the per-mode transforms produces a
function W that decreases along flows at rate min{delta, 1}|phi| and never
increases across jumps, provided the signal honors its dwell spec; W is
checked with the flow and jump rules of ``certify``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from .certify import (
    DEFAULT_DINI_COEFF,
    Certificate,
    ViolationReport,
    _flow_reports,
    _jump_report,
    _segment_values,
    check_dwell_conditions,
    dwell_slack_verdict,
)
from .errors import ImageNotFullError
from .simulate import InputSignal, Trajectory
from .switching import DwellBudget, DwellSpec, ModePartition, SwitchingSignal


class CorrectionLedger:
    """The correction h of one signal and dwell spec, answered per query in
    O(log K) after an O(K) build.

    With the cumulative dwell budgets G_S and G_U of the stable and unstable
    classes, the balance of the window from anchor t_j to t is L(t) - K(t_j),

        L(t)   = -(1 - delta) G_S(t)    + (1 + delta) G_U(t),
        K(t_j) = -(1 - delta) G_S(t_j-) + (1 + delta) G_U(t_j),

    (the stable count includes an activation at the anchor, the unstable
    one does not), so h(t) = min(0, L(t) - max over anchors t_j <= t of
    K(t_j)), read off a prefix maximum of K.
    """

    def __init__(self, sig: SwitchingSignal, partition: ModePartition, dwell: DwellSpec):
        self.sig = sig
        self.w_stable = 1 - dwell.delta
        self.w_unstable = 1 + dwell.delta
        self.stable = DwellBudget(sig, partition.stable, dwell.tau)
        self.unstable = DwellBudget(sig, partition.unstable, dwell.tau)
        anchors = (-self.w_stable * s + self.w_unstable * u
                   for s, u in zip(self.stable.left, self.unstable.right))
        self.k_max = list(accumulate(anchors, max))

    def h(self, t: float, side: str = "right") -> float:
        """h(t), or the left limit h(t-) for ``side="left"``, which excludes an
        activation at t itself (and its anchor)."""
        self.sig._check_range(t)
        times = self.stable.times
        i = bisect_right(times, t) - 1
        if side == "left" and times[i] == t:
            if i == 0:
                return 0.0  # the only window, [t0, t0), is empty
            i -= 1
        value = (-self.w_stable * self.stable.at(t, side)
                 + self.w_unstable * self.unstable.at(t, side))
        return min(0.0, value - self.k_max[i])


@dataclass(frozen=True)
class DecreasingCertificate:
    """W(t,x) built from a base certificate, a signal, and the correction."""

    cert: Certificate
    sig: SwitchingSignal
    transforms: dict = field(init=False, repr=False, compare=False)
    ledger: CorrectionLedger = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "transforms", self.cert.transforms())
        object.__setattr__(self, "ledger",
                           CorrectionLedger(self.sig, self.cert.partition, self.cert.dwell))

    def h(self, t: float, side: str = "right") -> float:
        return self.ledger.h(t, side)

    def compose(self, v: float, mode_now: str, mode_prev: str, h_value: float) -> float:
        """Phi_inverse of the previous mode applied to Phi(v) + h."""
        if v <= 0.0:
            return 0.0
        inner = self.transforms[mode_now].value(v) + h_value
        return self.transforms[mode_prev].inverse(inner)

    def w(self, t: float, x) -> float:
        """The constructed function at (t, x); sigma(t0-) := sigma(t0)."""
        mode_now = self.sig.mode_at(t)
        mode_prev = self.sig.mode_before(t)
        v = float(self.cert.V[mode_now](t, np.atleast_1d(np.asarray(x, dtype=float))))
        return self.compose(v, mode_now, mode_prev, self.h(t))

    def h_bound(self) -> float:
        """Lower end of the proven correction range."""
        d = self.cert.dwell
        return -d.T_S * (1 - d.delta) - d.T_U * (1 + d.delta)


def build_decreasing(
    cert: Certificate,
    sig: SwitchingSignal,
    a_grid: Sequence[float] = (1.0,),
) -> DecreasingCertificate:
    """Assemble the decreasing certificate, enforcing the preconditions.

    Requires every mode's transform to have image all of R (raises
    ImageNotFull otherwise), the dwell conditions to hold on ``a_grid``, and
    the signal's dwell/leave slack to fit within the declared constants.
    Values below a transform's attained image are errors here; the
    clamp-to-zero convention belongs to decay-bound assembly only.
    """
    dec = DecreasingCertificate(cert, sig)
    for p, tr in dec.transforms.items():
        if not tr.image_is_full():
            raise ImageNotFullError(
                f"transform of mode {p} does not cover R "
                f"(image [{tr.image_inf()}, {tr.image_sup()}])"
            )
    reports = [r for r in check_dwell_conditions(cert, sig, list(a_grid))
               if r.kind != "dwell-inconclusive"]
    if reports:
        raise ValueError(
            f"dwell conditions fail at {len(reports)} grid point(s); "
            f"first: {reports[0]}"
        )
    slack_s, slack_u, fits_s, fits_u = dwell_slack_verdict(cert, sig)
    if not fits_s:
        raise ValueError(
            f"signal dwell slack {slack_s} exceeds declared T_S={cert.dwell.T_S}")
    if not fits_u:
        raise ValueError(
            f"signal leave slack {slack_u} exceeds declared T_U={cert.dwell.T_U}")
    return dec


def decrease_check(
    dec: DecreasingCertificate,
    traj: Trajectory,
    input: InputSignal,
    dini_coeff: float = DEFAULT_DINI_COEFF,
) -> tuple[list[ViolationReport], list[tuple[float, float, float, float]]]:
    """Monotonicity reports for W along a trajectory and its (t, V, W, h) rows.

    One pass evaluates h, V and W once per sample, in ``Trajectory.rows()``
    order.  The last sample before a switching instant t_i takes the left
    limit h(t_i-); the post-jump sample composes with the previous mode.

    Above the threshold chi(||u||inf): the forward-difference slope of W on
    each flow interval must not exceed -min{delta,1}|phi|(W), and W must not
    increase across any jump.  Below the threshold, post-jump W is checked
    against max{alpha3, chi}(||u||inf).
    """
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
        # Same-mode composition throughout: on the open flow interval the
        # previous mode equals the active one, and the right limit at the
        # segment start extends the flow inequality to the first difference.
        ws = [dec.compose(v, seg.mode, seg.mode, h) for v, h in zip(vs, hs)]
        flows += _flow_reports(seg.mode, ts, ws, decay, threshold, dini_coeff)
        if k:
            # The post-jump W composes with the previous mode; w_pre ended its segment.
            mode_prev = traj.segments[k - 1].mode
            w_post = dec.compose(vs[0], seg.mode, mode_prev, hs[0])
            jumps += _jump_report(ts[0], mode_prev, w_pre, w_post, threshold, lambda p, w: w, cap)
        rows += zip(ts, vs, [w_post, *ws[1:]] if k else ws, hs)
        w_pre = ws[-1]
    return flows + jumps, rows


def certify_decrease(
    dec: DecreasingCertificate,
    traj: Trajectory,
    input: InputSignal,
    dini_coeff: float = DEFAULT_DINI_COEFF,
) -> list[ViolationReport]:
    """Monotonicity checks for the constructed function along a trajectory;
    the reports of :func:`decrease_check`."""
    return decrease_check(dec, traj, input, dini_coeff)[0]
