"""Tilting a non-decreasing Lyapunov certificate into a decreasing one.

The correction function h accumulates the dwell-budget credit/debit of the
switching history; composing it with the per-mode transforms produces a
function W that decreases along flows at rate min{delta, 1}|phi| and never
increases across jumps, provided the signal honors its dwell spec; W is
checked with the flow and jump rules of ``certify``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .certify import (
    DEFAULT_A_GRID,
    DEFAULT_DINI_COEFF,
    Certificate,
    Reports,
    _by_mode,
    _flow_reports,
    _jump_reports,
    _values,
    check_dwell_conditions,
    dwell_slack_verdict,
)
from .errors import DwellPreconditionError, ImageNotFullError
from .rates import _result
from .simulate import InputSignal, Trajectory
from .switching import DwellBudget, DwellSpec, ModePartition, SwitchingSignal


class CorrectionLedger:
    """The correction h of one signal and dwell spec, answered in O(log K)
    per time after an O(K) build.

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
        self.k_max = np.maximum.accumulate(-self.w_stable * self.stable.left
                                           + self.w_unstable * self.unstable.right)

    def h(self, t, side: str = "right"):
        """h(t), or the left limit h(t-) for ``side="left"``, which excludes an
        activation at t itself (and its anchor); elementwise in t."""
        self.sig._check_range(np.min(t, initial=self.sig.horizon))
        self.sig._check_range(np.max(t, initial=self.sig.t0))
        # The last anchor at or before t (before t for the left limit); at
        # h(t0-) there is none, and the only window, [t0, t0), is empty.
        i = np.searchsorted(self.stable.times, t, side=side) - 1
        rest = (-self.w_stable * self.stable.at(t, side)
                + self.w_unstable * self.unstable.at(t, side)) - self.k_max[i]
        return _result(np.where((rest < 0.0) & (i >= 0), rest, 0.0))


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

    def h(self, t, side: str = "right"):
        return self.ledger.h(t, side)

    def compose(self, v, mode_now: str, mode_prev: str, h_value):
        """Phi_inverse of the previous mode applied to Phi(v) + h, and 0 where
        v <= 0; elementwise in v and h."""
        v, h_value = np.broadcast_arrays(np.asarray(v, dtype=float), h_value)
        zero = v <= 0.0
        w = np.zeros(v.shape)
        w[~zero] = self.transforms[mode_prev].inverse(
            self.transforms[mode_now].value(v[~zero]) + h_value[~zero])
        return _result(w)

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
    a_grid: Sequence[float] = DEFAULT_A_GRID,
) -> DecreasingCertificate:
    """Assemble the decreasing certificate, enforcing the preconditions.

    Requires every mode's transform to have image all of R (raises
    ImageNotFullError otherwise), the dwell conditions of
    ``check_dwell_conditions`` to hold (sampled on ``a_grid`` unless every
    rate is linear), and the signal's dwell/leave slack to fit within the
    declared constants (raises DwellPreconditionError otherwise).
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
    reports = check_dwell_conditions(cert, sig, a_grid)
    reports = reports[reports.kind != "dwell-inconclusive"]
    if reports:
        raise DwellPreconditionError(
            f"{len(reports)} dwell condition(s) fail; first: "
            "{} at t={} out of mode {}: {} > {}".format(*reports.rows()[0]))
    slack_s, slack_u, fits_s, fits_u = dwell_slack_verdict(cert, sig)
    if not fits_s:
        raise DwellPreconditionError(
            f"signal dwell slack {slack_s} exceeds declared T_S={cert.dwell.T_S}")
    if not fits_u:
        raise DwellPreconditionError(
            f"signal leave slack {slack_u} exceeds declared T_U={cert.dwell.T_U}")
    return dec


def decrease_check(
    dec: DecreasingCertificate,
    traj: Trajectory,
    input: InputSignal,
    dini_coeff: float = DEFAULT_DINI_COEFF,
) -> tuple[Reports, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Monotonicity reports for W along a trajectory and its (t, V, W, h)
    columns.

    V is evaluated once per mode over ``Trajectory.samples``, h as the right
    limits there and the left limits h(t_i-) at the last sample before each
    switching instant t_i; the post-jump sample composes with the previous mode.

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
    times, _, modes, starts = traj.samples
    values = _values(cert, traj)
    pre, post = starts[1:] - 1, starts[1:]
    hs = dec.h(times)
    hs[pre] = dec.h(times[pre], side="left")
    # Same-mode composition throughout: on the open flow interval the
    # previous mode equals the active one, and the right limit at the
    # segment start extends the flow inequality to the first difference.
    ws = _by_mode(lambda p, v, h: dec.compose(v, p, p, h), modes, values, hs)
    # The post-jump W composes with the previous mode.
    w_post = np.empty(len(post))
    now, prev = modes[post], modes[pre]
    for p, q in dict.fromkeys(zip(now.tolist(), prev.tolist())):
        at = (now == p) & (prev == q)
        w_post[at] = dec.compose(values[post][at], p, q, hs[post][at])
    reports = Reports.concat((
        _flow_reports(traj, ws, decay, threshold, dini_coeff),
        _jump_reports(traj, ws[pre], w_post, threshold, lambda p, w: w, cap)))
    ws[post] = w_post
    return reports, (times, values, ws, hs)
