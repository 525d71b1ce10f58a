"""Explicit ISS decay/gain bound assembly and trajectory certification.

From a certificate's envelope rates and dwell constants this module builds
the transient bound beta(r, s) (decreasing in elapsed time, increasing in
the initial value) and the input gain gamma, then checks simulated
trajectories against ||x(t)|| <= beta(||x0||, t - t0) + gamma(||u||inf).

``beta``, ``beta_tilde``, ``gamma`` and ``decay_interpolant`` are
elementwise, with the initial level r broadcast against the elapsed time s:
a column of levels and a row of times give one row of bounds per level.
For C > 0, ``window_gains`` proves the patch a r + b d on the first C / delta
seconds from logarithmic norms (Dahlquist 1958; Soderlind, BIT 2006).  So the
check of R runs of N samples makes one ``gamma`` call for all R sup norms
and ceil(R / max(1, ISS_BLOCK_CELLS // N)) ``beta`` calls, each over a
block of runs as a (runs, N) array, with O(R N) element work in all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .certify import Certificate, Reports
from .errors import DegenerateGammaError, ImageNotFullError, StructuralError
from .rates import PhiTransform, RateFunction, _result
from .simulate import InputSignal, LinearSystemModel, Trajectory
from .switching import DwellSpec, SwitchingSignal
from .tolerance import exceeds

# The samples (runs x samples per run) of one block of the ISS check.  A
# block's beta call peaks at about four float arrays of this size (0.5 MB),
# below what simulate_batch has held for the same runs, and each call has a
# fixed cost of about 0.1 ms, which blocks of half the size pay twice as often.
ISS_BLOCK_CELLS = 1 << 14


def decay_interpolant(u, v, C: float, m: float):
    """Interpolation between u + C (at v=0) and the floor m as v grows,
    elementwise in u and v, broadcast against each other.

    Equals m + (u + C - m) * exp(-v / (u + C - m)) and always dominates
    u + C - v.  The gap u + C - m must be nonnegative; where it is 0 the
    value is the zero-gap limit u + C, which then equals m.
    """
    gap = np.asarray(u, dtype=float) + C - m
    if (gap < 0).any():
        raise DegenerateGammaError(f"negative gap u + C - m = {float(gap[gap < 0][0])}")
    # A zero gap divides by 1 instead, and its term gap * exp(...) is 0.
    return (m + gap * np.exp(-np.asarray(v) / np.where(gap == 0.0, 1.0, gap)))[()]


@dataclass(frozen=True)
class IssBound:
    """Assembled transient bound and input gain with their components.

    ``beta(r, s)`` and ``beta_tilde(r, s)`` are elementwise in the initial
    level r and the elapsed time s, broadcast against each other, and
    ``gamma(s)`` in the input bound s: arrays give an array, numbers give a
    float."""

    beta: Callable
    gamma: Callable
    C: float
    delta: float
    case: str  # "finite-m" | "infinite-m"
    m: float
    beta_tilde: Callable = None
    metadata: dict = field(default_factory=dict)


def build_bound(
    cert: Certificate,
    dwell: DwellSpec,
    lower: RateFunction,
    upper: RateFunction,
    gains: Optional[tuple[float, float]] = None,
) -> IssBound:
    """Assemble beta and gamma from envelope rates and dwell constants.

    ``gains``, when given, are the (a, b) of ``window_gains`` on the initial
    window s <= C / delta: beta(r, s) is lifted to at least a r there and
    gamma(d) to at least b d everywhere, so beta + gamma covers the patch
    a r + b d (the transient that the decay formula alone does not
    provide).  The gains depend on the signal from t0 on; the metadata
    records them.  With C > 0 beta lifts transform levels by C, so an
    envelope whose transform image is bounded above raises ImageNotFull.
    """
    delta = dwell.delta
    C = (1 - delta) * dwell.T_S + (1 + delta) * dwell.T_U
    tr_lo = PhiTransform(lower)
    tr_hi = PhiTransform(upper)
    if C > 0 and not tr_lo.image_sup() == tr_hi.image_sup() == math.inf:
        raise ImageNotFullError(
            f"envelope transform images are bounded above (sup {tr_lo.image_sup()}, "
            f"{tr_hi.image_sup()}), so beta cannot add C = {C}")
    m = tr_lo.image_inf()
    case = "finite-m" if m > -math.inf else "infinite-m"

    # The transform values are taken at the levels r alone (one per row when r
    # is a column); the rest is NumPy over r and s broadcast together.  Levels
    # r <= 0 are evaluated at 1 and masked to 0.
    def beta_tilde(r, s):
        r, s = np.asarray(r, dtype=float), np.asarray(s, dtype=float)
        zero = r <= 0.0
        r = np.where(zero, 1.0, r)
        if case == "finite-m":
            # Levels at or below an image's lower end clamp to 0: the
            # interpolant tends to m, the lower end of tr_lo's image.
            a = tr_lo.inverse(decay_interpolant(tr_lo.value(r), delta * s, C, m), below="zero")
            b = tr_hi.inverse(tr_hi.value(r) + C - delta * s, below="zero")
        else:
            a = tr_lo.inverse(tr_lo.value(r) + C - delta * s)
            b = tr_hi.inverse(tr_hi.value(r) + C - delta * s)
        return _result(np.where(zero, 0.0, np.maximum(a, b)))

    patch_window = C / delta

    def beta(r, s):
        out = cert.alpha1.inverse(beta_tilde(cert.alpha2(r), s))
        if gains is None:
            return out
        return _result(np.where(np.asarray(s) <= patch_window,
                                np.maximum(out, gains[0] * np.asarray(r, dtype=float)), out))

    def gamma(s):
        # Lyapunov levels: gamma2 = max(alpha3, chi), and gamma3 lifts it by
        # the transient of a start at the gamma2 level; gamma2 <= 0 gives 0.
        g2 = np.maximum(cert.alpha3(s), cert.chi(s))
        lifted = np.maximum(g2, cert.alpha2(beta(cert.alpha1.inverse(g2), 0.0)))
        out = np.where(g2 <= 0.0, 0.0, cert.alpha1.inverse(lifted))
        if gains is not None:
            out = np.maximum(out, gains[1] * np.asarray(s, dtype=float))
        return _result(out)

    return IssBound(
        beta=beta,
        gamma=gamma,
        C=C,
        delta=delta,
        case=case,
        m=m,
        beta_tilde=beta_tilde,
        metadata={
            "patched": gains is not None,
            "patch_window": patch_window,
            "patch": None if gains is None else {"a": gains[0], "b": gains[1],
                                                 "window": patch_window},
            "t0_independent": gains is None,
        },
    )


def window_gains(model: LinearSystemModel, sig: SwitchingSignal,
                 window: float) -> tuple[float, float]:
    """Gains (a, b) with ||x(t)|| <= a ||x0|| + b ||u||inf for every solution
    of the linear ``model`` under ``sig`` and every t in [t0, t0 + min(window,
    horizon - t0)], jumps at instants in the window included.

    With mu_p = lambda_max((A_p + A_p^T) / 2), the logarithmic norm of A_p,
    a flow of length L in mode p maps a bound g ||x0|| + h D to
    e^(mu_p L) g ||x0|| + (e^(mu_p L) h + ||B_p|| (e^(mu_p L) - 1) / mu_p) D,
    and a jump out of p to ||J_p|| g ||x0|| + (||J_p|| h + ||H_p||) D.  Both
    terms are monotone along a flow, so a and b are the largest g and h at
    segment ends.  The bound holds for the exact flow; RK4 runs follow it to
    within their discretisation error.  Gains beyond the floats would make
    beta vacuous, so they raise StructuralError.
    """
    modes = list(model.A)
    A, B, J, H = (np.array([mats[p] for p in modes])
                  for mats in (model.A, model.B, model.J, model.H))
    end = sig.t0 + min(window, sig.horizon - sig.t0)
    ends = [(1.0, 0.0)]  # (g, h) at t0 and after each flow and jump
    with np.errstate(over="ignore", invalid="ignore"):
        # One eigvalsh call, where an SVD would page in 0.7 MB more of LAPACK:
        # mu_p tops the symmetric part of A_p, and ||M||^2 tops M M^T.
        tops = np.linalg.eigvalsh(np.concatenate(
            [(A + A.swapaxes(1, 2)) / 2, *(M @ M.swapaxes(1, 2) for M in (B, J, H))]))[:, -1]
        tops = tops.reshape(4, -1).tolist()
        mu, B_norm, J_norm, H_norm = (dict(zip(modes, row)) for row in
                                      [tops[0], *np.sqrt(np.maximum(tops[1:], 0.0)).tolist()])
        for k, (t_start, t_end, p) in enumerate(sig.segments()):
            if t_start > end:
                break
            g, h = ends[-1]
            length = min(t_end, end) - t_start
            x = mu[p] * length  # where it is 0, (e^x - 1) / mu_p is the length
            growth, forced = float(np.exp(x)), float(np.expm1(x)) / mu[p] if x else length
            ends.append((growth * g, growth * h + B_norm[p] * forced))
            if k < len(sig.instants) and sig.instants[k] <= end:
                g, h = ends[-1]
                ends.append((J_norm[p] * g, J_norm[p] * h + H_norm[p]))
    gs, hs = zip(*ends)
    # A NaN (0 * inf after an overflow) fails isfinite, where max() would skip it.
    if not all(map(math.isfinite, gs + hs)):
        raise StructuralError(f"the short-horizon patch cannot be formed: its gains leave "
                              f"the floats over the first {end - sig.t0} s")
    return max(gs), max(hs)


def iss_check(
    bound: IssBound, traj: Trajectory, x0, input: InputSignal
) -> tuple[Reports, float]:
    """``iss_check_batch`` of the one run ``traj`` from ``x0`` under ``input``."""
    return iss_check_batch(bound, [traj], [x0], [input])


def iss_check_batch(bound: IssBound, trajs, x0s, inputs) -> tuple[Reports, float]:
    """Check the ISS estimate at every sample of runs on one time grid, as
    ``simulate_batch`` returns them; also return the largest margin
    ||x(t)|| - (beta(||x0||, t - t0) + gamma(||u||inf)) over all of them.

    The reports come run after run, each run's in sample order.  ``gamma``
    is called once for every run's sup norm, and ``beta`` once per block of
    runs with at most ``ISS_BLOCK_CELLS`` samples in all (at least one run),
    over the block's (runs, samples) array.  The times and modes are the
    first run's, joined from its segments; every run's norms are taken
    segment by segment into its row of the block.  No run's ``samples`` are
    built, so beside the runs the check keeps only the block's arrays and
    one grid.  ``trajs`` is iterated once.  A sample fails where ``exceeds``
    puts its norm above."""
    if len(x0s) != len(inputs):
        raise ValueError("one input per initial state")
    r0 = np.array([np.linalg.norm(np.atleast_1d(np.asarray(x0, dtype=float))) for x0 in x0s])
    sup = np.array([inp.sup_norm for inp in inputs], dtype=float)
    g = np.broadcast_to(bound.gamma(sup), sup.shape)
    parts, max_margin = [], -math.inf
    runs = iter(trajs)
    first = next(runs, None)
    if first is None:
        return Reports(), max_margin
    segments = first.segments
    times = np.concatenate([seg.times for seg in segments])
    modes = np.repeat([seg.mode for seg in segments], [len(seg.times) for seg in segments])
    runs = itertools.chain([first], runs)
    del first, segments
    n = len(times)
    elapsed = times - times[0]
    size = max(1, ISS_BLOCK_CELLS // n)
    for start in range(0, len(r0), size):
        at = slice(start, min(start + size, len(r0)))
        # beta runs before the block's norms are taken, so that its
        # temporaries are gone by then.  A beta that ignores r or s may return
        # a smaller array, hence the broadcast.
        rhs = np.broadcast_to(bound.beta(r0[at, None], elapsed) + g[at, None],
                              (at.stop - at.start, n))
        lhs = np.empty(rhs.shape)
        for row, traj in zip(lhs, itertools.islice(runs, len(rhs))):
            np.concatenate([np.linalg.norm(seg.states, axis=1) for seg in traj.segments],
                           out=row)
        # fmax skips NaN margins, as a running max() over floats does.
        max_margin = max(max_margin, float(np.fmax.reduce(lhs - rhs, axis=None,
                                                           initial=-math.inf)))
        run, i = np.divmod(np.flatnonzero(exceeds(lhs, rhs)), n)
        parts.append(Reports("iss", times[i], modes[i], lhs[run, i], rhs[run, i]))
        del lhs, rhs  # before the next block's beta
    return (parts[0] if len(parts) == 1 else Reports.concat(parts)), max_margin
