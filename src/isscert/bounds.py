"""Explicit ISS decay/gain bound assembly and trajectory certification.

From a certificate's envelope rates and dwell constants this module builds
the transient bound beta(r, s) (decreasing in elapsed time, increasing in
the initial value) and the input gain gamma, then checks simulated
trajectories against ||x(t)|| <= beta(||x0||, t - t0) + gamma(||u||inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .certify import Certificate, Reports
from .errors import DegenerateGammaError, ImageNotFullError
from .rates import PhiTransform, RateFunction, _result
from .simulate import InputSignal, Trajectory
from .switching import DwellSpec

ISS_REL_TOL = 1e-9


def decay_interpolant(u: float, v, C: float, m: float):
    """Interpolation between u + C (at v=0) and the floor m as v grows,
    elementwise in v.

    Equals m + (u + C - m) * exp(-v / (u + C - m)) and always dominates
    u + C - v.  The gap u + C - m must be nonnegative; the zero-gap limit
    is u + C.
    """
    gap = u + C - m
    if gap < 0:
        raise DegenerateGammaError(f"negative gap u + C - m = {gap}")
    if gap == 0.0:
        return np.full(np.shape(v), u + C)[()]
    return m + gap * np.exp(-np.asarray(v) / gap)


@dataclass(frozen=True)
class IssBound:
    """Assembled transient bound and input gain with their components.

    ``beta(r, s)`` and ``beta_tilde(r, s)`` are elementwise in the elapsed
    time s: an array of times gives an array, a number gives a float."""

    beta: Callable[[float, float], float]
    gamma: Callable[[float], float]
    C: float
    delta: float
    case: str  # "finite-m" | "infinite-m"
    m: float
    beta_tilde: Callable[[float, float], float] = None
    metadata: dict = field(default_factory=dict)


def build_bound(
    cert: Certificate,
    dwell: DwellSpec,
    lower: RateFunction,
    upper: RateFunction,
    short_horizon_envelope: Optional[Callable[[float], float]] = None,
) -> IssBound:
    """Assemble beta and gamma from envelope rates and dwell constants.

    ``short_horizon_envelope``, when given, maps an initial Lyapunov level r
    to a Lyapunov-level bound valid on the initial window s <= C / delta;
    beta is inflated to at least that envelope there (the transient patch
    that the decay formula alone does not provide).  Its empirical origin
    makes the patched beta depend on the sampling run; this is recorded in
    the metadata.  With C > 0 beta lifts transform levels by C, so an
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

    # For one initial level r the transform values are scalars; the rest is
    # NumPy over the elapsed times s.
    def beta_tilde(r: float, s):
        s = np.asarray(s, dtype=float)
        if r <= 0.0:
            return _result(np.zeros(s.shape))
        if case == "finite-m":
            # Levels at or below an image's lower end clamp to 0: the
            # interpolant tends to m, the lower end of tr_lo's image.
            a = tr_lo.inverse(decay_interpolant(tr_lo.value(r), delta * s, C, m), below="zero")
            b = tr_hi.inverse(tr_hi.value(r) + C - delta * s, below="zero")
        else:
            a = tr_lo.inverse(tr_lo.value(r) + C - delta * s)
            b = tr_hi.inverse(tr_hi.value(r) + C - delta * s)
        return _result(np.maximum(a, b))

    patch_window = C / delta

    def beta(r: float, s):
        s = np.asarray(s, dtype=float)
        r2 = cert.alpha2(r)
        level = beta_tilde(r2, s)
        if short_horizon_envelope is not None:
            level = np.where(s <= patch_window,
                             np.maximum(level, short_horizon_envelope(r2)), level)
        return cert.alpha1.inverse(level)

    def gamma(s: float) -> float:
        # Lyapunov levels: gamma2 = max(alpha3, chi), and gamma3 lifts it by
        # the transient of a start at the gamma2 level.
        g2 = max(cert.alpha3(s), cert.chi(s))
        if g2 <= 0.0:
            return 0.0
        return cert.alpha1.inverse(max(g2, cert.alpha2(beta(cert.alpha1.inverse(g2), 0.0))))

    return IssBound(
        beta=beta,
        gamma=gamma,
        C=C,
        delta=delta,
        case=case,
        m=m,
        beta_tilde=beta_tilde,
        metadata={
            "patched": short_horizon_envelope is not None,
            "patch_window": patch_window,
            "t0_independent": short_horizon_envelope is None,
        },
    )


def iss_check(
    bound: IssBound, traj: Trajectory, x0, input: InputSignal
) -> tuple[Reports, float]:
    """Check the ISS estimate at every trajectory sample; also return the
    largest margin ||x(t)|| - (beta(||x0||, t - t0) + gamma(||u||inf)).

    The samples are compared as arrays, with one beta call per trajectory;
    the reports come in sample order."""
    r0 = float(np.linalg.norm(np.atleast_1d(np.asarray(x0, dtype=float))))
    g = bound.gamma(input.sup_norm)
    times, states, modes, _ = traj.samples
    lhs = np.linalg.norm(states, axis=1)
    # One beta call over every elapsed time (a beta that ignores s may
    # return a scalar, hence the broadcast).
    rhs = np.broadcast_to(bound.beta(r0, times - traj.t0) + g, times.shape)
    # fmax skips NaN margins, as a running max() over floats does.
    max_margin = float(np.fmax.reduce(lhs - rhs, initial=-math.inf))
    i = np.flatnonzero(lhs > rhs * (1 + ISS_REL_TOL) + 1e-12)
    return Reports("iss", times[i], modes[i], lhs[i], rhs[i]), max_margin
