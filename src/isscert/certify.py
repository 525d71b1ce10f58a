"""Candidate Lyapunov certificate checks along trajectories.

``check_trajectory`` evaluates V once per sample and applies one flow rule (a
forward-difference slope against a bound, gated at a threshold) and one jump
rule (a bound above the threshold, a cap below it, relative tolerance JUMP_TOL
(1 + |rhs|)) in the implication or the dissipation form; ``construct`` applies
the same two rules to W.  Also: the dwell conditions at every switching
instant, the signal's dwell/leave slack, the declared partition checked
against the sign of each flow rate, the decreasing-certificate test and the
dissipation-to-implication conversion.
Tolerances and the default Dini coefficient are defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DegenerateGapError, DomainError, SignAmbiguousError
from .rates import ComparisonFunction, PhiTransform, RateFunction, scale_cf
from .simulate import InputSignal, Trajectory
from .switching import DwellSpec, ModePartition, SwitchingSignal, mdadt_slack, mdalt_slack

SANDWICH_TOL = 1e-9
JUMP_TOL = 1e-9
DWELL_TOL = 1e-9
DEFAULT_DINI_COEFF = 10.0
FORMS = ("implication", "dissipation")


@dataclass(frozen=True)
class Certificate:
    """Per-mode Lyapunov functions with rates, thresholds and dwell data."""

    V: Mapping[str, Callable]  # mode -> (t, x) -> nonnegative real
    alpha1: ComparisonFunction
    alpha2: ComparisonFunction
    alpha3: ComparisonFunction
    chi: ComparisonFunction
    phi: Mapping[str, RateFunction]
    psi: Mapping[str, RateFunction]
    partition: ModePartition
    dwell: DwellSpec

    def __post_init__(self):
        object.__setattr__(self, "V", dict(self.V))
        object.__setattr__(self, "phi", dict(self.phi))
        object.__setattr__(self, "psi", dict(self.psi))
        for p, rate in self.phi.items():
            sign = _constant_sign(rate)
            if p in self.partition.stable and sign >= 0:
                raise ValueError(f"mode {p} declared stable but its flow rate is not negative")
            if p in self.partition.unstable and sign <= 0:
                raise ValueError(f"mode {p} declared unstable but its flow rate is not positive")

    def transforms(self) -> dict[str, PhiTransform]:
        return {p: PhiTransform(r) for p, r in self.phi.items()}


@dataclass(frozen=True)
class ViolationReport:
    """One failed inequality: margin = lhs - rhs in the <= orientation."""

    kind: str
    time: float
    mode: str
    lhs: float
    rhs: float
    margin: float


def _report(kind, time, mode, lhs, rhs) -> ViolationReport:
    return ViolationReport(kind, float(time), str(mode), float(lhs), float(rhs),
                           float(lhs - rhs))


_SIGN_GRID = np.logspace(-6, 6, 49)


def _constant_sign(rate: RateFunction) -> int:
    signs = {rate.sign_at(float(s)) for s in _SIGN_GRID}
    signs.discard(0)
    if len(signs) != 1:
        raise SignAmbiguousError("rate function changes sign on the sampled range")
    return signs.pop()


def _segment_values(cert: Certificate, traj: Trajectory, ends_only: bool = False):
    """Per segment, V of its mode at each sample (first and last if ends_only)."""
    idx = [0, -1] if ends_only else slice(None)
    return [[float(cert.V[seg.mode](t, x))
             for t, x in zip(seg.times[idx].tolist(), seg.states[idx])] for seg in traj.segments]


def _flow_reports(mode, ts, vs, allowed, threshold, dini_coeff) -> list[ViolationReport]:
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


def _jump_report(time, mode, pre, post, threshold, bound, cap) -> list[ViolationReport]:
    """The jump rule at a jump out of ``mode``: post <= bound(mode, pre) where
    pre >= threshold, post <= cap below it, up to JUMP_TOL (1 + |rhs|)."""
    kind, rhs = ("jump", bound(mode, pre)) if pre >= threshold else ("small-input-jump", cap)
    return [_report(kind, time, mode, post, rhs)] if post > rhs + JUMP_TOL * (1 + abs(rhs)) else []


def _reports(cert, traj, kinds, input=None, form="implication", dini_coeff=None):
    """Reports of ``kinds`` (in the order sandwich, flow, jump) from one V per
    sample.  The implication form gates at chi(||u||inf) and caps jumps below
    it by alpha3; the dissipation form adds chi to both bounds, gating nothing."""
    if input is not None:
        if form not in FORMS:
            raise ValueError(f"unknown certificate form {form!r}; choose one of {FORMS}")
        chi = cert.chi(input.sup_norm)
        # x + -0.0 == x for every float, signed zeros included: the implication
        # bounds are phi and psi exactly.
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


def check_trajectory(
    cert: Certificate,
    traj: Trajectory,
    input: InputSignal,
    form: str = "implication",
    dini_coeff: float = DEFAULT_DINI_COEFF,
) -> list[ViolationReport]:
    """Sandwich, flow and jump reports of one certificate form (see
    :data:`FORMS`), in that order, evaluating V once per sample."""
    return _reports(cert, traj, ("sandwich", "flow", "jump"), input, form, dini_coeff)


def check_sandwich(cert: Certificate, traj: Trajectory) -> list[ViolationReport]:
    """Verify alpha1(||x||) <= V(t,x) <= alpha2(||x||) at every sample."""
    return _reports(cert, traj, ("sandwich",))


def check_flow_implication(
    cert: Certificate,
    traj: Trajectory,
    input: InputSignal,
    dini_coeff: float = DEFAULT_DINI_COEFF,
) -> list[ViolationReport]:
    """Threshold-gated flow decrease: above chi(||u||inf) the forward
    finite-difference slope of V must not exceed phi(V) plus a tolerance
    linear in the step."""
    return _reports(cert, traj, ("flow",), input, "implication", dini_coeff)


def check_jump_implication(
    cert: Certificate, traj: Trajectory, input: InputSignal
) -> list[ViolationReport]:
    """At each jump: bounded by psi(V-) above the threshold, by alpha3 below."""
    return _reports(cert, traj, ("jump",), input, "implication")


def check_dissipation(
    cert: Certificate,
    traj: Trajectory,
    input: InputSignal,
    dini_coeff: float = DEFAULT_DINI_COEFF,
) -> list[ViolationReport]:
    """Dissipation form: additive chi(||u||inf) slack, no threshold gating."""
    return _reports(cert, traj, ("flow", "jump"), input, "dissipation", dini_coeff)


def closed_form_dwell(eta_before: float, eta_after: float, mu: float,
                      tau: float, delta: float, stable: bool) -> tuple[float, float]:
    """Linear-rate dwell condition as (lhs, rhs) of the oriented inequality.

    Stable exits require lhs <= rhs with lhs = ln(mu_tilde)/|eta_before|
    where mu_tilde = mu * exp(|eta_before| - |eta_after|); unstable exits
    require -ln(mu_tilde)/|eta_before| >= tau(1 + delta), returned oriented
    as (rhs, lhs) so that "first <= second" always means satisfied.
    """
    mu_tilde = mu * math.exp(abs(eta_before) - abs(eta_after))
    if stable:
        return math.log(mu_tilde) / abs(eta_before), tau * (1 - delta)
    return tau * (1 + delta), -math.log(mu_tilde) / abs(eta_before)


def check_dwell_conditions(
    cert: Certificate, sig: SwitchingSignal, a_grid: Sequence[float]
) -> list[ViolationReport]:
    """Transform dwell conditions at every switching instant over a grid of
    Lyapunov levels.

    For a switch out of a stable mode q into p the sampled condition is
    Phi_p(psi_q(a)) - Phi_q(a) <= tau_q (1 - delta); out of an unstable mode
    the mirrored condition with (1 + delta) must hold from below.  Linear
    rates additionally get the closed-form reduction.  Grid points where the
    transform difference is not finite (or a level leaves a transform's
    domain) produce kind "dwell-inconclusive" entries rather than violations.
    """
    if not a_grid or any(a <= 0 for a in a_grid):
        raise ValueError("a_grid must be a nonempty collection of positive levels")
    transforms = cert.transforms()
    tau, delta = cert.dwell.tau, cert.dwell.delta
    out = []
    seen_pairs = set()
    for i, t_i in enumerate(sig.instants):
        q, p = sig.modes[i], sig.modes[i + 1]
        stable = q in cert.partition.stable
        for a in a_grid:
            try:
                lhs = transforms[p].value(cert.psi[q].magnitude(a)) - transforms[q].value(a)
            except DomainError:
                lhs = math.nan
            if not math.isfinite(lhs):
                out.append(_report("dwell-inconclusive", t_i, q, math.nan, math.nan))
                continue
            if stable:
                rhs = tau[q] * (1 - delta)
                if lhs > rhs + DWELL_TOL:
                    out.append(_report("dwell-condition", t_i, q, lhs, rhs))
            else:
                rhs = tau[q] * (1 + delta)
                if -lhs < rhs - DWELL_TOL:
                    out.append(_report("dwell-condition", t_i, q, rhs, -lhs))
        if (cert.phi[q].kind == "linear" and cert.phi[p].kind == "linear"
                and cert.psi[q].kind == "linear" and (q, p) not in seen_pairs):
            seen_pairs.add((q, p))
            first, second = closed_form_dwell(
                cert.phi[q].eta, cert.phi[p].eta, abs(cert.psi[q].eta),
                tau[q], delta, stable)
            if first > second + DWELL_TOL:
                out.append(_report("dwell-closed-form", t_i, q, first, second))
    return out


def dwell_slack_verdict(
    cert: Certificate, sig: SwitchingSignal
) -> tuple[float, float, bool, bool]:
    """The signal's dwell/leave slack and whether each fits the declared
    constants: (mdadt_slack, mdalt_slack, fits T_S, fits T_U)."""
    slack_s = mdadt_slack(sig, cert.partition, cert.dwell.tau)
    slack_u = mdalt_slack(sig, cert.partition, cert.dwell.tau)
    return (slack_s, slack_u, slack_s <= cert.dwell.T_S + DWELL_TOL,
            slack_u <= cert.dwell.T_U + DWELL_TOL)


def check_decreasing_certificate(cert: Certificate) -> bool:
    """True iff every flow rate is negative and every jump rate is
    non-expansive (psi(s) <= s) at 64 log-spaced levels in [1e-6, 1e6]."""
    for rate in cert.phi.values():
        try:
            if _constant_sign(rate) >= 0:
                return False
        except SignAmbiguousError:
            return False
    for rate in cert.psi.values():
        for s in np.logspace(-6, 6, 64).tolist():
            if rate.magnitude(s) > s * (1 + 1e-12):
                return False
    return True


def dissipation_to_implication(cert: Certificate) -> Certificate:
    """Convert a dissipation-form certificate with linear rates into
    implication form.

    Flow rates shrink by (1 -+ delta)/(1 -+ 3 delta / 4) toward zero, jump
    rates inflate by exp(-delta tau eta / 4), the threshold is rescaled by
    the conservative reciprocal-gap factor, and the returned certificate
    carries the halved dwell margin delta' = delta / 2.
    """
    if any(r.kind != "linear" for r in cert.phi.values()):
        raise ValueError("conversion requires linear flow rates")
    if any(r.kind != "linear" for r in cert.psi.values()):
        raise ValueError("conversion requires linear jump rates")
    delta = cert.dwell.delta
    if not (0 < delta < 1):
        raise ValueError("conversion requires delta in (0, 1)")

    new_phi, new_psi = {}, {}
    factor = 0.0
    for p, rate in cert.phi.items():
        eta_t = rate.eta
        if p in cert.partition.stable:
            eta = (1 - delta) / (1 - 0.75 * delta) * eta_t
        else:
            eta = (1 + delta) / (1 + 0.75 * delta) * eta_t
        mu_t = abs(cert.psi[p].eta)
        mu = math.exp(-delta * cert.dwell.tau[p] * eta / 4) * mu_t
        if abs(eta - eta_t) < 1e-12 or abs(mu - mu_t) < 1e-12:
            raise DegenerateGapError(
                f"mode {p}: converted rates coincide with the originals")
        factor = max(factor, 1.0 / (eta - eta_t), 1.0 / (mu - mu_t))
        new_phi[p] = replace(rate, eta=eta)
        new_psi[p] = replace(cert.psi[p], eta=mu)
    new_dwell = DwellSpec(cert.dwell.tau, delta / 2, cert.dwell.T_S, cert.dwell.T_U)
    return Certificate(
        V=cert.V,
        alpha1=cert.alpha1,
        alpha2=cert.alpha2,
        alpha3=cert.alpha3,
        chi=scale_cf(factor, cert.chi),
        phi=new_phi,
        psi=new_psi,
        partition=cert.partition,
        dwell=new_dwell,
    )


def quadratic_v(M) -> Callable:
    """Lyapunov function x^T M x as a (t, x) callable."""
    M = np.asarray(M, dtype=float)
    return lambda t, x: float(np.asarray(x) @ M @ np.asarray(x))


def norm_power_v(c: float, k: float) -> Callable:
    """Lyapunov function c ||x||^k as a (t, x) callable."""
    return lambda t, x: c * float(np.linalg.norm(x)) ** k
