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

from .errors import DegenerateGapError, SignAmbiguousError
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
    values = rate(_SIGN_GRID)
    positive, negative = np.any(values > 0), np.any(values < 0)
    if positive == negative:
        raise SignAmbiguousError("rate function changes sign on the sampled range")
    return 1 if positive else -1


def _values(cert: Certificate, traj: Trajectory, ends_only: bool = False) -> np.ndarray:
    """V of the active mode at every sample of ``traj.samples``, one call
    each (if ends_only, at each segment's first and last sample only, and
    NaN elsewhere)."""
    idx = [0, -1] if ends_only else slice(None)
    values = np.full(len(traj.samples[0]), math.nan)
    for seg, start in zip(traj.segments, traj.samples[3].tolist()):
        V = cert.V[seg.mode]
        values[start:start + len(seg.times)][idx] = [
            float(V(t, x)) for t, x in zip(seg.times[idx].tolist(), seg.states[idx])]
    return values


def _by_mode(f, modes, *xs) -> np.ndarray:
    """f(p, *(x[modes == p] for x in xs)) for each distinct mode p, one call
    each, put back in the places of the selected elements."""
    out = np.empty(len(modes))
    left = np.ones(len(modes), dtype=bool)
    while left.any():
        p = str(modes[left.argmax()])
        at = modes == p
        out[at] = f(p, *(x[at] for x in xs))
        left &= ~at
    return out


def _flow_reports(traj, values, allowed, threshold, dini_coeff) -> list[ViolationReport]:
    """The flow rule along ``traj``: where v >= threshold, the forward
    difference (v[i+1] - v[i]) / h within a segment may exceed
    allowed(mode, v[i]) by at most dini_coeff h."""
    times, _, modes, starts = traj.samples
    h = np.diff(times)
    within = np.ones(len(h), dtype=bool)
    within[starts[1:] - 1] = False  # the difference across a jump
    i = np.flatnonzero(within & ~(h <= 0) & ~(values[:-1] < threshold))
    h = h[i]
    slope = (values[i + 1] - values[i]) / h
    rhs = _by_mode(allowed, modes[i], values[i]) + dini_coeff * h
    return [_report("flow", times[j], modes[j], slope[n], rhs[n])
            for n, j in enumerate(i) if slope[n] > rhs[n]]


def _jump_reports(traj, pre, post, threshold, bound, cap) -> list[ViolationReport]:
    """The jump rule at each jump of ``traj``, from ``pre`` (the value ending a
    segment of mode p) to ``post``: post <= bound(p, pre) where
    pre >= threshold, post <= cap below it, up to JUMP_TOL (1 + |rhs|)."""
    times, _, modes, starts = traj.samples
    times, modes = times[starts[1:]], modes[starts[1:] - 1]
    above = pre >= threshold
    rhs = np.full(len(pre), float(cap))
    rhs[above] = _by_mode(bound, modes[above], pre[above])
    failed = np.flatnonzero(post > rhs + JUMP_TOL * (1 + np.abs(rhs)))
    return [_report("jump" if above[j] else "small-input-jump", times[j], modes[j],
                    post[j], rhs[j]) for j in failed]


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
    times, states, modes, starts = traj.samples
    values = _values(cert, traj, ends_only=kinds == ("jump",))
    out = []
    if "sandwich" in kinds:
        norms = np.linalg.norm(states, axis=1)
        lo, hi = cert.alpha1(norms), cert.alpha2(norms)
        below, above = lo > values + SANDWICH_TOL, values > hi + SANDWICH_TOL
        for i in np.flatnonzero(below | above):
            if below[i]:
                out.append(_report("sandwich", times[i], modes[i], lo[i], values[i]))
            if above[i]:
                out.append(_report("sandwich", times[i], modes[i], values[i], hi[i]))
    if "flow" in kinds:
        out += _flow_reports(traj, values, allowed, threshold, dini_coeff)
    if "jump" in kinds:
        # Segment k starts at the post-jump state of the jump ending k - 1.
        out += _jump_reports(traj, values[starts[1:] - 1], values[starts[1:]],
                             threshold, bound, cap)
    return out


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
    a = np.asarray(a_grid, dtype=float)
    grid_reports = {}  # (q, p) -> (kind, lhs, rhs) of a switch q -> p, in grid order
    out = []
    for t_i, q, p in zip(sig.instants, sig.modes, sig.modes[1:]):
        first = (q, p) not in grid_reports
        if first:
            grid_reports[(q, p)] = _dwell_grid(cert, transforms, q, p, a)
        out += [_report(kind, t_i, q, lhs, rhs) for kind, lhs, rhs in grid_reports[(q, p)]]
        if first and (cert.phi[q].kind == "linear" and cert.phi[p].kind == "linear"
                      and cert.psi[q].kind == "linear"):
            lhs, rhs = closed_form_dwell(
                cert.phi[q].eta, cert.phi[p].eta, abs(cert.psi[q].eta),
                cert.dwell.tau[q], cert.dwell.delta, q in cert.partition.stable)
            if lhs > rhs + DWELL_TOL:
                out.append(_report("dwell-closed-form", t_i, q, lhs, rhs))
    return out


def _dwell_grid(cert, transforms, q, p, a) -> list[tuple[str, float, float]]:
    """The sampled dwell condition of a switch q -> p at the levels ``a``,
    evaluated as one array: (kind, lhs, rhs) of each failed or inconclusive
    level, in grid order."""
    arg = cert.psi[q].magnitude(a)
    inside = (0.0 < arg) & (arg < math.inf) & (a < math.inf)  # the transforms' domain
    diff = np.full(len(a), math.nan)
    with np.errstate(invalid="ignore"):  # inf - inf is inconclusive too
        diff[inside] = transforms[p].value(arg[inside]) - transforms[q].value(a[inside])
    stable = q in cert.partition.stable
    tau = cert.dwell.tau[q] * (1 - cert.dwell.delta if stable else 1 + cert.dwell.delta)
    out = []
    for lhs in diff.tolist():
        if not math.isfinite(lhs):
            out.append(("dwell-inconclusive", math.nan, math.nan))
        elif stable and lhs > tau + DWELL_TOL:
            out.append(("dwell-condition", lhs, tau))
        elif not stable and -lhs < tau - DWELL_TOL:
            out.append(("dwell-condition", tau, -lhs))
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
    grid = np.logspace(-6, 6, 64)
    return not any(np.any(rate.magnitude(grid) > grid * (1 + 1e-12))
                   for rate in cert.psi.values())


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
