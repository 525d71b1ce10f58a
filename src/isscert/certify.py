"""Candidate Lyapunov certificate checks along trajectories.

``check_trajectory`` evaluates V once per mode and applies the sandwich
bounds and one flow rule (a forward-difference slope against a bound, gated
at a threshold) and one jump rule (a bound above the threshold, a cap below
it) in the implication or the dissipation form; ``construct`` applies the
same two rules to W.  Also: the dwell conditions at every switching
instant, the signal's dwell/leave slack, the declared partition checked to
cover every mode and against the sign of each flow rate, the
decreasing-certificate test and the dissipation-to-implication conversion.
Every check returns its failed inequalities as one ``Reports``: columns of
kind, time, mode, lhs and rhs, selected from the checked arrays by one
boolean index each, not one object per failure.  ``linear_dwell_conditions``
is the one dwell condition of linear rates, for the certificates checked
here and the quadratic ones of ``lmi`` alike; its docstring derives it from
the flow and jump rules.  Every check decides through ``tolerance.exceeds``;
the flow rule's allowance is the default Dini coefficient times the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DegenerateGapError
from .rates import ComparisonFunction, PhiTransform, RateFunction, _result, scale_cf
from .simulate import InputSignal, Trajectory
from .switching import DwellSpec, ModePartition, SwitchingSignal, mdadt_slack, mdalt_slack
from .tolerance import exceeds

DEFAULT_DINI_COEFF = 10.0
# The Lyapunov levels of the sampled dwell condition unless a grid is given.
DEFAULT_A_GRID = (1.0, 10.0, 100.0)
FORMS = ("implication", "dissipation")
DEGENERATE_GAP = 1e-12  # the rate gaps dissipation_to_implication will not divide by


@dataclass(frozen=True)
class Certificate:
    """Per-mode Lyapunov functions with rates, thresholds and dwell data."""

    V: Mapping[str, Callable]  # mode -> (t, x) -> V >= 0, elementwise over the rows of x
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
            if p not in self.partition.stable | self.partition.unstable:
                raise ValueError(f"mode {p} is in neither class of the partition")

    def transforms(self) -> dict[str, PhiTransform]:
        return {p: PhiTransform(r) for p, r in self.phi.items()}


# The columns of ``Reports()``, typed so that an empty one is built as
# columns; being empty, they are shared.
_NO_TEXT = np.array([], dtype=str)
_NO_NUMBERS = np.array([], dtype=float)


@dataclass(frozen=True, eq=False)
class Reports:
    """Failed inequalities as columns, one entry per report; margin =
    lhs - rhs in the <= orientation.  Scalars broadcast against the arrays,
    and ``Reports()`` is empty.  ``len`` counts the reports, an index or mask
    selects, and ``concat`` (or ``+``) concatenates and adds the ``counts``
    of samples a rule evaluated or skipped (``flow_evaluated``;
    ``flow_skipped`` below the threshold)."""

    kind: np.ndarray = field(default_factory=lambda: _NO_TEXT)
    time: np.ndarray = field(default_factory=lambda: _NO_NUMBERS)
    mode: np.ndarray = field(default_factory=lambda: _NO_TEXT)
    lhs: np.ndarray = field(default_factory=lambda: _NO_NUMBERS)
    rhs: np.ndarray = field(default_factory=lambda: _NO_NUMBERS)
    counts: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        columns = self._columns()
        if (all(type(c) is np.ndarray and c.ndim == 1 for c in columns)
                and "".join(c.dtype.char for c in columns) == "UdUdd"
                and len({len(c) for c in columns}) == 1):
            return  # already columns of one length
        columns = [np.asarray(c, dtype)
                   for c, dtype in zip(columns, (str, float, str, float, float))]
        n = max((len(c) for c in columns if c.ndim), default=1)
        for name, column in zip(("kind", "time", "mode", "lhs", "rhs"), columns):
            # np.full raises on a column of another length.
            object.__setattr__(self, name, column if column.shape == (n,) else np.full(n, column))

    def _columns(self):
        return self.kind, self.time, self.mode, self.lhs, self.rhs

    @property
    def margin(self) -> np.ndarray:
        return self.lhs - self.rhs

    def rows(self) -> list[tuple]:
        """(kind, time, mode, lhs, rhs, margin) of each report, as Python values."""
        return list(zip(*(c.tolist() for c in (*self._columns(), self.margin))))

    def __len__(self) -> int:
        return len(self.kind)

    @staticmethod
    def concat(parts: Sequence[Reports]) -> Reports:
        """The reports of ``parts`` in order, one concatenation per column,
        with their ``counts`` added; no parts give ``Reports()``."""
        if not parts:
            return Reports()
        counts = {}
        for part in parts:
            for key, value in part.counts.items():
                counts[key] = counts.get(key, 0) + value
        return Reports(*map(np.concatenate, zip(*(part._columns() for part in parts))), counts)

    def __add__(self, other: Reports) -> Reports:
        return Reports.concat((self, other))

    def __getitem__(self, at) -> Reports:
        return Reports(*(c[at] for c in self._columns()), self.counts)


def _constant_sign(rate: RateFunction) -> int:
    """The sign of a rate, the same on all of (0, inf): its sign at s = 1."""
    return 1 if rate(1.0) > 0 else -1


def _values(cert: Certificate, traj: Trajectory) -> np.ndarray:
    """V of the active mode at every sample of ``traj.samples``, one V call
    per mode over all of that mode's samples."""
    times, states, modes, _ = traj.samples
    return _by_mode(lambda p, t, x: cert.V[p](t, x), modes, times, states)


def _by_mode(f, modes, *xs) -> np.ndarray:
    """f(p, *(x[modes == p] for x in xs)) for each distinct mode p, one call
    each giving one value per selected element, put back in their places."""
    out = np.empty(len(modes))
    left = np.ones(len(modes), dtype=bool)
    while left.any():
        p = str(modes[left.argmax()])
        at = modes == p
        value = f(p, *(x[at] for x in xs))
        if np.shape(value) != (np.count_nonzero(at),):
            raise ValueError(f"mode {p!r}: {np.shape(value)} values, not one per sample")
        out[at] = value
        left &= ~at
    return out


def _flow_reports(traj, values, allowed, threshold, dini_coeff) -> Reports:
    """The flow rule along ``traj``: where v >= threshold, the forward
    difference (v[i+1] - v[i]) / h within a segment may exceed
    allowed(mode, v[i]) by at most dini_coeff h."""
    times, _, modes, starts = traj.samples
    h = np.diff(times)
    within = np.ones(len(h), dtype=bool)
    within[starts[1:] - 1] = False  # the difference across a jump
    within &= ~(h <= 0)
    below = within & (values[:-1] < threshold)
    i = np.flatnonzero(within & ~below)
    h = h[i]
    slope = (values[i + 1] - values[i]) / h
    rhs = _by_mode(allowed, modes[i], values[i]) + dini_coeff * h
    n = np.flatnonzero(slope > rhs)
    return Reports("flow", times[i[n]], modes[i[n]], slope[n], rhs[n],
                   {"flow_evaluated": len(i), "flow_skipped": int(np.count_nonzero(below))})


def _jump_reports(traj, pre, post, threshold, bound, cap) -> Reports:
    """The jump rule at each jump of ``traj``, from ``pre`` (the value ending a
    segment of mode p) to ``post``: post <= bound(p, pre) where
    pre >= threshold, post <= cap below it, as ``exceeds`` decides."""
    times, _, modes, starts = traj.samples
    times, modes = times[starts[1:]], modes[starts[1:] - 1]
    above = pre >= threshold
    rhs = np.full(len(pre), float(cap))
    rhs[above] = _by_mode(bound, modes[above], pre[above])
    j = np.flatnonzero(exceeds(post, rhs))
    return Reports(np.where(above[j], "jump", "small-input-jump"), times[j], modes[j],
                   post[j], rhs[j])


def check_trajectory(
    cert: Certificate,
    traj: Trajectory,
    input: InputSignal,
    form: str = "implication",
    dini_coeff: float = DEFAULT_DINI_COEFF,
) -> Reports:
    """Sandwich, flow and jump reports of one certificate form (see
    :data:`FORMS`), in that order, from one evaluation of V per sample; a
    sample that breaks both sides of the sandwich gives its lower side
    first.  The implication form gates at chi(||u||inf) and caps jumps below
    it by alpha3; the dissipation form adds chi to both bounds, gating
    nothing."""
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
    values = _values(cert, traj)
    norms = np.linalg.norm(states, axis=1)
    # Column 0 is the lower side of the sandwich, column 1 the upper; the
    # failures come out in row-major order.
    lhs = np.array((cert.alpha1(norms), values)).T
    rhs = np.array((values, cert.alpha2(norms))).T
    i, side = np.nonzero(exceeds(lhs, rhs))
    return Reports.concat((
        Reports("sandwich", times[i], modes[i], lhs[i, side], rhs[i, side]),
        _flow_reports(traj, values, allowed, threshold, dini_coeff),
        # Segment k starts at the post-jump state of the jump ending k - 1.
        _jump_reports(traj, values[starts[1:] - 1], values[starts[1:]], threshold, bound, cap)))


def linear_dwell_conditions(eta: Mapping[str, float], mu: Mapping[str, float],
                            partition: ModePartition, tau: Mapping[str, float], delta: float,
                            left: Mapping[str, float]) -> Reports:
    """The dwell condition of linear rates (phi_p(v) = eta_p v, psi_q(v) =
    mu_q v): a "rate-sign" report for each mode of ``eta`` whose rate has
    the wrong sign for its class, then a "dwell-linear" report for each
    mode of ``left`` (mapped to the time its report carries) that breaks

        ln mu_q <= c_q = eta_S tau_q (1 - delta)     (q stable),
        ln mu_q <= c_q = -eta_U tau_q (1 + delta)    (q unstable),

    as ``exceeds`` decides.  ``eta`` covers every mode that can be active; eta_S is
    the smallest |eta_q| over its stable modes, eta_U the largest eta_p over
    its unstable ones.

    Derivation, in w = ln V: a flow in mode p moves w at rate at most eta_p,
    a jump out of q adds at most ln mu_q <= c_q.  On a window from s to t
    (before any jump at t), with T_stab and T_unst the time either class is
    active and N_q the activations of q inside it, the flows add at most
    -eta_S T_stab + eta_U T_unst.  Each jump out of q closes a visit of q
    opened inside the window or the one open at s, and the one open at t
    is not closed, so the jumps add at most sum_q N_q c_q + c_sigma(s) -
    c_sigma(t-).  The class balances sum_S tau_q N_q - T_stab <= T_S and
    T_unst - sum_U tau_p N_p <= T_U then give, for delta <= 1 (beyond 1,
    with min(delta, 1) in the stable terms),

        w(t) - w(s) <= eta_S (1 - delta) T_S + eta_U (1 + delta) T_U
                       - delta (eta_S T_stab + eta_U T_unst) + c_sigma(s) - c_sigma(t-):

    decay whatever the signal, beyond a constant (eta C, with C = (1 - delta)
    T_S + (1 + delta) T_U, when eta_S = eta_U = eta) and one jump at each end
    of the window.  With every |eta| equal the rule is ln(mu_q)/|eta| <=
    tau_q (1 - delta), the transform condition at every level.
    """
    stable = partition.stable
    eta_s = min((-eta[p] for p in eta if p in stable), default=0.0)
    eta_u = max((eta[p] for p in eta if p not in stable), default=0.0)
    out = [("rate-sign", left.get(p, math.nan), p, *((eta[p], 0.0) if p in stable
                                                      else (0.0, eta[p])))
           for p in sorted(eta) if (eta[p] < 0) != (p in stable)]
    for q, t in left.items():
        lhs = math.log(mu[q])
        rhs = eta_s * tau[q] * (1 - delta) if q in stable else -eta_u * tau[q] * (1 + delta)
        if exceeds(lhs, rhs):
            out.append(("dwell-linear", t, q, lhs, rhs))
    return Reports(*zip(*out))  # the columns of the rows


def check_dwell_conditions(cert: Certificate, sig: SwitchingSignal,
                           a_grid: Sequence[float]) -> Reports:
    """The dwell conditions of the switches of ``sig``.  If every rate is
    linear: ``linear_dwell_conditions`` over the signal's modes, one report
    per mode left, at the first instant it is left (``a_grid`` is only
    validated).  Else the transform condition sampled at the levels a of
    ``a_grid`` at every switch q -> p: Phi_p(psi_q(a)) - Phi_q(a) <= tau_q
    (1 - delta) out of a stable q, mirrored with (1 + delta) from below out
    of an unstable one; a level where the difference is not finite (or
    leaves a transform's domain) is "dwell-inconclusive", not a violation.
    """
    if not a_grid or any(a <= 0 for a in a_grid):
        raise ValueError("a_grid must be a nonempty collection of positive levels")
    if all(r.kind == "linear" for r in (*cert.phi.values(), *cert.psi.values())):
        left = {}
        for t_i, q in zip(sig.instants, sig.modes):
            left.setdefault(q, t_i)
        return linear_dwell_conditions(
            {p: cert.phi[p].eta for p in sig.mode_set},
            {q: abs(cert.psi[q].eta) for q in left}, cert.partition, cert.dwell.tau,
            cert.dwell.delta, left)
    transforms = cert.transforms()
    a = np.asarray(a_grid, dtype=float)
    grid_reports = {}  # (q, p) -> (kind, lhs, rhs) of a switch q -> p, in grid order
    out = []
    for t_i, q, p in zip(sig.instants, sig.modes, sig.modes[1:]):
        if (q, p) not in grid_reports:
            grid_reports[(q, p)] = _dwell_grid(cert, transforms, q, p, a)
        out += [(kind, t_i, q, lhs, rhs) for kind, lhs, rhs in grid_reports[(q, p)]]
    return Reports(*zip(*out))  # the columns of the rows


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
        elif stable and exceeds(lhs, tau):
            out.append(("dwell-condition", lhs, tau))
        elif not stable and exceeds(tau, -lhs):
            out.append(("dwell-condition", tau, -lhs))
    return out


def dwell_slack_verdict(
    cert: Certificate, sig: SwitchingSignal
) -> tuple[float, float, bool, bool]:
    """The signal's dwell/leave slack and whether each fits the declared
    constants, relative to its times: (mdadt_slack, mdalt_slack, fits T_S, fits T_U)."""
    slack_s = mdadt_slack(sig, cert.partition, cert.dwell.tau)
    slack_u = mdalt_slack(sig, cert.partition, cert.dwell.tau)
    size = max(abs(sig.t0), abs(sig.horizon))
    return (slack_s, slack_u, not exceeds(slack_s, cert.dwell.T_S, size),
            not exceeds(slack_u, cert.dwell.T_U, size))


def check_decreasing_certificate(cert: Certificate) -> bool:
    """True iff every flow rate is negative and every jump rate has |psi(s)| <= s
    on (0, inf): a magnitude affine between and beyond points (s_j, y_j), as a
    linear or k = 1 power rate is on s = 1, 2, has it iff every y_j <= s_j and the
    last slope is at most 1; a power rate of another k expands at 0 or inf."""
    if any(_constant_sign(rate) > 0 for rate in cert.phi.values()):
        return False
    for rate in cert.psi.values():
        s, y = np.abs(rate.points or [(1.0, rate(1.0)), (2.0, rate(2.0))]).T
        if (rate.kind == "power" and rate.k != 1.0 or exceeds(y, s).any()
                or exceeds((y[-1] - y[-2]) / (s[-1] - s[-2]), 1.0)):
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
        if abs(eta - eta_t) < DEGENERATE_GAP or abs(mu - mu_t) < DEGENERATE_GAP:
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
    """Lyapunov function x^T M x as a (t, x) callable, elementwise over the
    rows of x; M must be square.  The products are summed in a fixed order,
    so a state gives the same bits alone as in any stack."""
    M = np.array(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be a square matrix, got shape {M.shape}")

    def V(t, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != M.shape[:1]:
            raise ValueError(f"V takes states of {len(M)} components, got shape {x.shape}")
        return _result(reduce(np.add, (M[i, j] * x[..., i] * x[..., j]
                                       for i, j in np.ndindex(M.shape))))
    return V


def norm_power_v(c: float, k: float) -> Callable:
    """Lyapunov function c ||x||^k as a (t, x) callable, elementwise like ``quadratic_v``."""
    def V(t, x):
        x = np.asarray(x, dtype=float)
        square = reduce(np.add, (x[..., i] * x[..., i] for i in range(x.shape[-1])))
        return _result(c * np.power(np.sqrt(square), k))
    return V
