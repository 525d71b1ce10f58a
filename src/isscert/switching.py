"""Switching signals, mode partitions and dwell/leave-time bookkeeping.

A switching signal is a left-continuous piecewise-constant map from time
to mode identifiers, recorded over a finite horizon.  The counters here
follow the half-open conventions

  * activation count over ``(s1, s2]``,
  * active time over ``[s1, s2)``.

Window balances over a mode class are differences of one cumulative dwell
budget, ``DwellBudget``: G(t) = sum over the class of tau_p N_p[t0, t] -
T_p[t0, t), built once per signal and class in O(K) and kept at the left
and right limit of every event.  The dwell/leave-time slack suprema are a
single running-minimum sweep over it (O(K) instead of enumerating O(K^2)
windows at O(K) each); window ends may sit at either limit of an event,
where the piecewise-linear objective peaks, but window starts never drop
below t0, so the activation at t0 itself is not counted by the suprema.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import OutOfRangeError


@dataclass(frozen=True)
class SwitchingSignal:
    """Piecewise-constant mode schedule on [t0, horizon]."""

    t0: float
    instants: tuple[float, ...]
    modes: tuple[str, ...]
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "instants", tuple(float(t) for t in self.instants))
        object.__setattr__(self, "modes", tuple(str(m) for m in self.modes))
        if len(self.modes) != len(self.instants) + 1:
            raise ValueError(
                f"need {len(self.instants) + 1} modes for "
                f"{len(self.instants)} switching instants, got {len(self.modes)}"
            )
        prev = self.t0
        for t in self.instants:
            if t <= prev:
                raise ValueError("switching instants must be strictly increasing and > t0")
            prev = t
        if self.instants and self.instants[-1] > self.horizon:
            raise ValueError("switching instants must not exceed the horizon")
        if self.horizon < self.t0:
            raise ValueError("horizon must be >= t0")

    @property
    def mode_set(self) -> frozenset[str]:
        return frozenset(self.modes)

    def events(self) -> list[tuple[float, str]]:
        """Activation events: (t0, first mode) then each switching instant."""
        return [(self.t0, self.modes[0])] + list(zip(self.instants, self.modes[1:]))

    def segments(self) -> list[tuple[float, float, str]]:
        """Half-open activity intervals (start, end, mode) covering [t0, horizon]."""
        bounds = [self.t0, *self.instants, self.horizon]
        return list(zip(bounds, bounds[1:], self.modes))

    def mode_at(self, t: float) -> str:
        """sigma(t); right-continuous in the stored convention sigma(t_i) = p_i."""
        return self.modes[self.interval_index(t)]

    def mode_before(self, t: float) -> str:
        """sigma(t^-), with sigma(t0^-) := sigma(t0)."""
        self._check_range(t)
        return self.modes[bisect_left(self.instants, t)]

    def interval_index(self, t: float) -> int:
        """Index i with t in [t_i, t_{i+1}), where t_0 := t0."""
        self._check_range(t)
        return bisect_right(self.instants, t)

    def _check_range(self, t: float):
        if t < self.t0 or t > self.horizon:
            raise OutOfRangeError(f"time {t} outside [{self.t0}, {self.horizon}]")


@dataclass(frozen=True)
class ModePartition:
    """Disjoint split of the mode set into stable and unstable modes."""

    stable: frozenset[str]
    unstable: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "stable", frozenset(self.stable))
        object.__setattr__(self, "unstable", frozenset(self.unstable))
        if self.stable & self.unstable:
            raise ValueError(f"modes in both classes: {sorted(self.stable & self.unstable)}")


@dataclass(frozen=True)
class DwellSpec:
    """Per-mode dwell times and the slack constants of the dwell conditions."""

    tau: Mapping[str, float]
    delta: float
    T_S: float = 0.0
    T_U: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "tau", dict(self.tau))
        if any(v <= 0 for v in self.tau.values()):
            raise ValueError("all dwell times must be > 0")
        if self.delta <= 0:
            raise ValueError("delta must be > 0")
        if self.T_S < 0 or self.T_U < 0:
            raise ValueError("slack constants must be >= 0")


@dataclass(frozen=True)
class ModeChangeSet:
    """Allowed mode changes as ordered pairs (new mode, old mode)."""

    pairs: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset((str(p), str(q)) for p, q in self.pairs))


def activation_count(sig: SwitchingSignal, p: str, s1: float, s2: float) -> int:
    """Number of activations of mode p in (s1, s2]."""
    _check_pair(sig, s1, s2)
    return sum(1 for t, mode in sig.events() if mode == p and s1 < t <= s2)


def active_time(sig: SwitchingSignal, p: str, s1: float, s2: float) -> float:
    """Lebesgue measure of {t in [s1, s2) : sigma(t) = p}."""
    _check_pair(sig, s1, s2)
    total = 0.0
    for a, b, mode in sig.segments():
        if mode == p:
            total += max(0.0, min(b, s2) - max(a, s1))
    return total


def mdadt_slack(sig: SwitchingSignal, partition: ModePartition, tau: Mapping[str, float]) -> float:
    """Smallest T_S for which the signal satisfies the average dwell-time bound.

    Exact supremum of sum_{p in stable} N_p(s1,s2) tau_p - T_p(s1,s2) over
    the event-point grid (activation counts evaluated at event left limits
    as well, which is where the piecewise-linear objective peaks); O(K).
    """
    if not partition.stable:
        return 0.0
    return _slack_sup(sig, partition.stable, tau, sign=+1)


def mdalt_slack(sig: SwitchingSignal, partition: ModePartition, tau: Mapping[str, float]) -> float:
    """Smallest T_U for which the signal satisfies the average leave-time bound."""
    if not partition.unstable:
        return 0.0
    return _slack_sup(sig, partition.unstable, tau, sign=-1)


def _check_pair(sig: SwitchingSignal, s1: float, s2: float):
    if not (sig.t0 <= s1 <= s2 <= sig.horizon):
        raise OutOfRangeError(
            f"need t0 <= s1 <= s2 <= horizon, got s1={s1}, s2={s2} "
            f"for [{sig.t0}, {sig.horizon}]"
        )


class DwellBudget:
    """Cumulative dwell budget of one mode class along a signal.

    G(t) = sum over p in the class of tau_p N_p[t0, t] - T_p[t0, t): each
    activation books its dwell time, and time spent in the class draws it
    down.  ``left[i]`` and ``right[i]`` hold G(t_i-) and G(t_i) at the i-th
    event (t0 first); between events G falls at rate 1 while the class is
    active and stays level otherwise.  Any window's balance is the
    difference of G at its two ends, with an activation at either end
    counted by taking that end's right limit.
    """

    def __init__(self, sig: SwitchingSignal, modes, tau: Mapping[str, float]):
        self.times = np.array((sig.t0, *sig.instants))
        self.active = np.array([mode in modes for mode in sig.modes])
        # Each event first draws G down by the time the class was active since
        # the previous event, then books the dwell time of an activation in it.
        spent = np.diff(self.times, prepend=sig.t0) * np.r_[False, self.active[:-1]]
        booked = [tau[mode] if mode in modes else 0.0 for mode in sig.modes]
        g = np.cumsum(np.column_stack([-spent, booked]))
        self.left, self.right = g[0::2], g[1::2]
        self.end = float(self.at(sig.horizon))

    def at(self, t, side: str = "right") -> np.ndarray:
        """G(t), elementwise in t in [t0, horizon] (G(t-) for ``side="left"``, t > t0)."""
        i = np.searchsorted(self.times, t, side=side) - 1
        return np.where(self.active[i], self.right[i] - (t - self.times[i]), self.right[i])


def _slack_sup(sig, mode_set, tau, sign: int) -> float:
    # Max rise of sign*G over window start <= end (Bentley's running-minimum
    # sweep).  G is linear between events, so both ends range over the left
    # and right limits of the events, plus the horizon as an end.  A start
    # never takes t0's left limit, and an end at the start's own instant
    # counts only as the window from t_i- to t_i (the activation at t_i).
    budget = DwellBudget(sig, mode_set, tau)
    best, low = 0.0, math.inf  # best 0 is attained at s1 == s2
    for i, (g_left, g_right) in enumerate(zip(budget.left.tolist(), budget.right.tolist())):
        g_left, g_right = sign * g_left, sign * g_right
        best = max(best, g_left - low, g_right - low)
        if i:
            best = max(best, g_right - g_left)
            low = min(low, g_left)
        low = min(low, g_right)
    return max(best, sign * budget.end - low)
