"""Switching signals, mode partitions and dwell/leave-time bookkeeping.

A switching signal is a left-continuous piecewise-constant map from time
to mode identifiers, recorded over a finite horizon.  The counters here
follow the half-open conventions

  * activation count over ``(s1, s2]``,
  * active time over ``[s1, s2)``,

and the dwell/leave-time slack suprema additionally evaluate the
objective at left limits of every switching instant, where the
piecewise-linear objective peaks.  Window starts never drop below t0,
so the activation at t0 itself is not counted by the suprema.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Mapping

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
        return [
            (bounds[i], bounds[i + 1], self.modes[i])
            for i in range(len(self.modes))
            if bounds[i + 1] >= bounds[i]
        ]

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

    def covers(self, modes: Iterable[str]) -> bool:
        return set(modes) <= (self.stable | self.unstable)


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

    def allows(self, new: str, old: str) -> bool:
        return (new, old) in self.pairs


def activation_count(sig: SwitchingSignal, p: str, s1: float, s2: float) -> int:
    """Number of activations of mode p in (s1, s2]."""
    _check_pair(sig, s1, s2)
    return _count(sig, p, s1, s2, left_limit=False)


def active_time(sig: SwitchingSignal, p: str, s1: float, s2: float) -> float:
    """Lebesgue measure of {t in [s1, s2) : sigma(t) = p}."""
    _check_pair(sig, s1, s2)
    total = 0.0
    for a, b, mode in sig.segments():
        if mode == p:
            total += max(0.0, min(b, s2) - max(a, s1))
    return total


def admits(sig: SwitchingSignal, q_set: ModeChangeSet) -> bool:
    """True iff every consecutive mode change of the signal is allowed."""
    return all(
        q_set.allows(sig.modes[i + 1], sig.modes[i]) for i in range(len(sig.instants))
    )


def mdadt_slack(sig: SwitchingSignal, partition: ModePartition, tau: Mapping[str, float]) -> float:
    """Smallest T_S for which the signal satisfies the average dwell-time bound.

    Exact supremum of sum_{p in stable} N_p(s1,s2) tau_p - T_p(s1,s2) over
    the event-point grid (activation counts evaluated at event left limits
    as well, which is where the piecewise-linear objective peaks).
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


def _count(
    sig: SwitchingSignal,
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


def _slack_sup(sig, mode_set, tau, sign: int) -> float:
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
