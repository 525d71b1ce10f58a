"""The cumulative dwell-budget ledger against direct enumeration.

``oracles`` holds the enumerating implementations of the slack suprema and
of the correction h; the library answers both from one O(K) budget per
signal and mode class.  Agreement is to rounding: the two sum the same
durations in different orders.
"""

import sys
import time
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import isscert as iss
import oracles
from isscert.construct import CorrectionLedger

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from generate import TAU, _alternating_signal  # noqa: E402

PARTITIONS = (
    iss.ModePartition(frozenset({"a"}), frozenset({"b"})),  # c in neither class
    iss.ModePartition(frozenset({"a", "c"}), frozenset({"b"})),
    iss.ModePartition(frozenset({"b"}), frozenset({"a", "c"})),
    iss.ModePartition(frozenset({"a", "b", "c"}), frozenset()),
    iss.ModePartition(frozenset(), frozenset({"c"})),
)


def tolerance(sig):
    return 1e-12 * max(1.0, sig.horizon - sig.t0)


@st.composite
def signals(draw):
    """Signals over modes a, b, c, repeats allowed, with an optional
    last instant on the horizon."""
    n = draw(st.integers(min_value=0, max_value=9))
    t0 = draw(st.floats(-2.0, 2.0))
    gaps = draw(st.lists(st.floats(0.05, 0.8), min_size=n + 1, max_size=n + 1))
    times = (t0 + np.cumsum(gaps)).tolist()
    horizon = times.pop()
    if n and draw(st.booleans()):
        horizon = times[-1]
    modes = tuple(draw(st.sampled_from("abc")) for _ in range(n + 1))
    return iss.SwitchingSignal(t0, tuple(times), modes, horizon)


@st.composite
def dwell_specs(draw):
    tau = {p: draw(st.floats(0.05, 1.0)) for p in "abc"}
    return iss.DwellSpec(tau, draw(st.floats(0.05, 0.95)))


@settings(max_examples=150, deadline=None)
@given(signals(), st.sampled_from(PARTITIONS), dwell_specs())
def test_slacks_match_enumeration(sig, part, dwell):
    for ledger, oracle in ((iss.mdadt_slack, oracles.mdadt_slack),
                           (iss.mdalt_slack, oracles.mdalt_slack)):
        got = ledger(sig, part, dwell.tau)
        want = oracle(sig, part, dwell.tau)
        assert abs(got - want) <= tolerance(sig), (ledger.__name__, got, want)


@settings(max_examples=150, deadline=None)
@given(signals(), st.sampled_from(PARTITIONS), dwell_specs(),
       st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
def test_correction_matches_enumeration(sig, part, dwell, fractions):
    ledger = CorrectionLedger(sig, part, dwell)
    span = sig.horizon - sig.t0
    times = [sig.t0, *sig.instants, sig.horizon,
             *(min(sig.horizon, sig.t0 + f * span) for f in fractions)]
    for side in ("left", "right"):
        batch = ledger.h(np.array(times), side)
        for t, in_batch in zip(times, batch.tolist()):
            got = ledger.h(t, side)
            want = oracles.correction(sig, part, dwell, t, side)
            assert abs(got - want) <= tolerance(sig), (t, side, got, want)
            assert got == in_batch, (t, side)


def test_slacks_match_enumeration_on_bench_signal():
    part = iss.ModePartition(frozenset({"s"}), frozenset({"u"}))
    signal = _alternating_signal(np.random.default_rng(7), 64)
    sig = iss.SwitchingSignal(signal["t0"], signal["instants"], signal["modes"],
                              signal["horizon"])
    for ledger, oracle in ((iss.mdadt_slack, oracles.mdadt_slack),
                           (iss.mdalt_slack, oracles.mdalt_slack)):
        assert abs(ledger(sig, part, TAU) - oracle(sig, part, TAU)) <= tolerance(sig)


class TestEdgeCases:
    def test_left_limit_at_t0_is_zero(self):
        # The window [t0, t0) is empty; differencing the budgets instead
        # would give -(1 + delta) tau_u for an unstable first mode.
        sig = iss.SwitchingSignal(0.0, (1.0,), ("u", "s"), 2.0)
        part = iss.ModePartition(frozenset({"s"}), frozenset({"u"}))
        dwell = iss.DwellSpec({"s": 1.0, "u": 0.25}, 0.2)
        assert oracles.correction(sig, part, dwell, 0.0, side="left") == 0.0
        h = CorrectionLedger(sig, part, dwell).h
        assert h(0.0, side="left") == 0.0
        assert h(0.0) == oracles.correction(sig, part, dwell, 0.0)

    def test_no_window_starts_at_t0_left_limit(self):
        # Only the activation of a at t0 is stable; no window may count it,
        # so the slack is 0, not tau_a.
        sig = iss.SwitchingSignal(0.0, (1.0, 2.0, 3.0), ("a", "c", "c", "c"), 4.0)
        part = iss.ModePartition(frozenset({"a"}), frozenset({"b"}))
        tau = {"a": 0.7, "b": 0.3, "c": 0.2}
        assert iss.mdadt_slack(sig, part, tau) == 0.0
        assert oracles.mdadt_slack(sig, part, tau) == 0.0


def grid_slack(sig, mode_set, tau, sign, cell):
    """Dense-grid brute force in the style of acceptance criterion 1: the max
    rise of the cumulative balance on a grid holding every instant."""
    grid = np.unique(np.concatenate([
        np.arange(sig.t0, sig.horizon + cell / 2, cell), sig.instants, [sig.horizon]]))
    f = np.zeros(len(grid))
    for p in mode_set & sig.mode_set:
        starts = np.array([t for t, m in sig.events() if m == p])
        counts = np.searchsorted(starts, grid, side="right")
        active = sum(np.clip(grid, a, b) - a for a, b, m in sig.segments() if m == p)
        f += sign * (counts * tau[p] - active)
    return max(0.0, float(np.max(f - np.minimum.accumulate(f))))


def test_slacks_at_scale_match_grid():
    # K = 512: minutes of enumeration at O(K^3) (about 3 s already at
    # K = 128), about a millisecond per slack for the ledger.
    rng = np.random.default_rng(512)
    gaps = rng.uniform(0.05, 0.5, 513)
    times = np.cumsum(gaps)
    modes = tuple("s" if k % 2 == 0 else "u" for k in range(513))
    sig = iss.SwitchingSignal(0.0, tuple(times[:-1].tolist()), modes, float(times[-1]))
    part = iss.ModePartition(frozenset({"s"}), frozenset({"u"}))
    tau = {"s": 0.3, "u": 0.2}
    cell = 1e-3
    start = time.perf_counter()
    slack_s = iss.mdadt_slack(sig, part, tau)
    slack_u = iss.mdalt_slack(sig, part, tau)
    elapsed = time.perf_counter() - start
    for exact, brute in ((slack_s, grid_slack(sig, part.stable, tau, +1, cell)),
                         (slack_u, grid_slack(sig, part.unstable, tau, -1, cell))):
        assert brute <= exact + 1e-9
        assert exact <= brute + cell + 1e-9
    assert slack_s > 0.0 and slack_u > 0.0
    assert elapsed < 1.0
