import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isscert as iss
from isscert.errors import OutOfRangeError


def three_mode_signal():
    return iss.SwitchingSignal(0.0, (1.0, 2.0), ("1", "2", "1"), 10.0)


class TestActivationCount:
    def test_no_switches(self):
        sig = iss.SwitchingSignal(0.0, (), ("a",), 5.0)
        assert iss.activation_count(sig, "a", 1.0, 4.0) == 0

    def test_open_closed_interval(self):
        sig = three_mode_signal()
        assert iss.activation_count(sig, "1", 0.0, 2.0) == 1

    def test_initial_activation_excluded_at_start(self):
        sig = three_mode_signal()
        assert iss.activation_count(sig, "1", 0.0, 10.0) == 1

    def test_out_of_range(self):
        sig = three_mode_signal()
        with pytest.raises(OutOfRangeError):
            iss.activation_count(sig, "1", -1.0, 2.0)
        with pytest.raises(OutOfRangeError):
            iss.activation_count(sig, "1", 3.0, 11.0)


class TestActiveTime:
    def test_empty_interval(self):
        sig = three_mode_signal()
        assert iss.active_time(sig, "1", 3.0, 3.0) == 0.0

    def test_measure(self):
        sig = three_mode_signal()
        assert iss.active_time(sig, "1", 0.0, 10.0) == pytest.approx(9.0)
        assert iss.active_time(sig, "2", 0.0, 10.0) == pytest.approx(1.0)

    def test_additivity(self):
        sig = three_mode_signal()
        for s in (0.5, 1.0, 1.7, 2.0, 6.0):
            total = iss.active_time(sig, "1", 0.0, 10.0)
            assert iss.active_time(sig, "1", 0.0, s) + iss.active_time(
                sig, "1", s, 10.0) == pytest.approx(total)


class TestSlacks:
    def test_no_switch_mdadt(self):
        sig = iss.SwitchingSignal(0.0, (), ("a",), 5.0)
        part = iss.ModePartition(frozenset({"a"}), frozenset())
        assert iss.mdadt_slack(sig, part, {"a": 1.0}) == 0.0

    def test_three_mode_values(self):
        sig = three_mode_signal()
        part = iss.ModePartition(frozenset({"1"}), frozenset())
        assert iss.mdadt_slack(sig, part, {"1": 2.0}) == pytest.approx(2.0)
        assert iss.mdadt_slack(sig, part, {"1": 0.5}) == pytest.approx(0.5)

    def test_empty_unstable(self):
        sig = three_mode_signal()
        part = iss.ModePartition(frozenset({"1", "2"}), frozenset())
        assert iss.mdalt_slack(sig, part, {"1": 1.0, "2": 1.0}) == 0.0

    def test_mdalt_no_switch_unstable(self):
        # The whole horizon counts as leave time; no activation falls in an
        # open-start window, so nothing is credited against it.
        sig = iss.SwitchingSignal(0.0, (), ("a",), 5.0)
        part = iss.ModePartition(frozenset(), frozenset({"a"}))
        assert iss.mdalt_slack(sig, part, {"a": 1.0}) == pytest.approx(5.0)

    def test_nonnegative_and_monotone_in_horizon(self):
        part = iss.ModePartition(frozenset({"1"}), frozenset({"2"}))
        tau = {"1": 0.7, "2": 0.3}
        prev = 0.0
        for h in (2.0, 4.0, 8.0):
            sig = iss.SwitchingSignal(0.0, (1.0, 2.0), ("1", "2", "1"), h)
            val = iss.mdadt_slack(sig, part, tau)
            assert val >= prev >= 0.0
            prev = val


class TestValidation:
    def test_instants_must_increase(self):
        with pytest.raises(ValueError):
            iss.SwitchingSignal(0.0, (2.0, 1.0), ("a", "b", "a"), 5.0)

    def test_mode_count(self):
        with pytest.raises(ValueError):
            iss.SwitchingSignal(0.0, (1.0,), ("a",), 5.0)

    def test_partition_disjoint(self):
        with pytest.raises(ValueError):
            iss.ModePartition(frozenset({"a"}), frozenset({"a"}))

    def test_dwell_positivity(self):
        with pytest.raises(ValueError):
            iss.DwellSpec({"a": 0.0}, 0.5)
        with pytest.raises(ValueError):
            iss.DwellSpec({"a": 1.0}, 0.0)


@st.composite
def signals(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    gaps = draw(st.lists(st.floats(0.05, 0.8), min_size=n + 1, max_size=n + 1))
    instants = np.cumsum(gaps)[:-1] if n else np.array([])
    horizon = float(np.sum(gaps))
    modes = tuple(draw(st.sampled_from(["a", "b", "c"])) for _ in range(n + 1))
    return iss.SwitchingSignal(0.0, tuple(float(t) for t in instants), modes, horizon)


@settings(max_examples=120, deadline=None)
@given(signals(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
# s1 + (horizon - s1) rounds to one ulp above the horizon here.
@example(iss.SwitchingSignal(0.0, (0.5, 1.0, 1.375), ("a", "b", "a", "c"), 1.425), 0.2, 1.0)
def test_total_active_time_property(sig, f1, f2):
    s1 = sig.t0 + f1 * (sig.horizon - sig.t0)
    s2 = min(s1 + f2 * (sig.horizon - s1), sig.horizon)
    total = sum(iss.active_time(sig, p, s1, s2) for p in sig.mode_set)
    assert abs(total - (s2 - s1)) <= 1e-12 * max(1.0, s2 - s1)


@settings(max_examples=100, deadline=None)
@given(signals())
def test_slack_matches_grid_brute_force(sig):
    part = iss.ModePartition(frozenset({"a"}), frozenset({"b"}))
    tau = {"a": 0.4, "b": 0.3, "c": 0.2}
    grid = np.linspace(sig.t0, sig.horizon, 501)
    cell = grid[1] - grid[0] if len(grid) > 1 else 0.0

    def brute(mode_set, sign):
        best = 0.0
        f = np.zeros(len(grid))
        for p in mode_set & sig.mode_set:
            c_n = np.array([sum(1 for t, m in sig.events() if m == p and t <= g)
                            for g in grid], dtype=float)
            c_t = np.array([iss.active_time(sig, p, sig.t0, float(g)) for g in grid])
            f += sign * (c_n * tau[p] - c_t)
        run_min = np.minimum.accumulate(f)
        return max(best, float(np.max(f - run_min)))

    exact_s = iss.mdadt_slack(sig, part, tau)
    exact_u = iss.mdalt_slack(sig, part, tau)
    assert brute(part.stable, +1) <= exact_s + 1e-9
    assert exact_s <= brute(part.stable, +1) + 2 * cell + 1e-9
    assert brute(part.unstable, -1) <= exact_u + 1e-9
    assert exact_u <= brute(part.unstable, -1) + 2 * cell + 1e-9


def test_mode_queries():
    sig = three_mode_signal()
    assert sig.mode_at(0.0) == "1"
    assert sig.mode_at(1.0) == "2"
    assert sig.mode_before(1.0) == "1"
    assert sig.mode_before(0.0) == "1"
    assert sig.interval_index(1.5) == 1
    assert sig.segments() == [(0.0, 1.0, "1"), (1.0, 2.0, "2"), (2.0, 10.0, "1")]
