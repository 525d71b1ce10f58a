import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import isscert as iss
from isscert import cli
from isscert.errors import NonFiniteError, StepTooLargeError
from isscert.simulate import _doubling_powers, _simulate_linear, _step_map
from conftest import jumps
from oracles import linear_flow_stepwise, reachability_bound, simulate_per_segment

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from generate import LONG_STEP, _alternating_signal  # noqa: E402


def single_mode(horizon=1.0):
    return iss.SwitchingSignal(0.0, (), ("a",), horizon)


def one_segment(model, mode, t_start, t_end, x0, inp, step):
    """The times and states of a linear flow on [t_start, t_end] alone from x0."""
    sig = iss.SwitchingSignal(t_start, (), (mode,), t_end)
    (traj,) = _simulate_linear(model, sig, [np.asarray(x0, dtype=float)], [inp], step)
    return traj.segments[0].times, traj.segments[0].states


def scalar_model(a=-1.0, j=1.0):
    return iss.LinearSystemModel(
        A={"a": [[a]]}, B={"a": [[1.0]]}, J={"a": [[j]]}, H={"a": [[0.0]]}
    ).to_system_model()


class TestFlows:
    def test_exponential_decay(self):
        traj = iss.simulate(scalar_model(), single_mode(), [1.0], iss.zero_input(), 1e-3)
        assert traj.final_state()[0] == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_empty_horizon(self):
        sig = iss.SwitchingSignal(0.0, (), ("a",), 0.0)
        traj = iss.simulate(scalar_model(), sig, [3.0], iss.zero_input(), 1e-3)
        assert traj.final_state()[0] == 3.0
        assert len(traj.segments) == 1 and not traj.jump_flags().any()

    def test_matrix_oracle(self):
        # Constant-input linear flow solved exactly through the augmented
        # matrix exponential.
        A = np.array([[0.0, 1.0], [-2.0, -0.5]])
        B = np.array([[0.0], [1.0]])
        model = iss.LinearSystemModel(
            A={"a": A}, B={"a": B}, J={"a": np.eye(2)}, H={"a": np.zeros((2, 1))}
        ).to_system_model()
        x0 = np.array([1.0, -0.5])
        u = 0.7
        traj = iss.simulate(model, single_mode(2.0), x0, iss.constant_input([u]), 1e-3)
        aug = np.zeros((3, 3))
        aug[:2, :2] = A
        aug[:2, 2:] = B * u
        exact = (expm(2.0 * aug) @ np.array([*x0, 1.0]))[:2]
        assert traj.final_state() == pytest.approx(exact, abs=1e-9)

    def test_fourth_order_convergence(self):
        def err(step):
            traj = iss.simulate(scalar_model(), single_mode(), [1.0], iss.zero_input(), step)
            return abs(traj.final_state()[0] - math.exp(-1.0))

        ratio = err(0.1) / err(0.05)
        assert 8.0 <= ratio <= 32.0


class TestJumps:
    def test_single_jump(self):
        sig = iss.SwitchingSignal(0.0, (1.0,), ("a", "a"), 1.0)
        model = scalar_model(a=-1.0, j=0.1)
        traj = iss.simulate(model, sig, [1.0], iss.zero_input(), 1e-3)
        _, _, _, pre, post = jumps(traj)[0]
        assert pre[0] == pytest.approx(math.exp(-1.0), abs=1e-10)
        assert post[0] == pytest.approx(0.1 * math.exp(-1.0), abs=1e-11)
        assert traj.final_state()[0] == pytest.approx(post[0])

    def test_jump_chaining(self):
        sig = iss.SwitchingSignal(0.0, (0.5, 1.0), ("a", "a", "a"), 1.5)
        model = scalar_model(a=-2.0, j=0.5)
        traj = iss.simulate(model, sig, [4.0], iss.zero_input(), 1e-3)
        expected = 4.0 * math.exp(-3.0) * 0.5**2
        assert traj.final_state()[0] == pytest.approx(expected, rel=1e-9)

    def test_rows_share_time_at_jumps(self):
        sig = iss.SwitchingSignal(0.0, (0.5,), ("a", "a"), 1.0)
        traj = iss.simulate(scalar_model(j=0.1), sig, [1.0], iss.zero_input(), 1e-2)
        times, states, _, _ = traj.samples
        at_jump = np.flatnonzero(times == 0.5)
        assert len(at_jump) == 2
        assert traj.jump_flags()[at_jump].tolist() == [0, 1]
        assert states[at_jump[1]][0] == pytest.approx(0.1 * states[at_jump[0]][0])

    @pytest.mark.parametrize("instants, horizon", [((0.5,), 1.0), ((0.3, 0.6), 1.0),
                                                    ((0.5, 1.0), 1.0),
                                                    ((0.3, 0.6, 1.2, 1.95), 2.0)])
    def test_rows_match_jump_records(self, instants, horizon):
        # The third case ends on a switching instant: a zero-length final
        # segment.  In the fourth, x' = 60 x + u from t = 1 on passes 1e12
        # before t = 1.95: the records of the NonFiniteError partial
        # trajectory.  Two modes with the same maps, so records name both.
        def flow(t, x, u):
            return (-1.0 if t < 1.0 else 60.0) * x + u

        def jump(t, x, u):
            return 0.1 * x + 0.5 * u

        model = iss.SystemModel({p: flow for p in "ab"}, {p: jump for p in "ab"}, 1, 1)
        modes = ("a", "b", "a", "b", "a")[:len(instants) + 1]
        sig = iss.SwitchingSignal(0.0, instants, modes, horizon)
        inp = iss.sinusoid_input([1.0], 3.0)
        try:
            traj, partial = iss.simulate(model, sig, [1.0], inp, 1e-2), False
        except NonFiniteError as e:
            traj, partial = e.partial, True
        records = jumps(traj)
        assert partial == (horizon == 2.0)
        assert len(records) == len(traj.segments) - 1 == (3 if partial else len(instants))
        for k, (t, before, after, pre, post) in enumerate(records, start=1):
            assert (t, before, after) == (sig.instants[k - 1], sig.modes[k - 1], sig.modes[k])
            assert np.array_equal(pre, traj.segments[k - 1].states[-1])
            # The jump map sees the input half a step before the instant.
            assert np.array_equal(post, jump(t, pre, inp(t - 1e-2 / 2)))
        expected = []
        for k, seg in enumerate(traj.segments):
            expected += [(float(t), seg.mode, x, int(k > 0 and i == 0))
                         for i, (t, x) in enumerate(zip(seg.times, seg.states))]
        times, states, modes, _ = traj.samples
        rows = list(zip(times.tolist(), modes.tolist(), states, traj.jump_flags().tolist()))
        assert [(t, p, f) for t, p, _, f in rows] == [(t, p, f) for t, p, _, f in expected]
        assert all(np.array_equal(a[2], b[2]) for a, b in zip(rows, expected))
        assert sum(f for *_, f in rows) == len(records)

    def test_pre_jump_input_sample(self):
        # Jump x -> x + u must use u just before the switch, not after.
        model = iss.SystemModel(
            flows={"a": lambda t, x, u: np.zeros_like(x)},
            jumps={"a": lambda t, x, u: x + u},
            state_dim=1,
            input_dim=1,
        )
        sig = iss.SwitchingSignal(0.0, (1.0,), ("a", "a"), 2.0)
        inp = iss.step_input([5.0], [-5.0], 1.0)
        traj = iss.simulate(model, sig, [0.0], inp, 1e-2)
        assert jumps(traj)[0][4][0] == pytest.approx(5.0)


class TestGuards:
    def test_step_too_large(self):
        sig = iss.SwitchingSignal(0.0, (0.1,), ("a", "a"), 1.0)
        with pytest.raises(StepTooLargeError):
            iss.simulate(scalar_model(), sig, [1.0], iss.zero_input(), 0.2)

    @pytest.mark.parametrize("t0", [0.0, 10.0, 1000.0])
    def test_step_check_is_relative_to_the_signal_times(self, t0):
        # At t0 = 1000 the gap 1000.3 - 1000.2 rounds to 0.0999999999999;
        # a step of 0.1 still fits it, one step per segment.
        sig = iss.SwitchingSignal(t0, (t0 + 0.1, t0 + 0.2, t0 + 0.3), ("a",) * 4, t0 + 0.4)
        traj = iss.simulate(scalar_model(), sig, [1.0], iss.zero_input(), 0.1)
        assert [len(seg.times) for seg in traj.segments] == [2] * 4
        with pytest.raises(StepTooLargeError):
            iss.simulate(scalar_model(), sig, [1.0], iss.zero_input(), 0.2)

    def test_a_step_past_the_time_scaled_slack_is_refused(self):
        # The slack is 1e-9 of the largest |t|: 1e-6 here, and 1e-5 is past it.
        sig = iss.SwitchingSignal(1000.0, (1000.5,), ("a", "a"), 1001.0)
        with pytest.raises(StepTooLargeError):
            iss.simulate(scalar_model(), sig, [1.0], iss.zero_input(), 0.5 + 1e-5)

    def test_non_finite_partial(self):
        model = iss.SystemModel(
            flows={"a": lambda t, x, u: x**2},
            jumps={"a": lambda t, x, u: x},
            state_dim=1,
            input_dim=1,
        )
        with pytest.raises(NonFiniteError) as exc:
            iss.simulate(model, single_mode(2.0), [10.0], iss.zero_input(), 1e-3)
        partial = exc.value.partial
        assert partial is not None
        assert partial.horizon < 2.0
        assert np.linalg.norm(partial.final_state()) > 1e12 or not np.all(
            np.isfinite(partial.final_state()))

    def test_bad_step_and_state(self):
        with pytest.raises(ValueError):
            iss.simulate(scalar_model(), single_mode(), [1.0], iss.zero_input(), 0.0)
        with pytest.raises(ValueError):
            iss.simulate(scalar_model(), single_mode(), [math.nan], iss.zero_input(), 1e-3)


class TestSampling:
    """The Monte-Carlo reachability estimate, now the oracle of
    ``bounds.window_gains``."""

    def test_reachability_zero_data(self):
        assert reachability_bound(scalar_model(), single_mode(), 0.0, 0.0, 1.0, 5) == 0.0

    def test_reachability_contraction(self):
        # Stable zero-input flow never exceeds the initial ball.
        bound = reachability_bound(scalar_model(a=-1.0), single_mode(), 2.0, 0.0,
                                   1.0, 20, step=1e-2, seed=1)
        assert bound <= 2.0 * (1 + 1e-9)

    def test_reachability_expansion(self):
        model = scalar_model(a=1.0)
        bound = reachability_bound(model, single_mode(), 1.0, 0.0, 1.0, 60,
                                   step=1e-2, seed=2)
        assert bound >= math.e * 0.8  # sampled x0 norms fill most of the ball



# --------------------------------------------------------------------------
# The linear propagator against the generic RK4 loop (its reference).

ACC9_SIGNAL = iss.SwitchingSignal(0.0, (1.0, 1.25, 2.25, 2.5), ("s", "u", "s", "u", "s"), 3.5)
PLANAR_SIGNAL = iss.SwitchingSignal(0.0, (0.7, 1.3), ("a", "a", "a"), 2.0)


def acc9_model():
    return iss.LinearSystemModel(
        A={"s": [[-1.25]], "u": [[0.4]]}, B={"s": [[0.5]], "u": [[0.5]]},
        J={"s": [[0.1]], "u": [[0.1]]}, H={"s": [[0.0]], "u": [[0.0]]})


def planar_model():
    # The 2-D system of TestFlows.test_matrix_oracle.
    return iss.LinearSystemModel(
        A={"a": [[0.0, 1.0], [-2.0, -0.5]]}, B={"a": [[0.0], [1.0]]},
        J={"a": np.eye(2)}, H={"a": np.zeros((2, 1))})


def acc9_certificate(eta_s):
    v = iss.quadratic_v([[1.0]])
    return iss.Certificate(
        V={"s": v, "u": v},
        alpha1=iss.power_cf(1.0, 2.0), alpha2=iss.power_cf(1.0, 2.0),
        alpha3=iss.power_cf(1.0, 2.0), chi=iss.power_cf(32.0, 2.0),
        phi={"s": iss.linear_rate(eta_s), "u": iss.linear_rate(1.0)},
        psi={"s": iss.linear_rate(0.01), "u": iss.linear_rate(0.01)},
        partition=iss.ModePartition(frozenset({"s"}), frozenset({"u"})),
        dwell=iss.DwellSpec({"s": 1.0, "u": 0.25}, 0.2, T_S=1.0, T_U=0.25),
    )


def planar_certificate():
    # V sits below alpha1 off the x1 axis, is not a Lyapunov function of the
    # planar flow, and the identity jump does not contract it: every check
    # reports rows.
    return iss.Certificate(
        V={"a": iss.quadratic_v(np.diag([1.0, 0.5]))},
        alpha1=iss.power_cf(1.0, 2.0), alpha2=iss.power_cf(1.0, 2.0),
        alpha3=iss.power_cf(1.0, 2.0), chi=iss.power_cf(0.1, 2.0),
        phi={"a": iss.linear_rate(-0.1)}, psi={"a": iss.linear_rate(0.5)},
        partition=iss.ModePartition(frozenset({"a"}), frozenset()),
        dwell=iss.DwellSpec({"a": 1.0}, 0.5),
    )


CASES = {
    "acc9": (acc9_model, ACC9_SIGNAL, [2.0],
             (acc9_certificate(-1.0), acc9_certificate(-10.0))),
    "planar": (planar_model, PLANAR_SIGNAL, [1.0, -0.5], (planar_certificate(),)),
}
INPUTS = {
    "zero": iss.zero_input(),
    "constant": iss.constant_input([0.7]),
    "sinusoid": iss.sinusoid_input([0.5], 2.0, 0.3),
    "step": iss.step_input([1.0], [-2.0], 1.7),
}


def report_rows(reports):
    return [row[:3] for row in reports.rows()]


def same_trajectory(a, b):
    """Equal segment modes, times and states, bit for bit."""
    return [s.mode for s in a.segments] == [s.mode for s in b.segments] and all(
        np.array_equal(sa.times, sb.times) and np.array_equal(sa.states, sb.states)
        for sa, sb in zip(a.segments, b.segments))


class TestBatch:
    @pytest.mark.parametrize("generic", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_equals_its_solo_simulate(self, case, generic):
        # Two starts under every input kind, as one batch of eight runs.
        make_model, sig, x0, _ = CASES[case]
        model = make_model().to_system_model() if generic else make_model()
        x0s = [np.array(x0) * c for c in (1.0, -3.0) for _ in INPUTS]
        inputs = [INPUTS[name] for _ in (1.0, -3.0) for name in sorted(INPUTS)]
        batch = iss.simulate_batch(model, sig, x0s, inputs, 1e-3)
        assert len(batch) == len(x0s)
        for traj, x0_r, inp in zip(batch, x0s, inputs):
            alone = iss.simulate(model, sig, x0_r, inp, 1e-3)
            assert traj.input is inp and traj.step == 1e-3
            assert same_trajectory(traj, alone)
            assert [j[:3] for j in jumps(traj)] == [j[:3] for j in jumps(alone)]

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_bits_do_not_depend_on_batch_size(self, n):
        # Each run's scan products have the same shapes whatever R is, so a
        # run of a batch of 20 is its solo run bit for bit.
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n)) - 2 * np.eye(n)
        model = iss.LinearSystemModel(A={"a": A}, B={"a": rng.standard_normal((n, 1))},
                                      J={"a": 0.5 * np.eye(n)}, H={"a": np.zeros((n, 1))})
        x0s = [rng.standard_normal(n) for _ in range(20)]
        inputs = [iss.sinusoid_input([rng.uniform()], rng.uniform(1.0, 3.0))
                  for _ in range(20)]
        batch = iss.simulate_batch(model, PLANAR_SIGNAL, x0s, inputs, 1e-3)
        for traj, x0, inp in zip(batch, x0s, inputs):
            assert same_trajectory(traj, iss.simulate(model, PLANAR_SIGNAL, x0, inp, 1e-3))

    def test_scalar_bits_do_not_depend_on_batch_size(self, monkeypatch):
        # At n = 1 the runs are innermost in the group arrays and every
        # product is elementwise, so a run of the mc_bound batch (20 runs, the
        # constant and sinusoid inputs that bound's Monte-Carlo draws) is
        # still its solo run bit for bit.
        drawn = {}
        monkeypatch.setattr(cli, "simulate_batch", lambda model, sig, x0s, inputs, step:
                            drawn.update(x0s=x0s, inputs=inputs) or [])
        monkeypatch.setattr(cli, "iss_check_batch", lambda *args: ((), 0.0))
        cli._monte_carlo(acc9_model(), ACC9_SIGNAL, None, 20, 2.0, 1.0, 1e-3, seed=1)
        x0s, inputs = drawn["x0s"], drawn["inputs"]
        assert {np.array_equal(inp(0.1), inp(0.7)) for inp in inputs} == {True, False}
        batch = iss.simulate_batch(acc9_model(), ACC9_SIGNAL, x0s, inputs, 1e-3)
        for traj, x0, inp in zip(batch, x0s, inputs):
            assert same_trajectory(traj, iss.simulate(acc9_model(), ACC9_SIGNAL, x0, inp, 1e-3))

    def test_first_failing_run_in_run_order(self):
        # x' = 30 x: the run from 1e3 crosses the limit first in time (near
        # t = 0.69), the one from 1 (near t = 0.92) first in run order.
        model = iss.LinearSystemModel(A={"a": [[30.0]]}, B={"a": [[1.0]]},
                                      J={"a": [[1.0]]}, H={"a": [[0.0]]})
        with pytest.raises(NonFiniteError) as alone:
            iss.simulate(model, single_mode(2.0), [1.0], iss.zero_input(), 1e-3)
        with pytest.raises(NonFiniteError) as batch:
            iss.simulate_batch(model, single_mode(2.0), [[0.0], [1.0], [1e3]],
                               [iss.zero_input()] * 3, 1e-3)
        assert str(batch.value) == str(alone.value)
        assert same_trajectory(batch.value.partial, alone.value.partial)

    def test_failing_batch_samples_every_group(self):
        # x' = 30 x from 1e6 passes the limit near t = 0.46, in the first of
        # two segments.  That run comes first, so its error is the batch's
        # whatever the run from 1 does later.  Every run is carried to the
        # horizon before the ranges are checked, so the second segment's
        # group is sampled all the same, up to t = 2.
        model = iss.LinearSystemModel(A={"a": [[30.0]]}, B={"a": [[1.0]]},
                                      J={"a": [[1.0]]}, H={"a": [[0.0]]})
        latest = []

        def at_times(ts):
            latest.append(ts.max())
            return np.zeros((len(ts), 1))
        inp = iss.InputSignal(lambda t: np.zeros(1), 0.0, at_times)
        sig = iss.SwitchingSignal(0.0, (0.5,), ("a", "a"), 2.0)
        with pytest.raises(NonFiniteError) as alone:
            iss.simulate(model, sig, [1e6], inp, 1e-3)
        with pytest.raises(NonFiniteError) as batch:
            iss.simulate_batch(model, sig, [[1e6], [1.0]], [inp, inp], 1e-3)
        assert str(batch.value) == str(alone.value)
        assert same_trajectory(batch.value.partial, alone.value.partial)
        assert max(latest) == 2.0

    def test_a_failure_has_sampled_the_rest_of_its_group(self):
        # As above with two segments of 0.5 s: one (mode, N) group, whose
        # input is sampled on both segments before the loop over them.
        # The run fails in the first segment all the same, with the error of
        # the segment-by-segment oracle, which samples only up to 0.5.
        model = iss.LinearSystemModel(A={"a": [[30.0]]}, B={"a": [[1.0]]},
                                      J={"a": [[1.0]]}, H={"a": [[0.0]]})
        sig = iss.SwitchingSignal(0.0, (0.5,), ("a", "a"), 1.0)
        errors, latest = [], []
        for simulate_runs in (iss.simulate_batch, simulate_per_segment):
            inp, calls = recording_input()
            with pytest.raises(NonFiniteError) as exc:
                simulate_runs(model, sig, [[1e6]], [inp], 1e-3)
            errors.append(exc.value)
            latest.append(max(calls))
        assert str(errors[0]) == str(errors[1])
        partial, ref = errors[0].partial, errors[1].partial
        assert len(partial.segments) == len(ref.segments) == 1
        assert np.array_equal(partial.samples[0], ref.samples[0])
        assert np.allclose(partial.samples[1], ref.samples[1], rtol=1e-12, atol=0)
        assert latest == [1.0, 0.5]

    def test_jump_blow_up(self):
        sig = iss.SwitchingSignal(0.0, (0.5,), ("a", "a"), 1.0)
        model = iss.LinearSystemModel(A={"a": [[0.0]]}, B={"a": [[1.0]]},
                                      J={"a": [[1e13]]}, H={"a": [[0.0]]})
        with pytest.raises(NonFiniteError) as alone:
            iss.simulate(model, sig, [1.0], iss.zero_input(), 1e-2)
        with pytest.raises(NonFiniteError) as batch:
            iss.simulate_batch(model, sig, [[0.0], [1.0]], [iss.zero_input()] * 2, 1e-2)
        assert str(batch.value) == str(alone.value) == "jump at t=0.5 produced non-finite state"
        assert same_trajectory(batch.value.partial, alone.value.partial)

    @pytest.mark.parametrize("case", ["early_jump", "early_flow", "horizon_jump"])
    def test_blown_up_run_passes_through_later_groups(self, case):
        # Diagonal 2 x 2 maps, so a run at inf meets the zero entries of every
        # later power and jump as 0 * inf = NaN.  The segments of a, b, a, c
        # form three groups, and the last instant is the horizon, whose
        # single sample follows the jump of c.  Run 1 fails first in run
        # order, run 2 no later in time, run 0 never.  Early jump: both at
        # the jump of a at 0.5, whose 1e200 takes them to inf at the next
        # jump of a.  Early flow: x' = 5000 x passes 1e12 in the third step
        # from 1 (the first from 1e6) and nears 1e272 by 0.5, inf after the
        # jump.  Horizon jump: run 1 at the jump of c on the horizon, run 2
        # at inf from the second jump of a on.
        fa, ja, jc, x0s, input_name, error = {
            "early_jump": (-1.0, 1e200, 1.0, [[0.0, 1.0], [1.0, 1.0], [1e6, 0.0]], "sinusoid",
                           "jump at t=0.5 produced non-finite state"),
            "early_flow": (5000.0, 1e100, 1.0, [[0.0, 1.0], [1.0, 1.0], [1e6, 0.0]], "sinusoid",
                           "state norm exceeded 1e+12 at t=0.03"),
            "horizon_jump": (-1.0, 1e200, 1e15, [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]], "zero",
                             "jump at t=2.0 produced non-finite state"),
        }[case]
        diag = {"a": ((fa, -1.0), (ja, 0.5)), "b": ((-1.0, -2.0), (1.0, 1.0)),
                "c": ((-0.5, -1.0), (1.0, jc))}
        model = iss.LinearSystemModel(
            A={p: np.diag(a) for p, (a, _) in diag.items()},
            B={p: [[0.0], [1.0]] for p in diag},
            J={p: np.diag(j) for p, (_, j) in diag.items()},
            H={p: np.zeros((2, 1)) for p in diag})
        sig = iss.SwitchingSignal(0.0, (0.5, 0.75, 1.25, 2.0), ("a", "b", "a", "c", "a"), 2.0)
        inputs = [INPUTS[input_name]] * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteError) as alone:
                iss.simulate(model, sig, x0s[1], inputs[1], 1e-2)
            with pytest.raises(NonFiniteError) as batch:
                iss.simulate_batch(model, sig, x0s, inputs, 1e-2)
            with pytest.raises(NonFiniteError) as oracle:
                simulate_per_segment(model, sig, x0s, inputs, 1e-2)
        assert str(batch.value) == str(alone.value) == str(oracle.value) == error
        assert same_trajectory(batch.value.partial, alone.value.partial)
        assert [len(s.times) for s in batch.value.partial.segments] == \
            [len(s.times) for s in oracle.value.partial.segments]

    def test_guards_raise_as_simulate(self):
        model, inputs = acc9_model(), [iss.zero_input()] * 2
        with pytest.raises(StepTooLargeError) as alone:
            iss.simulate(model, ACC9_SIGNAL, [1.0], inputs[0], 0.3)
        with pytest.raises(StepTooLargeError) as batch:
            iss.simulate_batch(model, ACC9_SIGNAL, [[1.0], [2.0]], inputs, 0.3)
        assert str(batch.value) == str(alone.value)
        with pytest.raises(ValueError, match="initial state must be finite"):
            iss.simulate(model, ACC9_SIGNAL, [math.inf], inputs[0], 1e-2)
        with pytest.raises(ValueError, match="initial state must be finite"):
            iss.simulate_batch(model, ACC9_SIGNAL, [[1.0], [math.nan]], inputs, 1e-2)

    def test_empty_horizon_and_empty_batch(self):
        sig = iss.SwitchingSignal(0.0, (), ("s",), 0.0)
        batch = iss.simulate_batch(acc9_model(), sig, [[1.0], [2.0]], [iss.zero_input()] * 2,
                                   1e-3)
        assert [t.final_state().tolist() for t in batch] == [[1.0], [2.0]]
        assert iss.simulate_batch(acc9_model(), ACC9_SIGNAL, [], [], 1e-3) == []


class TestLinearPropagator:
    @pytest.mark.parametrize("input_name", sorted(INPUTS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_generic_loop(self, case, input_name):
        make_model, sig, x0, certs = CASES[case]
        inp = INPUTS[input_name]
        model = make_model()
        lin = iss.simulate(model, sig, x0, inp, 1e-3)
        ref = iss.simulate(model.to_system_model(), sig, x0, inp, 1e-3)

        assert [s.mode for s in lin.segments] == [s.mode for s in ref.segments]
        assert [len(s.times) for s in lin.segments] == [len(s.times) for s in ref.segments]
        for a, b in zip(lin.segments, ref.segments):
            assert np.array_equal(a.times, b.times)
        assert [j[:3] for j in jumps(lin)] == [j[:3] for j in jumps(ref)]

        # Rounding of the fixed step map compounds with the step count, so
        # states agree to 1e-11 of the trajectory's scale, not bit for bit.
        scale = ref.sup_norm()
        for a, b in zip(lin.segments, ref.segments):
            assert np.all(np.linalg.norm(a.states - b.states, axis=1) <= 1e-11 * scale)
        for a, b in zip(jumps(lin), jumps(ref)):
            assert np.linalg.norm(a[4] - b[4]) <= 1e-11 * scale

        for cert in certs:
            assert report_rows(iss.check_trajectory(cert, lin, inp)) == \
                report_rows(iss.check_trajectory(cert, ref, inp))

    def test_non_finite_partial_matches_generic(self):
        # x' = 30 x from x0 = 1 crosses the 1e12 limit near t = 0.92.
        model = iss.LinearSystemModel(A={"a": [[30.0]]}, B={"a": [[1.0]]},
                                      J={"a": [[1.0]]}, H={"a": [[0.0]]})
        partials = []
        for m in (model, model.to_system_model()):
            with pytest.raises(NonFiniteError) as exc:
                iss.simulate(m, single_mode(2.0), [1.0], iss.zero_input(), 1e-3)
            partials.append(exc.value.partial)
        lin, ref = partials
        assert len(lin.samples[0]) == len(ref.samples[0])
        assert lin.horizon == ref.horizon
        assert 0.9 < lin.horizon < 0.95
        assert np.linalg.norm(lin.final_state()) > 1e12

        # In a batch the run from x0 = 1 raises what it raises alone; the
        # runs from 1e-20 and 0 stay below the limit up to t = 2.
        for m in (model, model.to_system_model()):
            with pytest.raises(NonFiniteError) as alone:
                iss.simulate(m, single_mode(2.0), [1.0], iss.zero_input(), 1e-3)
            with pytest.raises(NonFiniteError) as batch:
                iss.simulate_batch(m, single_mode(2.0), [[1e-20], [1.0], [0.0]],
                                   [iss.zero_input()] * 3, 1e-3)
            assert str(batch.value) == str(alone.value)
            assert same_trajectory(batch.value.partial, alone.value.partial)

    @pytest.mark.parametrize("input_name", ["zero", "sinusoid"])
    def test_segment_alone_is_bit_identical(self, input_name):
        # Eight cycles of s for 1.0 and u for 0.25 revisit each mode at the
        # same step h = 0.01, and the last u segment (0.333 in 34 steps)
        # needs another; every segment rebuilt alone must give the very same
        # states as the whole simulate run.
        instants, modes, t = [], ["s"], 0.0
        for k in range(15):
            t += 1.0 if k % 2 == 0 else 0.25
            instants.append(t)
            modes.append("u" if k % 2 == 0 else "s")
        sig = iss.SwitchingSignal(0.0, tuple(instants), tuple(modes), t + 0.333)
        model, inp = acc9_model(), INPUTS[input_name]
        traj = iss.simulate(model, sig, [2.0], inp, 1e-2)
        for seg in traj.segments:
            a, b = float(seg.times[0]), float(seg.times[-1])
            _, alone = one_segment(model, seg.mode, a, b, seg.states[0], inp, 1e-2)
            assert np.array_equal(alone, seg.states)

    def test_dimensions(self):
        model = planar_model()
        assert (model.state_dim, model.input_dim) == model.dims == (2, 1)

    def test_sampling_estimators_accept_linear_model(self):
        model = iss.LinearSystemModel(A={"a": [[1.0]]}, B={"a": [[1.0]]},
                                      J={"a": [[1.0]]}, H={"a": [[0.0]]})
        lin = reachability_bound(model, single_mode(), 1.0, 0.5, 1.0, 5, step=1e-2, seed=4)
        ref = reachability_bound(model.to_system_model(), single_mode(), 1.0, 0.5, 1.0, 5,
                                 step=1e-2, seed=4)
        assert lin == pytest.approx(ref, rel=1e-12)


class TestPrefixScan:
    @pytest.mark.parametrize("input_name", sorted(INPUTS))
    @pytest.mark.parametrize("case, mode", [("acc9", "s"), ("acc9", "u"), ("planar", "a")])
    def test_matches_longdouble_recurrence(self, case, mode, input_name):
        # The scan sums each state's terms in log2 N passes; against the
        # same affine recurrence in np.longdouble it stays within N * eps
        # of the trajectory's scale over N = 17 500 steps.
        make_model, _, x0, _ = CASES[case]
        model, inp, x0 = make_model(), INPUTS[input_name], np.array(x0)
        times, states = one_segment(model, mode, 0.0, 3.5, x0, inp, 2e-4)
        n_steps = len(times) - 1
        assert n_steps == 17500
        step_map = _step_map(model.A[mode], model.B[mode], 3.5 / n_steps)
        ref = linear_flow_stepwise(step_map, times, [x0], [inp], np.longdouble)[0]
        scale = np.max(np.linalg.norm(ref.astype(float), axis=1))
        deviation = np.linalg.norm((states - ref).astype(float), axis=1)
        assert np.max(deviation) <= n_steps * np.finfo(float).eps * scale

    def test_overflowing_powers_keep_a_zero_run_zero(self):
        # x' = 30 x: P^4096 overflows, so 10 000 steps take three chunks.
        # From 0 under zero input every state stays 0, as step by step.
        model = iss.LinearSystemModel(A={"a": [[30.0]]}, B={"a": [[1.0]]},
                                      J={"a": [[1.0]]}, H={"a": [[0.0]]})
        step_map = _step_map(model.A["a"], model.B["a"], 1e-2)
        with np.errstate(over="ignore"):
            powers = _doubling_powers([step_map[0]], 10000)
        assert np.all(np.isfinite(powers)) and 2 ** len(powers) < 10000
        traj = iss.simulate(model, single_mode(100.0), [0.0], iss.zero_input(), 1e-2)
        assert len(traj.samples[0]) == 10001
        assert not np.any(traj.samples[1])

    def test_chunks_carry_the_state(self):
        # x1' = 30 x1 stays at 0 while x2' = -x2 + u decays: the scan runs in
        # chunks and each carries its last state into the next.
        model = iss.LinearSystemModel(A={"a": np.diag([30.0, -1.0])},
                                      B={"a": [[0.0], [1.0]]},
                                      J={"a": np.eye(2)}, H={"a": np.zeros((2, 1))})
        x0, inp = np.array([0.0, 1.0]), INPUTS["sinusoid"]
        traj = iss.simulate(model, single_mode(100.0), x0, inp, 1e-2)
        times, states = traj.samples[:2]
        step_map = _step_map(model.A["a"], model.B["a"], 1e-2)
        ref = linear_flow_stepwise(step_map, times, [x0], [inp])[0]
        assert not np.any(states[:, 0]) and not np.any(ref[:, 0])
        deviation = np.linalg.norm(states - ref, axis=1)
        assert np.max(deviation) <= 1e4 * np.finfo(float).eps * traj.sup_norm()


def long_switching_signal(tiles=1):
    """The seed-1 ``long_switching`` benchmark signal (K = 40) with its 40
    durations before the last repeated ``tiles`` times: K = 40 * tiles."""
    sig = _alternating_signal(np.random.default_rng(1), 40)
    durations = np.diff([sig["t0"], *sig["instants"], sig["horizon"]]).tolist()
    durations = durations[:40] * tiles + durations[40:]
    modes = sig["modes"][:40] * tiles + sig["modes"][40:]
    # Dyadic durations: every instant is an exact sum.
    return iss.SwitchingSignal(0.0, tuple(np.cumsum(durations)[:-1].tolist()), tuple(modes),
                               float(sum(durations)))


def switching_model(n, seed=0):
    """Modes s (contracting) and u (expanding) of dimension n with a jump
    input H != 0; at n = 1, the acceptance-9 flows."""
    if n == 1:
        return iss.LinearSystemModel(
            A={"s": [[-1.25]], "u": [[0.4]]}, B={"s": [[0.5]], "u": [[0.5]]},
            J={"s": [[0.1]], "u": [[0.1]]}, H={"s": [[0.3]], "u": [[-0.2]]})
    rng = np.random.default_rng(seed)
    mats = {name: {p: rng.standard_normal(shape) for p in "su"}
            for name, shape in (("A", (n, n)), ("B", (n, 1)), ("J", (n, n)), ("H", (n, 1)))}
    mats["A"]["s"] = 0.2 * mats["A"]["s"] - 1.25 * np.eye(n)
    mats["A"]["u"] = 0.2 * mats["A"]["u"] + 0.4 * np.eye(n)
    mats["J"] = {p: 0.1 * J for p, J in mats["J"].items()}
    return iss.LinearSystemModel(**mats)


def recording_input():
    """A sinusoid input that records the largest time of each ``sample`` call."""
    calls = []
    base = iss.sinusoid_input([0.5], 2.0, 0.3)

    def at_times(ts):
        calls.append(ts.max())
        return base.sample(ts)
    return iss.InputSignal(base.func, base.sup_norm, at_times), calls


class TestGroupedScan:
    """The scans per (mode, N) group against the per-segment oracle."""

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("n", [1, 4])
    def test_matches_per_segment_oracle(self, n, runs):
        sig, model = long_switching_signal(10), switching_model(n)
        assert len(sig.instants) == 400
        rng = np.random.default_rng(n)
        x0s = [2.0 * rng.standard_normal(n) for _ in range(runs)]
        inputs = [INPUTS[name] for name in ("sinusoid", "step", "constant")[:runs]]
        batch = iss.simulate_batch(model, sig, x0s, inputs, LONG_STEP)
        oracle = simulate_per_segment(model, sig, x0s, inputs, LONG_STEP)
        eps = np.finfo(float).eps
        for traj, ref, inp in zip(batch, oracle, inputs):
            times, states, modes, starts = traj.samples
            ref_times, ref_states, ref_modes, ref_starts = ref.samples
            assert np.array_equal(times, ref_times) and np.array_equal(starts, ref_starts)
            assert np.array_equal(modes, ref_modes)
            scale = ref.sup_norm()
            deviation = np.linalg.norm(states - ref_states, axis=1)
            assert np.max(deviation) <= (len(times) - 1) * eps * scale
            for t, before, _, pre, post in jumps(traj):
                u = inp(t - LONG_STEP / 2)
                assert np.array_equal(post, model.J[before] @ pre + model.H[before] @ u)

    @pytest.mark.parametrize("x0s", [[[1.0]], [[0.0], [1.0], [2.0]]])
    def test_blow_up_in_a_later_segment_of_a_group(self, x0s):
        # x' = 30 x in mode a: the run from 1 reaches 3.3e6 in the first a
        # segment and passes 1e12 only in the second, of the same length and
        # so of the same group; b in between decays.  The error is the
        # oracle's, message and partial trajectory.
        model = iss.LinearSystemModel(A={"a": [[30.0]], "b": [[-1.0]]},
                                      B={"a": [[1.0]], "b": [[1.0]]},
                                      J={"a": [[1.0]], "b": [[1.0]]},
                                      H={"a": [[0.0]], "b": [[0.0]]})
        sig = iss.SwitchingSignal(0.0, (0.5, 0.625), ("a", "b", "a"), 1.125)
        inputs = [iss.zero_input()] * len(x0s)
        with pytest.raises(NonFiniteError) as batch:
            iss.simulate_batch(model, sig, x0s, inputs, 1e-2)
        with pytest.raises(NonFiniteError) as oracle:
            simulate_per_segment(model, sig, x0s, inputs, 1e-2)
        assert str(batch.value) == str(oracle.value)
        partial, ref = batch.value.partial, oracle.value.partial
        assert len(partial.segments) == len(ref.segments) == 3
        assert np.max(np.abs(partial.segments[0].states)) < 1e7
        assert np.array_equal(partial.samples[0], ref.samples[0])
        scale = np.max(np.abs(ref.samples[1]))
        assert np.allclose(partial.samples[1], ref.samples[1], rtol=0, atol=1e-13 * scale)

    def test_last_sample_out_of_range_fails_the_segment(self):
        # The first a segment ends on its first state out of range, 1.1e12;
        # the jump x -> 1e-3 x would bring it back.  The run fails there, as
        # step by step, not at a jump nor (after the jump) not at all.
        model = iss.LinearSystemModel(A={"a": [[30.0]], "b": [[-1.0]]},
                                      B={"a": [[1.0]], "b": [[1.0]]},
                                      J={"a": [[1e-3]], "b": [[1.0]]},
                                      H={"a": [[0.0]], "b": [[0.0]]})
        sig = iss.SwitchingSignal(0.0, (0.5,), ("a", "b"), 1.0)
        x0 = 1.1e12 / _step_map(model.A["a"], model.B["a"], 1e-2)[0][0, 0] ** 50
        partials = []
        for m in (model, model.to_system_model()):
            with pytest.raises(NonFiniteError) as exc:
                iss.simulate(m, sig, [x0], iss.zero_input(), 1e-2)
            assert str(exc.value) == "state norm exceeded 1e+12 at t=0.5"
            partials.append(exc.value.partial)
        lin, ref = partials
        assert [len(s.times) for s in lin.segments] == [len(s.times) for s in ref.segments] == [51]
        assert np.abs(lin.segments[0].states[-2:, 0]) == pytest.approx([8.15e11, 1.1e12], rel=1e-3)

    def test_excursion_inside_a_segment(self):
        # x1' = -x1 + 1e3 x2 from x2 = 1e10 passes 1e12 near t = 0.11, peaks
        # near 3.7e12 at t = 1 and is back below 1e11 by t = 8, the end of
        # the first segment: the run fails inside it, as in the oracle.
        model = iss.LinearSystemModel(A={"a": [[-1.0, 1e3], [0.0, -1.0]]},
                                      B={"a": [[0.0], [1.0]]},
                                      J={"a": np.eye(2)}, H={"a": np.zeros((2, 1))})
        sig = iss.SwitchingSignal(0.0, (8.0,), ("a", "a"), 9.0)
        x0s, inputs = [[0.0, 0.0], [0.0, 1e10]], [iss.zero_input()] * 2
        errors = []
        for simulate_runs in (iss.simulate_batch, simulate_per_segment):
            with pytest.raises(NonFiniteError) as exc:
                simulate_runs(model, sig, x0s, inputs, 1e-2)
            errors.append(exc.value)
        assert str(errors[0]) == str(errors[1])
        assert 0.1 < errors[0].partial.horizon < 0.15
        assert np.array_equal(errors[0].partial.samples[0], errors[1].partial.samples[0])
        assert np.linalg.norm(expm(8.0 * model.A["a"]) @ x0s[1]) < 1e11

    def test_zero_start_through_overflowing_segments(self):
        # x1' = 30 x1: P^3000 overflows in each of three 30 s segments of one
        # group.  From x1 = 0 under zero forcing x1 stays exactly 0 across the
        # jumps, while x2' = -x2 + u decays as in the oracle.
        model = iss.LinearSystemModel(A={"a": np.diag([30.0, -1.0])},
                                      B={"a": [[0.0], [1.0]]},
                                      J={"a": np.eye(2)}, H={"a": np.zeros((2, 1))})
        sig = iss.SwitchingSignal(0.0, (30.0, 60.0), ("a", "a", "a"), 90.0)
        step_map = _step_map(model.A["a"], model.B["a"], 1e-2)
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(np.linalg.matrix_power(step_map[0], 3000)))
        x0s, inputs = [[0.0, 0.0], [0.0, 1.0]], [iss.zero_input(), INPUTS["sinusoid"]]
        batch = iss.simulate_batch(model, sig, x0s, inputs, 1e-2)
        oracle = simulate_per_segment(model, sig, x0s, inputs, 1e-2)
        assert not np.any(batch[0].samples[1])
        assert not np.any(batch[1].samples[1][:, 0])
        deviation = np.abs(batch[1].samples[1] - oracle[1].samples[1])
        assert np.max(deviation) <= 1e4 * np.finfo(float).eps * oracle[1].sup_norm()

    def test_one_sample_call_per_run_and_group(self):
        # K = 40: 41 segments in 5 (mode, N) groups.
        sig = long_switching_signal()
        groups = {(p, math.ceil((b - a) / LONG_STEP)) for a, b, p in sig.segments()}
        assert len(sig.segments()) == 41 and len(groups) == 5
        (a, a_calls), (b, b_calls) = recording_input(), recording_input()
        model = switching_model(1)
        iss.simulate_batch(model, sig, [[1.0], [2.0]], [a, b], LONG_STEP)
        assert len(a_calls) == len(b_calls) == 5
        simulate_per_segment(model, sig, [[1.0]], [a], LONG_STEP)
        assert len(a_calls) == 5 + 41

    @pytest.mark.parametrize("n", [1, 4])
    def test_step_sizes_within_a_group(self, n):
        # The K = 40 durations shortened by up to 1 %: the instants are no
        # longer exact sums and every segment has its own step size h, but
        # the step counts, and so the 5 groups, stay.  Each segment is the
        # oracle's within N eps of the scale, and the same bits as when it
        # is simulated alone from its start.
        sig = long_switching_signal()
        durations = np.diff([sig.t0, *sig.instants, sig.horizon])
        durations *= 1 - 0.01 * np.random.default_rng(5).uniform(size=len(durations))
        sig = iss.SwitchingSignal(0.0, tuple(np.cumsum(durations)[:-1].tolist()), sig.modes,
                                  float(np.sum(durations)))
        steps = [(b - a) / math.ceil((b - a) / LONG_STEP) for a, b, _ in sig.segments()]
        assert len(set(steps)) == 41
        model, (inp, calls) = switching_model(n), recording_input()
        x0 = np.full(n, 2.0)
        (traj,) = iss.simulate_batch(model, sig, [x0], [inp], LONG_STEP)
        assert len(calls) == 5
        (ref,) = simulate_per_segment(model, sig, [x0], [inp], LONG_STEP)
        assert np.array_equal(traj.samples[0], ref.samples[0])
        deviation = np.linalg.norm(traj.samples[1] - ref.samples[1], axis=1)
        assert np.max(deviation) <= len(deviation) * np.finfo(float).eps * ref.sup_norm()
        for seg in traj.segments:
            times, states = one_segment(model, seg.mode, seg.times[0], seg.times[-1],
                                        seg.states[0], inp, LONG_STEP)
            assert np.array_equal(times, seg.times) and np.array_equal(states, seg.states)


class TestInputArrays:
    STEP = 1e-2
    T_SWITCH = 0.5

    def times(self):
        grid = np.linspace(0.0, 1.0, 101)
        # The step's switching instant, the midpoints of RK4 steps and the
        # half-step sample u(t_i - step/2) taken before a jump at t_i.
        return np.concatenate([grid, grid[:-1] + self.STEP / 2,
                               [self.T_SWITCH, self.T_SWITCH - self.STEP / 2]])

    @pytest.mark.parametrize("m", [1, 2])
    def test_factories_match_pointwise(self, m):
        a = np.arange(1.0, m + 1)
        inputs = [
            iss.zero_input(m),
            iss.constant_input(a),
            iss.step_input(a, -2 * a, self.T_SWITCH),
        ]
        ts = self.times()
        for inp in inputs:
            arr = inp.sample(ts)
            assert arr.shape == (len(ts), m)
            np.testing.assert_array_equal(arr, np.array([inp(t) for t in ts]))
        # numpy's vectorised sin may differ from math.sin by a few ulp.
        inp = iss.sinusoid_input(a, 3.0, 0.2)
        np.testing.assert_array_max_ulp(inp.sample(ts), np.array([inp(t) for t in ts]),
                                        maxulp=4)

    def test_step_is_right_continuous(self):
        inp = iss.step_input([1.0, 2.0], [3.0, 4.0], self.T_SWITCH)
        arr = inp.sample([self.T_SWITCH - self.STEP / 2, self.T_SWITCH])
        assert arr.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_plain_signal_is_stacked(self):
        inp = iss.InputSignal(lambda t: [t, -t], 1.0)
        assert inp.sample([0.0, 0.5]).tolist() == [[0.0, -0.0], [0.5, -0.5]]
