import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import isscert as iss
from isscert import bounds
from isscert.bounds import iss_check_batch, window_gains
from isscert.errors import DegenerateGammaError, DomainError, ImageNotFullError, StructuralError
from isscert.tolerance import REL_TOL

from conftest import FAMILY_ENVELOPES, make_family_certificate, mismatches
from oracles import iss_rows, reachability_runs, scalar_beta


def single_stable_cert(eta=-1.0, delta=0.5, T_S=0.0):
    return iss.Certificate(
        V={"a": iss.quadratic_v([[1.0]])},
        alpha1=iss.linear_cf(1.0),
        alpha2=iss.linear_cf(1.0),
        alpha3=iss.linear_cf(1.0),
        chi=iss.linear_cf(1.0),
        phi={"a": iss.linear_rate(eta)},
        psi={"a": iss.linear_rate(1.0)},
        partition=iss.ModePartition(frozenset({"a"}), frozenset()),
        dwell=iss.DwellSpec({"a": 1.0}, delta, T_S=T_S),
    )


class TestDecayInterpolant:
    def test_initial_value(self):
        assert iss.decay_interpolant(2.0, 0.0, 3.0, -1.0) == pytest.approx(5.0)

    def test_dominates_linear_decay(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = rng.uniform(-2, 2)
            v = rng.uniform(0, 10)
            C = rng.uniform(0, 3)
            m = u + C - rng.uniform(0, 5)
            val = iss.decay_interpolant(u, v, C, m)
            assert val >= u + C - v - 1e-12
            assert val >= m - 1e-12

    def test_zero_gap(self):
        assert iss.decay_interpolant(1.0, 7.0, 2.0, 3.0) == 3.0

    def test_negative_gap(self):
        with pytest.raises(DegenerateGammaError):
            iss.decay_interpolant(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(DegenerateGammaError):
            iss.decay_interpolant(np.array([[2.0], [0.0]]), [0.0, 1.0], 0.0, 1.0)

    def test_rows_are_the_one_level_calls(self):
        # A column of levels against a row of v: row i is the call at u[i],
        # bit for bit, the zero gap (u = m - C = 1) included.
        u = np.array([1.0, 1.5, 4.0, 1.0 + 1e-12, 30.0])
        v = np.concatenate([np.linspace(0.0, 20.0, 41), [1e6]])
        rows = iss.decay_interpolant(u[:, None], v, 2.0, 3.0)
        assert rows.shape == (len(u), len(v))
        for row, level in zip(rows, u.tolist()):
            assert same_bits(row, iss.decay_interpolant(level, v, 2.0, 3.0))
        assert np.all(rows[0] == 3.0)


def same_bits(got, want) -> bool:
    """Equal arrays of doubles, bit for bit (so -0.0 is not 0.0, and NaN
    matches the NaN of the same bits)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBuildBound:
    def test_frozen_single_stable(self):
        # Unit-magnitude rate, delta = 0.5, no slack: the Lyapunov-level
        # bound is r exp(-delta s), so at (1, 2) it equals e^{-1}.
        cert = single_stable_cert()
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                                iss.linear_rate(1.0))
        assert bound.case == "infinite-m"
        assert bound.C == 0.0
        assert bound.beta_tilde(1.0, 2.0) == pytest.approx(math.exp(-1.0))

    def test_slack_inflates(self):
        cert = single_stable_cert(T_S=2.0)
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                                iss.linear_rate(1.0))
        assert bound.C == pytest.approx(1.0)
        assert bound.beta_tilde(1.0, 0.0) == pytest.approx(math.e)

    def test_finite_floor_case(self):
        # Sublinear lower envelope: the transform image is bounded below,
        # so the decay saturates at the floor instead of reaching zero.
        cert = single_stable_cert()
        bound = iss.build_bound(cert, cert.dwell, iss.power_rate(1.0, 0.5),
                                iss.linear_rate(2.0))
        assert bound.case == "finite-m"
        assert bound.m == pytest.approx(-2.0)
        # Large s: both terms clamp to zero as the interpolant reaches the
        # floor and the upper-envelope argument leaves the image.
        assert bound.beta_tilde(1.0, 1e6) == 0.0
        # Moderate s: still strictly positive decay.
        assert 0.0 < bound.beta_tilde(1.0, 2.0) < bound.beta_tilde(1.0, 0.0)

    def test_image_bounded_above_refused(self):
        # A superlinear envelope's transform ends at a finite sup, which
        # beta's lift by C > 0 could pass; with C = 0 it never does.
        cert = single_stable_cert(T_S=1.0)
        for lower, upper in ((iss.power_rate(1.0, 2.0), iss.linear_rate(1.0)),
                             (iss.linear_rate(1.0), iss.power_rate(1.0, 2.0))):
            with pytest.raises(ImageNotFullError):
                iss.build_bound(cert, cert.dwell, lower, upper)
        cert = single_stable_cert()
        bound = iss.build_bound(cert, cert.dwell, iss.power_rate(1.0, 2.0),
                                iss.power_rate(1.0, 2.0))
        assert bound.C == 0.0 and bound.beta(1.0, 1.0) < 1.0

    def test_monotone(self):
        cert = single_stable_cert(T_S=1.0)
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                                iss.linear_rate(2.0))
        rs = [0.5, 1.0, 2.0, 5.0]
        ss = [0.0, 1.0, 3.0, 10.0, 50.0]
        for s in ss:
            vals = [bound.beta(r, s) for r in rs]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
        for r in rs:
            vals = [bound.beta(r, s) for s in ss]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_decay_to_zero(self):
        cert = single_stable_cert()
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                                iss.linear_rate(1.0))
        assert bound.beta(1.0, 200.0) < 1e-12

    def test_short_horizon_patch(self):
        cert = single_stable_cert(T_S=2.0)  # C = 1, patch window = 2
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                                iss.linear_rate(1.0), gains=(50.0, 7.0))
        assert bound.metadata["patched"] and not bound.metadata["t0_independent"]
        assert bound.metadata["patch"] == {"a": 50.0, "b": 7.0, "window": 2.0}
        assert bound.beta(1.0, 1.0) >= 50.0 and bound.beta(2.0, 2.0) >= 100.0
        assert bound.beta(1.0, 3.0) < 50.0  # beyond the window the decay rules
        assert bound.gamma(0.5) >= 3.5 and bound.gamma(0.0) == 0.0


class TestGainChain:
    def test_nested_levels(self):
        cert = single_stable_cert(T_S=1.0)
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                                iss.linear_rate(2.0))
        # In Lyapunov levels: chi <= gamma2 = max(alpha3, chi) <= alpha1(gamma).
        for u in (0.0, 0.3, 1.0, 7.0):
            chi, g2 = cert.chi(u), max(cert.alpha3(u), cert.chi(u))
            assert chi <= g2 + 1e-12
            assert g2 <= cert.alpha1(bound.gamma(u)) * (1 + 1e-12) + 1e-12

    def test_zero_input_zero_gain(self):
        cert = single_stable_cert()
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                                iss.linear_rate(1.0))
        assert bound.gamma(0.0) == 0.0

    def test_negative_input_rejected(self):
        cert = single_stable_cert()
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                                iss.linear_rate(1.0))
        with pytest.raises(DomainError):
            bound.gamma(-1.0)


class TestCertifyIss:
    """``iss_check_batch`` on one run against the row loop of ``tests/oracles.py``: the same
    reports in (kind, time, mode), and lhs, rhs and the largest margin
    within the array forms' tolerance (``conftest.mismatches``)."""

    def _family_bound(self, family_signal):
        cert = make_family_certificate(family_signal)
        return cert, iss.build_bound(cert, cert.dwell, *FAMILY_ENVELOPES)

    def _same_as_row_loop(self, bound, traj, x0, inp, reference_beta=None):
        reports, margin = iss_check_batch(bound, [traj], [x0], [inp])
        ref = bound if reference_beta is None else replace(bound, beta=reference_beta)
        want, want_margin = iss_rows(ref, traj, x0, inp)
        got = reports.rows()
        assert [r[:3] for r in got] == [r[:3] for r in want]
        assert mismatches([r[3:] for r in got], [r[3:] for r in want]) == []
        assert mismatches(margin, want_margin) == []
        return reports

    def test_family_zero_input(self, family_signal, family_model):
        cert, bound = self._family_bound(family_signal)
        x0 = [5.0]
        traj = iss.simulate(family_model.to_system_model(), family_signal,
                            x0, iss.zero_input(), 1e-3)
        assert not iss_check_batch(bound, [traj], [x0], [iss.zero_input()])[0]
        self._same_as_row_loop(bound, traj, x0, iss.zero_input(),
                               scalar_beta(cert, cert.dwell, *FAMILY_ENVELOPES)[1])

    def test_family_bounded_input(self, family_signal, family_model):
        cert, bound = self._family_bound(family_signal)
        x0 = [-3.0]
        inp = iss.sinusoid_input([1.0], omega=1.5)
        traj = iss.simulate(family_model.to_system_model(), family_signal,
                            x0, inp, 1e-3)
        assert not iss_check_batch(bound, [traj], [x0], [inp])[0]
        self._same_as_row_loop(bound, traj, x0, inp,
                               scalar_beta(cert, cert.dwell, *FAMILY_ENVELOPES)[1])

    def test_two_dimensional(self, family_signal):
        # Row norms for n = 2: rotating flows in both modes.
        model = iss.LinearSystemModel(
            A={"s": [[-1.0, 2.0], [-2.0, -1.0]], "u": [[0.3, 1.0], [-1.0, 0.3]]},
            B={"s": [[0.5], [0.2]], "u": [[0.5], [0.1]]},
            J={"s": [[0.1, 0.0], [0.0, 0.1]], "u": [[0.1, 0.02], [0.0, 0.1]]},
            H={"s": [[0.0], [0.0]], "u": [[0.0], [0.0]]},
        )
        cert, bound = self._family_bound(family_signal)
        x0 = [2.0, -1.5]
        inp = iss.sinusoid_input([0.7], omega=2.0)
        traj = iss.simulate(model.to_system_model(), family_signal, x0, inp, 1e-3)
        self._same_as_row_loop(bound, traj, x0, inp,
                               scalar_beta(cert, cert.dwell, *FAMILY_ENVELOPES)[1])
        # A bound far below the transient: every sample is reported.
        tight = replace(bound, beta=lambda r, s: 1e-3 * r * np.exp(-np.asarray(s)),
                        gamma=lambda s: 0.0)
        reports = self._same_as_row_loop(tight, traj, x0, inp)
        assert len(reports) == sum(len(seg.times) for seg in traj.segments)

    @pytest.mark.parametrize("runs", [1, 7, 30])
    def test_batch_is_the_runs_one_by_one(self, family_signal, family_model, runs):
        """A batch gives each run's reports, run after run, and the largest
        margin of them all: bit for bit those of one run at a time, and the
        row loop's within tolerance.  Random starts and inputs, x0 = 0 among
        them; a bound far below the transient reports samples of every run."""
        cert, bound = self._family_bound(family_signal)
        rng = np.random.default_rng(runs)
        x0s = [rng.uniform(-5.0, 5.0, 1) for _ in range(runs)]
        x0s[-1] = np.zeros(1)
        inputs = [iss.sinusoid_input(rng.uniform(0.0, 1.0, 1), rng.uniform(0.5, 5.0))
                  if rng.uniform() < 0.5 else iss.constant_input(rng.uniform(-1.0, 1.0, 1))
                  for _ in range(runs)]
        trajs = iss.simulate_batch(family_model, family_signal, x0s,
                                   inputs, 1e-2)
        reference = scalar_beta(cert, cert.dwell, *FAMILY_ENVELOPES)[1]
        # A beta over (runs, samples) and a gamma that ignores its argument.
        tight = replace(bound, beta=lambda r, s: 0.2 * r * np.exp(-np.asarray(s)),
                        gamma=lambda s: 0.0)
        for b, ref in ((bound, replace(bound, beta=reference)), (tight, tight)):
            reports, margin = iss_check_batch(b, trajs, x0s, inputs)
            one_by_one = [iss_check_batch(b, [traj], [x0], [inp])
                          for traj, x0, inp in zip(trajs, x0s, inputs)]
            want = iss.Reports.concat([r for r, _ in one_by_one])
            for got_column, want_column in zip(
                    (reports.kind, reports.time, reports.mode, reports.lhs, reports.rhs),
                    (want.kind, want.time, want.mode, want.lhs, want.rhs)):
                assert np.array_equal(got_column, want_column)
                assert got_column.tobytes() == want_column.tobytes()
            assert margin == max(m for _, m in one_by_one)
            loops = [iss_rows(ref, traj, x0, inp) for traj, x0, inp in zip(trajs, x0s, inputs)]
            rows = [row for run_rows, _ in loops for row in run_rows]
            assert [r[:3] for r in reports.rows()] == [r[:3] for r in rows]
            assert mismatches([r[3:] for r in reports.rows()], [r[3:] for r in rows]) == []
            assert mismatches(margin, max(m for _, m in loops)) == []
        assert len(reports) > runs  # the tight bound reports samples of every run

    @pytest.mark.parametrize("n", [1, 3, 8, 16])
    def test_batch_norms_are_those_of_the_samples(self, family_signal, n):
        # The check takes each run's norms segment by segment: bit for bit
        # the norms of its samples, at every n.
        cert, bound = self._family_bound(family_signal)
        rng = np.random.default_rng(n)
        model = iss.LinearSystemModel(
            A={p: rng.standard_normal((n, n)) / np.sqrt(n) - 2 * np.eye(n) for p in "su"},
            B={p: rng.standard_normal((n, 1)) for p in "su"},
            J={p: 0.5 * np.eye(n) for p in "su"}, H={p: rng.standard_normal((n, 1)) for p in "su"})
        x0s = [rng.uniform(-2.0, 2.0, n) for _ in range(5)]
        inputs = [iss.sinusoid_input([rng.uniform()], rng.uniform(0.5, 5.0)) for _ in x0s]
        trajs = iss.simulate_batch(model, family_signal, x0s, inputs, 1e-2)
        tight = replace(bound, beta=lambda r, s: 1e-9 * r * np.exp(-np.asarray(s)),
                        gamma=lambda s: 0.0)
        reports, _ = iss_check_batch(tight, trajs, x0s, inputs)
        norms = np.concatenate([np.linalg.norm(traj.samples[1], axis=1) for traj in trajs])
        assert reports.lhs.tobytes() == norms.tobytes()

    def test_batch_skips_nan_margins(self, family_signal, family_model):
        # A bound that is NaN early on: those samples are neither reported nor
        # counted in the margin, as the row loop's running max() skips them.
        cert, bound = self._family_bound(family_signal)
        x0s = [np.array([3.0]), np.zeros(1), np.array([-1.0])]
        inputs = [iss.zero_input()] * 3
        trajs = iss.simulate_batch(family_model, family_signal, x0s,
                                   inputs, 1e-2)
        nan_early = replace(bound, beta=lambda r, s: np.where(np.asarray(s) < 0.5, math.nan,
                                                              1e-3 * r + 0 * np.asarray(s)))
        reports, margin = iss_check_batch(nan_early, trajs, x0s, inputs)
        want = [iss_rows(nan_early, traj, x0, inp) for traj, x0, inp in zip(trajs, x0s, inputs)]
        assert math.isfinite(margin) and margin == max(m for _, m in want)
        assert reports.rows() == [row for rows, _ in want for row in rows]
        assert np.all(reports.time >= 0.5)

    def test_batch_peak_memory_is_one_block(self, family_signal, family_model):
        """The check's traced peak stays within a few arrays of one block,
        far below what caching every run's samples, or one (runs, samples)
        array, would take."""
        cert, bound = self._family_bound(family_signal)
        runs = 60
        x0s = [np.array([1.0 + 0.05 * j]) for j in range(runs)]
        inputs = [iss.sinusoid_input([0.5], 2.0)] * runs
        trajs = iss.simulate_batch(family_model, family_signal, x0s,
                                   inputs, 1e-3)
        n = len(trajs[0].samples[0])
        trajs[0].__dict__.pop("samples")
        assert runs * n > 10 * bounds.ISS_BLOCK_CELLS
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reports, margin = iss_check_batch(bound, trajs, x0s, inputs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert not reports and math.isfinite(margin)
        block = 8 * bounds.ISS_BLOCK_CELLS  # bytes of one block's float array
        assert peak < 8 * block, (peak, block)
        assert peak < 8 * runs * n  # one (runs, samples) array of doubles

    def test_fabricated_violation(self, family_signal, family_model):
        cert, bound = self._family_bound(family_signal)
        # Shrink beta far below the actual transient to force reports; this
        # beta ignores s and returns a scalar.
        tiny = replace(bound, beta=lambda r, s: 1e-9 * r, gamma=lambda s: 0.0)
        x0 = [5.0]
        traj = iss.simulate(family_model.to_system_model(), family_signal,
                            x0, iss.zero_input(), 1e-3)
        reports = iss_check_batch(tiny, [traj], [x0], [iss.zero_input()])[0]
        assert reports and set(reports.kind) == {"iss"}
        self._same_as_row_loop(tiny, traj, x0, iss.zero_input())


def random_linear_model(rng, n, m, shifts):
    """Two modes "p" and "q" with A = N(0, 0.8^2) entries + shift I (a
    negative shift makes the mode contract, a positive one expand) and
    nonzero B, J and H."""
    def normal(rows, cols, scale):
        return rng.normal(scale=scale, size=(rows, cols))
    modes = ("p", "q")
    return iss.LinearSystemModel(
        A={p: normal(n, n, 0.8) + shift * np.eye(n) for p, shift in zip(modes, shifts)},
        B={p: normal(n, m, 1.0) for p in modes},
        J={p: normal(n, n, 0.6) for p in modes},
        H={p: normal(n, m, 0.3) for p in modes})


class TestWindowGains:
    # Instants at 0.3, 0.7 and 1.2 on a horizon of 1.5: a window of 0.5 ends
    # inside a segment, one of 1.2 on an instant (its jump included), and
    # one of 3.0 runs past the horizon.
    SIGNAL = iss.SwitchingSignal(0.0, (0.3, 0.7, 1.2), ("p", "q", "p", "q"), 1.5)

    @pytest.mark.parametrize("window", [0.5, 1.2, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("shifts", [(-1.5, 0.8), (0.5, -2.0)], ids=["stable-first",
                                                                        "unstable-first"])
    def test_dominates_every_sampled_run(self, n, window, shifts):
        """Every run of the Monte-Carlo oracle stays within a ||x0|| + b D on
        the window: starts in the ball of radius 2, inputs bounded by 0.7
        (constants, sinusoids and one-switch steps), step 1e-3."""
        rng = np.random.default_rng(100 * n + int(10 * window))
        model = random_linear_model(rng, n, 2 if n > 1 else 1, shifts)
        a, b = window_gains(model, self.SIGNAL, window)
        x0s, inputs, trajs = reachability_runs(model, self.SIGNAL, 2.0, 0.7, window, 8,
                                               step=1e-3, seed=n)
        assert trajs[0].horizon == min(window, self.SIGNAL.horizon)
        for x0, inp, traj in zip(x0s, inputs, trajs):
            rhs = a * np.linalg.norm(x0) + b * inp.sup_norm
            assert traj.sup_norm() <= rhs * (1 + REL_TOL)

    @pytest.mark.parametrize("A, T", [(-0.7, 1.3), (0.0, 2.0), (0.9, 1.3), (2.5, 0.4)])
    def test_scalar_single_mode_closed_form(self, A, T):
        model = iss.LinearSystemModel(A={"a": [[A]]}, B={"a": [[-0.5]]},
                                      J={"a": [[3.0]]}, H={"a": [[1.0]]})
        sig = iss.SwitchingSignal(0.0, (), ("a",), 5.0)
        a, b = window_gains(model, sig, T)
        assert a == pytest.approx(max(1.0, math.exp(A * T)), rel=1e-15)
        forced = T if A == 0.0 else math.expm1(A * T) / A
        assert b == pytest.approx(0.5 * max(0.0, forced), rel=1e-15)

    def test_log_norm_of_a_shear(self):
        # x' = [[0, 2], [0, 0]] x has mu = 1 (the symmetric part's top
        # eigenvalue), though both eigenvalues of A are 0: from (0, 1) the
        # first coordinate grows as 2 t, so no bound of 1 holds.
        model = iss.LinearSystemModel(A={"a": [[0.0, 2.0], [0.0, 0.0]]}, B={"a": [[0.0], [0.0]]},
                                      J={"a": np.eye(2)}, H={"a": [[0.0], [0.0]]})
        sig = iss.SwitchingSignal(0.0, (), ("a",), 1.0)
        a, b = window_gains(model, sig, 1.0)
        assert a == pytest.approx(math.e, rel=1e-15) and b == 0.0
        traj = iss.simulate(model, sig, [0.0, 1.0], iss.zero_input(), 1e-3)
        assert 2.0 < traj.sup_norm() <= a

    def test_jump_uses_the_mode_left(self):
        # Flows that are still (A = 0, B = 0); the one jump at 1 leaves "p".
        model = iss.LinearSystemModel(A={"p": [[0.0]], "q": [[0.0]]},
                                      B={"p": [[0.0]], "q": [[0.0]]},
                                      J={"p": [[3.0]], "q": [[7.0]]},
                                      H={"p": [[2.0]], "q": [[5.0]]})
        sig = iss.SwitchingSignal(0.0, (1.0,), ("p", "q"), 2.0)
        assert window_gains(model, sig, 2.0) == (3.0, 2.0)
        assert window_gains(model, sig, 1.0) == (3.0, 2.0)  # the jump at the end counts
        assert window_gains(model, sig, 0.5) == (1.0, 0.0)

    def test_overflow_refused(self):
        model = iss.LinearSystemModel(A={"p": [[400.0]], "q": [[-1.0]]},
                                      B={"p": [[1.0]], "q": [[1.0]]},
                                      J={"p": [[1.0]], "q": [[1.0]]},
                                      H={"p": [[0.0]], "q": [[0.0]]})
        # e^400 is a float, e^800 is not: the product of two flows overflows.
        sig = iss.SwitchingSignal(0.0, (1.0, 1.5), ("p", "q", "p"), 2.5)
        assert math.isfinite(window_gains(model, sig, 1.0)[0])
        with pytest.raises(StructuralError, match="short-horizon patch"):
            window_gains(model, sig, 2.5)
        # One flow of e^(400 * 2) overflows on its own.
        with pytest.raises(StructuralError, match="short-horizon patch"):
            window_gains(model, iss.SwitchingSignal(0.0, (), ("p",), 2.0), 2.0)
        # ||B||^2 = 1e400 overflows before any flow, without a warning.
        huge = iss.LinearSystemModel(A=model.A, B={"p": [[1e200]], "q": [[1.0]]},
                                     J=model.J, H=model.H)
        with pytest.raises(StructuralError, match="short-horizon patch"):
            window_gains(huge, sig, 1.0)

    @pytest.mark.parametrize("a, b", [(40.0, 9.0), (1.0, 900.0)])
    def test_patched_bound_covers_the_gains(self, a, b):
        # With the gains inside build_bound, beta + gamma >= a r + b d on the
        # window for every r and d, whatever the decay formula gives there.
        cert = single_stable_cert(T_S=2.0)  # C = 1, patch window = 2
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                                iss.linear_rate(1.0), gains=(a, b))
        r = np.array([0.0, 1e-3, 0.5, 2.0, 30.0])[:, None]
        d = np.array([0.0, 1e-3, 0.2, 5.0])
        s = np.linspace(0.0, 2.0, 9)
        for dj in d.tolist():
            assert np.all(bound.beta(r, s) + bound.gamma(dj) >= a * r + b * dj)

