import inspect
import math

import numpy as np
import pytest

import isscert as iss
from isscert import jsonio
from isscert.construct import CorrectionLedger, decrease_check
from isscert.errors import ImageNotFullError

from conftest import make_family_certificate, make_family_model, make_family_signal


def single_stable(horizon=5.0, tau=1.0, delta=0.5):
    sig = iss.SwitchingSignal(0.0, (), ("a",), horizon)
    part = iss.ModePartition(frozenset({"a"}), frozenset())
    dwell = iss.DwellSpec({"a": tau}, delta)
    return sig, part, dwell


class TestCorrection:
    def test_single_stable_frozen(self):
        # One stable activation at t0, tau = 1, delta = 0.5: at t = 0.4 the
        # balance is (0.4 - 1)(1 - 0.5) = -0.3.
        sig, part, dwell = single_stable()
        assert CorrectionLedger(sig, part, dwell).h(0.4) == pytest.approx(-0.3)

    def test_clamped_at_zero(self):
        # Past the dwell time the balance turns positive and h stays 0.
        sig, part, dwell = single_stable()
        assert CorrectionLedger(sig, part, dwell).h(3.0) == 0.0

    def test_initial_value(self):
        sig, part, dwell = single_stable()
        assert CorrectionLedger(sig, part, dwell).h(0.0) == pytest.approx(-0.5)

    def test_left_limit_excludes_event(self):
        sig = iss.SwitchingSignal(0.0, (1.0,), ("a", "a"), 2.0)
        part = iss.ModePartition(frozenset({"a"}), frozenset())
        dwell = iss.DwellSpec({"a": 1.0}, 0.5)
        right = CorrectionLedger(sig, part, dwell).h(1.0)
        left = CorrectionLedger(sig, part, dwell).h(1.0, side="left")
        # The activation entering at t = 1 books a fresh dwell debit.
        assert right == pytest.approx(-0.5)
        assert left == pytest.approx(0.0)

    def test_bounded_range(self, family_signal, family_certificate):
        dec = iss.build_decreasing(family_certificate, family_signal,
                                   a_grid=[1.0, 100.0])
        lo = dec.h_bound()
        for t in np.linspace(family_signal.t0, family_signal.horizon, 200):
            h = dec.h(float(t))
            assert lo - 1e-9 <= h <= 0.0


class TestComposition:
    def test_frozen_w(self):
        # V = x^2, unit-rate transform, h = -0.3: W = x^2 e^{-0.3}.
        sig, part, dwell = single_stable()
        cert = iss.Certificate(
            V={"a": iss.quadratic_v([[1.0]])},
            alpha1=iss.power_cf(1.0, 2.0),
            alpha2=iss.power_cf(1.0, 2.0),
            alpha3=iss.power_cf(1.0, 2.0),
            chi=iss.power_cf(1.0, 2.0),
            phi={"a": iss.linear_rate(-1.0)},
            psi={"a": iss.linear_rate(1.0)},
            partition=part,
            dwell=dwell,
        )
        dec = iss.DecreasingCertificate(cert, sig)
        x = np.array([2.0])
        assert dec.w(0.4, x) == pytest.approx(4.0 * math.exp(-0.3))

    def test_zero_value(self, family_signal, family_certificate):
        dec = iss.DecreasingCertificate(family_certificate, family_signal)
        assert dec.w(0.5, np.array([0.0])) == 0.0

    def test_identity_when_uncorrected(self, family_signal, family_certificate):
        # Wherever h = 0 and no mode change is pending, W coincides with V.
        dec = iss.DecreasingCertificate(family_certificate, family_signal)
        t = family_signal.t0
        if dec.h(t) == 0.0:
            assert dec.w(t, np.array([3.0])) == pytest.approx(9.0)

    def test_w_below_v_at_flow_samples(self, family_signal, family_certificate,
                                       family_model):
        # h <= 0 and the same-mode composition is monotone, so W <= V at
        # every non-switching sample.
        dec = iss.build_decreasing(family_certificate, family_signal,
                                   a_grid=[1.0, 100.0])
        traj = iss.simulate(family_model.to_system_model(), family_signal,
                            [5.0], iss.zero_input(), 1e-3)
        instants = set(family_signal.instants)
        times, states, modes, _ = traj.samples
        for t, mode, x in zip(times.tolist(), modes.tolist(), states):
            if t in instants:
                continue
            v = float(family_certificate.V[mode](t, x))
            assert dec.w(t, x) <= v * (1 + 1e-9)


class TestBuildPreconditions:
    def test_image_not_full(self, family_signal):
        cert = make_family_certificate(family_signal)
        from dataclasses import replace
        bad = replace(cert, phi={"s": iss.power_rate(-1.0, 2.0),
                                 "u": cert.phi["u"]})
        with pytest.raises(ImageNotFullError):
            iss.build_decreasing(bad, family_signal)

    def test_dwell_condition_failure(self, family_signal):
        cert = make_family_certificate(family_signal)
        from dataclasses import replace
        bad = replace(cert, psi={"s": iss.linear_rate(50.0),
                                 "u": iss.linear_rate(50.0)})
        with pytest.raises(ValueError, match="dwell-linear at t=1.0 out of mode s"):
            iss.build_decreasing(bad, family_signal, a_grid=[1.0])

    def test_the_default_grid_is_the_config_default(self):
        default = inspect.signature(iss.build_decreasing).parameters["a_grid"].default
        assert list(default) == jsonio.parse_checks({})[1] == [1.0, 10.0, 100.0]

    def test_slack_exceeded(self, family_signal):
        cert = make_family_certificate(family_signal)
        from dataclasses import replace
        tight = replace(cert, dwell=iss.DwellSpec(cert.dwell.tau, cert.dwell.delta,
                                                  T_S=0.0, T_U=0.0))
        with pytest.raises(ValueError):
            iss.build_decreasing(tight, family_signal, a_grid=[1.0])


def acceptance9_case():
    """The acceptance-9 signal and certificate (T_S = 1, T_U = 0.25) on the
    family system, from x0 = 2 with zero input at step 2e-4."""
    sig = iss.SwitchingSignal(0.0, (1.0, 1.25, 2.25, 2.5), ("s", "u", "s", "u", "s"), 3.5)
    base = make_family_certificate(sig)
    cert = iss.Certificate(
        V=base.V, alpha1=base.alpha1, alpha2=base.alpha2, alpha3=base.alpha3,
        chi=base.chi, phi=base.phi, psi=base.psi, partition=base.partition,
        dwell=iss.DwellSpec(base.dwell.tau, 0.2, T_S=1.0, T_U=0.25),
    )
    dec = iss.build_decreasing(cert, sig, a_grid=[1.0, 100.0])
    traj = iss.simulate(make_family_model().to_system_model(), sig, [2.0],
                        iss.zero_input(), 2e-4)
    return dec, traj


class TestCertifyDecrease:
    def test_pre_jump_sample_uses_left_limit(self):
        # The last sample before t_i = 2.25 must carry h(2.25-) = -0.3, not
        # h(2.25) = 0; with the right limit W jumps up by e^{0.3} over the
        # final step and a spurious flow violation appears at t = 2.2498.
        dec, traj = acceptance9_case()
        assert not decrease_check(dec, traj, iss.zero_input())[0]

    def test_rows_follow_trajectory_rows(self):
        dec, traj = acceptance9_case()
        _, (t_column, _, _, h_column) = decrease_check(dec, traj, iss.zero_input())
        times = traj.samples[0].tolist()
        assert t_column.tolist() == times
        instants = dec.sig.instants
        for i, (t, flag) in enumerate(zip(times, traj.jump_flags().tolist())):
            if flag:
                assert t in instants
                # Pre-jump row: left limit; post-jump row: right limit.
                assert h_column[i - 1] == dec.h(t, side="left")
                assert h_column[i] == dec.h(t)
        assert dec.h(2.25, side="left") == pytest.approx(-0.3)
        assert dec.h(2.25) == 0.0

    def test_family_zero_input(self, family_signal, family_certificate, family_model):
        dec = iss.build_decreasing(family_certificate, family_signal,
                                   a_grid=[1.0, 100.0, 1e4])
        traj = iss.simulate(family_model.to_system_model(), family_signal,
                            [5.0], iss.zero_input(), 1e-3)
        assert not decrease_check(dec, traj, iss.zero_input())[0]

    def test_family_bounded_input(self, family_signal, family_certificate, family_model):
        dec = iss.build_decreasing(family_certificate, family_signal,
                                   a_grid=[1.0, 100.0, 1e4])
        inp = iss.sinusoid_input([0.8], omega=2.0)
        traj = iss.simulate(family_model.to_system_model(), family_signal,
                            [8.0], inp, 1e-3)
        assert not decrease_check(dec, traj, inp)[0]

    def test_zero_trajectory(self, family_signal, family_certificate, family_model):
        dec = iss.build_decreasing(family_certificate, family_signal,
                                   a_grid=[1.0])
        traj = iss.simulate(family_model.to_system_model(), family_signal,
                            [0.0], iss.zero_input(), 1e-3)
        assert not decrease_check(dec, traj, iss.zero_input())[0]

    def test_fabricated_jump_violation(self, family_signal, family_certificate):
        # An expanding jump map breaks the non-increase requirement at
        # switching instants even though the declared certificate is fine.
        dec = iss.build_decreasing(family_certificate, family_signal,
                                   a_grid=[1.0])
        model = iss.LinearSystemModel(
            A={"s": [[-1.25]], "u": [[0.4]]},
            B={"s": [[0.5]], "u": [[0.5]]},
            J={"s": [[3.0]], "u": [[3.0]]},
            H={"s": [[0.0]], "u": [[0.0]]},
        )
        traj = iss.simulate(model.to_system_model(), family_signal,
                            [5.0], iss.zero_input(), 1e-3)
        reports = decrease_check(dec, traj, iss.zero_input())[0]
        assert "jump" in reports.kind
