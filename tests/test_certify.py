import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isscert as iss
from isscert.certify import DEFAULT_DINI_COEFF, FORMS
from isscert.construct import decrease_check
from isscert.errors import DegenerateGapError, SignAmbiguousError
from isscert.simulate import Segment, Trajectory

from conftest import JUMP_KINDS, make_family_certificate, make_family_model, of_kind
import oracles


def scalar_cert(eta=-1.0, psi_eta=0.5, tau=1.0, delta=0.5, chi_c=1.0):
    stable = eta < 0
    partition = iss.ModePartition(
        frozenset({"a"}) if stable else frozenset(),
        frozenset() if stable else frozenset({"a"}),
    )
    return iss.Certificate(
        V={"a": iss.quadratic_v([[1.0]])},
        alpha1=iss.power_cf(1.0, 2.0),
        alpha2=iss.power_cf(1.0, 2.0),
        alpha3=iss.power_cf(1.0, 2.0),
        chi=iss.power_cf(chi_c, 2.0),
        phi={"a": iss.linear_rate(eta)},
        psi={"a": iss.linear_rate(psi_eta)},
        partition=partition,
        dwell=iss.DwellSpec({"a": tau}, delta),
    )


def scalar_traj(a=-1.0, x0=1.0, horizon=1.0, u=None, step=1e-3, instants=(), j=0.1):
    modes = ("a",) * (len(instants) + 1)
    sig = iss.SwitchingSignal(0.0, instants, modes, horizon)
    model = iss.LinearSystemModel(
        A={"a": [[a]]}, B={"a": [[1.0]]}, J={"a": [[j]]}, H={"a": [[0.0]]}
    ).to_system_model()
    inp = u if u is not None else iss.zero_input()
    return iss.simulate(model, sig, [x0], inp, step), inp


class TestSandwich:
    def test_exact_envelope_passes(self):
        cert = scalar_cert()
        traj, inp = scalar_traj()
        assert not of_kind(iss.check_trajectory(cert, traj, inp), "sandwich")

    def test_violation_reported(self):
        cert = scalar_cert()
        object.__setattr__(cert, "alpha1", iss.power_cf(2.0, 2.0))  # above V = x^2
        traj, inp = scalar_traj()
        reports = of_kind(iss.check_trajectory(cert, traj, inp), "sandwich")
        assert reports and set(reports.kind) == {"sandwich"}
        assert (reports.margin > 0).all()


class TestFlowImplication:
    def test_true_rate_passes(self):
        # V = x^2, flow a = -1 gives exactly dV/dt = -2 V with zero input.
        cert = scalar_cert(eta=-2.0)
        traj, inp = scalar_traj(a=-1.0)
        assert not of_kind(iss.check_trajectory(cert, traj, inp), "flow")

    def test_too_fast_rate_fails(self):
        cert = scalar_cert(eta=-3.0)
        traj, inp = scalar_traj(a=-1.0)
        reports = of_kind(iss.check_trajectory(cert, traj, inp), "flow")
        assert reports and set(reports.kind) == {"flow"}

    def test_threshold_gates_small_values(self):
        # With a large input the trajectory stays below chi(||u||inf),
        # so a wrong rate goes unchecked.
        cert = scalar_cert(eta=-3.0, chi_c=100.0)
        traj, inp = scalar_traj(a=-1.0, x0=0.5, u=iss.constant_input([1.0]))
        assert not of_kind(iss.check_trajectory(cert, traj, inp), "flow")

    def test_dini_tolerance_shrinks_with_step(self):
        # A marginal violation hides under the step-linear tolerance at a
        # coarse step and surfaces as the step shrinks.
        cert = scalar_cert(eta=-2.001)
        coarse, inp = scalar_traj(a=-1.0, step=0.1)
        fine, _ = scalar_traj(a=-1.0, step=1e-4)
        assert not of_kind(iss.check_trajectory(cert, coarse, inp), "flow")
        assert of_kind(iss.check_trajectory(cert, fine, inp), "flow")


class TestJumpImplication:
    def test_contraction_passes(self):
        cert = scalar_cert(psi_eta=0.5)
        traj, inp = scalar_traj(instants=(0.5,), j=0.1)  # V jumps by 0.01
        assert not of_kind(iss.check_trajectory(cert, traj, inp), *JUMP_KINDS)

    def test_expansion_fails(self):
        cert = scalar_cert(psi_eta=0.5)
        traj, inp = scalar_traj(instants=(0.5,), j=0.9)  # V jumps by 0.81 > 0.5
        reports = of_kind(iss.check_trajectory(cert, traj, inp), *JUMP_KINDS)
        assert reports and reports.kind[0] == "jump"

    def test_small_input_branch(self):
        cert = scalar_cert(psi_eta=1e-6, chi_c=100.0)
        traj, inp = scalar_traj(x0=0.1, u=iss.constant_input([1.0]), instants=(0.5,), j=1.0)
        # Pre-jump V sits below chi(1) = 100; post-jump V <= alpha3(1) = 1.
        assert not of_kind(iss.check_trajectory(cert, traj, inp), *JUMP_KINDS)


class TestDissipation:
    def test_additive_slack(self):
        # dV/dt = -2V + 2xu <= -2V + chi(||u||inf) with chi = s^2 + ... here
        # checked empirically: a generous chi absorbs the cross term.
        cert = scalar_cert(eta=-2.0, chi_c=10.0)
        traj, inp = scalar_traj(a=-1.0, u=iss.constant_input([1.0]))
        assert not of_kind(iss.check_trajectory(cert, traj, inp, "dissipation"), "flow", "jump")

    def test_no_gating(self):
        # Unlike the implication form, small V values are still checked
        # (with the step tolerance suppressed so tiny slopes are visible).
        cert = scalar_cert(eta=-5.0, chi_c=1e-9)
        traj, inp = scalar_traj(a=-1.0, x0=0.01)
        assert of_kind(iss.check_trajectory(cert, traj, inp, "dissipation", dini_coeff=0.0),
                       "flow", "jump")


class TestClosedFormDwell:
    def test_stable_frozen(self):
        # mu_tilde = 2 with equal rates |eta| = 2: lhs = ln(2)/2 ~ 0.3466.
        first, second = iss.closed_form_dwell(-2.0, -2.0, 2.0, 0.5, 0.2, stable=True)
        assert first == pytest.approx(math.log(2.0) / 2.0)
        assert second == pytest.approx(0.4)
        assert first <= second

    def test_unstable_frozen(self):
        # mu_tilde = 0.2 with |eta| = 1: -ln(0.2) ~ 1.609 >= tau(1+delta) = 1.3.
        first, second = iss.closed_form_dwell(1.0, 1.0, 0.2, 1.0, 0.3, stable=False)
        assert first == pytest.approx(1.3)
        assert second == pytest.approx(-math.log(0.2))
        assert first <= second

    def test_rate_mismatch_shifts_mu(self):
        # mu_tilde = mu * exp(|eta_before| - |eta_after|).
        first, _ = iss.closed_form_dwell(-2.0, -1.0, 1.0, 1.0, 0.1, stable=True)
        assert first == pytest.approx(math.log(math.exp(1.0)) / 2.0)


class TestDwellConditions:
    def test_family_passes(self, family_signal, family_certificate):
        reports = iss.check_dwell_conditions(family_certificate, family_signal,
                                             [1.0, 100.0, 1e4])
        assert set(reports.kind) <= {"dwell-inconclusive"}

    def test_short_dwell_fails(self, family_signal):
        cert = make_family_certificate(family_signal)
        bad = iss.DwellSpec({"s": 1.0, "u": 5.0}, 0.2, cert.dwell.T_S, cert.dwell.T_U)
        from dataclasses import replace
        reports = iss.check_dwell_conditions(replace(cert, dwell=bad),
                                             family_signal, [1.0])
        kinds = set(reports.kind)
        assert "dwell-condition" in kinds or "dwell-closed-form" in kinds

    def test_non_finite_difference_is_inconclusive(self, family_signal, family_certificate):
        # Phi_s of power(-1, 40) is -inf below about 1.2e-8 (beyond the
        # floats): at a = 1e-12 every switch, out of s or into it, has a
        # non-finite transform difference and is inconclusive; a = 1 passes.
        cert = replace(family_certificate,
                       phi={**family_certificate.phi, "s": iss.power_rate(-1.0, 40.0)})
        reports = iss.check_dwell_conditions(cert, family_signal, [1e-12, 1.0])
        assert [row[:2] for row in reports.rows()] == \
            [("dwell-inconclusive", t) for t in family_signal.instants]
        assert np.isnan(reports.lhs).all() and np.isnan(reports.rhs).all()

    def test_argument_outside_the_domain_is_inconclusive(self, family_signal,
                                                         family_certificate):
        # psi_s = s^3 underflows to 0 at a = 1e-120 and overflows to inf at
        # a = 1e120, both outside Phi's domain: inconclusive at those levels
        # of every switch out of s, point by point; a = 1 passes.
        cert = replace(family_certificate,
                       psi={**family_certificate.psi, "s": iss.power_rate(1.0, 3.0)})
        reports = iss.check_dwell_conditions(cert, family_signal, [1e-120, 1.0, 1e120])
        out_of_s = family_signal.instants[::2]
        assert [row[:2] for row in reports.rows()] == \
            [("dwell-inconclusive", t) for t in out_of_s for _ in range(2)]

    def test_grid_validation(self, family_signal, family_certificate):
        with pytest.raises(ValueError):
            iss.check_dwell_conditions(family_certificate, family_signal, [])
        with pytest.raises(ValueError):
            iss.check_dwell_conditions(family_certificate, family_signal, [-1.0])


class TestClassification:
    """The declared partition must match the sign of each flow rate."""

    @staticmethod
    def certificate(phi):
        return iss.Certificate(
            V={"a": iss.quadratic_v([[1.0]])},
            alpha1=iss.power_cf(1.0, 2.0),
            alpha2=iss.power_cf(1.0, 2.0),
            alpha3=iss.power_cf(1.0, 2.0),
            chi=iss.power_cf(1.0, 2.0),
            phi={"a": phi},
            psi={"a": iss.linear_rate(0.5)},
            partition=iss.ModePartition(frozenset({"a"}), frozenset()),
            dwell=iss.DwellSpec({"a": 1.0}, 0.5),
        )

    def test_ambiguous_sign(self):
        with pytest.raises(SignAmbiguousError):
            self.certificate(iss.tabulated_rate([(1.0, -1.0), (2.0, 3.0)]))  # crosses zero

    def test_wrong_declaration_rejected(self):
        with pytest.raises(ValueError):
            self.certificate(iss.linear_rate(1.0))


class TestDecreasingCheck:
    def test_all_negative_nonexpansive(self):
        cert = scalar_cert(eta=-1.0, psi_eta=1.0)
        assert iss.check_decreasing_certificate(cert)

    def test_positive_rate_fails(self):
        cert = scalar_cert(eta=1.0, psi_eta=0.5)
        assert not iss.check_decreasing_certificate(cert)

    def test_expansive_jump_fails(self):
        cert = scalar_cert(eta=-1.0, psi_eta=1.5)
        assert not iss.check_decreasing_certificate(cert)


class TestConversion:
    def test_frozen_rate(self):
        cert = scalar_cert(eta=-1.0, psi_eta=1.0, tau=1.0, delta=0.5)
        conv = iss.dissipation_to_implication(cert)
        assert conv.phi["a"].eta == pytest.approx(-0.8)
        assert conv.psi["a"].eta == pytest.approx(math.exp(0.1))
        assert conv.dwell.delta == pytest.approx(0.25)

    def test_small_delta_continuity(self):
        cert = scalar_cert(eta=-1.0, psi_eta=1.0, tau=1.0, delta=1e-3)
        conv = iss.dissipation_to_implication(cert)
        assert conv.phi["a"].eta == pytest.approx(-1.0, abs=1e-3)
        assert conv.psi["a"].eta == pytest.approx(1.0, abs=1e-3)

    def test_degenerate_gap(self):
        cert = scalar_cert(eta=-1e-12, psi_eta=1.0, tau=1.0, delta=0.5)
        with pytest.raises(DegenerateGapError):
            iss.dissipation_to_implication(cert)

    def test_requires_linear(self):
        cert = scalar_cert()
        object.__setattr__(cert, "phi", {"a": iss.power_rate(-1.0, 2.0)})
        with pytest.raises(ValueError):
            iss.dissipation_to_implication(cert)

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(0.1, 5.0),
        st.floats(0.1, 3.0),
        st.floats(0.05, 0.95),
        st.floats(0.0, 1.0),
    )
    def test_converted_dwell_margin(self, eta_mag, tau, delta, frac):
        """If the original closed-form dwell condition holds with margin
        delta, the converted rates satisfy it with margin delta/2."""
        mu_t = math.exp(frac * eta_mag * tau * (1 - delta))
        cert = scalar_cert(eta=-eta_mag, psi_eta=mu_t, tau=tau, delta=delta)
        conv = iss.dissipation_to_implication(cert)
        first, second = iss.closed_form_dwell(
            conv.phi["a"].eta, conv.phi["a"].eta, abs(conv.psi["a"].eta),
            tau, conv.dwell.delta, stable=True)
        assert first <= second + 1e-9


class TestLyapunovHelpers:
    def test_quadratic(self):
        v = iss.quadratic_v([[2.0, 0.0], [0.0, 1.0]])
        assert v(0.0, np.array([1.0, 2.0])) == pytest.approx(6.0)

    def test_norm_power(self):
        v = iss.norm_power_v(2.0, 3.0)
        assert v(0.0, np.array([3.0, 4.0])) == pytest.approx(250.0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_a_state_alone_equals_its_row_in_a_stack(self, n):
        rng = np.random.default_rng(n)
        states = rng.normal(size=(200, n)) * rng.lognormal(0.0, 4.0, size=(200, 1))
        A = rng.normal(size=(n, n))
        for v in (iss.quadratic_v(A @ A.T + np.eye(n)), iss.norm_power_v(0.7, 2.3)):
            stack = v(np.zeros(200), states)
            assert stack.shape == (200,)
            alone = [v(0.0, x) for x in states]
            assert all(type(a) is float for a in alone)
            assert np.array_equal(stack, alone)
            assert np.array_equal(stack[50:120], v(np.zeros(70), states[50:120]))

    def test_quadratic_needs_a_square_matrix_and_states_to_match(self):
        with pytest.raises(ValueError, match="square"):
            iss.quadratic_v([[1.0, 0.0]])
        with pytest.raises(ValueError, match="2 components"):
            iss.quadratic_v(np.eye(2))(0.0, np.ones(3))


def every_kind_case():
    """x' = -2x + u, V = x^2, u = 0.1: the first jump happens above chi(0.1) =
    0.1 and the second below it, and the certificate is wrong everywhere:
    alpha1 sits above V, phi is too fast, psi too small and alpha3 tiny."""
    cert = iss.Certificate(
        V={"a": iss.quadratic_v([[1.0]])},
        alpha1=iss.power_cf(2.0, 2.0),
        alpha2=iss.power_cf(1.0, 2.0),
        alpha3=iss.power_cf(1e-6, 2.0),
        chi=iss.power_cf(10.0, 2.0),
        phi={"a": iss.linear_rate(-5.0)},
        psi={"a": iss.linear_rate(0.5)},
        partition=iss.ModePartition(frozenset({"a"}), frozenset()),
        dwell=iss.DwellSpec({"a": 1.0}, 0.5),
    )
    traj, inp = scalar_traj(a=-2.0, x0=3.0, horizon=3.0, u=iss.constant_input([0.1]),
                            step=1e-2, instants=(0.5, 2.5), j=0.9)
    return cert, traj, inp


class TestCheckTrajectory:
    def test_family_certificate(self, family_signal, family_certificate):
        traj = iss.simulate(make_family_model(), family_signal, [3.0],
                            iss.sinusoid_input([0.8], omega=1.3), 1e-3)
        inp = traj.input
        for form in FORMS:
            assert iss.check_trajectory(family_certificate, traj, inp, form).rows() == \
                oracles.trajectory_reports(family_certificate, traj, inp, form, DEFAULT_DINI_COEFF)

    def test_v_evaluated_once_per_sample(self):
        # V is elementwise over the rows of x: every sample is passed to it
        # exactly once, as a row of some call.
        cert, traj, inp = every_kind_case()
        rows = []
        quadratic = cert.V["a"]

        def counted(t, x):
            rows.extend(zip(np.atleast_1d(t).tolist(), np.atleast_2d(x).tolist()))
            return quadratic(t, x)

        counting = replace(cert, V={"a": counted})
        times, states, _, _ = traj.samples
        every_sample = sorted(zip(times.tolist(), states.tolist()))
        reports = iss.check_trajectory(counting, traj, inp)
        assert sorted(rows) == every_sample
        assert reports.rows() == iss.check_trajectory(cert, traj, inp).rows()
        rows.clear()
        iss.check_trajectory(counting, traj, inp, form="dissipation")
        assert sorted(rows) == every_sample

    def test_v_must_give_one_value_per_row(self):
        cert, traj, inp = every_kind_case()
        quadratic = cert.V["a"]
        for wrong in (lambda t, x: 1.0, lambda t, x: quadratic(t, x)[:, None]):
            with pytest.raises(ValueError, match="mode 'a'.*one per sample"):
                iss.check_trajectory(replace(cert, V={"a": wrong}), traj, inp)

    def test_unknown_form(self):
        cert, traj, inp = every_kind_case()
        with pytest.raises(ValueError):
            iss.check_trajectory(cert, traj, inp, form="disipation")


def jump_trajectory(v_pre, v_post):
    """Hand-built one-mode trajectory, V = |x|, with one jump at t = 1 taking
    V from v_pre to v_post."""
    pre, post = np.array([v_pre]), np.array([v_post])
    segments = (
        Segment("a", np.array([0.0, 0.5, 1.0]), np.array([[v_pre], [v_pre], pre])),
        Segment("a", np.array([1.0, 1.5, 2.0]), np.array([post, [v_post], [v_post]])),
    )
    sig = iss.SwitchingSignal(0.0, (1.0,), ("a", "a"), 2.0)
    return sig, Trajectory(segments, iss.zero_input(), 0.5)


class TestRelativeJumpTolerance:
    """Jumps are flagged above rhs + JUMP_TOL (1 + |rhs|) in both the
    certificate checks and the decreasing-function check: at rhs = 1e3 a
    relative excess of 1e-10 passes and one of 1e-6 is flagged."""

    RHS = 1e3

    def certificate(self):
        return iss.Certificate(
            V={"a": iss.norm_power_v(1.0, 1.0)},
            alpha1=iss.linear_cf(1.0),
            alpha2=iss.linear_cf(1.0),
            alpha3=iss.linear_cf(1.0),
            chi=iss.linear_cf(1.0),
            phi={"a": iss.linear_rate(-1.0)},
            psi={"a": iss.linear_rate(1.0)},
            partition=iss.ModePartition(frozenset({"a"}), frozenset()),
            dwell=iss.DwellSpec({"a": 1.0}, 0.5, 1.0, 0.0),
        )

    @pytest.mark.parametrize("excess, flagged", [(1e-10, False), (1e-6, True)])
    def test_certify(self, excess, flagged):
        _, traj = jump_trajectory(self.RHS, self.RHS * (1 + excess))
        reports = of_kind(iss.check_trajectory(self.certificate(), traj, iss.zero_input()),
                          *JUMP_KINDS)
        assert bool(reports) == flagged
        assert set(reports.kind) <= {"jump"} and (reports.rhs == self.RHS).all()

    @pytest.mark.parametrize("excess, flagged", [(1e-10, False), (1e-6, True)])
    def test_construct(self, excess, flagged):
        cert = self.certificate()
        sig, traj = jump_trajectory(self.RHS, self.RHS)
        dec = iss.DecreasingCertificate(cert, sig)
        w_pre = dec.compose(self.RHS, "a", "a", dec.h(1.0, side="left"))
        # The post-jump V whose W is w_pre (1 + excess).
        tr, h_post = dec.transforms["a"], dec.h(1.0)
        v_post = tr.inverse(tr.value(w_pre * (1 + excess)) - h_post)
        _, traj = jump_trajectory(self.RHS, v_post)
        reports, _ = decrease_check(dec, traj, iss.zero_input())
        jumps = of_kind(reports, "jump")
        assert bool(jumps) == flagged
        assert jumps.rhs == pytest.approx([self.RHS] * len(jumps), rel=1e-3)
